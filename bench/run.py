"""mpart benchmark: one workload, or all of them, from a seed.

Run from the root of a checkout (the program is imported from ./src):

    python3 bench/run.py --workload verify-stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``failed`` counts ops whose answer or exit code disagrees with the known
answer, or that raised an undocumented exception, and that are not
among the known failures recorded in ``known.json``; those are listed
but counted only in ``correct_frac``.  Times are corrected for the
host's speed (``hostspeed.py``); the report prints them uncorrected too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402

WORKLOADS = ("verify-stream", "build-stream", "canon-iso", "partition-tables")
SETUP_RUNS = 5  # timed interpreter starts before the workload, and as many after it
SETUP_CODE = "import mpart, time; mpart.get_bibd(7, 3, 1); print(time.perf_counter())"


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def time_setups(root: Path, runs: int) -> list[tuple[float, float]]:
    """Times from starting a fresh interpreter to the end of ``import mpart``
    and the first catalog ``get_bibd``, each with the host-speed factor
    measured by reference work for half as long right after it.

    perf_counter reads the system-wide monotonic clock, so the child's
    reading and the parent's start time compare directly.  One untimed
    start first writes the bytecode cache, as an installed package has.
    """
    times = []
    for n in range(runs + 1):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=_env(root),
                              capture_output=True, text=True, timeout=60, check=True)
        seconds = float(done.stdout.split()[-1]) - start
        if n:
            times.append((seconds, hostspeed.scale(*hostspeed.reference(seconds / 2))))
    return times


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(result: dict, units: dict) -> list[str]:
    n = result["attempted"]
    lines = [f"{result['workload']}: seed {result['seed']}, {result['rounds']} rounds of "
             f"{result['ops']} ops (each op timed by the median of its repeats), "
             f"{n} ops in {result['measured_s']:.2f} s of op time, "
             f"op list {result['op_list_hash']}"]
    for name, value in result["metrics"].items():
        unit = units[name]
        extra = ""
        if name == "op_p90_ms":
            tail = result["tail"]
            extra = (f"  (p{tail['percentile']:g} of {tail['samples']} ops, "
                     f"{tail['beyond']} beyond)")
        elif name in ("throughput_ops_s", "op_p50_ms"):
            extra = f"  (over the {result['ops']} ops' median times)"
        elif name == "correct_frac":
            wrong = result["failed"] + result["known_failed"]
            extra = (f"  (failed_frac {wrong / n:.4f} = {wrong}/{n}: "
                     f"{result['failed']} new, {result['known_failed']} known)")
        elif name == "decided_frac":
            extra = (f"  ({result['decided']}/{result['search_ops']} search ops decided; "
                     f"{result['undecided']} ended with exit 4)")
        lines.append(f"  {name:34s} {value:14.6g} {unit}{extra}")
    if "raw" in result:
        raw = result["raw"]
        lines.append(f"  uncorrected for host speed: "
                     f"throughput_ops_s {raw['throughput_ops_s']:.6g}, "
                     f"op_p50_ms {raw['op_p50_ms']:.6g}, op_p90_ms {raw['op_p90_ms']:.6g}, "
                     f"setup_s {raw['setup_s']:.6g}")
    for failure in result["failures"]:
        lines.append(f"  {failure['status']:6s} x{failure['count']:<4d} {failure['key']}: "
                     f"{failure['reason']}")
    return lines


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int,
            units: dict) -> dict:
    # setup_s is the median of starts taken before and after the workload,
    # each corrected for the host's speed, so that a slow spell of the host
    # at either end moves it less.
    setups = [] if trace else time_setups(root, SETUP_RUNS)
    result = run_worker(root, workload, seed, seconds, trace)
    if not trace:
        setups += time_setups(root, SETUP_RUNS)
        result["metrics"]["setup_s"] = statistics.median(t * f for t, f in setups)
        result["raw"]["setup_s"] = statistics.median(t for t, _ in setups)
        result["metrics"]["peak_rss_mb"] = result["peak_rss_mb"]
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(set(result['metrics']) ^ set(units))} "
                           "do not match BENCHMARK.json")
    print("\n".join(report(result, units)), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mpart" / "cli.py").is_file():
        print(f"error: {root} has no src/mpart; run from the root of a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_one(root, w, args.seed, args.seconds, args.trace, units)
                   for w in workloads]
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": units[name.split("/")[-1]]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
