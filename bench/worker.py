"""Runs one workload in a fresh process; prints its result as one JSON line.

Started by ``run.py`` from the root of a checkout.  Ops run in-process through
``mpart.cli.cli_main(argv)`` as a closed loop with one client: one
process, sequential, no threads.  The seeded op list runs in rounds, on
the same input files every time, until the measured op time reaches
``--seconds`` (at least ``MIN_ROUNDS`` rounds; with ``--trace 1`` every
round runs untraced and then traced, and one such pair suffices).

Op times are corrected for the speed of the host, which on a shared
virtual machine swings raw times of one run against another's by up to a
third (see ``hostspeed``): after every op the worker runs reference work
for a tenth of the op's time, and scales the op's time by the reference's
nominal time over its mean time within ``SPEED_WINDOW_S`` of the op.
Each op's time is the median of its corrected repeats; latency
percentiles and throughput are taken over these per-op times.  The
uncorrected figures are reported alongside.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import ops
import spans
from checks import Verdict, check
from hostspeed import REFERENCE_SHARE, reference, scale

HERE = Path(__file__).resolve().parent
WARM_UP_S = 2.0
MIN_ROUNDS = 3
# The host's speed flips within tens of milliseconds and drifts over
# minutes; an op is corrected by the speed measured in the seconds around it.
SPEED_WINDOW_S = 1.0


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """The highest level, in steps of 0.1%, with at least ten of n samples beyond it."""
    return max(0, 1000 - 10_000 // n - (10_000 % n > 0)) / 1000


class Runner:
    def __init__(self, workload: str, cli_main, known: dict, tracer=None):
        self.workload = workload
        self.cli_main = cli_main
        self.known_failures = known["known_failures"]
        self.canon_recorded = known["canon"]
        self.tracer = tracer
        self.canon_seen: dict[str, str] = {}
        self.records: list[dict] = []

    def warm_up(self, ops, seconds: float):
        """Run ops unrecorded until ``seconds`` have passed, so that first-use
        costs of the interpreter and allocator fall outside the measurement."""
        start = perf_counter()
        for op in ops:
            if perf_counter() - start > seconds:
                break
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    self.cli_main(op.argv)
                except Exception:  # judged when the op is measured
                    pass

    def execute(self, index: int, op, traced: bool):
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        tracer = self.tracer if traced else None
        with redirect_stdout(out), redirect_stderr(err):
            span = tracer.begin("cli") if tracer else None
            start = perf_counter()
            try:
                code = self.cli_main(op.argv)
            except Exception as error:  # an undocumented exception is a failure
                exc = error
            seconds = perf_counter() - start
            if span:
                tracer.end(span)
                tracer.op += 1
        ref_s, ref_n = reference(REFERENCE_SHARE * seconds)
        verdict = check(op, code, out.getvalue(), exc)
        changed = False
        if verdict.digest is not None:
            base = op.expect["base"]
            first = self.canon_seen.setdefault(base, verdict.digest)
            changed = verdict.digest != self.canon_recorded.get(base)
            if verdict.digest != first:
                verdict = Verdict("failed", "canonical form differs across relabelings")
        status = verdict.status
        key = f"{self.workload}/{op.key}"
        if status == "failed" and self.known_failures.get(key) == verdict.reason:
            status = "known"
        self.records.append({
            "index": index, "at": start, "key": key, "seconds": seconds,
            "ref_s": ref_s, "ref_n": ref_n, "status": status, "reason": verdict.reason,
            "search": op.search, "traced": traced, "cert_changed": changed,
        })
        return seconds


def summarize(records: list[dict]) -> dict:
    attempted = len(records)
    status = [r["status"] for r in records]
    search = [r for r in records if r["search"]]
    decided = sum(r["status"] == "ok" for r in search)
    failures = Counter((r["status"], r["key"], r["reason"])
                       for r in records if r["status"] in ("failed", "known"))
    return {
        "attempted": attempted,
        "failed": status.count("failed"),
        "known_failed": status.count("known"),
        "undecided": status.count("undecided"),
        "search_ops": len(search),
        "decided": decided,
        "failures": [{"status": s, "key": k, "reason": why, "count": n}
                     for (s, k, why), n in sorted(failures.items())],
    }


def op_times(records: list[dict], corrected: bool) -> list[float]:
    """Each op's median time over its repeats, in op-list order.  A
    corrected time is scaled by the host speed that the reference work
    measured within SPEED_WINDOW_S of the op's start."""
    factors = [1.0] * len(records)
    if corrected:
        lo = hi = 0
        spent, count = 0.0, 0
        for i, r in enumerate(records):
            while hi < len(records) and records[hi]["at"] <= r["at"] + SPEED_WINDOW_S:
                spent += records[hi]["ref_s"]
                count += records[hi]["ref_n"]
                hi += 1
            while records[lo]["at"] < r["at"] - SPEED_WINDOW_S:
                spent -= records[lo]["ref_s"]
                count -= records[lo]["ref_n"]
                lo += 1
            factors[i] = scale(spent, count)
    times: dict[int, list[float]] = {}
    for r, factor in zip(records, factors):
        times.setdefault(r["index"], []).append(r["seconds"] * factor)
    return [statistics.median(times[i]) for i in sorted(times)]


def timings(times: list[float]) -> dict:
    n = len(times)
    return {"throughput_ops_s": n / sum(times),
            "op_p50_ms": 1000 * quantile(times, 0.5),
            "op_p90_ms": 1000 * quantile(times, tail_level(n))}


def end_to_end(records: list[dict]) -> tuple[dict, dict, dict]:
    times = op_times(records, corrected=True)
    n = len(times)
    level = tail_level(n)
    summary = summarize(records)
    attempted = summary["attempted"]
    metrics = {
        **timings(times),
        "correct_frac": (attempted - summary["failed"] - summary["known_failed"]) / attempted,
        "decided_frac": (summary["decided"] / summary["search_ops"]
                         if summary["search_ops"] else 1.0),
    }
    tail = {"percentile": round(100 * level, 2), "samples": n,
            "beyond": round(n * (1 - level)), "repeats": attempted // n}
    return metrics, tail, timings(op_times(records, corrected=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd().resolve() / "src"
    sys.path.insert(0, str(src))
    import mpart
    from mpart.cli import cli_main

    if not Path(mpart.__file__).resolve().is_relative_to(src):
        print(f"mpart imported from {mpart.__file__}, not from {src}", file=sys.stderr)
        return 1

    known = json.loads((HERE / "known.json").read_text())
    workdir = HERE / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    bases = ops.Bases(src)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(args.workload, cli_main, known, tracer)

    rnd = ops.make_round(args.workload, args.seed, workdir, bases, known)
    runner.warm_up(rnd.ops, WARM_UP_S)
    measured = 0.0
    passes = {False: 0.0, True: 0.0}
    round_s = []
    rounds = 0
    min_rounds = 1 if args.trace else MIN_ROUNDS
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            gc.collect()
            if traced:
                with spans.traced(tracer):
                    spent = sum(runner.execute(i, op, True) for i, op in enumerate(rnd.ops))
            else:
                spent = sum(runner.execute(i, op, False) for i, op in enumerate(rnd.ops))
            passes[traced] += spent
            measured += spent
            round_s.append(spent)
        rounds += 1
        if rounds >= min_rounds and measured + measured / rounds / 2 > args.seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    result = summarize(runner.records)
    result.update(workload=args.workload, seed=args.seed, rounds=rounds, ops=len(rnd.ops),
                  measured_s=measured, round_s=round_s, op_list_hash=rnd.digest(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, rounds)
        metrics["isomorphism.cert_changed"] = sum(
            r["cert_changed"] for r in runner.records if r["traced"]) / rounds
        metrics["trace.overhead_frac"] = passes[True] / passes[False] - 1
        result["metrics"] = metrics
        tracer.write(HERE / "_work" / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        result["metrics"], result["tail"], result["raw"] = end_to_end(runner.records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
