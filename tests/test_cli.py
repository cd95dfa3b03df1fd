import hashlib
import json
import sys
import textwrap

import pytest

from mpart.cli import cli_main
from mpart.files import parse_concise
from mpart.fixtures import fixture_text, load_design


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.design"
    path.write_text(fixture_text("fig1.design"))
    return str(path)


def test_verify_valid_design(fig1_path, capsys):
    assert cli_main(["verify", fig1_path]) == 0
    out = capsys.readouterr().out
    assert "lambda_00=2" in out and "lambda_11=1" in out and "lambda_01=2" in out
    assert "verdict: valid" in out


def test_verify_invalid_design(tmp_path, capsys):
    text = "mpart v1\nfactors: C=3 D=3\nblock: C{1,2} D{1,2}\nblock: C{1,2} D{1,3}\n"
    path = tmp_path / "bad.design"
    path.write_text(text)
    assert cli_main(["verify", str(path)]) == 2
    assert "INVALID" in capsys.readouterr().out


@pytest.mark.parametrize("header, block", [
    ("C=3 D=3", "C{1,%s} D{1}"),
    ("C=%s D=3", "C{1,2} D{1}"),
])
def test_verify_over_long_number_is_an_input_error(tmp_path, capsys, header, block):
    path = tmp_path / "long.design"
    digits = "1" * 5000
    path.write_text(f"mpart v1\nfactors: {header}\nblock: {block}\n".replace("%s", digits))
    assert cli_main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line ")


def test_verify_of_a_factor_too_large_to_count_is_an_input_error(tmp_path, capsys):
    # numpy refuses an array this size before allocating anything.
    path = tmp_path / "huge.design"
    path.write_text("mpart v1\nfactors: C=100000000000000000000\nblock: C{1,2}\n")
    assert cli_main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: 100000000000000000000 levels are too many to count\n"


def test_verify_fixture_shorthand(capsys):
    assert cli_main(["verify", "fixture:fig9"]) == 0
    assert "strength: 2" in capsys.readouterr().out


def test_params_pass(capsys):
    assert cli_main(["params", "10", "6", "5", "3", "2"]) == 0
    out = capsys.readouterr().out
    assert "b >= 10: pass" in out


def test_params_fail(capsys):
    assert cli_main(["params", "5", "4", "3", "2", "2"]) == 2
    assert "not an integer" in capsys.readouterr().out


def test_params_partitioned_bound(capsys):
    # c = 2 divides b = 10, but a 2-class design needs b >= 6 + 5 + 2 - 2.
    assert cli_main(["params", "10", "6", "5", "3", "2", "--c", "2"]) == 2
    out = capsys.readouterr().out
    assert "c | b: pass" in out and "b >= 11: FAIL" in out


def test_params_json(capsys):
    assert cli_main(["params", "--format", "json", "20", "6", "6", "3", "3", "--c", "10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True and data["bound_partitioned"] is True


def test_params_json_writes_fractions_as_text(capsys):
    assert cli_main(["params", "--format", "json", "7", "5", "2"]) == 2
    assert capsys.readouterr().out == textwrap.dedent("""\
        {
          "b": 7,
          "v": [
            5
          ],
          "k": [
            2
          ],
          "c": null,
          "r": [
            "14/5"
          ],
          "lam": [
            [
              "7/10"
            ]
          ],
          "r_integral": [
            false
          ],
          "lam_integral": [
            [
              false
            ]
          ],
          "bound_basic": true,
          "c_divides_b": null,
          "bound_partitioned": null,
          "ok": false
        }
        """)


def test_weak_iso_exit_codes():
    assert cli_main(["weak-iso", "fixture:fig5a", "fixture:fig5b"]) == 3
    assert cli_main(["iso", "fixture:fig1", "fixture:fig1"]) == 0


# Equal fingerprints, not weakly isomorphic: two factor exchanges of the
# second design pass the fingerprint check, and the first design refines to
# a leaf at its root, so its search is one node.
WEAK_PAIR = (
    "mpart v1\nfactors: C=4 D=4 E=4\nblock: C{1,2} D{2,3} E{3,4}\n"
    "block: C{2,4} D{1,3} E{2,4}\nblock: C{1,3} D{1,4} E{1,2}\n"
    "block: C{2,3} D{3,4} E{1,4}\n",
    "mpart v1\nfactors: C=4 D=4 E=4\nblock: C{1,2} D{1,4} E{2,3}\n"
    "block: C{2,4} D{2,4} E{2,4}\nblock: C{3,4} D{3,4} E{1,4}\n"
    "block: C{1,4} D{2,3} E{1,2}\n",
)
# C levels joined as a triangle plus an edge, and as a path, with every D
# level in every block: equal fingerprints, not isomorphic.  The first
# design's search takes 45 nodes, the second's first path 7.
TRIANGLE, PATH = (
    "mpart v1\nfactors: C=5 D=6\n" + "".join(
        f"block: C{{{edge}}} D{{1,2,3,4,5,6}}\n" for edge in edges)
    for edges in (("2,3", "3,5", "1,4", "2,5"), ("2,4", "1,5", "4,5", "2,3")))


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_an_exhausted_iso_budget_exits_4_never_3(tmp_path, capsys):
    weak = [_write(tmp_path, f"weak{i}.design", text) for i, text in enumerate(WEAK_PAIR)]
    assert cli_main(["weak-iso", *weak, "--budget", "0"]) == 4
    assert cli_main(["weak-iso", *weak, "--budget", "1"]) == 3
    pair = [_write(tmp_path, "triangle.design", TRIANGLE),
            _write(tmp_path, "path.design", PATH)]
    for budget in range(45):
        assert cli_main(["iso", *pair, "--budget", str(budget)]) == 4
    assert cli_main(["iso", *pair, "--budget", "45"]) == 3
    capsys.readouterr()


def test_iso_may_say_yes_within_a_budget_canon_exhausts(tmp_path, capsys):
    triangle = _write(tmp_path, "triangle.design", TRIANGLE)
    # the same design with its levels and blocks relabeled
    relabeled = _write(tmp_path, "relabeled.design", (
        "mpart v1\nfactors: C=5 D=6\n" + "".join(
            f"block: C{{{edge}}} D{{6,5,4,3,2,1}}\n"
            for edge in ("1,5", "4,2", "5,3", "1,3"))))
    assert cli_main(["canon", triangle, "--budget", "9"]) == 4
    assert cli_main(["iso", triangle, relabeled, "--budget", "9"]) == 0
    assert capsys.readouterr().out == "isomorphic\n"


def test_partition_outcomes(capsys):
    assert cli_main(["partition", "fixture:fig8b", "--c", "3"]) == 0
    assert "class 1: blocks 1 2 3 4" in capsys.readouterr().out
    assert cli_main(["partition", "fixture:fig1", "--c", "10"]) == 2
    capsys.readouterr()
    # Phase 2 refutes 10 classes of fig4a at 2 nodes (phase 1 needs 65).
    assert cli_main(["partition", "fixture:fig4a", "--c", "10", "--budget", "1"]) == 4
    assert cli_main(["partition", "fixture:fig4a", "--c", "10", "--budget", "2"]) == 2


def test_a_decided_no_is_json_null_under_json(capsys):
    # fig1 has 10 blocks and no 10-class partition: stdout stays JSON.
    argv = ["partition", "fixture:fig1", "--c", "10"]
    assert cli_main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) is None and captured.err == ""
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("no 10-class partition exists\n", "")
    assert cli_main(["partition", "fixture:fig8b", "--c", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0] == [1, 2, 3, 4]


def test_render_writes_the_concise_text_by_default(capsys):
    assert cli_main(["render", "fixture:fig1"]) == 0
    assert capsys.readouterr().out == fixture_text("fig1.design")


def test_render_modes(capsys):
    assert cli_main(["render", "fixture:fig1", "--mode", "dual"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2].startswith("C1")


def test_build_cartesian_to_file(tmp_path):
    out = tmp_path / "prod.design"
    code = cli_main(["build", "cartesian", "--ingredient", "3,2,1",
                     "--ingredient", "3,2,1", "-o", str(out)])
    assert code == 0
    d = parse_concise(out.read_text())
    assert d.b == 9 and d.v == (3, 3)


def test_build_hadamard_json(capsys):
    assert cli_main(["build", "hadamard", "--order", "12", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["params"]["b"] == 20


def test_build_augment(tmp_path, fig1_path, capsys):
    assert cli_main(["build", "augment", "--design", fig1_path, "--factor", "1"]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d == load_design("fig4a")


def test_build_symmetric_split(capsys):
    assert cli_main(["build", "symmetric-split", "--ingredient", "11,5,2"]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d.b == 10 and d.v == (6, 5)


def test_build_subcartesian(capsys):
    assert cli_main(["build", "subcartesian", "--ingredient", "3,2,1",
                     "--ingredient", "4,2,1", "--classes", "3"]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d.b == 6 and d.v == (3, 4)


def test_build_part_swap(fig1_path, capsys):
    assert cli_main(["build", "part-swap", "--design", fig1_path,
                     "--factor", "0"]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d.blocks[0][0] == (3, 4, 5)


def test_build_product(fig1_path, tmp_path, capsys):
    other = tmp_path / "pairs.design"
    assert cli_main(["build", "cartesian", "--ingredient", "3,2,1",
                     "-o", str(other)]) == 0
    assert cli_main(["build", "product", "--design", fig1_path,
                     "--design", str(other)]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d.b == 30 and d.m == 3


def test_build_oa(capsys):
    assert cli_main(["build", "oa", "--ingredient", "4,2,1", "--ingredient", "4,2,1",
                     "--ingredient", "4,2,1", "--classes", "3"]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d.b == 12 and d.m == 3


def test_build_meet_filter(tmp_path, capsys):
    from mpart.files import serialize_blocks
    from mpart.fixtures import load_block_design

    host = tmp_path / "host.blocks"
    host.write_text(serialize_blocks(load_block_design("design_3_22_6_1")))
    first_block = " ".join(str(x + 1) for x in load_block_design("design_3_22_6_1").blocks[0])
    assert cli_main(["build", "meet-filter", "--host", str(host),
                     "--special", first_block, "--t", "2"]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d.b == 60 and d.v == (6, 16)


def test_build_class_matched(capsys):
    assert cli_main(["build", "hadamard", "--order", "12", "-o", "/dev/null"]) == 0
    # build the two-factor design, then append a third factor class by class
    import tempfile

    from mpart.constructions import hadamard_2part
    from mpart.files import serialize_concise
    from mpart.ingredients import hadamard_matrix

    with tempfile.NamedTemporaryFile("w", suffix=".design", delete=False) as fh:
        fh.write(serialize_concise(hadamard_2part(hadamard_matrix(12), 1)))
        path = fh.name
    assert cli_main(["build", "class-matched", "--design", path,
                     "--classes", "10", "--ingredient", "5,2,1"]) == 0
    d = parse_concise(capsys.readouterr().out)
    assert d.m == 3 and d.b == 20


def _pairs10_path(tmp_path) -> str:
    from mpart.files import serialize_concise
    from mpart.ingredients import as_multipart, get_bibd

    path = tmp_path / "pairs10.design"
    path.write_text(serialize_concise(as_multipart(get_bibd(10, 2, 1))))
    return str(path)


# All pairs of 10 at c = 9 is decided by search alone: its blocks are not
# a product of distinct parts, and no block's complement is a block.
def test_build_class_matched_budget_exhausted(tmp_path, capsys):
    # All pairs of 10 is 9-partitionable; phase 2 decides it at 45 nodes.
    args = ["build", "class-matched", "--design", _pairs10_path(tmp_path),
            "--classes", "9", "--ingredient", "9,8,7", "--budget"]
    assert cli_main(args + ["44"]) == 4
    assert "partition search budget exhausted" in capsys.readouterr().err
    assert cli_main(args + ["45"]) == 0


def test_build_oa_budget_exhausted_and_not_partitionable(capsys):
    args = ["build", "oa", "--ingredient", "10,2,1", "--ingredient", "10,2,1"]
    assert cli_main(args + ["--classes", "9", "--budget", "44"]) == 4
    assert "partition search budget exhausted" in capsys.readouterr().err
    assert cli_main(args + ["--classes", "9", "--budget", "45"]) == 0
    capsys.readouterr()
    assert cli_main(args + ["--classes", "4"]) == 2
    assert "not 4-partitionable" in capsys.readouterr().err


def test_successive_calls_share_no_state(tmp_path, fig1_path, capsys):
    pairs = tmp_path / "pairs.design"
    assert cli_main(["build", "cartesian", "--ingredient", "3,2,1",
                     "--ingredient", "3,2,1", "-o", str(pairs)]) == 0
    assert parse_concise(pairs.read_text()).v == (3, 3)
    # repeated options start empty again on every call
    assert cli_main(["build", "cartesian", "--ingredient", "4,2,1"]) == 0
    assert parse_concise(capsys.readouterr().out).v == (4,)
    for _ in range(2):
        assert cli_main(["build", "product", "--design", fig1_path,
                         "--design", str(pairs)]) == 0
        assert parse_concise(capsys.readouterr().out).m == 4
    # options of one call do not carry into the next
    assert cli_main(["verify", fig1_path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert cli_main(["verify", fig1_path]) == 0
    assert "verdict: valid" in capsys.readouterr().out
    assert cli_main(["params", "10", "6"]) == 1
    assert cli_main(["iso", "fixture:fig1", "fixture:fig1"]) == 0
    assert capsys.readouterr().out == "isomorphic\n"
    # an output file given once is not written again by a later call
    assert cli_main(["canon", "fixture:fig9", "-o", str(tmp_path / "canon.design")]) == 0
    assert cli_main(["canon", "fixture:fig9"]) == 0
    assert parse_concise(capsys.readouterr().out).v == load_design("fig9").v


def test_canon_selfcheck(capsys):
    assert cli_main(["canon", "fixture:fig5a", "--selfcheck", "3", "--seed", "9"]) == 0
    err = capsys.readouterr().err
    assert "certificate stable" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_canon_stdout_holds_only_the_design(capsys, fmt):
    from mpart.isomorphism import canonical_form

    assert cli_main(["canon", "fixture:fig1", "--selfcheck", "2", "--format", fmt]) == 0
    captured = capsys.readouterr()
    design = canonical_form(load_design("fig1")).design
    if fmt == "json":
        # JSON is output only: the document is checked member by member
        document = json.loads(captured.out)
        assert document["factors"] == [{"name": "C", "levels": 6}, {"name": "D", "levels": 5}]
        assert document["blocks"] == [[[x + 1 for x in part] for part in block]
                                      for block in design.blocks]
        assert (document["params"]["b"], document["params"]["uniform"]) == (10, True)
    else:
        assert parse_concise(captured.out).blocks == design.blocks
    assert captured.err == "selfcheck: 2 relabelings, certificate stable\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_exhausted_partition_writes_nothing_to_stdout(tmp_path, capsys, fmt):
    argv = ["partition", "fixture:fig4a", "--c", "10", "--budget", "1", "--format", fmt]
    assert cli_main(argv) == 4
    assert capsys.readouterr() == ("", "budget exhausted: undecided\n")
    # All pairs of 10 at 9 classes: no witness is read off its structure,
    # and neither phase decides within 44 nodes.
    assert cli_main(["partition", _pairs10_path(tmp_path), "--c", "9", "--budget", "44",
                     "--format", fmt]) == 4
    assert capsys.readouterr() == ("", "budget exhausted: undecided\n")


def test_tables_smoke(capsys):
    assert cli_main(["tables", "--max-b", "16", "--constructions", "1"]) == 0
    out = capsys.readouterr().out
    assert any(line.split()[:5] == ["9", "3", "3", "2", "2"]
               for line in out.splitlines()[1:])


def test_usage_errors_exit_1(capsys):
    assert cli_main(["params", "10", "6"]) == 1
    assert cli_main(["verify", "/nonexistent/file.design"]) == 1
    assert cli_main(["nonsense"]) == 1


# SHA-256 of each help text at 80 columns.  The parser declares a command's
# arguments only when its name is in argv; every help text stays as it was
# when all of them were declared on every call.
HELP_SHA256 = {
    (): "0a5e6f6c5f8a002e2a840bf8a3e39fc00af6c018f4c7f240aa1256d51c14b3b0",
    ("build",): "904503595512fe2d859d9802ee3dd8dca10aba6c9b7b1b8c974742fccb606e46",
    ("verify",): "2a4584eff5e3c7dd22458f8401b35980d98633183b0c4d52d4b2b51c338d9ae0",
    ("params",): "46a80b1b35e00e615c530ec58a9bf422898ba914f26bc608ebf1422d9f0a3953",
    ("canon",): "31de5bf68b1387b1ca8f3419f29fa9282291e5c19f2c52395674c96290322699",
    ("iso",): "a0901a50a1d28923d118df40caabf473da6ddd8a5da07c60a53954d9628ecac6",
    ("weak-iso",): "c45fa6104904e6795ec0f97c36f262077abefb82dc0831270b3b699a35d84475",
    ("partition",): "94d8152e2b3915a90058d4c27c8f5616312377fd6b9ae50b4104448987c2aace",
    ("render",): "8d7e9398dc8c7c5bda161a2d68c21a7c3d13da0e9f54dc94d837d689001b08a5",
    ("tables",): "895d0e9adfd9fcd770f9e882b13e8fa9041a641cc42a880a79d150eb12119dad",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the hashes are of Python 3.11's argparse help layout")
@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_texts_are_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as raised:
        cli_main([*command, "--help"])
    assert raised.value.code == 0
    out, err = capsys.readouterr()
    assert (_sha256(out), err) == (HELP_SHA256[command], "")


def test_an_unknown_command_lists_every_command(capsys):
    assert cli_main(["nonsense"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and _sha256(err) == (
        "eb92635afe06436ee83778c65745ecf169dde5fba79967c9144c2786ab5d3472")
    assert all(f"'{command}'" in err for (command,) in list(HELP_SHA256)[1:])


def test_a_double_dash_before_the_command_ends_the_options(capsys):
    assert cli_main(["verify", "fixture:fig1"]) == 0
    expected = capsys.readouterr()
    assert cli_main(["--", "verify", "fixture:fig1"]) == 0
    assert capsys.readouterr() == expected
    # An unknown command after it is named as it is without the "--".
    assert cli_main(["nonsense"]) == 1
    expected = capsys.readouterr()
    assert expected.err.startswith("usage error: argument command: invalid choice: 'nonsense' ")
    assert cli_main(["--", "nonsense"]) == 1
    assert capsys.readouterr() == expected
    # No command: the usage error stays as it was.
    assert cli_main(["--"]) == 1
    assert capsys.readouterr() == (
        "", "usage error: the following arguments are required: command\n")
    # An operand after it that reads as an option is the unknown command.
    for token in ("--help", "-x"):
        assert cli_main(["--", token]) == 1
        assert capsys.readouterr() == ("", expected.err.replace("'nonsense'", repr(token)))


def test_cli_main_reads_sys_argv_without_an_argument(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mpart", "verify", "fixture:fig1", "--format", "json"])
    assert cli_main() == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    monkeypatch.setattr(sys, "argv", ["mpart", "params", "10", "6"])
    assert cli_main() == 1
    assert capsys.readouterr().err == "usage error: params needs: b v1..vm k1..km\n"


@pytest.mark.parametrize("argv, err", [
    # A file argument named like another command is a file name.
    (["canon", "build"], "error: [Errno 2] No such file or directory: 'build'\n"),
    (["iso", "canon", "verify"], "error: [Errno 2] No such file or directory: 'canon'\n"),
    (["build", "verify"], "usage error: argument construction: invalid choice: 'verify' "
                          "(choose from 'cartesian', 'subcartesian', 'hadamard', "
                          "'symmetric-split', 'augment', 'part-swap', 'product', 'oa', "
                          "'meet-filter', 'class-matched')\n"),
])
def test_an_argument_named_like_a_command_is_read_as_an_argument(argv, err, tmp_path,
                                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    ["build", "class-matched", "--design", "fixture:fig1", "--ingredient", "5,2,1"],
    ["build", "augment", "--factor", "0"],
    ["build", "part-swap"],
    ["build", "meet-filter", "--special", "1 2 3 9 12 21"],
    ["build", "meet-filter", "--host", "fixture:design_3_22_6_1"],
    ["build", "meet-filter", "--host", "fixture:design_3_22_6_1", "--special", "1,x"],
    ["build", "cartesian", "--ingredient", "7,x,1"],
    ["build", "subcartesian", "--ingredient", "7,3,1", "--ingredient", "7,3,1",
     "--classes", "3", "--budget", "-1"],
    ["build", "subcartesian", "--ingredient", "7,3,1", "--classes", "7"],
    ["build", "symmetric-split", "--ingredient", "11,5,2", "--ingredient", "7,3,1"],
    ["build", "product", "--design", "fixture:fig1"],
    # a flag the construction does not read
    ["build", "hadamard", "--order", "8", "--ingredient", "7,3,1", "--design", "fixture:fig1"],
    ["build", "cartesian", "--ingredient", "3,2,1", "--ingredient", "3,2,1",
     "--design", "fixture:fig3", "--classes", "5"],
    ["build", "symmetric-split", "--ingredient", "11,5,2", "--classes", "3"],
    ["build", "augment", "--design", "fixture:fig1", "--factor", "1",
     "--host", "fixture:design_3_22_6_1"],
    ["build", "product", "--design", "fixture:fig1", "--design", "fixture:fig3",
     "--special", "1"],
    ["build", "meet-filter", "--host", "fixture:design_3_22_6_1",
     "--special", "1 2 3 9 12 21", "--ingredient", "7,3,1"],
])
def test_build_input_errors_are_usage_errors(argv, capsys):
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("argv, flag", [
    (["hadamard", "--order", "8", "--ingredient", "7,3,1", "--design", "fixture:fig1"],
     "--ingredient"),
    (["hadamard", "--order", "8", "--classes", "0"], "--classes"),
    (["oa", "--ingredient", "4,2,1", "--ingredient", "4,2,1", "--classes", "3",
      "--host", "fixture:design_3_22_6_1"], "--host"),
    (["part-swap", "--design", "fixture:fig1", "--special", ""], "--special"),
])
def test_build_refuses_a_flag_its_construction_does_not_read(argv, flag, capsys):
    assert cli_main(["build", *argv]) == 1
    assert capsys.readouterr() == ("", f"usage error: {argv[0]} does not read {flag}\n")


# The flags each construction reads, as the README's table states them: a
# count for a repeatable input, "required" for a value it needs, else the
# default of a parameter.
BUILD_READS = {
    "cartesian": {"--ingredient": "+"},
    "subcartesian": {"--ingredient": 2, "--classes": 1},
    "hadamard": {"--order": 12, "--second-row": 1},
    "symmetric-split": {"--ingredient": 1, "--gamma": 0},
    "augment": {"--design": 1, "--factor": 0},
    "part-swap": {"--design": 1, "--factor": 0},
    "product": {"--design": 2},
    "oa": {"--ingredient": "+", "--classes": 1, "--strength": 2},
    "meet-filter": {"--host": "required", "--special": "required", "--t": 2},
    "class-matched": {"--design": 1, "--classes": "required", "--ingredient": 1},
}
# Inputs each construction reads, and a value for every build flag.
BUILD_INPUTS = {
    "cartesian": ["--ingredient", "3,2,1"],
    "subcartesian": ["--ingredient", "3,2,1", "--ingredient", "4,2,1"],
    "hadamard": [],
    "symmetric-split": ["--ingredient", "11,5,2"],
    "augment": ["--design", "fixture:fig1"],
    "part-swap": ["--design", "fixture:fig1"],
    "product": ["--design", "fixture:fig1", "--design", "fixture:fig3"],
    "oa": ["--ingredient", "3,2,1", "--ingredient", "3,2,1"],
    "meet-filter": ["--host", "fixture:design_3_22_6_1", "--special", "1 2 3 9 12 21"],
    "class-matched": ["--design", "fixture:fig8b", "--classes", "3", "--ingredient", "3,2,1"],
}
FLAG_VALUES = {"--ingredient": "7,3,1", "--design": "fixture:fig1",
               "--host": "fixture:design_3_22_6_1", "--special": "1", "--t": "2",
               "--order": "8", "--second-row": "1", "--gamma": "0", "--factor": "0",
               "--classes": "1", "--strength": "2"}


@pytest.mark.parametrize("construction, flag", [
    (name, flag) for name, reads in BUILD_READS.items()
    for flag in FLAG_VALUES if flag not in reads])
def test_build_refuses_every_flag_its_construction_does_not_read(construction, flag, capsys):
    argv = ["build", construction, *BUILD_INPUTS[construction], flag, FLAG_VALUES[flag]]
    assert cli_main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {construction} does not read {flag}\n")


@pytest.mark.parametrize("argv", [["cartesian"], ["oa", "--classes", "2"]])
def test_a_build_without_an_ingredient_is_a_usage_error(argv, capsys):
    assert cli_main(["build", *argv]) == 1
    assert capsys.readouterr() == ("", f"usage error: {argv[0]} needs --ingredient\n")


@pytest.mark.parametrize("construction, flag", [
    (name, flag) for name, reads in BUILD_READS.items()
    for flag, rule in reads.items() if isinstance(rule, int) and flag not in (
        "--ingredient", "--design")])
def test_a_left_out_parameter_takes_its_default(construction, flag, tmp_path, capsys):
    argv = ["build", construction, *BUILD_INPUTS[construction]]
    if construction == "augment":
        # Augmenting factor 0 needs v = 2k + 1, which no fixture's factor 0 has.
        path = str(tmp_path / "c521.design")
        assert cli_main(["build", "cartesian", "--ingredient", "5,2,1", "-o", path]) == 0
        argv = ["build", "augment", "--design", path]
    assert cli_main(argv) == 0
    left_out = capsys.readouterr().out
    assert cli_main(argv + [flag, str(BUILD_READS[construction][flag])]) == 0
    assert capsys.readouterr().out == left_out
    assert parse_concise(left_out).b > 0


@pytest.mark.parametrize("argv, flag", [
    (["augment", "--design", "fixture:fig1", "--design", "fixture:fig3", "--factor", "1"],
     "--design"),
    (["part-swap", "--design", "fixture:fig1", "--design", "fixture:fig3"], "--design"),
    (["class-matched", "--design", "fixture:fig1", "--design", "fixture:fig3",
      "--classes", "2", "--ingredient", "5,2,1"], "--design"),
    (["class-matched", "--design", "fixture:fig1", "--classes", "2",
      "--ingredient", "5,2,1", "--ingredient", "3,2,1"], "--ingredient"),
])
def test_a_construction_that_reads_one_input_refuses_a_second(argv, flag, capsys):
    assert cli_main(["build", *argv]) == 1
    assert capsys.readouterr() == ("", f"usage error: {argv[0]} needs one {flag}\n")


def test_a_corrupted_steiner_fixture_is_an_input_error(monkeypatch, capsys):
    from mpart import fixtures

    # Move one point of the first block: the sizes stay, a 3-set is lost.
    lines = fixture_text("design_3_22_6_1.blocks").splitlines()
    n = next(n for n, line in enumerate(lines) if line and not line.startswith("#"))
    points = lines[n].split()
    points[-1] = next(str(p) for p in range(1, 23) if str(p) not in points)
    lines[n] = " ".join(points)
    monkeypatch.setattr(fixtures, "fixture_text", lambda filename: "\n".join(lines) + "\n")
    fixtures.load_block_design.cache_clear()
    try:
        code = cli_main(["build", "meet-filter", "--host", "fixture:design_3_22_6_1",
                         "--special", "1 2 3 9 12 21", "--t", "2"])
    finally:
        fixtures.load_block_design.cache_clear()
    assert code == 1
    assert capsys.readouterr().err == "error: design_3_22_6_1 fixture failed validation\n"


@pytest.mark.parametrize("argv", [
    ["tables", "--max-b", "-1"],
    ["canon", "fixture:fig4b", "--selfcheck", "-1"],
    ["partition", "fixture:fig8b", "--c", "3", "--budget", "-1"],
])
def test_negative_counts_are_usage_errors(argv, capsys):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "non-negative" in err


@pytest.mark.parametrize("construction", ["subcartesian", "oa"])
def test_zero_classes_are_refused(construction, capsys):
    argv = ["build", construction, "--ingredient", "7,3,1", "--ingredient", "7,3,1"]
    assert cli_main(argv + ["--classes", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "class count must be positive" in captured.err


def test_only_the_flags_a_command_reads_are_accepted(capsys):
    for argv in (["render", "fixture:fig1", "--format", "json"],
                 ["verify", "fixture:fig1", "--budget", "5"],
                 ["iso", "fixture:fig1", "fixture:fig1", "--seed", "3"],
                 ["partition", "fixture:fig1", "--c", "2", "--seed", "3"]):
        assert cli_main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_partition_of_a_2401_block_design_never_raises(tmp_path, capsys):
    from mpart.constructions import cartesian_product
    from mpart.files import serialize_concise
    from mpart.ingredients import get_bibd
    from mpart.model import BlockPartition
    from mpart.verify import verify_partition

    design = cartesian_product([get_bibd(7, 3, 1)] * 4)
    path = tmp_path / "731x731x731x731.design"
    path.write_text(serialize_concise(design))
    assert cli_main(["partition", str(path), "--c", "7", "--budget", "50000",
                     "--format", "json"]) == 0
    classes = [[t - 1 for t in cls] for cls in json.loads(capsys.readouterr().out)]
    assert verify_partition(design, BlockPartition(tuple(map(tuple, classes))))


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


def test_json_output_holds_plain_integers(fig1_path, capsys):
    for argv in (["verify", fig1_path], ["verify", "fixture:fig8b"],
                 ["build", "cartesian", "--ingredient", "7,3,1", "--ingredient", "3,2,1"],
                 ["build", "product", "--design", "fixture:fig1", "--design", "fixture:fig5a"]):
        assert cli_main(argv + ["--format", "json"]) == 0
        numbers = _numbers(json.loads(capsys.readouterr().out))
        assert numbers and all(type(x) in (int, bool) for x in numbers), argv
