import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from semidegree import parse_dps, parse_laurent
from semidegree.cli import main
from semidegree.parsing import ParseError, dps_to_str, laurent_to_str

from helpers import random_dps, random_laurent

BIG = "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_dps_worked_example():
    phi = parse_dps(BIG)
    assert len(phi) == 6
    assert phi.coefficient(F(5, 3)) == 1
    assert phi.coefficient(F(-13, 6)) == 1


def test_parse_dps_branch_series():
    phi = parse_dps("x^(2/5) + x^-1")
    assert phi.exponents() == [F(2, 5), F(-1)]


def test_parse_dps_zero_and_duplicates():
    assert parse_dps("0").is_zero
    assert parse_dps("x - x").is_zero
    assert parse_dps("2*x + 3*x") == parse_dps("5*x")


def test_parse_dps_errors():
    with pytest.raises(ParseError):
        parse_dps("x^(2/5")
    with pytest.raises(ParseError):
        parse_dps("x^(1/0)")


def test_parse_laurent_examples():
    f = parse_laurent("y^5 - x^2 - 5*x^-1*y^4")
    assert f.coefficient(-1, 4) == -5
    assert parse_laurent("y") .coefficient(0, 1) == 1
    assert parse_laurent("y^5 - x^2").coefficient(0, 5) == 1


def test_parse_laurent_rejects_negative_y():
    with pytest.raises(ParseError):
        parse_laurent("y^-1")


def test_print_parse_round_trip_dps():
    rng = random.Random(51)
    for _ in range(60):
        phi = random_dps(rng, max_terms=5)
        assert parse_dps(dps_to_str(phi)) == phi


def test_print_parse_round_trip_laurent():
    rng = random.Random(52)
    for _ in range(60):
        f = random_laurent(rng, max_terms=5)
        assert parse_laurent(laurent_to_str(f)) == f


def test_decide_command(capsys):
    code, out, err = run_cli(capsys, "decide", "--phi", "x^(2/5)", "--r", "-6/5")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "algebraic"
    assert payload["curve"] == "y^5 - x^2"
    assert payload["embedding_weights"] == ["1", "5", "2", "2"]


def test_keyforms_command(capsys):
    code, out, _ = run_cli(capsys, "keyforms", "--phi", BIG, "--r", "-8/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["formal_pairs"] == [["5", "3"], ["-13", "2"], ["-16", "1"]]
    assert payload["essential_indices"] == ["0", "3", "7", "10"]
    assert len(payload["key_forms"]) == 11


def test_semidegree_command(capsys):
    code, out, _ = run_cli(
        capsys, "semidegree", "--phi", "x^(2/5)", "--r", "-6/5", "--f", "y^5 - x^2"
    )
    assert code == 0
    assert json.loads(out)["value"] == "2"


def test_cousin_command(capsys):
    code, out, _ = run_cli(capsys, "cousin", "--psi", "x^(3/5)", "--r", "11/5")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "algebraic"
    assert payload["curve"] == "y^5 - x^2"


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "--pairs", "2/5,-6/1")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "both"
    assert payload["s2_witnesses"] == [{"k": "1", "t": "3"}]


def test_graph_command_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--pairs", "2/5,-6/1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 13
    assert payload["vertices"][0] == {"name": "L", "weight": "-1", "mark": "L"}

    code, dot, _ = run_cli(capsys, "graph", "--pairs", "2/5,-6/1", "--dot")
    assert code == 0
    assert dot.startswith("graph resolution {")
    assert dot.count(" -- ") == 12


def test_witness_command(capsys):
    code, out, _ = run_cli(capsys, "witness", "--pairs", "2/5,-6/1", "--kind", "nonalgebraic")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_polynomial"] is False
    assert payload["essential_values"] == ["5", "2", "2"]


def test_exit_code_parse_error(capsys):
    code, out, err = run_cli(capsys, "decide", "--phi", "x^(2/5", "--r", "-6/5")
    assert code == 2
    assert not out
    assert "expected" in err


def test_exit_code_not_a_compactification(capsys):
    code, _, err = run_cli(capsys, "decide", "--phi", "0", "--r", "-1/2")
    assert code == 3
    assert "no compactification" in err


def test_exit_code_witness_unavailable(capsys):
    code, _, err = run_cli(capsys, "witness", "--pairs", "3/7", "--kind", "nonalgebraic")
    assert code == 4
    assert "algebraic-only" in err


def test_exit_code_oversized_pairs_is_quick(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "classify", "--pairs", "500/1001,501499/1003,505009492/1007,505009487/1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert not out
    assert "essential values too large" in err


README_EXAMPLES = [
    ("decide", "--phi", "x^(2/5)", "--r", "-6/5"),
    ("semidegree", "--phi", "x^(2/5)", "--r", "-6/5", "--f", "y^5 - x^2"),
    ("classify", "--pairs", "2/5,-6/1"),
    ("witness", "--pairs", "2/5,-6/1", "--kind", "nonalgebraic"),
]


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=lambda argv: argv[0])
def test_optimized_mode_output_is_identical(argv):
    # the invariant checks must not be asserts, which -O strips
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "semidegree.cli", *argv],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout

    assert run("-O") == run()


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "keyforms", "--phi", BIG, "--r", "-8/3")
    _, second, _ = run_cli(capsys, "keyforms", "--phi", BIG, "--r", "-8/3")
    assert first == second


def test_no_floats_anywhere_in_json(capsys):
    _, out, _ = run_cli(capsys, "decide", "--phi", "x^(2/5)", "--r", "-6/5")

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert not isinstance(node, float)

    walk(json.loads(out))


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text(
        'decide --phi "x^(2/5)" --r "-6/5"\n'
        'classify --pairs "2/5,-6/1"\n'
        'decide --phi "0" --r "-1/2"\n'
    )
    code, out, _ = run_cli(capsys, "batch", "--input", str(batch))
    lines = out.strip().splitlines()
    assert code == 3  # the failing line's code is propagated
    assert json.loads(lines[0])["kind"] == "algebraic"
    assert json.loads(lines[1])["kind"] == "both"
    assert json.loads(lines[2])["exit_code"] == "3"


def test_batch_mode_parallel(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text("".join('classify --pairs "2/5,-6/1"\n' for _ in range(6)))
    code, out, _ = run_cli(capsys, "batch", "--input", str(batch), "--jobs", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(json.loads(line)["kind"] == "both" for line in lines)


def test_batch_workers_are_clamped_to_cores_and_lines(tmp_path, capsys, monkeypatch):
    import semidegree.cli as cli

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    batch = tmp_path / "requests.txt"
    for lines, expected in ((3, [3]), (10, [4]), (1, []), (0, [])):
        requested.clear()
        batch.write_text('classify --pairs "2/5,-6/1"\n' * lines)
        code, out, _ = run_cli(capsys, "batch", "--input", str(batch), "--jobs", "100000")
        assert code == 0
        assert len(out.splitlines()) == lines
        assert requested == expected
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    requested.clear()
    batch.write_text('classify --pairs "2/5,-6/1"\n' * 3)
    assert run_cli(capsys, "batch", "--input", str(batch), "--jobs", "8")[0] == 0
    assert requested == []


def test_batch_lines_reuse_one_parser(monkeypatch):
    import semidegree.cli as cli

    def refuse():
        raise AssertionError("the parser is built once, at import")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    for line in ('classify --pairs "2/5,-6/1"', 'witness --pairs "2/5,-6/1" --kind algebraic'):
        code, text = cli.run_line(line)
        assert code == 0, text


def test_keyforms_with_a_huge_denominator_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "keyforms", "--phi", "x^(1/1000000007)", "--r", "-1")
    assert time.perf_counter() - start < 60  # only a hang, as before the fix, fails this
    assert code == 0
    payload = json.loads(out)
    assert payload["key_forms"] == ["x", "y", "y^1000000007 - x"]
    assert payload["values"] == ["1000000007", "1", "-1"]
    assert payload["multipliers"] == ["1000000007", "1"]


def test_semidegree_of_a_high_power_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "semidegree", "--phi", "x^(1/2)+x^(1/3)", "--r", "-7/6", "--f", "y^3000"
    )
    assert time.perf_counter() - start < 60  # only a hang, as before the fix, fails this
    assert code == 0
    assert json.loads(out)["value"] == "9000"


def test_an_internal_error_fails_its_own_batch_line_only(tmp_path, capsys, monkeypatch):
    import semidegree.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "graph", broken)
    batch = tmp_path / "requests.txt"
    batch.write_text(
        'classify --pairs "2/5,-6/1"\n'
        'graph --pairs "2/5,-6/1"\n'
        'decide --phi "x^(2/5)" --r "-6/5"\n'
    )
    code, out, _ = run_cli(capsys, "batch", "--input", str(batch))
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == cli.EXIT_INTERNAL == 5
    assert lines[0]["kind"] == "both" and lines[2]["kind"] == "algebraic"
    assert lines[1] == {"error": "internal error: RuntimeError: boom", "exit_code": "5"}

    code, out, err = run_cli(capsys, "graph", "--pairs", "2/5,-6/1")
    assert code == 5 and out == ""
    assert err.strip() == "internal error: RuntimeError: boom"


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b'classify --pairs "2/5,-6/1"\n\xff\n'), "can't decode byte 0xff"),
    ],
    ids=["missing", "directory", "not-utf-8"],
)
def test_an_unreadable_batch_input_exits_2(tmp_path, capsys, make, reason):
    path = tmp_path / "requests.txt"
    make(path)
    code, out, err = run_cli(capsys, "batch", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot read {path}: ") and reason in err
    assert len(err.splitlines()) == 1


def _break_the_step_cap(monkeypatch):
    import semidegree.keyforms as keyforms

    monkeypatch.setattr(keyforms, "step_bound", lambda g, pairs: 0)
    return "cancellation did not terminate within the step cap; this is a bug"


def _break_the_violation_check(monkeypatch):
    import semidegree.graphs as graphs

    monkeypatch.setattr(graphs, "represent", lambda target, values: [0] * len(values))
    return "semigroup violation 3 has x-exponent 0 >= 0; this is a bug"


@pytest.mark.parametrize(
    "breaks, line",
    [
        (_break_the_step_cap, 'decide --phi "x^(2/5)" --r "-6/5"'),
        (_break_the_violation_check, 'witness --pairs "2/5,-6/1" --kind nonalgebraic'),
    ],
    ids=["keyforms", "graphs"],
)
def test_a_failed_consistency_check_exits_5(tmp_path, capsys, monkeypatch, breaks, line):
    from semidegree import InternalError

    assert not issubclass(InternalError, ValueError)
    message = breaks(monkeypatch)
    expected = f"internal error: InternalError: {message}"
    code, out, err = run_cli(capsys, *shlex.split(line))
    assert (code, out, err.strip()) == (5, "", expected)

    batch = tmp_path / "requests.txt"
    batch.write_text(f'classify --pairs "2/5,-6/1"\n{line}\ngraph --pairs "2/5,-6/1"\n')
    code, out, _ = run_cli(capsys, "batch", "--input", str(batch))
    lines = [json.loads(text) for text in out.splitlines()]
    assert code == 5
    assert lines[0]["kind"] == "both" and lines[2]["command"] == "graph"
    assert lines[1] == {"error": expected, "exit_code": "5"}
