import contextlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from semidegree import LaurentPoly, essential_key_values, parse_dps, parse_laurent
from semidegree.cli import main, run_line
from semidegree.parsing import ParseError, dps_to_str, laurent_to_str, number_to_str, parse_pairs
from semidegree.semigroups import apery_size

from check_large_output import child_env
from helpers import random_dps, random_laurent, scanner_parse_dps, scanner_parse_laurent

BIG = "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"
GOLDEN_BATCH = str(Path(__file__).resolve().parent / "golden" / "batch.txt")


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


@pytest.mark.parametrize(
    "text, position", [("x^²", 2), ("²*x", 0), ("٣*x", 0), ("x^(²)", 3), ("3/²*x", 2)]
)
def test_only_ascii_digits_are_numbers(text, position):
    for parse in (parse_dps, parse_laurent):
        with pytest.raises(ParseError, match=rf"^expected a number \(at position {position}\)$"):
            parse(text)


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_dps, "x x", "expected '+' or '-'", 2),
        (parse_dps, "2*y", "expected 'x'", 2),
        (parse_dps, "+", "expected a term", 1),
        (parse_laurent, "x*", "expected a factor", 2),
        (parse_dps, "x^(2/5", "expected ')'", 6),
        (parse_laurent, "x^(-2", "expected ')'", 5),
        (parse_dps, "3/0*x", "zero denominator", 3),
        (parse_dps, " x ^ ( 1 / 0 ) ", "zero denominator", 12),
        (parse_laurent, "y^-1", "negative y-exponent", 4),
        (parse_laurent, "2*y^(-3)", "negative y-exponent", 8),
    ],
    ids=[
        "dps-sign",
        "dps-x",
        "dps-term",
        "laurent-factor",
        "dps-close",
        "laurent-close",
        "dps-zero-coefficient-denominator",
        "dps-zero-exponent-denominator",
        "laurent-negative-y",
        "laurent-negative-y-parenthesized",
    ],
)
def test_parse_errors_name_their_position(parse, text, message, position):
    with pytest.raises(ParseError) as raised:
        parse(text)
    assert (str(raised.value), raised.value.position) == (f"{message} (at position {position})", position)


# texts are drawn from pieces over ASCII digits, xy+-*/^(), blanks and tabs,
# other white space and non-ASCII digits; multi-character pieces let them
# reach the deeper errors (a zero denominator, an unclosed parenthesis)
PARSE_PIECES = list("0123456789") + ["x", "y", "x^", "y^", "^(", "^(-", "^-", "/", "/0", "*", "+", "-", ")"]
PARSE_PIECES += ["(", "^", " ", "\t", "\u00a0", "\u2028", "\x1c", "²", "٣", "１"]
PARSE_WEIGHTS = [2] * 10 + [6, 6, 3, 3, 2, 2, 2, 3, 1, 5, 4, 4, 3] + [1, 1, 4, 1, 1, 1, 1, 1, 1, 1]
LONG_RUN = "1" * 5000  # past int()'s 4300-digit limit, too long on both sides


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_token_parsers_match_the_character_scanner():
    rng = random.Random(24)
    texts = [
        "".join(rng.choices(PARSE_PIECES, PARSE_WEIGHTS, k=rng.randrange(0, 12)))
        for _ in range(16000)
    ]
    texts += [LONG_RUN, f"x^{LONG_RUN}", f"x^(2/{LONG_RUN})", f"y^(-{LONG_RUN})", f"3*{LONG_RUN[:4300]}*y"]
    reached = set()
    for text in texts:
        for parse, oracle in ((parse_dps, scanner_parse_dps), (parse_laurent, scanner_parse_laurent)):
            outcome = parse_outcome(parse, text)
            assert outcome == parse_outcome(oracle, text), (parse.__name__, text)
            reached.add((parse, outcome[1].split(" (at")[0] if isinstance(outcome, tuple) else "a value"))
    shared = ["a value", "expected a number", "zero denominator", "expected ')'", "expected '+' or '-'"]
    assert reached >= {(parse_dps, kind) for kind in shared + ["expected 'x'", "expected a term"]}
    assert reached >= {(parse_laurent, kind) for kind in shared + ["expected a factor", "negative y-exponent"]}


def test_printed_values_repr_and_compare_only_with_their_own_kind():
    assert repr(parse_dps("x^(2/5) + x^-1")) == "DPuiseuxPoly('x^(2/5) + x^-1')"
    assert (parse_dps("x") == "x") is False
    assert (LaurentPoly.x() == "x") is False


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


def test_semidegree_of_zero_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "semidegree", "--phi", "x^(2/5)", "--r", "-6/5", "--f", "0")
    assert (code, out) == (2, "")
    assert "the semidegree of 0 is undefined" in err


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


def test_exponent_notation_is_refused_quickly(capsys):
    # Fraction() expands exponent notation in full: this --r once ran for minutes
    argv = ("decide", "--phi", "x^(2/5)", "--r", "-1e-100000000")
    message = "--r: expected the end (at position 2)"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", message + "\n")
    start = time.perf_counter()
    assert run_line(shlex.join(argv)) == (2, json.dumps({"error": message, "exit_code": "2"}))
    assert time.perf_counter() - start < 1.0


NON_ALGEBRAIC = ("decide", "--phi", "2*x^(5/2) - 2*x^-1", "--r", "-2")


def test_a_non_algebraic_verdict_names_its_witness(capsys):
    code, out, _ = run_cli(capsys, *NON_ALGEBRAIC)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "non_algebraic" and payload["witness_index"] == "3"
    assert "curve" not in payload

    code, line = run_line(shlex.join(NON_ALGEBRAIC))
    assert code == 0
    assert json.loads(line) == payload and '"witness_index":"3"' in line


def test_a_nested_batch_line_exits_2():
    assert run_line("batch --input x") == (
        2,
        json.dumps({"error": "batch lines may not nest (at position 0)", "exit_code": "2"}),
    )


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
    import concurrent.futures

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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


def test_bad_batch_lines_print_nothing_but_their_error(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text(
        'classify --pairs "2/5,-6/1"\n'
        "keyforms -h\n"
        'decide --phi "x^(2/5)" --r "-6/5"\n'
        "graph --help\n"
        'witness --pairs "2/5,-6/1" --kind maybe\n'
        'keyforms --bogus 1 --phi "x^(2/5)" --r "-6/5"\n'
        'witness --pairs "2/5,-6/1" --kind algebraic\n'
    )
    code, out, err = run_cli(capsys, "batch", "--input", str(batch))
    lines = [json.loads(line) for line in out.splitlines()]
    assert (code, err) == (2, "")
    assert len(lines) == 7
    assert [line.get("command") for line in lines] == ["classify", None, "decide", None, None, None, "witness"]
    bad = {"error": "bad arguments", "exit_code": "2"}
    assert lines[1] == lines[3] == lines[4] == lines[5] == bad


def test_flags_are_never_abbreviated(capsys):
    code, out, err = run_cli(capsys, "classify", "--pair", "2/5,-6/1")
    assert (code, out, err) == (2, "", "classify: unknown flag '--pair'\n")


@pytest.mark.parametrize(
    "argv",
    [("-h",), ("--help",), ("keyforms", "--help"), ("witness", "--pairs", "2/5", "-h"), ("batch", "-h", "--bogus")],
    ids=" ".join,
)
def test_help_prints_every_command_and_flag(capsys, argv):
    from semidegree.cli import _COMMANDS

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: semidegree COMMAND FLAGS\n")
    for name, command in _COMMANDS.items():
        assert f"\n{name} " in out and command.help in out
        for dest, text in {**command.values, **command.switches}.items():
            assert f"  --{dest}" in out and text in out
    assert "--kind algebraic|nonalgebraic" in out
    if argv[0] != "batch":  # a batch line may not nest
        assert run_line(shlex.join(argv)) == (2, json.dumps({"error": "bad arguments", "exit_code": "2"}))


COMMAND_LIST = "keyforms, semidegree, decide, cousin, classify, graph, witness, batch"
# command lines the reader refuses, and the one line each prints on stderr
REFUSED_LINES = {
    (): f"unknown command ''; the commands are {COMMAND_LIST}",
    ("frob",): f"unknown command 'frob'; the commands are {COMMAND_LIST}",
    ("--phi", "x", "keyforms"): f"unknown command '--phi'; the commands are {COMMAND_LIST}",
    ("keyforms", "--phi", "x"): "keyforms: missing --r",
    ("semidegree", "--r", "1"): "semidegree: missing --phi, --f",
    ("decide", "--phi", "x", "--r"): "decide: --r needs a value",
    ("keyforms", "--phi", "x", "-6/5"): "keyforms: unknown flag '-6/5'",
    ("witness", "--pairs", "2/5,-6/1", "--kind", "maybe"): "witness: --kind must be algebraic or nonalgebraic",
    ("graph", "--pairs", "2/5,-6/1", "--dot=1"): "graph: unknown flag '--dot=1'",
    ("batch", "--jobs", "2"): "batch: missing --input",
}


@pytest.mark.parametrize("argv", list(REFUSED_LINES), ids=lambda argv: " ".join(argv) or "nothing")
def test_a_refused_command_line_names_its_fault(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", REFUSED_LINES[argv] + "\n")
    if argv[:1] != ("batch",):  # a batch line may not nest
        assert run_line(shlex.join(argv)) == (2, json.dumps({"error": "bad arguments", "exit_code": "2"}))


@pytest.mark.parametrize(
    "jobs, message",
    [
        ("\u0662", "expected a number (at position 0)"),
        ("1_0", "expected the end (at position 1)"),
        ("-4", "expected a number (at position 0)"),
        ("+2", "expected a number (at position 0)"),
        ("2.0", "expected the end (at position 1)"),
        ("", "expected a number (at position 0)"),
        (LONG_RUN, "number too long: 5000 digits (at position 0)"),
    ],
)
def test_jobs_is_a_count_read_from_the_tokens(capsys, jobs, message):
    code, out, err = run_cli(capsys, "batch", "--input", GOLDEN_BATCH, "--jobs", jobs)
    assert (code, out, err) == (2, "", f"--jobs: {message}\n")


@pytest.mark.parametrize("jobs", [" 1", "0", "01", "1 "])
def test_jobs_of_at_most_one_runs_the_lines_in_order(capsys, jobs):
    golden = (Path(GOLDEN_BATCH).parent / "batch.out").read_text(encoding="utf-8")
    assert run_cli(capsys, "batch", "--input", GOLDEN_BATCH, "--jobs", jobs) == (3, golden, "")


def test_only_the_packages_refusals_exit_2(tmp_path, capsys, monkeypatch):
    import semidegree.cli as cli
    from semidegree.algebra import AlgebraError
    from semidegree.graphs import GraphError
    from semidegree.puiseux import PuiseuxError

    for refusal in (ParseError("x", 0), PuiseuxError(), AlgebraError(), GraphError(), cli.UsageError()):
        assert cli._exit_code(refusal) == 2
    for bug in (ValueError(), ZeroDivisionError(), OverflowError(), TypeError(), KeyError()):
        assert cli._exit_code(bug) == 5

    def broken(args):
        raise ValueError("boom")

    monkeypatch.setitem(cli._HANDLERS, "classify", broken)
    expected = "internal error: ValueError: boom"
    assert run_cli(capsys, "classify", "--pairs", "2/5,-6/1") == (5, "", expected + "\n")
    # a key form's text is made while the JSON is written, after the handler
    monkeypatch.setattr(cli, "laurent_to_str", broken)
    assert run_cli(capsys, "keyforms", "--phi", "x^(2/5)", "--r", "-6/5")[::2] == (5, expected + "\n")
    assert run_line('keyforms --phi "x^(2/5)" --r "-6/5"') == (5, json.dumps({"error": expected, "exit_code": "5"}))
    batch = tmp_path / "requests.txt"
    batch.write_text('classify --pairs "2/5,-6/1"\ngraph --pairs "2/5,-6/1"\n')
    code, out, _ = run_cli(capsys, "batch", "--input", str(batch))
    assert code == 5
    assert out.splitlines()[0] == json.dumps({"error": expected, "exit_code": "5"})
    assert json.loads(out.splitlines()[1])["command"] == "graph"


@pytest.mark.parametrize("line, message", [('classify --pairs "2/5', "No closing quotation"), ("graph --pairs 2/5\\", "No escaped character")])
def test_a_line_shlex_cannot_split_exits_2_with_its_message(line, message):
    assert run_line(line) == (2, json.dumps({"error": message, "exit_code": "2"}))


def _ladder_pairs(l):
    """3/5, then q -> 2q-1 over 2, then the generic pair q-1 over 1."""
    pairs = [(3, 5)]
    for _ in range(l - 1):
        pairs.append((2 * pairs[-1][0] - 1, 2))
    pairs.append((pairs[-1][0] - 1, 1))
    return ",".join(f"{q}/{p}" for q, p in pairs)


@pytest.mark.parametrize("kind", ["algebraic", "nonalgebraic"])
def test_witness_past_the_table_bound_is_refused_up_front(capsys, kind):
    # the table count is witness's only size refusal: l = 11 already ran
    # past 100 s, so a witness that builds past it is an unbounded run
    argv = ("witness", "--pairs", _ladder_pairs(20), "--kind", kind)
    start = time.perf_counter()
    assert run_cli(capsys, *argv)[:2] == (2, "")
    assert run_line(shlex.join(argv))[0] == 2
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "pairs",
    [f"2/{10**2200 + 1},-3/{10**2200 + 3}", "2/2000001,1/1"],
    ids=["2200 digits", "a million vertices"],
)
def test_a_graph_past_the_vertex_bound_is_refused_at_once(capsys, pairs):
    message = "pair list too large: its resolution graph has more than 100000 vertices"
    start = time.perf_counter()
    assert run_cli(capsys, "graph", "--pairs", pairs) == (2, "", message + "\n")
    assert run_line(shlex.join(("graph", "--pairs", pairs, "--dot"))) == (2, json.dumps({"error": message, "exit_code": "2"}))
    assert time.perf_counter() - start < 1


# a table count and a last value of more than 4300 digits, which str()
# cannot print
OVERSIZED_PAIRS = f"{10**2200 - 1}/{10**2200 + 1},2/{10**2200 + 3},1/1"
NEGATIVE_PAIRS = f"2/3,{-10**4200}/{10**2100 + 1},{-10**4200 - 1}/1"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("classify", "--pairs", OVERSIZED_PAIRS), 2),
        (("witness", "--pairs", OVERSIZED_PAIRS, "--kind", "algebraic"), 2),
        (("witness", "--pairs", OVERSIZED_PAIRS, "--kind", "nonalgebraic"), 2),
        (("graph", "--pairs", NEGATIVE_PAIRS), 3),
        (("witness", "--pairs", NEGATIVE_PAIRS, "--kind", "algebraic"), 3),
        (("witness", "--pairs", NEGATIVE_PAIRS, "--kind", "nonalgebraic"), 3),
    ],
    ids=["classify oversized", "algebraic oversized", "nonalgebraic oversized", "graph negative", "algebraic negative", "nonalgebraic negative"],
)
def test_a_refusal_prints_its_number_past_the_digit_limit(capsys, argv, code):
    omegas = essential_key_values(parse_pairs(argv[2]))
    if code == 2:
        size = max(apery_size(omegas[:2]), apery_size(omegas[:3]))
        message = f"essential values too large: a semigroup table would need {number_to_str(size)} entries, more than the bound of 1000000"
    else:
        message = f"no compactification: the last key-form value is {number_to_str(omegas[-1])} <= 0"
    assert len(message) > 4300
    assert run_cli(capsys, *argv) == (code, "", message + "\n")
    assert run_line(shlex.join(argv)) == (code, json.dumps({"error": message, "exit_code": str(code)}))


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--pairs", "--"),
        ("graph", "--pairs", "--"),
        ("witness", "--pairs", "--", "--kind", "algebraic"),
        ("witness", "--pairs", "2/5,-6/1", "--kind", "--"),
        ("keyforms", "--phi", "--", "--r", "-6/5"),
        ("decide", "--phi", "x^(2/5)", "--r", "--"),
        ("semidegree", "--phi", "x^(2/5)", "--r", "-6/5", "--f", "--"),
        ("cousin", "--psi", "--", "--r", "8/3"),
        ("batch", "--input", "--"),
        ("batch", "--input", GOLDEN_BATCH, "--jobs", "--"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_flag_value_of_double_dash_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "internal error" not in err


# flag values with a digit of another script, a _ separator or more digits
# than int() reads, and their refusals
REFUSED_NUMBERS = {
    ("classify", "--pairs", "\u0662/\u0665,-6/1"): "--pairs: expected a number (at position 0)",  # Arabic-Indic
    ("classify", "--pairs", "2/5,-6_0/1"): "--pairs: expected ',' (at position 6)",
    ("graph", "--pairs", "2/5,-6/\uff11"): "--pairs: expected a number (at position 7)",  # a fullwidth 1
    ("witness", "--pairs", "2_0/5,-6/1", "--kind", "algebraic"): "--pairs: expected ',' (at position 1)",
    ("decide", "--phi", "x^(2/5)", "--r", "-\u0666/\u0665"): "--r: expected a number (at position 1)",
    ("decide", "--phi", "x^(2/5)", "--r", "-6/5_0"): "--r: expected the end (at position 4)",
    ("keyforms", "--phi", "x^(2/5)", "--r", "-1_2/10"): "--r: expected the end (at position 2)",
    ("cousin", "--psi", "x^(3/2) - x^5", "--r", "\u0668/3"): "--r: expected a number (at position 0)",
    ("semidegree", "--phi", LONG_RUN, "--r", "-6/5", "--f", "y"): "--phi: number too long: 5000 digits (at position 0)",
    ("semidegree", "--phi", "x^(2/5)", "--r", "-6/5", "--f", f"y^{LONG_RUN}"):
        "--f: number too long: 5000 digits (at position 2)",
    ("semidegree", "--phi", "x", "--r", "-1", "--f", "2/0"): "--f: zero denominator (at position 3)",
    ("cousin", "--psi", f"x^(3/{LONG_RUN})", "--r", "11/5"): "--psi: number too long: 5000 digits (at position 5)",
    ("decide", "--phi", "x^(2/5)", "--r", f"-{LONG_RUN}/5"): "--r: number too long: 5000 digits (at position 1)",
    ("classify", "--pairs", f"2/5,-{LONG_RUN}/1"): "--pairs: number too long: 5000 digits (at position 5)",
}


@pytest.mark.parametrize("argv", list(REFUSED_NUMBERS))
def test_numbers_in_flags_are_ascii_digits_only(capsys, argv):
    message = REFUSED_NUMBERS[argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")
    assert run_line(shlex.join(argv)) == (2, json.dumps({"error": message, "exit_code": "2"}))


def test_ascii_numbers_in_flags_read_as_int_and_fraction_read_them(monkeypatch):
    """parse_rational and parse_pairs against the regex grammar of helpers;
    every text the readers they replaced took (Fraction() on --r, int() on
    each side of each --pairs chunk) reads the same, unless it is decimal
    or exponent notation or signs a pair's p, which int() also took."""
    import semidegree.parsing as parsing
    from helpers import regex_parse_pairs, regex_parse_rational

    monkeypatch.setattr(parsing, "FormalPuiseuxPairs", lambda pairs: pairs)  # compare the numbers read

    def outcome(parse, text):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            return None

    def pairs_by_int(text):
        chunks = [chunk.strip().partition("/") for chunk in text.split(",")]
        if not all(q for q, _, _ in chunks):
            raise ValueError("empty pair")
        return tuple((int(q), int(p if slash else "1")) for q, slash, p in chunks)

    signed_p = re.compile(r"/\s*[+-]")
    rng = random.Random(56)
    alphabet = "0123456789+-/., eE"
    read = kept = 0
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
        rational = outcome(regex_parse_rational, text)
        assert outcome(parsing.parse_rational, text) == rational, repr(text)
        pairs = outcome(regex_parse_pairs, text)
        assert outcome(parsing.parse_pairs, text) == pairs, repr(text)
        read += rational is not None and pairs is not None
        if not set(".eE") & set(text):
            old_rational = outcome(lambda t: F(t.strip()), text)
            assert old_rational in (None, rational), repr(text)
            old_pairs = None if signed_p.search(text) else outcome(pairs_by_int, text)
            assert old_pairs in (None, pairs), repr(text)
            kept += old_rational is not None and old_pairs is not None
    assert read > 4000 and kept > 4000


def test_split_line_matches_shlex():
    from semidegree.cli import _LINE, _split_line

    def split(split_with, text):
        try:
            return split_with(text)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(53)
    alphabet = " \t\r\n\v\f'\"\\ab-="  # \v and \f are word characters to shlex
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        expected = split(shlex.split, text)
        assert split(_split_line, text) == expected, repr(text)
        # the regexes, not the shlex fallback, split every well-formed line
        assert bool(_LINE.fullmatch(text)) == isinstance(expected, list), repr(text)


GOLDEN_LINES = (Path(__file__).resolve().parent / "golden" / "batch.txt").read_text().splitlines()
# the shapes the benchmark's batch workload draws: values quoted by shlex.quote
BENCH_LINES = [
    "keyforms --phi '-2*x^(7/3) + x^-1' --r -13/3",
    "decide --phi 'x^(5/2) + 3*x' --r 1/2",
    "semidegree --phi 'x^(1/2)' --r -3/2 --f 'y^2 - 2*x^-1*y + 3'",
    "cousin --psi 'x^(3/2) - x^5' --r 8/3",
    "classify --pairs 3/2,-1/1",
    "graph --pairs 7/3,-5/1",
    "witness --pairs 3/2,-1/1 --kind nonalgebraic",
]
INSERTS = [
    ["-h"], ["--help"], ["--"], ["--dot"], ["--dot=1"], ["--dot="], ["--kind", "maybe"], ["--kind=maybe"],
    ["--kind", "algebraic"], ["--bogus", "1"], ["--ph", "x"], ["--pair", "2/5"], ["--input", "f"],
    ["--r"], ["--r="], ["-6/5"], ["batch"], ["--phi", "--r"], ["--f", "-h"],
]


def _mutations(rng, argv):
    """argv with flags dropped, repeated, joined by '=', reordered or
    foreign tokens inserted, one to three edits deep."""
    argv = list(argv)
    for _ in range(rng.randrange(1, 4)):
        edit = rng.randrange(5)
        i = rng.randrange(len(argv) + 1)
        if edit == 0 and len(argv) > 1:
            del argv[rng.randrange(len(argv))]
        elif edit == 1 and i + 1 < len(argv) and argv[i].startswith("--"):
            argv[i : i] = argv[i : i + 2]
        elif edit == 2 and i + 1 < len(argv) and argv[i].startswith("--"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif edit == 3 and len(argv) > 2:
            j = rng.randrange(1, len(argv))
            argv[j], argv[-1] = argv[-1], argv[j]
        else:
            argv[i:i] = rng.choice(INSERTS)
    return argv


# the batch command lines of the README and of the benchmark, which main reads
BATCH_LINES = ["batch --input requests.txt --jobs 4", "batch --input chunk.txt --jobs 1", "batch --input requests.txt"]


def test_line_args_matches_argparse():
    """The one reader of every command line, main's argv and batch lines,
    against argparse built from the same command table."""
    from helpers import argparse_line_args

    from semidegree.cli import UsageError, _line_args, _split_line

    def by_reader(argv):
        try:
            args = _line_args(argv)
        except UsageError:
            return None
        return None if args is None else vars(args)  # None: help

    rng = random.Random(54)
    lines = GOLDEN_LINES + [" ".join(map(shlex.quote, argv)) for argv in README_EXAMPLES] + BENCH_LINES + BATCH_LINES
    accepted = refused = 0
    for line in lines:
        argv = _split_line(line)
        assert by_reader(argv) == argparse_line_args(argv) is not None, line
        for _ in range(150):
            mutant = _mutations(rng, argv)
            expected = argparse_line_args(mutant)
            assert by_reader(mutant) == expected, mutant
            accepted += expected is not None
            refused += expected is None
    assert accepted > 300 and refused > 2000


def test_laurent_printer_matches_the_items_oracle():
    from helpers import items_laurent_to_str

    from semidegree import LaurentPoly

    rng = random.Random(55)
    cases = [LaurentPoly.zero(), LaurentPoly.one(), -LaurentPoly.one(), LaurentPoly.term(0, 0, F(-3, 4))]
    for _ in range(400):
        terms = [
            ((rng.randrange(-4, 5), rng.randrange(0, 4)), F(rng.choice((-7, -2, -1, 1, 1, 3, 4)), rng.choice((1, 1, 2, 3, 6))))
            for _ in range(rng.randrange(1, 6))
        ]
        cases.append(LaurentPoly(terms))
    for poly in cases:
        assert laurent_to_str(poly) == items_laurent_to_str(poly)


# ---------------------------------------------------------------------------
# integers past the interpreter's limit on the digits of str(int)

SEVENS = "7" * 3000  # a coefficient the parser reads; its square passes the limit
LONG_P, OTHER_P = 10**2200 + 1, 10**2200 + 3  # omega_0 = LONG_P * OTHER_P has 4401 digits
NINES = "9" * 4300
PAST_THE_LIMIT = [
    ("keyforms", "--phi", f"x^(5/2)+{SEVENS}*x^(9/4)", "--r", "5/4"),
    ("decide", "--phi", f"x^(5/2)+{SEVENS}*x^(9/4)", "--r", "5/4"),
    ("classify", "--pairs", f"3/{LONG_P},-1/{OTHER_P}"),
    # exponents of 4300 digits: the rings, the floors and the printed
    # exponents of their runs all pass the limit
    ("keyforms", "--phi", f"x^({NINES}/2) + x^({int(NINES) - 2}/4)", "--r", "-1"),
    ("decide", "--phi", f"x^({NINES}/2) + x^({int(NINES) - 2}/4)", "--r", "-1"),
]


@contextlib.contextmanager
def _no_digit_limit():
    """str(int) with no limit on digits, as before the limit existed."""
    if not hasattr(sys, "set_int_max_str_digits"):  # 3.10 before 3.10.7 has none
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_number_to_str_matches_str_without_the_limit():
    rng = random.Random(57)
    numbers = [0, 1, -1, 10**4299, 10**4300, -(10**4300), 10**8600 - 1]
    for digits in (4299, 4300, 4301, 4302, 8600, 8601, 9000, 30000):
        numbers += [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(3)]
        numbers += [-numbers[-1], numbers[-1] * 10 ** (digits // 2)]  # a run of zeros at a split
    numbers += [F(numbers[-1], 3), F(7, numbers[-4]), F(-numbers[-2], numbers[-6])]
    printed = [number_to_str(n) for n in numbers]
    with _no_digit_limit():
        assert printed == [str(n) for n in numbers]


@pytest.mark.parametrize("argv", PAST_THE_LIMIT, ids=["keyforms", "decide", "classify", "keyforms-exponents", "decide-exponents"])
def test_numbers_past_the_digit_limit_are_printed_whole(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    line = run_line(shlex.join(argv))
    child = subprocess.run([sys.executable, "-m", "semidegree.cli", *argv], capture_output=True, env=child_env(), timeout=120)
    assert (code, err, line[0]) == (0, "", 0)
    assert (child.returncode, child.stderr, child.stdout.decode()) == (0, b"", out)
    with _no_digit_limit():
        assert run_cli(capsys, *argv) == (0, out, "")
        assert run_line(shlex.join(argv)) == line
    if hasattr(sys, "get_int_max_str_digits"):
        assert max(map(len, re.findall(r"\d+", out))) > sys.get_int_max_str_digits()
