"""The CLI's streamed output against the text it used to build whole.

Single commands write their JSON with ``json.dump`` and print each key form
only when the encoder reaches it; ``batch`` writes each line as soon as it
is known.  These tests pin that the bytes did not change, that the
process pool is loaded only for ``--jobs``, that a dead ``--jobs`` worker
fails only the lines it lost, that a large output no longer costs a
multiple of its size in memory, and that a reader who closes stdout early
ends the run quietly.
"""

import functools
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semidegree.cli as cli
from semidegree.algebra import LaurentPoly
from semidegree.parsing import laurent_to_str

from check_large_output import DEPTH7_MD5, DEPTH7_SIZE, child_env, dyadic_keyforms_argv
from helpers import random_laurent
from test_golden import CASES, GOLDEN

CLASSIFY_LINE = 'classify --pairs "2/5,-6/1"'


def _with_form_strings(node):
    """node with every LaurentPoly replaced by its text, as payloads were built."""
    if isinstance(node, LaurentPoly):
        return laurent_to_str(node)
    if isinstance(node, dict):
        return {key: _with_form_strings(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_with_form_strings(value) for value in node]
    return node


def _whole_text(result) -> str:
    """The single-command stdout as main wrote it in one piece."""
    if isinstance(result, str):
        return result
    return json.dumps(_with_form_strings(result), indent=2) + "\n"


def _whole_batch(lines: list[str]) -> tuple[int, str]:
    """The batch exit code and stdout as _cmd_batch built them: every line
    run first, then the first failing code and the joined text."""
    results = [cli.run_line(line) for line in lines]
    code = next((c for c, _ in results if c != cli.EXIT_OK), cli.EXIT_OK)
    return code, "".join(text + "\n" for _, text in results)


def _run_main(capsys, argv) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def forked_pool(monkeypatch):
    """--jobs pools that fork, so patched handlers reach the workers, on a
    machine that reads as four cores."""
    import concurrent.futures
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)


def test_importing_the_cli_loads_no_process_pool():
    probe = "import sys, semidegree, semidegree.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout == "[]\n"


SINGLE = [case for case in CASES if case[0] != "batch"]


@pytest.mark.parametrize("name, argv, code", SINGLE, ids=[case[0] for case in SINGLE])
def test_streamed_output_equals_the_whole_text(name, argv, code, capsys):
    args = cli._PARSER.parse_args(cli._merge_flag_values(argv))
    expected = _whole_text(cli._HANDLERS[args.command](args))
    assert _run_main(capsys, argv) == (code, expected)


# texts json must escape: quotes, backslashes, control characters,
# non-ASCII (one outside the BMP, written as a surrogate pair) and U+2028
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∞", " ", "😀", "x", "^", " ", "/"]


def _awkward_text(rng) -> str:
    return "".join(rng.choice(AWKWARD) for _ in range(rng.randrange(0, 12)))


def _seeded_payload(rng) -> dict:
    forms = [random_laurent(rng) for _ in range(rng.randrange(0, 4))]
    return {
        "command": _awkward_text(rng),
        "phi": _awkward_text(rng),
        "f": _awkward_text(rng),
        "key_forms": forms,
        "values": [_awkward_text(rng) for _ in range(rng.randrange(0, 3))],
        "essential_indices": [],
        "nested": [{"k": _awkward_text(rng), "forms": forms[:1]}, []],
        "all_polynomial": rng.random() < 0.5,
        "mark": None,
    }


@pytest.mark.parametrize("seed", range(40))
def test_seeded_payloads_stream_as_json_dumps_writes_them(seed, capsys, monkeypatch):
    payload = _seeded_payload(random.Random(seed))
    monkeypatch.setitem(cli._HANDLERS, "classify", lambda args: payload)
    assert _run_main(capsys, shlex.split(CLASSIFY_LINE)) == (0, _whole_text(payload))
    assert cli.run_line(CLASSIFY_LINE) == (0, json.dumps(_with_form_strings(payload), separators=(",", ":")))


@pytest.mark.parametrize("stray", [object(), Fraction(1, 2), {1, 2}, b"x"], ids=["object", "fraction", "set", "bytes"])
def test_the_form_hook_refuses_anything_but_a_form(stray):
    with pytest.raises(TypeError):
        cli._form_text(stray)
    with pytest.raises(TypeError):
        json.dumps({"key_forms": [LaurentPoly.x(), stray]}, default=cli._form_text)


def _mixed_lines(monkeypatch) -> list[str]:
    """Good lines, bad ones and one that fails inside its handler (exit 5)."""

    def broken(args):
        raise RuntimeError("injected")

    monkeypatch.setitem(cli._HANDLERS, "graph", broken)
    return [
        CLASSIFY_LINE,
        'keyforms --phi "x^(2/5" --r "-1"',
        'graph --pairs "2/5,-6/1"',
        'decide --phi "x^(2/5)" --r "-6/5"',
        "classify",
        'decide --phi "0" --r "-1/2"',
        CLASSIFY_LINE,
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("source", ["golden", "mixed"])
def test_streamed_batch_equals_the_joined_text(source, jobs, tmp_path, capsys, monkeypatch, request):
    if jobs != "1":
        request.getfixturevalue("forked_pool")
    if source == "golden":
        path = GOLDEN / "batch.txt"
        lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    else:
        lines = _mixed_lines(monkeypatch)
        path = tmp_path / "mixed.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = _whole_batch(lines)
    assert expected[0] == (3 if source == "golden" else 2)
    assert _run_main(capsys, ["batch", "--input", str(path), "--jobs", jobs]) == expected
    if source == "mixed":
        assert json.loads(expected[1].splitlines()[2]) == {
            "error": "internal error: RuntimeError: injected",
            "exit_code": "5",
        }


def test_batch_writes_each_line_before_the_next_one_runs(tmp_path, monkeypatch):
    out = io.StringIO()
    written_before = []
    classify = cli._HANDLERS["classify"]

    def counting(args):
        written_before.append(out.getvalue().count("\n"))
        return classify(args)

    monkeypatch.setitem(cli._HANDLERS, "classify", counting)
    monkeypatch.setattr(sys, "stdout", out)
    path = tmp_path / "requests.txt"
    path.write_text(f"{CLASSIFY_LINE}\n" * 4)
    assert cli.main(["batch", "--input", str(path)]) == 0
    assert written_before == [0, 1, 2, 3]


def test_a_dead_worker_fails_only_the_lines_it_lost(forked_pool, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "witness", lambda args: os._exit(9))
    lines = [CLASSIFY_LINE, 'witness --pairs "2/5,-6/1" --kind algebraic', CLASSIFY_LINE, CLASSIFY_LINE]
    path = tmp_path / "requests.txt"
    path.write_text("".join(line + "\n" for line in lines))
    code, out = _run_main(capsys, ["batch", "--input", str(path), "--jobs", "2"])
    lost = {"error": "internal error: a batch worker process died", "exit_code": "5"}
    classified = json.loads(cli.run_line(CLASSIFY_LINE)[1])
    written = [json.loads(line) for line in out.splitlines()]
    assert code == 5
    assert len(written) == len(lines)
    assert written[1] == lost
    assert all(line in (lost, classified) for i, line in enumerate(written) if i != 1)


@pytest.mark.skipif(not hasattr(os, "wait4") or not hasattr(os, "posix_spawn"), reason="needs os.wait4 and os.posix_spawn")
def test_a_large_output_costs_less_than_four_times_its_size(tmp_path):
    """The depth-7 keyforms process, less a process that only imports the
    CLI, peaks below 4x its 7.3 MB of stdout (the whole-text writer took
    about 5.5x)."""
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB elsewhere

    def peak_bytes(argv, out: Path) -> int:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644)]
        pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        return usage.ru_maxrss * unit

    out = tmp_path / "keyforms.json"
    baseline = peak_bytes([sys.executable, "-c", "import semidegree.cli"], tmp_path / "import.out")
    peak = peak_bytes(dyadic_keyforms_argv(7), out)
    data = out.read_bytes()
    assert (len(data), hashlib.md5(data).hexdigest()) == (DEPTH7_SIZE, DEPTH7_MD5)
    assert peak - baseline < 4 * len(data), (peak, baseline, len(data))


def _closed_after_100_bytes(argv) -> tuple[int, bytes]:
    """(exit code, stderr) of a process whose reader closes its stdout after
    the first 100 bytes, as ``| head -c 100`` does."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        _, err = child.communicate(timeout=300)
    return child.returncode, err


def test_a_closed_stdout_ends_a_large_keyforms_output_quietly():
    assert _closed_after_100_bytes(dyadic_keyforms_argv(7)) == (1, b"")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_closed_stdout_ends_a_large_batch_quietly(jobs, tmp_path):
    # about 0.4 MB of output, far past what a pipe and stdout's buffer hold
    path = tmp_path / "requests.txt"
    path.write_text(f"{CLASSIFY_LINE}\n" * 3000)
    argv = [sys.executable, "-m", "semidegree.cli", "batch", "--input", str(path), "--jobs", jobs]
    assert _closed_after_100_bytes(argv) == (1, b"")
