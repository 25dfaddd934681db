"""Self-tests of the benchmark itself (about a minute).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default pytest collection,
so the tier-1 suite is unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

if run.import_package() is not None:
    raise SystemExit(run.import_package())

import child  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _tmpdir() -> Path:
    run.WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))


def test_corrupted_reference_lowers_correct_ratio():
    workdir = _tmpdir()
    try:
        spec = wl.build("classify", wl.DEFAULT_SEED, workdir, seconds=1)
        refs, source, problems = wl.references(spec)
        assert not problems
        assert source == "committed"
        assert run.timed_pass(spec, refs, len(spec.items)).failed == 0
        corrupted = list(refs)
        corrupted[3] = corrupted[3].replace('"kind":"', '"kind":"x', 1)
        timed = run.timed_pass(spec, corrupted, len(spec.items))
        assert timed.failed == 1
        assert (len(timed.latencies) - timed.failed) / len(timed.latencies) < 1
    finally:
        shutil.rmtree(workdir)


def test_a_raising_operation_fails_without_stopping_the_run():
    workdir = _tmpdir()
    try:
        spec = wl.build("classify", 7, workdir, seconds=1)
        real_op, bad = spec.op, spec.items[5]

        def op(item):
            if item is bad:
                raise RuntimeError("injected")
            return real_op(item)

        spec.op = op
        refs, problems = wl.build_references(spec)
        assert refs[5] is None and len(problems) == 1 and all(r is not None for i, r in enumerate(refs) if i != 5)
        timed = run.timed_pass(spec, refs, len(spec.items))
        assert timed.failed == 1 and "injected" in timed.errors[0]
    finally:
        shutil.rmtree(workdir)


def test_a_failing_program_line_is_a_failure_not_skipped():
    # the witness command refuses everything: the inputs stay the same and
    # every chunk (each holds witness lines) fails
    handlers = wl.cli._HANDLERS
    saved = handlers["witness"]

    def refuse(args):
        raise wl.sd.graphs.WitnessError("injected")

    dirs = [_tmpdir(), _tmpdir()]
    try:
        before = wl.build("batch", 7, dirs[0], seconds=1)
        handlers["witness"] = refuse
        spec = wl.build("batch", 7, dirs[1], seconds=1)
        assert spec.digest == before.digest
        refs, problems = wl.build_references(spec)
        assert len(problems) == wl.BATCH_CHUNKS and all(r is None for r in refs)
        assert run.timed_pass(spec, refs, len(spec.items)).failed == len(spec.items)
    finally:
        handlers["witness"] = saved
        for d in dirs:
            shutil.rmtree(d)


def _result_line(argv: list[str]) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert run.main(argv) == 0
    return json.loads(buffer.getvalue().splitlines()[-1])


def test_inputs_that_cannot_be_drawn_make_the_run_incorrect():
    argv = ["--seed", "3", "--seconds", "1", "--trace", "0", "--workload"]
    # the program fails on a valid pair list while the cost model reads it
    saved_graph = wl.sd.resolution_graph
    wl.sd.resolution_graph = lambda pairs: (_ for _ in ()).throw(wl.sd.graphs.GraphError("injected"))
    try:
        result = _result_line(argv + ["classify"])
    finally:
        wl.sd.resolution_graph = saved_graph
    assert result["correct"] is False and result["failed"] == 1
    # no valid line can be drawn: the cap ends generation
    saved_line = wl._batch_line
    wl._batch_line = lambda rng, command: None
    try:
        start = time.perf_counter()
        result = _result_line(argv + ["batch"])
        assert time.perf_counter() - start < 10
    finally:
        wl._batch_line = saved_line
    assert result["correct"] is False and result["failed"] == 1


def test_tiny_budget_kills_depth_4():
    workdir = _tmpdir()
    try:
        start = time.perf_counter()
        ladder = child.run_ladder("chain", workdir, budget_s=0.01, first=4)
        elapsed = time.perf_counter() - start
        assert [s["outcome"] for s in ladder["steps"]] == ["over_budget"]
        assert ladder["steps"][0]["delta_x"] == 16
        assert ladder["tractable_delta_x"] == 0
        assert elapsed < 10, elapsed  # depth 4 alone takes about 2.5 s at full speed
    finally:
        shutil.rmtree(workdir)


def test_inputs_repeat_per_seed_and_stay_in_their_bands():
    for name in ("chain", "classify", "batch"):
        dirs = [_tmpdir() for _ in range(3)]
        try:
            for d, seed in zip(dirs, (5, 5, 6)):
                wl.build(name, seed, d, seconds=1)
            files = [(d / f"{name}.txt").read_bytes() for d in dirs]
            assert files[0] == files[1], name
            assert files[0] != files[2], name
            for data in (files[0], files[2]):
                _check_bands(name, data.decode().splitlines())
        finally:
            for d in dirs:
                shutil.rmtree(d)


def _check_bands(name: str, lines: list[str]) -> None:
    if name == "chain":
        assert len(lines) == 4 + len(wl.CHAIN_PATTERNS)
        for line, (exps, r) in zip(lines[4:], wl.CHAIN_PATTERNS):
            g = wl.parse_series(*line.split("\t"))
            assert g.phi.exponents() == [wl.F(e) for e in exps.split()] and g.r == wl.F(r)
            pairs = wl.series_pairs(g.phi.exponents(), g.r)
            assert wl.essential_values(pairs)[0] == wl.CHAIN_DELTA_X and pairs[-1][1] == 1
    elif name == "classify":
        strata = [wl.classify_stratum(wl.pair_list(line)) for line in lines]
        assert sorted(strata) == sorted(list(range(len(wl.CLASSIFY_BIN_EDGES_MS) - 1)) * wl.CLASSIFY_PER_BIN)
        for line in lines:
            assert wl.graph_pairs_valid(wl.pair_list(line), wl.CLASSIFY_DELTA_X)
    else:
        assert len(lines) == wl.BATCH_CHUNKS * wl.BATCH_CHUNK_LINES
        for i in range(0, len(lines), wl.BATCH_CHUNK_LINES):
            commands = sorted(line.split()[0] for line in lines[i : i + wl.BATCH_CHUNK_LINES])
            assert commands == sorted(wl.BATCH_COMMANDS * wl.BATCH_PER_COMMAND)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the two cover 1..6 once
        ["c", 2.0, 3.0, 1, 0],
        ["d", 9.0, 12.0, 0, 0],  # runs past its parent: only 9..10 counts
    ]
    selfs = tracing.self_times(spans)
    assert all(math.isclose(x, y) for x, y in zip(selfs, [4.0, 2.0, 3.0, 1.0, 3.0])), selfs


def test_missing_hook_is_absent_and_the_run_continues():
    # as if refactors had renamed graphs.s2, XiSeries and a whole module
    saved, saved_methods = list(tracing.FUNCTIONS), list(tracing.METHODS)
    tracing.FUNCTIONS[:] = [
        (layer, module, "renamed_s2" if attr == "s2" else attr, counter)
        for layer, module, attr, counter in saved
    ] + [("gone.layer", "no_such_module", "f", None)]
    tracing.METHODS[:] = [
        (layer, module, "RenamedSeries" if cls == "XiSeries" else cls, method, counter)
        for layer, module, cls, method, counter in saved_methods
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == {"graphs.s2", "gone.layer", "algebra.xiseries_mul", "algebra.xiseries_pow"}
        tracer.begin_op(0)
        wl.classify_op(wl.parse_pairs("2/5,-6/1"))
        tracer.end_op()
        values = tracing.layer_metrics(tracing.aggregate(tracer, 1.0), tracer.absent)
        assert "graphs.s2.busy_ms" not in values and "algebra.xiseries_mul.calls" not in values
        assert values["graphs.is_negative_definite.calls"] == 1
    finally:
        tracer.uninstall()
        tracing.FUNCTIONS[:] = saved
        tracing.METHODS[:] = saved_methods
    assert wl.sd.graphs.in_semigroup is wl.sd.semigroups.in_semigroup


def test_bypass_predictions_hold_at_the_default_seed():
    workdir = _tmpdir()
    try:
        _, failed, metrics, _ = run.traced_run("classify", wl.DEFAULT_SEED, 1, workdir)
        assert failed == 0
        assert metrics["algebra.xiseries_mul.calls"][0] == 0
        assert metrics["semigroups.in_semigroup.calls"][0] > 0
        _, failed, metrics, _ = run.traced_run("chain", wl.DEFAULT_SEED, 1, workdir)
        assert failed == 0
        assert metrics["semigroups.in_semigroup.calls"][0] == 0
        assert metrics["algebra.xiseries_mul.calls"][0] > 0
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    failures = 0
    for name, func in list(globals().items()):
        if name.startswith("test_") and callable(func):
            start = time.perf_counter()
            try:
                func()
            except Exception as exc:  # noqa: BLE001 - report every failing test
                failures += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"PASS {name} ({time.perf_counter() - start:.1f} s)")
    sys.exit(1 if failures else 0)
