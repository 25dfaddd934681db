"""Benchmark entry point: one workload, one seed, one run, in this process.

    python3 perfbench/run.py --workload chain --seed 0 --seconds 6 --trace 0

A closed loop with one caller: each operation starts when the previous one
returns.  The run generates its inputs from the seed, loads or builds
checked references, warms up, then times whole passes over its inputs, at
least ``seconds * OPS_PER_SECOND`` operations, comparing every output byte
for byte with its reference.  With
``--trace 0`` it also measures set-up time in fresh processes and climbs the
workload's tractability ladder; with ``--trace 1`` it times the same
operations once plainly and once with per-layer hooks installed.  The last
line of stdout is the result object; the line before it holds the details
(raw times, ladder steps, sample counts, absent layers).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WARMUP_PASSES = {"chain": 1, "classify": 1, "batch": 2}


def import_package() -> str | None:
    """Import the package from this checkout's src/; an error message if not."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import semidegree
        import semidegree.cli  # noqa: F401
    except ImportError as exc:
        return f"cannot import semidegree from {src}: {exc}"
    if src not in Path(semidegree.__file__).resolve().parents:
        return f"semidegree was imported from {semidegree.__file__}, outside {src}"
    return None


@dataclass
class Timed:
    latencies: list[float] = field(default_factory=list)  # reference seconds
    raw: list[float] = field(default_factory=list)  # wall seconds
    calibrations: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.raw) / sum(self.raw)

    def percentile_ms(self, q: int, raw: bool = False) -> float:
        return statistics.quantiles(self.raw if raw else self.latencies, n=10)[q // 10 - 1] * 1000


def timed_pass(spec, refs: list[str | None], count: int, tracer=None) -> Timed:
    """Run ``count`` operations in list order; time each one alone."""
    import speed

    out = Timed(calibrations=[speed.calibration(spec.name)])
    n = len(spec.items)
    for i in range(count):
        item = spec.items[i % n]
        gc.collect()
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            result, error = spec.op(item), None
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        out.calibrations.append(speed.calibration(spec.name))
        if error is not None or spec.output(result) != refs[i % n]:
            out.failed += 1
            if len(out.errors) < 5:
                out.errors.append(f"op {i} (input {i % n}): {error!r}" if error else f"op {i} (input {i % n}): output differs")
        local = (out.calibrations[-2] + out.calibrations[-1]) / 2
        out.raw.append(elapsed)
        out.latencies.append(elapsed * speed.reference_s(spec.name) / local)
    return out


def prepare(workload: str, seed: int, seconds: int, workdir: Path):
    """Inputs, checked references, and a warm-up; nothing here is timed."""
    import workloads as wl

    spec = wl.build(workload, seed, workdir, seconds)
    refs, source, problems = wl.references(spec)
    for _ in range(WARMUP_PASSES[workload]):
        timed_pass(spec, refs, len(spec.items))
    return spec, refs, {"references": source, "oracle_problems": problems}


def plain_run(workload: str, seed: int, seconds: int, workdir: Path):
    import child
    import speed
    import workloads as wl

    marks = [time.perf_counter()]
    spec, refs, detail = prepare(workload, seed, seconds, workdir)
    marks.append(time.perf_counter())
    setup_s, setup_samples = child.setup_seconds(workload, workdir / f"{workload}.txt")
    marks.append(time.perf_counter())
    timed = timed_pass(spec, refs, spec.ops)
    marks.append(time.perf_counter())
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ladder = child.run_ladder(workload, workdir)
    marks.append(time.perf_counter())

    attempted = len(timed.latencies) + len(ladder["steps"])
    failed = timed.failed + sum(s["outcome"] == "wrong" for s in ladder["steps"])
    metrics = {
        "ops_per_s": (timed.ops_per_s, "1/s"),
        "latency_p50_ms": (timed.percentile_ms(50), "ms"),
        "latency_p90_ms": (timed.percentile_ms(90), "ms"),
        "correct_ops_ratio": ((len(timed.latencies) - timed.failed) / len(timed.latencies), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (self_mb, "MB"),
        "tractable_delta_x": (ladder["tractable_delta_x"], "delta_x"),
    }
    detail.update(
        samples=len(timed.latencies),
        distinct_inputs=len(spec.items),
        inputs_sha256=spec.digest,
        raw_ops_per_s=timed.raw_ops_per_s,
        raw_latency_p50_ms=timed.percentile_ms(50, raw=True),
        raw_latency_p90_ms=timed.percentile_ms(90, raw=True),
        slowdown_median=statistics.median(timed.calibrations) / speed.reference_s(workload),
        setup_samples_s=setup_samples,
        ladder=ladder,
        errors=timed.errors,
        phase_wall_s=dict(zip(("prepare", "setup_probes", "timed", "ladder"), (b - a for a, b in zip(marks, marks[1:])))),
    )
    detail["kinds"] = wl.kind_counts(workload, refs)
    if workload == "chain":
        detail["refusal_share"] = detail["kinds"].get("refused", 0) / len(refs)
    return attempted, failed, metrics, detail


def traced_run(workload: str, seed: int, seconds: int, workdir: Path):
    import speed
    import tracing

    spec, refs, detail = prepare(workload, seed, seconds, workdir)
    plain = timed_pass(spec, refs, spec.ops)
    tracer = tracing.Tracer()
    tracer.install()
    traced = timed_pass(spec, refs, spec.ops, tracer)
    scale = speed.reference_s(workload) / statistics.median(traced.calibrations)
    values = tracing.layer_metrics(tracing.aggregate(tracer, scale), tracer.absent)
    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    tracing.write_spans(spans_path, tracer)

    tracer.uninstall()

    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    values["trace.ops_per_s_plain"] = plain.ops_per_s
    values["trace.ops_per_s_traced"] = traced.ops_per_s
    values["trace.overhead_pct"] = 100 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
    # the plain pass in wall time, without the machine-speed correction
    values["raw.ops_per_s"] = plain.raw_ops_per_s
    values["raw.latency_p50_ms"] = plain.percentile_ms(50, raw=True)
    values["raw.latency_p90_ms"] = plain.percentile_ms(90, raw=True)
    units = dict(tracing.METRICS)
    metrics = {name: (value, units[name]) for name, value in values.items()}
    detail.update(
        samples=len(traced.latencies),
        absent_layers=sorted(tracer.absent),
        spans_file=str(spans_path.relative_to(ROOT)),
        spans=len(tracer.spans),
        errors=plain.errors + traced.errors,
    )
    return attempted, failed, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chain", "classify", "batch"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    problem = import_package()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2

    import workloads as wl

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else plain_run
        attempted, failed, metrics, detail = run(args.workload, args.seed, args.seconds, workdir)
    except wl.GenerationError as exc:
        # no inputs to time: one failed operation, and no metrics
        attempted, failed, metrics, detail = 1, 1, {}, {"generation_error": str(exc), "oracle_problems": []}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and not detail["oracle_problems"]
    print(json.dumps({"detail": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
