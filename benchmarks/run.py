"""Benchmark of the nhsdp CLI: sweep, design and search workloads.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Every CLI call runs in-process through ``nhsdp.cli.main``, one at a time
(a closed loop with a single client and no extra threads), so the
user-facing code path is what is timed.  Each of the workload's three cases
gets a third of ``--seconds`` and repeats while its share lasts; the run
reports medians of speed-normalised samples (see speed.py).  Outputs are
checked after each sample, outside the timed region.  ``--trace 1`` traces
one sample of each case and reports per-layer metrics instead (README.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("sweep", "design", "search")
SETUP_SAMPLES = 5  # one set-up in this process, four in fresh interpreters
MIN_SAMPLES = 2    # per case, so even the longest case reports a median of two

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402


def import_package():
    """Import nhsdp from this checkout's src/ and nowhere else."""
    if not (SRC / "nhsdp" / "__init__.py").is_file():
        print(f"error: no nhsdp package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import nhsdp.cli

    if Path(nhsdp.cli.__file__).resolve().parent != SRC / "nhsdp":
        print(f"error: imported nhsdp from {nhsdp.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return nhsdp.cli


def timed_setup(workload: str, workdir: Path, seed: int) -> float:
    """Import the package and write the inputs; returns normalised seconds."""
    probe = SpeedProbe()
    with probe.running():
        mark, c0 = probe.mark(), probe.clock()
        import_package()
        import cases  # imported here: its numpy import is part of set-up

        cases.setup(workload, workdir, seed)
        return probe.normalise(probe.clock() - c0, mark)


def setup_in_fresh_process(workload: str, seed: int, index: int) -> float:
    workdir = RUNS / f"{workload}-seed{seed}-{os.getpid()}-setup{index}"
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-into", str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Ledger:
    """Operations attempted and failed: CLI calls, size guards and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_case(cli, case, ledger, clock, tracer=None) -> float:
    """One sample of a case: its CLI chain, timed, then its output checks."""
    import cases

    for op in case.ops:  # no check may pass on a file an earlier sample wrote
        if "--out" in op.argv:
            Path(op.argv[op.argv.index("--out") + 1]).unlink(missing_ok=True)
    total = 0.0
    for op in case.ops:
        label = f"{case.name}: nhsdp {' '.join(op.argv[:2])}"
        predicted = op.cells * cases.CELL_BYTES
        if not ledger.record(f"{label} is predicted to allocate {predicted} B dense",
                             predicted <= cases.DENSE_LIMIT_BYTES):
            continue
        out, err = io.StringIO(), io.StringIO()
        traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced:
            c0 = clock()
            try:
                rc = cli.main(list(op.argv))
            except Exception as exc:  # a traceback is a failed call, not a crashed run
                rc = f"with {exc!r}"
            total += clock() - c0
        ok = rc == 0 and re.fullmatch(op.expect, out.getvalue()) is not None
        ledger.record(f"{label} exited {rc} printing {out.getvalue()[:200]!r} "
                      f"{err.getvalue()[:200]!r}", ok)
        if tracer is not None:
            tracer.op += 1
    try:
        results = case.check()
    except (OSError, ValueError, KeyError) as exc:  # e.g. an output never written
        results = [(f"output check raised {exc!r}", False)]
    for what, ok in results:
        ledger.record(f"{case.name}: {what}", ok)
    return total


def run_cases(cli, workload, ledger, seconds, tracer=None):
    """Each case in turn gets an equal share of ``seconds``.

    A case takes MIN_SAMPLES untraced samples (one when tracing),
    then starts another while the last one still fits in its share.  With a
    tracer it also takes exactly one traced sample, its second, so the spans
    cover one pass over the workload.  Returns the normalised and the raw
    samples per case, and the normalised traced sample per case.
    """
    share = seconds / len(workload.cases)
    min_samples = 1 if tracer is not None else MIN_SAMPLES
    probe = SpeedProbe()
    samples, raw_samples, traced = {}, {}, {}
    with probe.running():
        for case in workload.cases:
            times, raw_times, start = [], [], probe.clock()
            while len(times) < min_samples or probe.clock() - start + raw_times[-1] <= share \
                    or (tracer is not None and case.name not in traced):
                trace_now = tracer is not None and len(times) == 1 and case.name not in traced
                mark = probe.mark()
                probe.on_probe = tracer.record_probe if trace_now else None
                raw = run_case(cli, case, ledger, probe.clock, tracer if trace_now else None)
                probe.on_probe = None
                if trace_now:
                    traced[case.name] = probe.normalise(raw, mark)
                else:
                    times.append(probe.normalise(raw, mark))
                    raw_times.append(raw)
            samples[case.name], raw_samples[case.name] = times, raw_times
    return samples, raw_samples, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(ledger, metrics: dict[str, tuple[float, str]]) -> int:
    for what in ledger.failures[:20]:
        print(f"FAILED {what}", file=sys.stderr)
    failed = len(ledger.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def report_untraced(cli, workload, ledger, args, setup_samples) -> int:
    samples, raw_samples, _ = run_cases(cli, workload, ledger, args.seconds)
    print(f"workload {workload.name}, seed {args.seed}")
    metrics = {}
    for i, case in enumerate(workload.cases, 1):
        times = sorted(samples[case.name])
        med = statistics.median(times)
        raw = statistics.median(raw_samples[case.name])
        rate = f", {case.work[0] / med:.1f} {case.work[1]}/s" if case.work else ""
        print(f"  case{i}_s = {workload.name}.{case.name}: median {med:.4f} s of {len(times)} "
              f"(range {times[0]:.4f}-{times[-1]:.4f}; {raw:.4f} s unnormalised){rate}")
        metrics[f"case{i}_s"] = (med, "s")
    setup_s = statistics.median(setup_samples)
    print(f"  setup_s  median {setup_s:.4f} s of {[round(s, 4) for s in setup_samples]}")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["ok_frac"] = (1.0 - len(ledger.failures) / ledger.attempted, "1")
    return emit(ledger, metrics)


def unit_of(metric: str) -> str:
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "1"
    return "B" if "bytes" in metric else "count"


def report_traced(cli, workload, ledger, args) -> int:
    from tracer import Tracer

    tracer = Tracer()
    samples, _, traced = run_cases(cli, workload, ledger, args.seconds, tracer=tracer)
    m = tracer.summary()
    untraced = sum(statistics.median(samples[c.name]) for c in workload.cases)
    m["trace.overhead_frac"] = sum(traced.values()) / untraced - 1.0

    layer_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    layer_sum += m["trace.count_s"] + m["trace.probe_s"]
    ledger.record("per-layer self times add up to the traced wall time",
                  abs(layer_sum - m["trace.wall_s"]) <= 1e-6 * max(m["trace.wall_s"], 1.0))

    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"trace-{workload.name}-seed{args.seed}.npz"
    tracer.write(path)
    print(f"workload {workload.name}, seed {args.seed}: one traced pass, "
          f"spans written to {path}")
    for key, value in m.items():
        print(f"  {key:36s} {value:.6g} {unit_of(key)}")
    return emit(ledger, {k: (v, unit_of(k)) for k, v in m.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_into:
        print(timed_setup(args.workload, Path(args.setup_into), args.seed))
        return 0

    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_samples = [timed_setup(args.workload, workdir, args.seed)]
        setup_samples += [setup_in_fresh_process(args.workload, args.seed, i)
                          for i in range(1, SETUP_SAMPLES)]
        import cases

        cli = sys.modules["nhsdp.cli"]
        workload = cases.build(args.workload, workdir, args.seed)
        ledger = Ledger()
        for what, ok in workload.setup_check():
            ledger.record(f"set-up: {what}", ok)
        if args.trace:
            return report_traced(cli, workload, ledger, args)
        return report_untraced(cli, workload, ledger, args, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
