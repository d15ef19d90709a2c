"""Benchmark of membership, equivalence and the CLI of causalcurves.

    python3 bench/run.py --workload membership --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --quick

Run from the root of a source tree; the package is imported from its
``src``.  Inputs are drawn from ``--seed``.  Each run repeats whole
rounds of its workload's fixed list of operations for ``--seconds``
(and at least 100 operations), checks every result and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Times are wall times taken
to a reference machine speed (``speed.Speed``).  ``--quick`` runs one short
pass of every workload, traced and untraced, with all checks.
"""

from __future__ import annotations

import os

# One BLAS thread, here and in every process started from here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
WORKLOADS = ("membership", "equivalence", "cli")
MIN_OPS = 100
MIN_ROUNDS = 3
#: Rounds stop being started after this long, so a run that hits
#: overrunning operations still ends in time.
HARD_STOP_S = 140.0
SETUP_SAMPLES = 5


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "causalcurves", "__init__.py")):
        sys.exit(f"error: no package source at {SRC}/causalcurves; run from the root of the source tree")
    sys.path.insert(0, SRC)
    import causalcurves
    import causalcurves.cli  # noqa: F401  (traced runs call cli.main in process)

    if not os.path.abspath(causalcurves.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: causalcurves was imported from {causalcurves.__file__}, not {SRC}")


_import_package()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402


class ProcessRunner:
    """CLI runner that starts one process per call and keeps the peak RSS."""

    def __init__(self):
        self.run = workloads.cli_process(ROOT)
        self.peak_kb = 0
        self.stdout_bytes = 0

    def __call__(self, args, stdin_text):
        result = self.run(args, stdin_text)
        self.peak_kb = max(self.peak_kb, result.maxrss_kb)
        self.stdout_bytes += len(result.stdout.encode())
        return result


def make_ops(workload, seed, runner=None):
    if workload == "membership":
        return workloads.membership_ops(seed)
    if workload == "equivalence":
        return workloads.equivalence_ops(seed)
    return workloads.cli_ops(seed, runner)


def warm_up(workload, ops):
    """Load lazy imports and caches on every path before timing."""
    if workload == "cli":
        workloads.run_process([sys.executable, "-m", "causalcurves.cli", "example", "--name", "dim4"], None, ROOT)
        return
    # One operation of each kind, at its smallest order: the same code paths.
    seen = set()
    for op in ops:
        kind = op.name.rsplit(".", 1)[0]
        if kind not in seen:
            seen.add(kind)
            workloads.execute(op)


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, op, outcome):
        self.attempted += 1
        if outcome.error is not None:
            self.failures.append((op.name, outcome.error, outcome.expected))

    @property
    def correct(self):
        return all(expected for _, _, expected in self.failures)


def run_round(ops, tally, stop_at, tracer=None, speed=None):
    """One pass over ``ops``; returns the wall time of each operation, taken
    to the reference speed when ``speed`` is given.  Operations left when
    ``stop_at`` has passed are not run: they count as failed, at their
    time limit."""
    seconds = []
    for op in ops:
        factor = 1.0 if speed is None else speed.factor()
        if perf_counter() > stop_at:
            outcome = workloads.Outcome(op.limit, "not run: run time budget exhausted")
        else:
            outcome = workloads.execute(op, tracer)
        tally.add(op, outcome)
        seconds.append(outcome.seconds * factor)
    return seconds


def setup_seconds(workload, seed, speed):
    """Median time from process start to the first timed operation, each
    sample taken to the reference speed measured around it."""
    samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        before = speed.factor(fresh=True)
        with workloads.deadline(120.0):
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
            try:
                line = proc.stdout.readline()
                seconds = perf_counter() - start
                proc.stdout.read()
            finally:
                proc.stdout.close()
                if proc.wait() != 0 or line.strip() != b"ready":
                    sys.exit(f"error: set-up probe failed with exit code {proc.returncode}")
        samples.append(seconds * 0.5 * (before + speed.factor(fresh=True)))
    return statistics.median(samples)


def import_ms():
    """Median wall time of a process that only imports causalcurves."""
    samples = []
    for _ in range(3):
        with workloads.deadline(60.0):
            start = perf_counter()
            workloads.run_process([sys.executable, "-c", "import causalcurves"], None, ROOT)
            samples.append(1e3 * (perf_counter() - start))
    return statistics.median(samples)


def typical(per_round):
    """Each operation's median time over the rounds of a run."""
    return np.median(np.array(per_round), axis=0)


def measure(workload, seed, ops, seconds, runner):
    """Untraced run: the end-to-end metrics."""
    tally = Tally()
    speed = Speed()
    setup = setup_seconds(workload, seed, speed)
    start = perf_counter()
    stop_at = start + HARD_STOP_S
    per_round = []
    while (
        perf_counter() - start < seconds
        or len(per_round) < MIN_ROUNDS
        or len(per_round) * len(ops) < MIN_OPS
    ):
        per_round.append(run_round(ops, tally, stop_at, speed=speed))
        if perf_counter() > stop_at:
            break
    if workload == "cli":
        peak_mb = runner.peak_kb / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    durations = np.array(per_round)
    p50, p90 = np.percentile(durations, [50, 90])
    metrics = {
        "ops_per_s": durations.size / durations.sum(),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "setup_s": setup,
        "peak_rss_mb": peak_mb,
    }
    extra = {"rounds": len(per_round), "ops_per_round": len(ops),
             "reference_s": speed.samples, "per_round": per_round}
    return tally, metrics, extra


def measure_traced(workload, seed, ops, seconds):
    """Traced run: per-layer metrics and the tracing overhead.

    Library workloads alternate untraced and traced rounds.  The cli
    workload runs each round three times: as processes (wall time and
    output size), in process untraced (time inside cli.main) and in
    process traced (library spans under cli.main).
    """
    tally = Tally()
    tracer = tracing.Tracer()
    imp = import_ms()
    start = perf_counter()
    stop_at = start + HARD_STOP_S
    plain, traced, process = [], [], []
    runner = ProcessRunner() if workload == "cli" else None
    process_ops = workloads.cli_ops(seed, runner) if runner is not None else None
    n_traced = 0
    speed = Speed()
    factors = []
    while perf_counter() - start < seconds or not traced:
        if process_ops is not None:
            process.append(run_round(process_ops, tally, stop_at, speed=speed))
        plain.append(run_round(ops, tally, stop_at, speed=speed))
        factors.append(speed.factor())
        traced.append(run_round(ops, tally, stop_at, tracer, speed))
        n_traced += len(ops)
        if perf_counter() > stop_at:
            break
    metrics = tracing.layer_metrics(tracer, n_traced)
    main_ms = startup_ms = stdout_bytes = 0.0
    if process_ops is not None:
        main_ms = 1e3 * typical(plain).mean()
        startup_ms = 1e3 * typical(process).mean() - main_ms
        stdout_bytes = runner.stdout_bytes / (len(process) * len(ops))
    # Span times are taken to the reference speed by the run's median factor.
    scale = float(np.median(factors))
    metrics = {name: value * scale if name.endswith("self_ms") else value for name, value in metrics.items()}
    metrics.update(
        {
            "cli.import_ms": imp * scale,
            "cli.main_ms": main_ms,
            "cli.startup_ms": startup_ms,
            "cli.stdout_bytes": stdout_bytes,
        }
    )
    overhead = typical(traced).sum() / typical(plain).sum()
    extra = {"rounds": len(traced), "ops_per_round": len(ops), "trace_overhead": overhead, "scale": scale}
    _write(f"trace-{workload}-seed{seed}.json", {"spans": tracer.spans, "ops": [op.name for op in ops]})
    return tally, metrics, extra


def _write(name, obj):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(obj, handle, separators=(",", ":"))


def report(tally, metrics, trace):
    """The result object, with the metrics and units BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in spec} != set(metrics):
        sys.exit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in spec},
    }


def _summarize_failures(tally):
    counts = {}
    for name, error, expected in tally.failures:
        key = (name, error.split(":")[0], expected)
        counts[key] = counts.get(key, 0) + 1
    for (name, kind, expected), count in sorted(counts.items()):
        label = "expected" if expected else "UNEXPECTED"
        print(f"{label} failure x{count}: {name}: {kind}", file=sys.stderr)
    for name, error, expected in tally.failures:
        if not expected:
            print(f"first unexpected failure: {name}: {error}", file=sys.stderr)
            break


def quick():
    """One untraced and one traced pass of every workload, all checks on."""
    ok = True
    for workload in WORKLOADS:
        start = perf_counter()
        ops = make_ops(workload, 1, ProcessRunner() if workload == "cli" else None)
        warm_up(workload, ops)
        tally = Tally()
        run_round(ops, tally, start + HARD_STOP_S)
        traced_ops = make_ops(workload, 1, workloads.cli_in_process) if workload == "cli" else ops
        run_round(traced_ops, tally, start + HARD_STOP_S, tracing.Tracer())
        _summarize_failures(tally)
        ok = ok and tally.correct
        print(json.dumps({"workload": workload, "correct": tally.correct, "attempted": tally.attempted,
                          "failed": len(tally.failures), "seconds": round(perf_counter() - start, 3)}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one short checked pass of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.trace:
        ops = make_ops(args.workload, args.seed, workloads.cli_in_process)
        warm_up(args.workload, ops)
        tally, metrics, extra = measure_traced(args.workload, args.seed, ops, args.seconds)
        print(f"trace overhead: traced/untraced round time {extra['trace_overhead']:.3f}")
    else:
        runner = ProcessRunner() if args.workload == "cli" else None
        ops = make_ops(args.workload, args.seed, runner)
        warm_up(args.workload, ops)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        tally, metrics, extra = measure(args.workload, args.seed, ops, args.seconds, runner)
    result = report(tally, metrics, args.trace)
    _summarize_failures(tally)
    _write(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", {**result, **extra})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
