"""The measured process: one closed-loop client running one workload.

run.py starts it with OPENBLAS_NUM_THREADS=1, PYTHONHASHSEED=0 and the
package's `src` on PYTHONPATH, so the matrix's `workers` setting is the
only parallelism.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR --result FILE [--setup-only | --record]

Set-up (imports, corpus generation, and load_run_setup for the matrix
workloads) is timed from the first line of this file. With --setup-only
the process stops there; with --record it runs one unchecked iteration
for record_reference.py.
Otherwise, untraced, it runs the workload back to back until the next
iteration would end after --seconds, and reports every iteration. Traced,
it runs a warm-up iteration, then TRACE_PAIRS untraced and traced
iterations in turn at the workload's worker count, one traced iteration at
one worker when that count is higher (to count the builds that were
needed), and a warm rerun over the first traced iteration's result cache.
The per-layer metrics come from the first traced iteration.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import BATCH_STEPS as CLI_STEPS  # noqa: E402
from workloads import WORKLOADS, input_seed, load_reference  # noqa: E402

# Untraced/traced iteration pairs behind trace.overhead_frac.
TRACE_PAIRS = 3
SPLIT_GROUPS = ("waveform", "pmf", "vad", "genuinize", "features", "gmm", "experiment", "cli")


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="run one iteration without a reference and report its outputs")
    return parser.parse_args(argv)


def _libraries() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def _iteration(workload, state, work_dir: Path, number: int, reference, **kwargs):
    out_dir = work_dir / f"iter{number}"
    out_dir.mkdir(parents=True)
    cpu = time.process_time()
    wall = time.perf_counter()
    outcome = workload.run(state, out_dir, reference, **kwargs)
    return {
        "wall_s": time.perf_counter() - wall,
        "cpu_s": time.process_time() - cpu,
        "steps": outcome.steps,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "identical": outcome.identical,
        "record": outcome.record,
        "out_dir": str(out_dir),
    }


def _closed_loop(workload, state, work_dir: Path, seconds: float, reference):
    """Iterations back to back. Peak RSS covers the whole loop: at two
    workers, how much memory duplicate builds take varies between
    iterations, and the peak over several of them is the steadier figure."""
    iterations = []
    started = time.perf_counter()
    while True:
        iterations.append(_iteration(workload, state, work_dir, len(iterations), reference))
        # Outputs are already checked; keep disk use to one iteration's worth.
        shutil.rmtree(iterations[-1]["out_dir"])
        elapsed = time.perf_counter() - started
        longest = max(it["wall_s"] for it in iterations)
        if elapsed + longest > seconds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return {"iterations": iterations, "peak_rss_mb": peak_rss_mb}


def _traced(workload, state, work_dir: Path, reference):
    from spans import Instrumentation, Tracer

    iterations = []

    def run(tracer=None, workers=None):
        iterations.append(_iteration(workload, state, work_dir, len(iterations), reference,
                                     tracer=tracer, workers=workers))
        return iterations[-1]

    def run_traced(workers):
        tracer = Tracer()
        with Instrumentation(tracer) as instrumentation:
            iteration = run(tracer, workers)
        return iteration, instrumentation.report(), tracer.layer_totals()

    # The first iteration in a process runs cold (first calls into numpy and
    # BLAS, lazy allocations), so it is left out. Untraced and traced
    # iterations then alternate, and the overhead compares their medians.
    run()
    plain, traced_runs = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run())
        traced_runs.append(run_traced(workload.workers))
    traced, layers, totals = traced_runs[0]

    span_total = sum(self_s for _, self_s in totals.values())
    for group in SPLIT_GROUPS:
        share = sum(self_s for name, (_, self_s) in totals.items()
                    if name.split(".", 1)[0] == group)
        layers[f"split.{group}"] = share / span_total if span_total > 0 else 0.0
    layers["experiment.run_matrix.self_s"] = totals.get("experiment.run_matrix", (0, 0.0))[1]
    if "experiment.cache_misses" in layers:
        # Every build at one worker is needed; extra builds at more workers
        # are duplicates of a key another thread was already building.
        needed = (run_traced(1)[1] if workload.workers > 1 else layers)["experiment.cache_misses"]
        attempted = layers["experiment.cache_misses"]
        layers["experiment.useful_build_frac"] = needed / attempted if attempted else 1.0
    resume = getattr(workload, "resume", None)
    layers["experiment.resume_s"] = resume(state, Path(traced["out_dir"])) if resume else 0.0
    for step in CLI_STEPS:
        layers[f"cli.{step}.s"] = plain[0]["steps"].get(step, 0.0)
    layers["trace.overhead_frac"] = (
        statistics.median(it["wall_s"] for it, _, _ in traced_runs)
        / statistics.median(it["wall_s"] for it in plain) - 1.0
    )
    layers["check.outputs_identical"] = float(all(it["identical"] for it in iterations))
    return {"iterations": iterations, "layers": layers}


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    seed = input_seed(args.seed)
    state = workload.setup(work_dir / "corpus", seed)
    setup_s = time.perf_counter() - _STARTED
    result = {"setup_s": setup_s, "input_seed": seed, "sizes": workload.sizes(),
              "libraries": _libraries()}
    if not args.setup_only:
        reference = None if args.record else load_reference(workload.name, args.seed)
        if reference is None and not args.record:
            raise SystemExit(f"no reference output recorded for {workload.name} seed {seed}")
        if args.record:
            result["iterations"] = [_iteration(workload, state, work_dir, 0, None)]
        elif args.trace:
            result.update(_traced(workload, state, work_dir, reference))
        else:
            result.update(_closed_loop(workload, state, work_dir, args.seconds, reference))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
