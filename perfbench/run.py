"""Benchmark entry point for the genuinize -> LFCC -> GMM matrix.

    python3 perfbench/run.py --workload toy-matrix --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 3

Run from the root of a source checkout; the package is imported from
`src/` (pure Python, nothing to build). Each run makes its inputs from the
seed, starts fresh processes for the set-up samples and one measured
process for the closed loop (see worker.py), checks every output against
reference.json, and prints one JSON object as its last line of output.

With --trace 0 the metrics are the end-to-end ones: the median over the
run's iterations of wall and CPU seconds per iteration, the measured
process's peak RSS, and the median set-up time over SETUP_SAMPLES fresh
processes. The set-up samples count towards --seconds. With --trace 1 they
are the per-layer metrics of a traced iteration. Metric names and units
come from BENCHMARK.json. The lines before the JSON give the environment,
workload sizes, and every metric by name with its unit, including
failed_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("toy-matrix", "paper-matrix", "batch-genuinize")
# Inputs come from seed % REFERENCE_SEEDS, so every input set the benchmark
# can make has a recorded reference output in reference.json.
REFERENCE_SEEDS = 16
REFERENCE_FILE = HERE / "reference.json"
SPEC_FILE = HERE.parent / "BENCHMARK.json"
# Set-up is mostly imports: about a second, with a spread of some 15%
# between fresh processes, which a median of nine samples smooths out.
SETUP_SAMPLES = 9
# Each process must end well inside the 180 s a whole run may take.
PROCESS_TIMEOUT_S = 150
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units() -> tuple[dict, dict]:
    """({end-to-end name: unit}, {per-layer name: unit}) from BENCHMARK.json."""
    spec = json.loads(SPEC_FILE.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    pass


def _check_checkout(root: Path) -> None:
    if not (root / "src" / "wavespoof" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/wavespoof package; run from a source checkout")


def _environment(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_env": {key: _worker_env(root)[key] for key in (*THREAD_ENV, "PYTHONHASHSEED")},
    }


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({key: "1" for key in THREAD_ENV})
    # A per-process str hash seed changes set iteration order, and with it
    # the allocation pattern: peak RSS of batch-genuinize fell on one of two
    # levels 8% apart from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(root: Path, work_dir: Path, args: list, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its result JSON."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    result_file = work_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--work-dir", str(work_dir), "--result", str(result_file)]
    timeout = min(PROCESS_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result_file.is_file():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(result_file.read_text())
    shutil.rmtree(work_dir, ignore_errors=True)
    return result


def bench_workload(root: Path, name: str, seed: int, seconds: int, trace: bool,
                   deadline: float) -> dict:
    end_to_end_units, per_layer_units = metric_units()
    work = root / ".perfbench_work"
    common = ["--workload", name, "--seed", str(seed), "--trace", str(int(trace))]
    started = time.monotonic()
    setup_samples = []
    if not trace:
        for sample in range(SETUP_SAMPLES - 1):
            setup_samples.append(
                run_worker(root, work / f"setup{sample}",
                           [*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
            )
    loop_seconds = max(seconds - (time.monotonic() - started), 1.0)
    result = run_worker(root, work / "measure", [*common, "--seconds", f"{loop_seconds:.3f}"],
                        deadline)
    setup_samples.append(result["setup_s"])
    iterations = result["iterations"]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    if trace:
        values, units = result["layers"], per_layer_units
    else:
        values, units = {
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup_samples),
        }, end_to_end_units
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    metrics = {key: {"value": values[key], "unit": units[key]} for key in sorted(values)}
    return {
        "workload": name,
        "input_seed": result["input_seed"],
        "sizes": result["sizes"],
        "libraries": result["libraries"],
        "iterations": len(iterations),
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "setup_samples_s": setup_samples,
        "outputs_identical": all(it["identical"] for it in iterations),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    names = WORKLOAD_NAMES if args.all else (args.workload,)
    root = Path.cwd()
    started = time.monotonic()
    deadline = started + 170.0 * len(names)
    try:
        _check_checkout(root)
        env = _environment(root)
        runs = [bench_workload(root, name, args.seed, args.seconds, bool(args.trace), deadline)
                for name in names]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(root / ".perfbench_work", ignore_errors=True)

    for run in runs:
        record = {"environment": env, "seed": args.seed,
                  **{k: v for k, v in run.items() if k != "metrics"}}
        print("record " + json.dumps(record, sort_keys=True))
        attempted, failed = run["attempted"], run["failed"]
        print(f"{run['workload']}: failed_frac = {failed / attempted!r} frac "
              f"({failed} of {attempted} scenarios or steps)")
        for key, metric in run["metrics"].items():
            print(f"{run['workload']}: {key} = {metric['value']!r} {metric['unit']}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else run["workload"] + "."
        for key, metric in run["metrics"].items():
            metrics[prefix + key] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
