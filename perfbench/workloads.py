"""The benchmark's workloads: inputs from a seed, one closed-loop iteration,
and the check of its outputs against the recorded reference.

Each workload calls only public entry points of the package
(`make_toy_corpus`, `load_run_setup`, `run_matrix`, `wavespoof.cli.main`).
Entry points are looked up on their module at call time, so the tracing
wrappers installed by `spans.Instrumentation` are the ones called.

Why these three:

- toy-matrix: the 45-scenario matrix on the bundled toy corpus (8 kHz,
  0.5 s files, K=4), one worker. Genuinization dominates it; GMM work is a
  few percent. It is the plain single-threaded baseline.
- paper-matrix: the same matrix at the paper's LFCC-GMM settings (16 kHz,
  d=5, K=512, 10 EM iterations, 60-dim LFCC), two workers. GMM training
  and scoring dominate it, and it is the only workload that runs the
  matrix's thread pool.
- batch-genuinize: the attack/defence preprocessing use through the CLI:
  estimate a speech-only PMF (runs the VAD), then perturbed and random
  batch genuinization of every file (writes WAVs; random mode re-estimates
  each reference). Its 4 s, 16 kHz files occupy far more amplitude levels
  per file than the toy corpus does.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import wavespoof
import wavespoof.cli

from run import REFERENCE_FILE, REFERENCE_SEEDS

TOY_FILES_PER_CLASS = 12
PAPER_FILES_PER_CLASS = 4
PAPER_DURATION_S = 3.0
D_BITS = 5
PAPER_CONFIG = {
    "features": ["lfcc"],
    "gmm_components": 512,
    "em_iters": 10,
    "extra_bits": D_BITS,
}
PAPER_WORKERS = 2
# How far (in percentage points) a scenario's EER may move from the
# reference. Fixed, so it does not widen as a corpus shrinks. One trial's
# share is 8 to 25 points at these trial counts, so a reordering of scores
# near the threshold fails.
EER_TOLERANCE_PCT = 1.0
BATCH_FILES_PER_CLASS = 10
BATCH_DURATION_S = 4.0
BATCH_STEPS = ("estimate-pmf", "genuinize-perturbed", "genuinize-random")


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def sha256_tree(root: Path) -> str:
    """Digest of every file under root, by relative path and content."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _strip_seconds(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines()) + "\n"


@dataclass
class Outcome:
    """One iteration: step timings, operations attempted and failed, whether
    the outputs are byte-identical to the reference, and the reference entry
    those outputs produce (used when recording a new reference)."""

    steps: dict
    attempted: int
    failed: int
    identical: bool
    record: dict


class MatrixWorkload:
    def __init__(self, name: str, workers: int, files_per_class: int, corpus_kwargs: dict,
                 config_overrides: dict | None):
        self.name = name
        self.workers = workers
        self.files_per_class = files_per_class
        self.corpus_kwargs = corpus_kwargs
        self.config_overrides = config_overrides

    def sizes(self) -> dict:
        return {
            "files_per_class": self.files_per_class,
            "workers": self.workers,
            **self.corpus_kwargs,
            **(self.config_overrides or {"config": "bundled toy config.json"}),
        }

    def setup(self, root: Path, seed: int):
        manifest_csv = wavespoof.make_toy_corpus(
            root, seed=seed, files_per_class=self.files_per_class, run_seed=seed,
            **self.corpus_kwargs,
        )
        config_json = manifest_csv.parent / "config.json"
        if self.config_overrides is not None:
            config_json = manifest_csv.parent / "bench_config.json"
            config_json.write_text(json.dumps({"seed": seed, **self.config_overrides}))
        return wavespoof.load_run_setup(manifest_csv, config_json, workers=self.workers)

    def run(self, state, out_dir: Path, reference: dict | None, tracer=None,
            workers: int | None = None) -> Outcome:
        manifest, config = state
        if workers is not None:
            config = replace(config, workers=workers)
        out_csv = out_dir / "results.csv"
        started = time.perf_counter()
        with _span(tracer, "experiment.run_matrix"):
            results = wavespoof.run_matrix(manifest, config, cache_dir=out_dir / "cache",
                                           out_csv=out_csv)
        wall = time.perf_counter() - started
        stripped = _strip_seconds(out_csv.read_text(encoding="ascii"))
        record = {
            "eers": [r.eer for r in results],
            "csv_sha256": hashlib.sha256(stripped.encode()).hexdigest(),
        }
        failed = sum(
            1 for position, r in enumerate(results)
            if not self._scenario_ok(r, None if reference is None else reference["eers"][position])
        )
        identical = reference is not None and reference["csv_sha256"] == record["csv_sha256"]
        return Outcome({"run_matrix": wall}, len(results), failed, identical, record)

    def _scenario_ok(self, result, reference_eer) -> bool:
        # Trial counts must match exactly. An EER may move by at most
        # EER_TOLERANCE_PCT from the reference, so a change that shifts
        # scores without reordering them across the threshold still passes.
        if result.error is not None or result.eer is None:
            return False
        if (result.genuine_trials, result.spoof_trials) != (self.files_per_class,) * 2:
            return False
        if reference_eer is None:
            return True
        return abs(result.eer - reference_eer) <= EER_TOLERANCE_PCT

    def resume(self, state, out_dir: Path) -> float:
        """Seconds for a warm rerun over the cache a finished run left."""
        manifest, config = state
        started = time.perf_counter()
        wavespoof.run_matrix(manifest, config, cache_dir=out_dir / "cache",
                             out_csv=out_dir / "resumed.csv")
        return time.perf_counter() - started


class BatchGenuinizeWorkload:
    name = "batch-genuinize"
    workers = 1

    def sizes(self) -> dict:
        return {
            "files": 4 * BATCH_FILES_PER_CLASS,
            "sample_rate": 16000,
            "duration_s": BATCH_DURATION_S,
            "d_bits": D_BITS,
        }

    def setup(self, root: Path, seed: int):
        manifest_csv = wavespoof.make_toy_corpus(
            root, seed=seed, files_per_class=BATCH_FILES_PER_CLASS, sample_rate=16000,
            duration_s=BATCH_DURATION_S,
        )
        train_genuine = sorted(str(p) for p in (root / "audio" / "train" / "genuine").glob("*.wav"))
        return manifest_csv, train_genuine, seed

    def _argv(self, step: str, state, out_dir: Path):
        manifest_csv, train_genuine, seed = state
        target = out_dir / "estimate-pmf" / "target.csv"
        if step == "estimate-pmf":
            target.parent.mkdir(parents=True)
            return ["estimate-pmf", "--out", str(target), "--keep", "speech", *train_genuine]
        mode = step.split("-", 1)[1]
        argv = ["genuinize", "--mode", mode, "--d-bits", str(D_BITS), "--seed", str(seed),
                "--manifest", str(manifest_csv), "--out-dir", str(out_dir / step)]
        if mode == "perturbed":
            argv += ["--target", str(target)]
        else:
            argv += ["--pool-selector", "train:genuine"]
        return argv

    def run(self, state, out_dir: Path, reference: dict | None, tracer=None,
            workers: int | None = None) -> Outcome:
        steps = {}
        record = {}
        failed = 0
        for step in BATCH_STEPS:
            argv = self._argv(step, state, out_dir)
            started = time.perf_counter()
            with _span(tracer, f"cli.{step}"):
                code = wavespoof.cli.main(argv)
            steps[step] = time.perf_counter() - started
            record[step] = sha256_tree(out_dir / step) if code == 0 else None
            if code != 0 or (reference is not None and record[step] != reference[step]):
                failed += 1
        identical = reference is not None and failed == 0
        return Outcome(steps, len(BATCH_STEPS), failed, identical, record)


WORKLOADS = {
    "toy-matrix": MatrixWorkload("toy-matrix", 1, TOY_FILES_PER_CLASS, {}, None),
    "paper-matrix": MatrixWorkload(
        "paper-matrix", PAPER_WORKERS, PAPER_FILES_PER_CLASS,
        {"sample_rate": 16000, "duration_s": PAPER_DURATION_S}, PAPER_CONFIG,
    ),
    "batch-genuinize": BatchGenuinizeWorkload(),
}


def load_reference(name: str, seed: int) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(name, {}).get(str(input_seed(seed)))
