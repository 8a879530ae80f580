"""Attacker/countermeasure scenario matrix over a manifest of labelled WAVs.

A scenario is (h_train, s_train, attacker_action, cm_action, feature):
h_train / s_train say how the genuine and spoof *training* sides were
treated (O original, G genuinized, R randomly genuinized), the attacker
action is applied to spoof-labelled *test* files only, and the
countermeasure action is applied to every test file. Of the nine training
combinations only five are coherent (a treated genuine side with an
untreated spoof side, or mixed G/R treatments, would defend against an
attack the attacker is not making), so the matrix is 5 x 3 x 3 = 45 cells
per feature.

The attacker's target PMF comes from the manifest's attacker_pmf_source
selector (test-side genuine speech); the countermeasure's PMF comes from
cm_pmf_source (training genuine speech) and is the same PMF used to
genuinize training material.

Every random draw derives from the single run seed through documented
SeedSequence layers: role_seed(seed, role) isolates consumers (attacker,
countermeasure, the two training sides, the two models), and genuinization
derives per-file streams from (role seed, manifest ordinal). Results are
cached per scenario under a digest of the scenario spec, the config, and the
manifest including file content hashes; cache writes are atomic
(write-then-rename), so interrupted runs resume cleanly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError, ToolError
from .features import FeatureMatrix, LfccConfig, get_extractor, stack_features
from .genuinize import GenuinizeParams, genuinize
from .gmm import GmmModel, eer_from_scores, score_trial, train_gmm
from .pmf import cdf_from_pmf, estimate_pmf
from .waveform import read_wav

TRAIN_COMBOS = (("O", "O"), ("O", "G"), ("G", "G"), ("O", "R"), ("R", "R"))
ACTIONS = ("N", "G", "R")
LABELS = ("genuine", "spoof")
SUBSETS = ("train", "test")

_MANIFEST_HEADER = "path,label,subset"
_RESULTS_HEADER = "feature,h_train,s_train,attacker,cm,eer,genuine_trials,spoof_trials,seconds"
_SEED_MASK = (1 << 64) - 1
# ScenarioResult fields a result cache entry stores next to its spec key.
_CACHED_FIELDS = ("eer", "genuine_trials", "spoof_trials", "seconds")
# Genuinization mode behind each treating action ("N" leaves files as they are).
_ACTION_MODES = {"G": "perturbed", "R": "random"}

logger = logging.getLogger(__name__)


class SeedRole(IntEnum):
    """Independent randomness consumers, each with its own derived seed."""

    ATTACKER = 1
    COUNTERMEASURE = 2
    TRAIN_SPOOF = 3
    TRAIN_GENUINE = 4
    MODEL_GENUINE = 5
    MODEL_SPOOF = 6


def role_seed(run_seed: int, role: int) -> int:
    """Deterministic 64-bit sub-seed for one randomness consumer."""
    ss = np.random.SeedSequence(entropy=(run_seed & _SEED_MASK, int(role)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    subset: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise ConfigError(f"label must be one of {LABELS}; got {self.label!r}")
        if self.subset not in SUBSETS:
            raise ConfigError(f"subset must be one of {SUBSETS}; got {self.subset!r}")


@dataclass(frozen=True)
class DatasetManifest:
    """Labelled file list plus the two PMF-source selectors (subset:label)."""

    entries: tuple
    attacker_pmf_source: str = "test:genuine"
    cm_pmf_source: str = "train:genuine"
    root: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def resolve(self, entry: ManifestEntry) -> Path:
        path = Path(entry.path)
        if not path.is_absolute() and self.root is not None:
            path = Path(self.root) / path
        return path

    def select(self, selector: str):
        """Indices and entries matching a `subset:label` selector."""
        try:
            subset, label = selector.split(":")
        except ValueError as exc:
            raise ConfigError(f"selector must look like subset:label; got {selector!r}") from exc
        if subset not in SUBSETS or label not in LABELS:
            raise ConfigError(f"unknown selector {selector!r}")
        return [
            (pos, entry)
            for pos, entry in enumerate(self.entries)
            if entry.subset == subset and entry.label == label
        ]


@dataclass(frozen=True)
class RunConfig:
    seed: int
    features: tuple = ("lfcc",)
    gmm_components: int = 512
    em_iters: int = 10
    extra_bits: int = 5
    lfcc: LfccConfig = field(default_factory=LfccConfig)
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ConfigError("at least one feature extractor id is required")
        if self.gmm_components < 1 or self.em_iters < 1:
            raise ConfigError("gmm_components and em_iters must be positive")
        if self.extra_bits < 0:
            raise ConfigError("extra_bits must be non-negative")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


@dataclass(frozen=True)
class ScenarioSpec:
    h_train: str
    s_train: str
    attacker_action: str
    cm_action: str
    feature: str
    extra_bits: int = 5
    seed: int = 0

    def __post_init__(self):
        if (self.h_train, self.s_train) not in TRAIN_COMBOS:
            raise InputError(
                f"training combination ({self.h_train},{self.s_train}) is not one of {TRAIN_COMBOS}"
            )
        if self.attacker_action not in ACTIONS or self.cm_action not in ACTIONS:
            raise InputError(f"actions must be one of {ACTIONS}")

    def key(self) -> str:
        return (
            f"{self.feature}/{self.h_train}{self.s_train}"
            f"-a{self.attacker_action}-c{self.cm_action}-d{self.extra_bits}-s{self.seed}"
        )

    def sort_key(self):
        return (
            self.feature,
            TRAIN_COMBOS.index((self.h_train, self.s_train)),
            ACTIONS.index(self.attacker_action),
            ACTIONS.index(self.cm_action),
        )


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    eer: float | None
    genuine_trials: int
    spoof_trials: int
    seconds: float
    error: str | None = None


def enumerate_scenarios(features, extra_bits: int = 5, seed: int = 0):
    """All 45 coherent scenarios per feature, in canonical order."""
    specs = []
    for feature in features:
        for h_train, s_train in TRAIN_COMBOS:
            for attacker in ACTIONS:
                for cm in ACTIONS:
                    specs.append(
                        ScenarioSpec(
                            h_train=h_train,
                            s_train=s_train,
                            attacker_action=attacker,
                            cm_action=cm,
                            feature=feature,
                            extra_bits=extra_bits,
                            seed=seed,
                        )
                    )
    return specs


def read_manifest_csv(path) -> tuple:
    """Entries from a `path,label,subset` CSV; paths stay relative."""
    entries = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        if header != _MANIFEST_HEADER:
            raise ConfigError(f"{path}: expected header {_MANIFEST_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.rsplit(",", 2)
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: malformed row {line!r}")
            entries.append(ManifestEntry(path=parts[0], label=parts[1], subset=parts[2]))
    return tuple(entries)


_CONFIG_KEYS = {
    "attacker_pmf_source",
    "cm_pmf_source",
    "feature",
    "features",
    "gmm_components",
    "em_iters",
    "extra_bits",
    "seed",
    "workers",
    "lfcc",
}


def load_run_setup(manifest_csv, config_json=None, seed=None, workers=None):
    """Build (DatasetManifest, RunConfig) from the CSV manifest and the
    key-value config file; seed/workers arguments override the config."""
    entries = read_manifest_csv(manifest_csv)
    raw = {}
    if config_json is not None:
        with open(config_json, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{config_json}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_json}: config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"{config_json}: unknown config keys {sorted(unknown)}")
        for key in ("seed", "gmm_components", "em_iters", "extra_bits", "workers"):
            value = raw.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{config_json}: {key!r} must be an integer; got {value!r}")
    manifest = DatasetManifest(
        entries=entries,
        attacker_pmf_source=raw.get("attacker_pmf_source", "test:genuine"),
        cm_pmf_source=raw.get("cm_pmf_source", "train:genuine"),
        root=str(Path(manifest_csv).resolve().parent),
    )
    if seed is None:
        seed = raw.get("seed")
    if seed is None:
        raise ConfigError("a run seed is required (config key 'seed' or the seed argument)")
    features = raw.get("features")
    if features is None:
        features = [raw.get("feature", "lfcc")]
    if isinstance(features, str):
        features = [features]
    if not isinstance(features, list) or not all(isinstance(f, str) for f in features):
        raise ConfigError(f"{config_json}: features must be a string or a list of strings")
    try:
        lfcc_cfg = LfccConfig(**raw.get("lfcc", {}))
    except TypeError as exc:
        raise ConfigError(f"{config_json}: bad lfcc options ({exc})") from exc
    config = RunConfig(
        seed=int(seed),
        features=tuple(features),
        gmm_components=raw.get("gmm_components", 512),
        em_iters=raw.get("em_iters", 10),
        extra_bits=raw.get("extra_bits", 5),
        lfcc=lfcc_cfg,
        workers=int(workers if workers is not None else raw.get("workers", 1)),
    )
    return manifest, config


def validate_manifest(manifest: DatasetManifest) -> None:
    """Check labels, subsets, resolvable paths, and both-label coverage."""
    if not manifest.entries:
        raise ConfigError("manifest lists no files")
    for subset in SUBSETS:
        for label in LABELS:
            if not manifest.select(f"{subset}:{label}"):
                raise ConfigError(f"manifest subset {subset!r} has no {label!r} files")
    for entry in manifest.entries:
        path = manifest.resolve(entry)
        if not path.is_file():
            raise ConfigError(f"manifest path does not exist: {path}")


def apply_action(
    waveforms,
    labels,
    side: str,
    action: str,
    target=None,
    pool=None,
    extra_bits: int = 5,
    seed: int = 0,
    ordinals=None,
):
    """Transform a file set for one side of a scenario.

    side="attacker" touches spoof-labelled files only; side="countermeasure"
    touches every file. action "N" returns the inputs unchanged, "G" applies
    perturbed genuinization toward target, "R" applies random genuinization
    against the CDFs of the pool's waveforms (built once per call). ordinals
    feed the per-file RNG streams (defaults to positions within the list).
    """
    if side not in ("attacker", "countermeasure"):
        raise InputError(f"side must be attacker or countermeasure; got {side!r}")
    if action not in ACTIONS:
        raise InputError(f"action must be one of {ACTIONS}; got {action!r}")
    waveforms = list(waveforms)
    labels = list(labels)
    if len(labels) != len(waveforms):
        raise InputError("need one label per waveform")
    if action == "N":
        return waveforms
    if action == "G" and target is None:
        raise ConfigError("action G requires a target CDF")
    if action == "R" and not pool:
        raise ConfigError("action R requires a non-empty reference pool")
    if ordinals is None:
        ordinals = range(len(waveforms))
    if action == "R":
        pool = [cdf_from_pmf(estimate_pmf([w])) for w in pool]
    params = GenuinizeParams(mode=_ACTION_MODES[action], extra_bits=extra_bits, seed=seed)
    return [
        w if side == "attacker" and label == "genuine"
        else genuinize(w, params, target=target, pool=pool, ordinal=ordinal)
        for w, label, ordinal in zip(waveforms, labels, ordinals)
    ]


class _MatrixRunner:
    """Shared state for one matrix run: lazily loaded waveforms, PMFs,
    transformed audio, features, and trained models, all memoized."""

    def __init__(self, manifest: DatasetManifest, config: RunConfig, cache_dir=None):
        validate_manifest(manifest)
        self.manifest = manifest
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._lock = threading.Lock()
        self._waveforms = {}
        self._targets = {}
        self._pools = {}
        self._transformed = {}
        self._features = {}
        self._models = {}
        self._digest = None
        if self.cache_dir is not None:
            (self.cache_dir / "results").mkdir(parents=True, exist_ok=True)

    # -- memo helpers ------------------------------------------------------

    def _memo(self, store, key, build):
        with self._lock:
            if key in store:
                return store[key]
        value = build()
        with self._lock:
            return store.setdefault(key, value)

    def waveform(self, index: int):
        entry = self.manifest.entries[index]
        return self._memo(
            self._waveforms, index, lambda: read_wav(self.manifest.resolve(entry))
        )

    def target_cdf(self, selector: str):
        def build():
            rows = self.manifest.select(selector)
            return cdf_from_pmf(estimate_pmf([self.waveform(i) for i, _ in rows]))

        return self._memo(self._targets, selector, build)

    def pool(self, selector: str):
        def build():
            rows = self.manifest.select(selector)
            return [cdf_from_pmf(estimate_pmf([self.waveform(i)])) for i, _ in rows]

        return self._memo(self._pools, selector, build)

    # -- transform / feature pipeline --------------------------------------

    def _apply_step(self, w, step, ordinal: int):
        action, role, selector = step
        params = GenuinizeParams(
            mode=_ACTION_MODES[action],
            extra_bits=self.config.extra_bits,
            seed=role_seed(self.config.seed, role),
        )
        if action == "G":
            return genuinize(w, params, target=self.target_cdf(selector), ordinal=ordinal)
        return genuinize(w, params, pool=self.pool(selector), ordinal=ordinal)

    def transformed(self, index: int, chain: tuple):
        if not chain:
            return self.waveform(index)

        def build():
            return self._apply_step(self.transformed(index, chain[:-1]), chain[-1], index)

        return self._memo(self._transformed, (index, chain), build)

    def features(self, index: int, chain: tuple, feature: str) -> FeatureMatrix:
        def build():
            return get_extractor(feature)(self.transformed(index, chain), self.config.lfcc)

        return self._memo(self._features, (index, chain, feature), build)

    # -- training ----------------------------------------------------------

    def _train_chain(self, label: str, provenance: str) -> tuple:
        if provenance == "O":
            return ()
        role = SeedRole.TRAIN_GENUINE if label == "genuine" else SeedRole.TRAIN_SPOOF
        return ((provenance, int(role), self.manifest.cm_pmf_source),)

    def model(self, label: str, provenance: str, feature: str) -> GmmModel:
        def build():
            chain = self._train_chain(label, provenance)
            train = self.manifest.select(f"train:{label}")
            rows, fingerprint = stack_features([self.features(i, chain, feature) for i, _ in train])
            role = SeedRole.MODEL_GENUINE if label == "genuine" else SeedRole.MODEL_SPOOF
            return train_gmm(
                rows,
                k=self.config.gmm_components,
                iters=self.config.em_iters,
                seed=role_seed(self.config.seed, role),
                provenance=provenance,
                feature_fingerprint=fingerprint,
            )

        return self._memo(self._models, (label, provenance, feature), build)

    def models_for(self, spec: ScenarioSpec):
        return (
            self.model("genuine", spec.h_train, spec.feature),
            self.model("spoof", spec.s_train, spec.feature),
        )

    # -- scenario execution -------------------------------------------------

    def _test_chain(self, spec: ScenarioSpec, label: str) -> tuple:
        chain = []
        if label == "spoof" and spec.attacker_action != "N":
            chain.append(
                (spec.attacker_action, int(SeedRole.ATTACKER), self.manifest.attacker_pmf_source)
            )
        if spec.cm_action != "N":
            chain.append(
                (spec.cm_action, int(SeedRole.COUNTERMEASURE), self.manifest.cm_pmf_source)
            )
        return tuple(chain)

    def _compute(self, spec: ScenarioSpec) -> ScenarioResult:
        started = time.perf_counter()
        genuine_model, spoof_model = self.models_for(spec)
        genuine_scores = []
        spoof_scores = []
        for index, entry in enumerate(self.manifest.entries):
            if entry.subset != "test":
                continue
            chain = self._test_chain(spec, entry.label)
            features = self.features(index, chain, spec.feature)
            llr = score_trial(genuine_model, spoof_model, features)
            (genuine_scores if entry.label == "genuine" else spoof_scores).append(llr)
        eer = eer_from_scores(genuine_scores, spoof_scores)
        return ScenarioResult(
            spec=spec,
            eer=eer,
            genuine_trials=len(genuine_scores),
            spoof_trials=len(spoof_scores),
            seconds=time.perf_counter() - started,
        )

    # -- result cache --------------------------------------------------------

    def digest(self) -> str:
        with self._lock:
            if self._digest is not None:
                return self._digest
        payload = {
            "entries": [
                (
                    e.path,
                    e.label,
                    e.subset,
                    hashlib.sha256(self.manifest.resolve(e).read_bytes()).hexdigest(),
                )
                for e in self.manifest.entries
            ],
            "attacker_pmf_source": self.manifest.attacker_pmf_source,
            "cm_pmf_source": self.manifest.cm_pmf_source,
            "seed": self.config.seed,
            "gmm_components": self.config.gmm_components,
            "em_iters": self.config.em_iters,
            "extra_bits": self.config.extra_bits,
            "lfcc": self.config.lfcc.fingerprint(),
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        with self._lock:
            self._digest = digest
        return digest

    def _result_path(self, spec: ScenarioSpec) -> Path | None:
        if self.cache_dir is None:
            return None
        name = hashlib.sha256(f"{self.digest()}|{spec.key()}".encode()).hexdigest()
        return self.cache_dir / "results" / f"{name}.json"

    def _load_cached(self, spec: ScenarioSpec) -> ScenarioResult | None:
        path = self._result_path(spec)
        if path is None or not path.is_file():
            return None
        try:
            data = json.loads(path.read_text())
            if data["spec"] != spec.key():
                raise ValueError(f"entry holds scenario {data['spec']!r}")
            return ScenarioResult(spec=spec, **{name: data[name] for name in _CACHED_FIELDS})
        except (OSError, ValueError, KeyError, TypeError) as exc:
            logger.warning("recomputing %s: unusable cache entry %s (%s)", spec.key(), path, exc)
            return None

    def _store(self, result: ScenarioResult) -> None:
        path = self._result_path(result.spec)
        if path is None or result.error is not None:
            return
        data = {name: getattr(result, name) for name in _CACHED_FIELDS}
        data["spec"] = result.spec.key()
        handle, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(handle, "w") as fh:
            fh.write(json.dumps(data, sort_keys=True))
        os.replace(tmp_name, path)

    def run_scenario(self, spec: ScenarioSpec) -> ScenarioResult:
        cached = self._load_cached(spec)
        if cached is not None:
            return cached
        result = self._compute(spec)
        self._store(result)
        return result

    def run_scenario_guarded(self, spec: ScenarioSpec) -> ScenarioResult:
        try:
            return self.run_scenario(spec)
        except ToolError as exc:
            return ScenarioResult(
                spec=spec, eer=None, genuine_trials=0, spoof_trials=0, seconds=0.0,
                error=f"{type(exc).__name__}: {exc}",
            )


def run_scenario(
    manifest: DatasetManifest, spec: ScenarioSpec, config: RunConfig, cache_dir=None
) -> ScenarioResult:
    """Run one scenario end to end (fresh runner; see run_matrix for reuse)."""
    return _MatrixRunner(manifest, config, cache_dir=cache_dir).run_scenario(spec)


def run_matrix(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
    out_csv=None,
    progress=None,
):
    """Run the full matrix for every configured feature.

    Scenario failures are recorded on their row (empty EER) and do not stop
    the run. Results come back in canonical order; out_csv, when given,
    receives the CSV rendering. Scenarios run concurrently when
    config.workers > 1; results are independent of the worker count.
    """
    runner = _MatrixRunner(manifest, config, cache_dir=cache_dir)
    specs = enumerate_scenarios(config.features, extra_bits=config.extra_bits, seed=config.seed)
    results = []
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        # One worker runs on the calling thread, so Ctrl-C stops it at once.
        mapper = pool.map if config.workers > 1 else map
        for result in mapper(runner.run_scenario_guarded, specs):
            results.append(result)
            if progress is not None:
                progress(result)
    results.sort(key=lambda r: r.spec.sort_key())
    if out_csv is not None:
        Path(out_csv).write_text(results_to_csv(results), encoding="ascii")
    return results


def results_to_csv(results) -> str:
    """Canonical CSV rendering, sorted by feature, combination, actions."""
    rows = [_RESULTS_HEADER]
    for r in sorted(results, key=lambda r: r.spec.sort_key()):
        eer_text = "" if r.eer is None else repr(float(r.eer))
        rows.append(
            f"{r.spec.feature},{r.spec.h_train},{r.spec.s_train},"
            f"{r.spec.attacker_action},{r.spec.cm_action},{eer_text},"
            f"{r.genuine_trials},{r.spoof_trials},{float(r.seconds)!r}"
        )
    return "\n".join(rows) + "\n"
