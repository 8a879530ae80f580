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

The attacker's references come from the config's attacker_pmf_source
selector (test-side genuine speech); the countermeasure's come from its
cm_pmf_source (training genuine speech) and are the same references used to
genuinize training material. A treatment needs only its reference set (a
sequence of Cdfs, see genuinize): action G uses one CDF, the pooled PMF of
the selector's files, and R one CDF per file (genuinize.reference_pool).
The runner's treatment chains (_MatrixRunner._train_chain and _test_chain)
alone decide which files an action touches, and _MatrixRunner.transformed is
the one place an action becomes a genuinize call. Files on disk take one
side's action through the CLI's batch genuinize.

Every random draw derives from the single run seed through documented
SeedSequence layers: role_seed(seed, role) isolates consumers (attacker,
countermeasure, the two training sides, the two models), and genuinization
derives per-file streams from (role seed, manifest ordinal). Results are
cached per scenario under a digest of its spec, its extractor's name, the
config, the manifest including file content hashes, and RESULTS_VERSION;
cache writes are atomic (write-then-rename). A rerun reuses a finished
run's rows and recomputes its failed ones; rows are stored after every
scoring pass ends, so an interrupted run starts over (ROADMAP item 6).

run_matrix runs in stages over one _MatrixRunner: it reads each scenario's
cache entry once; trains the distinct (label, provenance, feature) models
the uncached scenarios need and reads every test file, across the workers;
then runs one pass per test file across the workers, which scores the file
under every (model, treatment chain) those scenarios need (a test file's
chain depends only on the actions) and returns a table of floats; last it
builds each row from the tables. A run keeps waveforms, reference sets,
models and the tables; a file's treated audio and features live only in
its own pass.
"""

from __future__ import annotations

import copy
import errno
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError, ToolError, reading, text_rows, typed_fields
from .features import FeatureMatrix, LfccConfig, get_extractor, stack_features
from .genuinize import DEFAULT_EXTRA_BITS, SEED_MASK, GenuinizeParams, genuinize, reference_pool
from .gmm import (
    DEFAULT_COMPONENTS, DEFAULT_ITERS, LABELS, GmmModel, check_budget, eer_from_scores,
    gmm_loglik, train_gmm,
)
from .pmf import cdf_from_pmf, estimate_pmf
from .waveform import read_wav

TRAIN_COMBOS = (("O", "O"), ("O", "G"), ("G", "G"), ("O", "R"), ("R", "R"))
ACTIONS = ("N", "G", "R")
SUBSETS = ("train", "test")

_MANIFEST_HEADER = "path,label,subset"
_RESULTS_HEADER = "feature,h_train,s_train,attacker,cm,eer,genuine_trials,spoof_trials,seconds"
# Part of every result-cache key: a change that moves results bumps it.
RESULTS_VERSION = 1
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
    ss = np.random.SeedSequence(entropy=(run_seed & SEED_MASK, int(role)))
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


def parse_selector(selector) -> tuple:
    """(subset, label) of a `subset:label` selector."""
    parts = tuple(selector.split(":")) if isinstance(selector, str) else ()
    if len(parts) != 2 or parts[0] not in SUBSETS or parts[1] not in LABELS:
        raise ConfigError(
            f"selector must be subset:label, subset in {SUBSETS} and label in {LABELS}; "
            f"got {selector!r}"
        )
    return parts


@dataclass(frozen=True)
class DatasetManifest:
    """Labelled file list; relative paths resolve against root."""

    entries: tuple
    root: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_csv(cls, path) -> DatasetManifest:
        """Manifest of a `path,label,subset` CSV whose relative rows resolve
        against the CSV's directory."""
        return cls(entries=read_manifest_csv(path), root=str(Path(path).resolve().parent))

    def resolve(self, entry: ManifestEntry) -> Path:
        path = Path(entry.path)
        if not path.is_absolute() and self.root is not None:
            path = Path(self.root) / path
        return path

    def select(self, subset=None, label=None) -> list:
        """(index, entry) of each row of subset and label, in manifest order;
        None matches any. Another subset or label is a ConfigError."""
        if subset not in (None, *SUBSETS) or label not in (None, *LABELS):
            raise ConfigError(f"select takes a subset in {SUBSETS} and a label in {LABELS}, "
                              f"or None; got {subset!r} and {label!r}")
        return [(index, entry) for index, entry in enumerate(self.entries)
                if subset in (None, entry.subset) and label in (None, entry.label)]


@dataclass(frozen=True)
class RunConfig:
    seed: int
    features: tuple = ("lfcc",)
    gmm_components: int = DEFAULT_COMPONENTS
    em_iters: int = DEFAULT_ITERS
    extra_bits: int = DEFAULT_EXTRA_BITS
    lfcc: LfccConfig = field(default_factory=LfccConfig)
    # subset:label selectors of the files behind each side's references
    attacker_pmf_source: str = "test:genuine"
    cm_pmf_source: str = "train:genuine"
    workers: int = 1

    def __post_init__(self):
        typed_fields(self, ConfigError)
        # one extractor id stands for a one-item list of them
        features = (self.features,) if isinstance(self.features, str) else self.features
        if not (isinstance(features, (tuple, list)) and features
                and all(isinstance(f, str) for f in features)):
            raise ConfigError("features must be one or more extractor ids (strings)")
        object.__setattr__(self, "features", tuple(features))
        if len(set(self.features)) != len(self.features):
            raise ConfigError(f"features must not repeat; got {self.features}")
        if not isinstance(self.lfcc, LfccConfig):
            raise ConfigError(f"lfcc must be an LfccConfig; got {self.lfcc!r}")
        # the owners' rules, checked before any file is read
        for feature in self.features:
            get_extractor(feature)
        check_budget(self.gmm_components, self.em_iters)
        GenuinizeParams(mode="perturbed", extra_bits=self.extra_bits)
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        # each side's (subset, label) of reference files, parsed once here
        object.__setattr__(self, "attacker_source", parse_selector(self.attacker_pmf_source))
        object.__setattr__(self, "cm_source", parse_selector(self.cm_pmf_source))


@dataclass(frozen=True)
class ScenarioSpec:
    h_train: str
    s_train: str
    attacker_action: str
    cm_action: str
    feature: str

    def __post_init__(self):
        if (self.h_train, self.s_train) not in TRAIN_COMBOS:
            raise InputError(
                f"training combination ({self.h_train},{self.s_train}) is not one of {TRAIN_COMBOS}"
            )
        if self.attacker_action not in ACTIONS or self.cm_action not in ACTIONS:
            raise InputError(f"actions must be one of {ACTIONS}")

    def key(self) -> str:
        return f"{self.feature}/{self.h_train}{self.s_train}-a{self.attacker_action}-c{self.cm_action}"

    def models(self) -> tuple:
        """(label, provenance, feature) of the genuine and the spoof model."""
        return tuple(zip(LABELS, (self.h_train, self.s_train), (self.feature,) * 2))


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    eer: float | None
    genuine_trials: int
    spoof_trials: int
    seconds: float
    error: str | None = None

    def __post_init__(self):
        # computed rows and cache entries alike pass this one check
        if (self.eer is None) == (self.error is None):
            raise InputError("a scenario result holds exactly one of eer and error")
        if self.eer is not None and not (isinstance(self.eer, float) and 0.0 <= self.eer <= 100.0):
            raise InputError(f"eer must be a float in [0, 100]; got {self.eer!r}")
        if not all(type(n) is int and n >= 0 for n in (self.genuine_trials, self.spoof_trials)):
            raise InputError(f"trial counts must be non-negative ints; got {self!r}")
        if not (isinstance(self.seconds, float) and 0.0 <= self.seconds < np.inf):
            raise InputError(f"seconds must be a finite float >= 0; got {self.seconds!r}")


def enumerate_scenarios(features):
    """All 45 coherent scenarios per feature, in canonical order (features by name)."""
    specs = []
    for feature in sorted(features):
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
                        )
                    )
    return specs


def read_manifest_csv(path) -> tuple:
    """Entries from a `path,label,subset` CSV; paths stay relative."""
    with reading(path):
        return tuple(text_rows(path, _MANIFEST_HEADER, "utf-8", ConfigError, ManifestEntry))


def _check_keys(values: dict, names, block: str = "") -> None:
    """Reject a key of values that names lacks; block names the config block."""
    unknown = set(values) - set(names)
    if unknown:
        raise ConfigError(f"{block}unknown config keys {sorted(unknown)}")


def load_run_setup(manifest_csv, config_json=None, seed=None, workers=None):
    """Build (DatasetManifest, RunConfig) from the CSV manifest and the
    key-value config file; seed/workers arguments override the config.

    The config's keys, defaults and rules are those of the RunConfig fields
    ("lfcc" an object of LfccConfig fields), so a JSON config and a Python
    caller get the same checks and the same errors.
    """
    raw = {}
    if config_json is not None:
        with reading(config_json):
            try:
                with open(config_json, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"invalid JSON ({exc})") from exc
            if not isinstance(raw, dict):
                raise ConfigError("config must be a JSON object")
            _check_keys(raw, [f.name for f in fields(RunConfig)])
            if "lfcc" in raw:
                if not isinstance(raw["lfcc"], dict):
                    raise ConfigError(f"'lfcc' must be an object; got {raw['lfcc']!r}")
                _check_keys(raw["lfcc"], [f.name for f in fields(LfccConfig)], "lfcc ")
                raw["lfcc"] = LfccConfig(**raw["lfcc"])
    if seed is not None:
        raw["seed"] = seed
    if workers is not None:
        raw["workers"] = workers
    if "seed" not in raw:
        raise ConfigError("a run seed is required (config key 'seed' or the seed argument)")
    return DatasetManifest.from_csv(manifest_csv), RunConfig(**raw)


def validate_manifest(manifest: DatasetManifest) -> None:
    """Check labels, subsets, resolvable paths, and both-label coverage."""
    if not manifest.entries:
        raise ConfigError("manifest lists no files")
    for subset in SUBSETS:
        for label in LABELS:
            if not manifest.select(subset, label):
                raise ConfigError(f"manifest subset {subset!r} has no {label!r} files")
    for entry in manifest.entries:
        path = manifest.resolve(entry)
        if not path.is_file():
            raise ConfigError(f"manifest path does not exist: {path}")


class _MatrixRunner:
    """Shared state for one matrix run: waveforms, reference sets and models,
    memoized for the run; treated audio and features go to the caller's store."""

    def __init__(self, manifest: DatasetManifest, config: RunConfig, cache_dir=None):
        validate_manifest(manifest)
        self.manifest = manifest
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._lock = threading.Lock()
        self._waveforms = {}
        self._references = {}
        self._models = {}
        self._digest = None
        if self.cache_dir is not None:
            (self.cache_dir / "results").mkdir(parents=True, exist_ok=True)
            self._digest = self._inputs_digest()

    # -- memo helpers ------------------------------------------------------

    def _memo(self, store, key, build):
        # store maps each key to the Future of its one build, which keeps the
        # build's value or its exception. A caller that finds a build in
        # flight waits for it (build dependencies form a DAG, so no wait
        # closes a cycle). Each caller of a failed key raises its own copy of
        # the error, so the stored traceback does not grow with callers' frames.
        new = Future()
        with self._lock:
            future = store.setdefault(key, new)
        if future is new:
            try:
                new.set_result(build())
            except BaseException as exc:
                new.set_exception(exc)
        error = future.exception()
        if error is not None:
            raise copy.copy(error) from error
        return future.result()

    def waveform(self, index: int):
        entry = self.manifest.entries[index]
        return self._memo(
            self._waveforms, index, lambda: read_wav(self.manifest.resolve(entry))
        )

    def references(self, action: str, source: tuple) -> tuple:
        """Reference set of a treating action over the files of source, a
        (subset, label) pair: G the pooled CDF of all of them, R one CDF per file."""

        def build():
            waveforms = [self.waveform(i) for i, _ in self.manifest.select(*source)]
            if action == "G":
                return (cdf_from_pmf(estimate_pmf(waveforms)),)
            return reference_pool(waveforms)

        return self._memo(self._references, (action, source), build)

    # -- transform / feature pipeline --------------------------------------

    def transformed(self, store: dict, index: int, chain: tuple):
        if not chain:
            return self.waveform(index)

        def build():
            action, role, source = chain[-1]
            params = GenuinizeParams(mode=_ACTION_MODES[action], extra_bits=self.config.extra_bits,
                                     seed=role_seed(self.config.seed, role))
            return genuinize(self.transformed(store, index, chain[:-1]), params,
                             self.references(action, source), index)

        return self._memo(store, (index, chain), build)

    def features(self, store: dict, index: int, chain: tuple, feature: str) -> FeatureMatrix:
        def build():
            return get_extractor(feature)(self.transformed(store, index, chain), self.config.lfcc)

        return self._memo(store, (index, chain, feature), build)

    # -- training ----------------------------------------------------------

    def _train_chain(self, label: str, provenance: str) -> tuple:
        if provenance == "O":
            return ()
        role = SeedRole.TRAIN_GENUINE if label == "genuine" else SeedRole.TRAIN_SPOOF
        return ((provenance, int(role), self.config.cm_source),)

    def model(self, label: str, provenance: str, feature: str) -> GmmModel:
        def build():
            chain = self._train_chain(label, provenance)
            train = self.manifest.select("train", label)
            matrices = [self.features({}, i, chain, feature) for i, _ in train]  # a store per file
            role = SeedRole.MODEL_GENUINE if label == "genuine" else SeedRole.MODEL_SPOOF
            return train_gmm(
                stack_features(matrices),
                k=self.config.gmm_components,
                iters=self.config.em_iters,
                seed=role_seed(self.config.seed, role),
                provenance=provenance,
            )

        return self._memo(self._models, (label, provenance, feature), build)

    # -- scenario execution -------------------------------------------------

    def _test_chain(self, spec: ScenarioSpec, label: str) -> tuple:
        chain = []
        if label == "spoof" and spec.attacker_action != "N":
            chain.append((spec.attacker_action, int(SeedRole.ATTACKER), self.config.attacker_source))
        if spec.cm_action != "N":
            chain.append((spec.cm_action, int(SeedRole.COUNTERMEASURE), self.config.cm_source))
        return tuple(chain)

    def score_file(self, index: int, passes) -> dict:
        """One test file's table: each pass ((label, provenance, feature),
        chain) maps to (mean log-likelihood, seconds of its gmm_loglik call)
        or to its error text. The file's treated audio and features live in
        this call's store only."""
        store = {}

        def score(model_key, chain):
            model = self.model(*model_key)
            features = self.features(store, index, chain, model_key[2])
            started = time.perf_counter()
            return gmm_loglik(model, features), time.perf_counter() - started

        table = {key: _attempt(score, *key) for key in passes}
        store.clear()  # a failed build's stored traceback refers back to the store
        return table

    def _row(self, spec: ScenarioSpec, failed: dict, unreadable, tests, tables) -> ScenarioResult:
        """spec's row: the error of its first failed model, else the first
        unreadable test file's, else its first failed pass's in file order,
        else its EER over the tables' passes."""
        # seconds: the passes this scenario uses plus its own subtraction and
        # EER, so it does not depend on which scenario built a shared stage
        started = time.perf_counter()
        keys = spec.models()
        sides = [(label, [table.get((key, self._test_chain(spec, label))) for key in keys])
                 for (_, label), table in zip(tests, tables)]
        passes = [outcome for _, pair in sides for outcome in pair]
        outcomes = [failed.get(key) for key in keys] + [unreadable] + passes
        error = next((outcome for outcome in outcomes if isinstance(outcome, str)), None)
        if error is None:
            scores = {label: [] for label in LABELS}
            for label, ((genuine, _), (spoof, _)) in sides:
                scores[label].append(genuine - spoof)
            eer = _attempt(eer_from_scores, scores["genuine"], scores["spoof"])
            if not isinstance(eer, str):
                return ScenarioResult(
                    spec=spec, eer=eer, genuine_trials=len(scores["genuine"]),
                    spoof_trials=len(scores["spoof"]),
                    seconds=sum(s for _, s in passes) + time.perf_counter() - started,
                )
            error = eer
        return ScenarioResult(spec=spec, eer=None, genuine_trials=0, spoof_trials=0, seconds=0.0,
                              error=error)

    def run(self, specs, progress=None) -> list:
        """Rows of specs in their order, computed in the stages the module
        docstring names; progress, when given, gets each row, cached rows first."""
        report = progress or (lambda result: None)
        results = [self._load_cached(spec) for spec in specs]
        uncached = [position for position, result in enumerate(results) if result is None]
        for result in results:
            if result is not None:
                report(result)
        if not uncached:
            return results
        models = list(dict.fromkeys(key for p in uncached for key in specs[p].models()))
        tests = [(i, e.label) for i, e in self.manifest.select("test")]
        # every scenario scores every test file, so the model stage reads them
        # all: an unreadable one fails every row before any pass runs
        stage = [(self.model, *key) for key in models] + [(self.waveform, i) for i, _ in tests]
        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            # One worker runs on the calling thread, so Ctrl-C stops it at once.
            mapper = pool.map if self.config.workers > 1 else map
            built = list(mapper(lambda task: _attempt(*task), stage))
            failed = {key: error for key, error in zip(models, built) if isinstance(error, str)}
            unreadable = next((e for e in built[len(models):] if isinstance(e, str)), None)
            # a scenario with a failed model or test file needs none of its passes
            scored = [specs[p] for p in uncached if unreadable is None
                      and failed.keys().isdisjoint(specs[p].models())]
            passes = {label: dict.fromkeys((key, self._test_chain(spec, label))
                                           for spec in scored for key in spec.models())
                      for label in LABELS}
            tables = list(mapper(self.score_file, [index for index, _ in tests],
                                 [passes[label] for _, label in tests]))
        for position in uncached:
            result = self._row(specs[position], failed, unreadable, tests, tables)
            if result.error is None:
                self._store(result)
            results[position] = result
            report(result)
        return results

    # -- result cache --------------------------------------------------------

    def _inputs_digest(self) -> str:
        """Hash of what every cached result depends on but its spec and extractor:
        audio, RESULTS_VERSION and the config but workers and features."""
        config = asdict(self.config)
        del config["workers"], config["features"]
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
            "config": config,
            "results_version": RESULTS_VERSION,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def _result_path(self, spec: ScenarioSpec) -> Path | None:
        if self.cache_dir is None:
            return None
        extractor = get_extractor(spec.feature)
        code = f"{extractor.__module__}.{extractor.__qualname__}"
        name = hashlib.sha256(f"{self._digest}|{spec.key()}|{code}".encode()).hexdigest()
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
        except (OSError, ValueError, KeyError, TypeError, InputError) as exc:
            logger.warning("recomputing %s: unusable cache entry %s (%s)", spec.key(), path, exc)
            return None

    def _store(self, result: ScenarioResult) -> None:
        path = self._result_path(result.spec)
        if path is None:
            return
        data = {name: getattr(result, name) for name in _CACHED_FIELDS}
        data["spec"] = result.spec.key()
        handle, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(handle, "w") as fh:
            fh.write(json.dumps(data, sort_keys=True))
        os.replace(tmp_name, path)


def _attempt(build, *args):
    """build(*args), or the failed-row text `Type: message` of its ToolError."""
    try:
        return build(*args)
    except ToolError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_scenario(
    manifest: DatasetManifest, spec: ScenarioSpec, config: RunConfig, cache_dir=None
) -> ScenarioResult:
    """One scenario's row as run_matrix gives it, from a fresh runner with
    the config's d and seed."""
    return _MatrixRunner(manifest, config, cache_dir=cache_dir).run([spec])[0]


def run_matrix(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
    out_csv=None,
    progress=None,
):
    """Run the full matrix for every configured feature, in the stages the
    module docstring names. A failed scenario becomes a row with an empty
    EER and its error, and the run goes on. Results come back in canonical
    order; out_csv, when given, receives the CSV rendering. config.workers
    threads train and score; results do not depend on their number. An
    out_csv whose directory does not exist is a FileNotFoundError, and one
    that is a directory an IsADirectoryError, raised before any file is read
    or cache directory made.
    """
    if out_csv is not None and not Path(out_csv).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no directory for the results CSV", str(out_csv))
    if out_csv is not None and Path(out_csv).is_dir():
        raise IsADirectoryError(errno.EISDIR, "the results CSV is a directory", str(out_csv))
    specs = enumerate_scenarios(config.features)
    results = _MatrixRunner(manifest, config, cache_dir=cache_dir).run(specs, progress)
    if out_csv is not None:
        Path(out_csv).write_text(results_to_csv(results), encoding="ascii")
    return results


def results_to_csv(results) -> str:
    """CSV rendering of results in the order given."""
    rows = [_RESULTS_HEADER]
    for r in results:
        eer_text = "" if r.eer is None else repr(float(r.eer))
        rows.append(
            f"{r.spec.feature},{r.spec.h_train},{r.spec.s_train},"
            f"{r.spec.attacker_action},{r.spec.cm_action},{eer_text},"
            f"{r.genuine_trials},{r.spoof_trials},{float(r.seconds)!r}"
        )
    return "\n".join(rows) + "\n"
