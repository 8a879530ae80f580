import dataclasses
import functools
import gc
import json
import logging
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import wavespoof.experiment
import wavespoof.gmm
from wavespoof import (
    ACTIONS,
    ConfigError,
    DatasetManifest,
    FeatureMatrix,
    InputError,
    LfccConfig,
    ManifestEntry,
    RunConfig,
    ScenarioResult,
    ScenarioSpec,
    SeedRole,
    TRAIN_COMBOS,
    eer_from_scores,
    enumerate_scenarios,
    lfcc,
    load_run_setup,
    load_scores,
    make_toy_corpus,
    read_manifest_csv,
    read_wav,
    register_extractor,
    results_to_csv,
    role_seed,
    run_matrix,
    score_trial,
    train_gmm,
    validate_manifest,
)
from wavespoof.cli import main
from wavespoof.experiment import SUBSETS, _MatrixRunner
from wavespoof.features import _EXTRACTORS
from wavespoof.gmm import LABELS


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    manifest_path = make_toy_corpus(root, seed=0, files_per_class=6, duration_s=0.4)
    manifest, config = load_run_setup(manifest_path, root / "config.json")
    return root, manifest_path, manifest, config


def test_role_seed_is_stable_and_distinct():
    seeds = {role: role_seed(99, role) for role in SeedRole}
    assert len(set(seeds.values())) == len(SeedRole)
    assert role_seed(99, SeedRole.ATTACKER) == seeds[SeedRole.ATTACKER]
    assert role_seed(100, SeedRole.ATTACKER) != seeds[SeedRole.ATTACKER]


def test_enumerate_scenarios_structure():
    specs = enumerate_scenarios(["lfcc"])
    assert len(specs) == 45
    combos = {(s.h_train, s.s_train) for s in specs}
    assert combos == set(TRAIN_COMBOS)
    # a treated genuine side with an untreated or differently treated spoof
    # side is incoherent and never enumerated
    for bad in (("G", "O"), ("R", "O"), ("G", "R"), ("R", "G")):
        assert bad not in combos
        with pytest.raises(InputError):
            ScenarioSpec(h_train=bad[0], s_train=bad[1], attacker_action="N",
                         cm_action="N", feature="lfcc")
    two = enumerate_scenarios(["lfcc", "other"])
    assert len(two) == 90
    assert enumerate_scenarios(["other", "lfcc"]) == two  # by feature name


def test_scenario_spec_validation():
    with pytest.raises(InputError):
        ScenarioSpec(h_train="O", s_train="O", attacker_action="X", cm_action="N", feature="lfcc")
    with pytest.raises(InputError):
        ScenarioSpec(h_train="O", s_train="O", attacker_action="N", cm_action="", feature="lfcc")


def test_test_chains_apply_each_side_to_its_own_files(corpus):
    # the attacker treats spoof-labelled test files only and the
    # countermeasure every test file: the runner's chains alone say so
    _, _, manifest, config = corpus
    runner = _MatrixRunner(manifest, config)
    tests = [(i, entry.label) for i, entry in enumerate(manifest.entries) if entry.subset == "test"]
    specs = enumerate_scenarios(config.features)
    assert len(specs) == 45
    for spec in specs:
        for index, label in tests:
            roles = [role for _, role, _ in runner._test_chain(spec, label)]
            attacked = label == "spoof" and spec.attacker_action != "N"
            assert (SeedRole.ATTACKER in roles) == attacked, (spec, index)
            assert (SeedRole.COUNTERMEASURE in roles) == (spec.cm_action != "N"), (spec, index)

    for action in ("G", "R"):
        spec = ScenarioSpec(h_train="O", s_train="O", attacker_action=action, cm_action="N",
                            feature="lfcc")
        for index, label in tests:
            read = read_wav(manifest.resolve(manifest.entries[index])).samples.tobytes()
            out = runner.transformed({}, index, runner._test_chain(spec, label)).samples.tobytes()
            assert (out == read) == (label == "genuine"), (action, index)


def test_config_selectors_reach_the_runner_chains(corpus, tmp_path):
    # the PMF-source selectors are run settings: load_run_setup stores the
    # config's on RunConfig, and the treatment chains name them
    _, manifest_csv, _, _ = corpus
    config_json = tmp_path / "config.json"
    config_json.write_text(json.dumps({"seed": 1, "attacker_pmf_source": "train:spoof",
                                       "cm_pmf_source": "test:genuine"}))
    manifest, config = load_run_setup(manifest_csv, config_json)
    assert (config.attacker_pmf_source, config.cm_pmf_source) == ("train:spoof", "test:genuine")
    runner = _MatrixRunner(manifest, config)
    spec = ScenarioSpec(h_train="G", s_train="G", attacker_action="R", cm_action="G",
                        feature="lfcc")
    assert runner._test_chain(spec, "spoof") == (
        ("R", int(SeedRole.ATTACKER), ("train", "spoof")),
        ("G", int(SeedRole.COUNTERMEASURE), ("test", "genuine")),
    )
    assert runner._train_chain("spoof", "R") == (
        ("R", int(SeedRole.TRAIN_SPOOF), ("test", "genuine")),
    )
    defaults = RunConfig(seed=1)
    assert (defaults.attacker_pmf_source, defaults.cm_pmf_source) == ("test:genuine",
                                                                      "train:genuine")
    assert (defaults.attacker_source, defaults.cm_source) == (("test", "genuine"),
                                                              ("train", "genuine"))


def test_manifest_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "path,label,subset\naudio/a.wav,genuine,train\naudio/with,comma.wav,spoof,test\n"
    )
    entries = read_manifest_csv(path)
    assert entries[0] == ManifestEntry(path="audio/a.wav", label="genuine", subset="train")
    assert entries[1].path == "audio/with,comma.wav"  # only the last two commas split

    path.write_text("wrong,header,line\n")
    with pytest.raises(ConfigError):
        read_manifest_csv(path)
    path.write_text("path,label,subset\nonlyonefield\n")
    with pytest.raises(ConfigError):
        read_manifest_csv(path)
    path.write_text("path,label,subset\na.wav,bonafide,train\n")
    with pytest.raises(ConfigError):
        read_manifest_csv(path)


def test_load_run_setup_validation(tmp_path):
    manifest_csv = tmp_path / "m.csv"
    manifest_csv.write_text("path,label,subset\na.wav,genuine,train\n")
    config = tmp_path / "c.json"

    config.write_text(json.dumps({"seed": 1, "mystery_knob": 2}))
    with pytest.raises(ConfigError):
        load_run_setup(manifest_csv, config)

    config.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_setup(manifest_csv, config)

    config.write_text(json.dumps({"lfcc": {"num_filters": 20, "bogus": 1}, "seed": 1}))
    with pytest.raises(ConfigError):
        load_run_setup(manifest_csv, config)
    # the FFT length follows the frame, so a config that sets it is refused
    config.write_text(json.dumps({"lfcc": {"fft_size": 256}, "seed": 1}))
    with pytest.raises(ConfigError, match="fft_size"):
        load_run_setup(manifest_csv, config)

    config.write_text(json.dumps({"gmm_components": 8}))
    with pytest.raises(ConfigError):
        load_run_setup(manifest_csv, config)  # no seed anywhere

    manifest, rc = load_run_setup(manifest_csv, config, seed=5, workers=3)
    assert rc.seed == 5 and rc.workers == 3 and rc.features == ("lfcc",)
    assert manifest.root == str(tmp_path)
    # the overrides meet RunConfig's type rule: 1.7 is not truncated to 1
    for override in ({"seed": 1.7}, {"seed": True}, {"seed": 5, "workers": 2.0}):
        with pytest.raises(ConfigError):
            load_run_setup(manifest_csv, config, **override)

    config.write_text(json.dumps({"seed": 2, "features": "lfcc", "extra_bits": 4}))
    _, rc = load_run_setup(manifest_csv, config)
    assert rc.seed == 2 and rc.extra_bits == 4 and rc.features == ("lfcc",)
    config.write_text(json.dumps({"seed": 2, "features": "wav"}))
    with pytest.raises(ConfigError, match="^unknown feature extractor 'wav'"):
        load_run_setup(manifest_csv, config)

    # frame sizes take any JSON number
    config.write_text(json.dumps({"seed": 2, "lfcc": {"frame_len_ms": 25, "frame_hop_ms": 12.5}}))
    _, rc = load_run_setup(manifest_csv, config)
    assert rc.lfcc == LfccConfig(frame_len_ms=25.0, frame_hop_ms=12.5)

    # wrong-typed values: integers must be JSON integers, features strings
    for bad in (
        {"seed": 1, "gmm_components": "x"},
        {"seed": 1, "workers": "two"},
        {"seed": 1, "features": 5},
        {"seed": 1, "features": ["lfcc", 3]},
        {"seed": 1, "features": ["lfcc", "lfcc"]},
        {"seed": 1, "features": ["lfcc"], "feature": "no-such"},  # one key per setting
        {"seed": "abc"},
        {"seed": 1, "extra_bits": 1.7},
        {"seed": 1, "em_iters": True},
        {"seed": 1, "lfcc": 5},
        # selectors that are not subset:label
        {"seed": 1, "attacker_pmf_source": 5},
        {"seed": 1, "cm_pmf_source": "train:bogus"},
        {"seed": 1, "cm_pmf_source": "test:genuine:x"},
    ):
        config.write_text(json.dumps(bad))
        with pytest.raises(ConfigError):
            load_run_setup(manifest_csv, config)
    # the lfcc block's wrong-typed and out-of-range values, and range rules
    # other owners hold, are those owners' InputErrors
    for bad in (
        {"seed": 1, "lfcc": {"num_ceps": 19.0}},
        {"seed": 1, "lfcc": {"num_ceps": True}},
        {"seed": 1, "lfcc": {"num_filters": "20"}},
        {"seed": 1, "lfcc": {"delta_window": None}},
        {"seed": 1, "lfcc": {"include_energy": "no"}},
        {"seed": 1, "lfcc": {"include_energy": 1}},
        {"seed": 1, "lfcc": {"frame_len_ms": "20"}},
        {"seed": 1, "lfcc": {"frame_hop_ms": False}},
        {"seed": 1, "lfcc": {"delta_window": 0}},
        {"seed": 1, "lfcc": {"num_ceps": 30}},
        {"seed": 1, "extra_bits": -1},
        {"seed": 1, "extra_bits": 11},
        {"seed": 1, "gmm_components": 0},
        {"seed": 1, "em_iters": 0},
    ):
        config.write_text(json.dumps(bad))
        with pytest.raises(InputError):
            load_run_setup(manifest_csv, config)


def test_run_config_validation():
    # one extractor id is a one-item list of features, never its characters
    assert RunConfig(seed=1, features="lfcc").features == ("lfcc",)
    with pytest.raises(ConfigError, match="^unknown feature extractor 'wav'"):
        RunConfig(seed=1, features="wav")
    assert RunConfig(seed=1, features=["lfcc"]).features == ("lfcc",)
    with pytest.raises(ConfigError):
        RunConfig(seed=0, features=())
    with pytest.raises(ConfigError):
        RunConfig(seed=0, features=("lfcc", "lfcc"))
    # a range rule another owner holds is that owner's InputError
    with pytest.raises(InputError, match="^component count must be at least 1$"):
        RunConfig(seed=0, gmm_components=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=0, workers=0)
    for bits in (-1, 11):
        with pytest.raises(InputError, match=rf"^extra_bits must lie in 0\.\.10; got {bits}$"):
            RunConfig(seed=0, extra_bits=bits)
    for selector in (5, "train:bogus", "test:genuine:x"):
        for name in ("attacker_pmf_source", "cm_pmf_source"):
            with pytest.raises(ConfigError):
                RunConfig(seed=0, **{name: selector})

    # Python callers get the type rule that JSON configs get: an integer
    # field takes an integer, a number field any number, neither a bool
    config = RunConfig(seed=0)
    for name, value in (("seed", 1.5), ("seed", True), ("em_iters", 2.0),
                        ("gmm_components", "4"), ("extra_bits", 5.0), ("workers", 1.0),
                        ("features", 5), ("features", None), ("lfcc", {"num_ceps": 19})):
        with pytest.raises(ConfigError):
            dataclasses.replace(config, **{name: value})
    for name, value in (("num_filters", 20.0), ("num_ceps", 19.0), ("delta_window", 2.0),
                        ("num_filters", True), ("include_energy", 1), ("frame_len_ms", "20")):
        with pytest.raises(InputError):
            LfccConfig(**{name: value})
    # a number field stores a float, so 25 and 25.0 are one config and one key
    whole = LfccConfig(frame_len_ms=25, frame_hop_ms=np.float32(12.5))
    assert whole == LfccConfig(frame_len_ms=25.0, frame_hop_ms=12.5)
    assert type(whole.frame_len_ms) is float and type(whole.frame_hop_ms) is float
    assert whole.fingerprint() == LfccConfig(frame_len_ms=25.0, frame_hop_ms=12.5).fingerprint()
    assert type(RunConfig(seed=np.int64(3)).seed) is int


def test_select_is_the_row_filter():
    rows = (("test", "spoof"), ("train", "genuine"), ("test", "genuine"), ("train", "spoof"),
            ("test", "spoof"))
    entries = tuple(ManifestEntry(path=f"{i}.wav", label=label, subset=subset)
                    for i, (subset, label) in enumerate(rows))
    manifest = DatasetManifest(entries=entries)
    every = list(enumerate(entries))
    # None matches any subset or label; rows come in manifest order
    assert manifest.select() == every
    for subset in SUBSETS:
        assert manifest.select(subset) == [(i, e) for i, e in every if e.subset == subset]
        for label in LABELS:
            assert manifest.select(subset, label) == [
                (i, e) for i, e in every if (e.subset, e.label) == (subset, label)]
    for label in LABELS:
        assert manifest.select(label=label) == [(i, e) for i, e in every if e.label == label]
    assert [i for i, _ in manifest.select("test", "spoof")] == [0, 4]
    for subset, label in (("dev", None), (None, "human"), ("test:spoof", None), ("Test", None),
                          ("test", ""), (0, None)):
        with pytest.raises(ConfigError, match="select takes a subset"):
            manifest.select(subset, label)


def test_validate_manifest(tmp_path, corpus):
    _, manifest_path, manifest, _ = corpus
    validate_manifest(manifest)  # the generated corpus is complete

    missing = DatasetManifest(
        entries=manifest.entries + (ManifestEntry(path="ghost.wav", label="spoof", subset="test"),),
        root=manifest.root,
    )
    with pytest.raises(ConfigError):
        validate_manifest(missing)

    train_only = DatasetManifest(
        entries=[e for e in manifest.entries if e.subset == "train"], root=manifest.root
    )
    with pytest.raises(ConfigError):
        validate_manifest(train_only)

    with pytest.raises(ConfigError):
        manifest.select("dev")
    with pytest.raises(ConfigError):
        manifest.select("test", "human")


def test_baseline_scenario_matches_hand_assembled_pipeline(corpus, tmp_path, capsys):
    # the OO aN cN row assembled from the stage commands, with the run's LFCC
    # settings, GMM budget and model role seeds: feature files hold the
    # float64 rows the runner trains on, so every trial's score is the
    # runner's log-likelihood ratio bit for bit, not just close to it
    _, manifest_path, manifest, config = corpus
    spec = ScenarioSpec(h_train="O", s_train="O", attacker_action="N", cm_action="N",
                        feature="lfcc")
    runner = _MatrixRunner(manifest, config)
    (result,) = runner.run([spec])
    assert config.lfcc == LfccConfig()
    models = {}
    for label, role in (("genuine", SeedRole.MODEL_GENUINE), ("spoof", SeedRole.MODEL_SPOOF)):
        caches = []
        for index, entry in manifest.select("train", label):
            caches.append(str(tmp_path / f"{index}.feat"))
            assert main(["extract-features", "--out", caches[-1],
                         str(manifest.resolve(entry))]) == 0
        models[label] = str(tmp_path / f"{label}.gmm")
        assert main(["train-gmm", "--components", str(config.gmm_components),
                     "--iters", str(config.em_iters), "--seed", str(role_seed(config.seed, role)),
                     "--out", models[label], *caches]) == 0
    scores = tmp_path / "scores.csv"
    assert main(["score", "--genuine-model", models["genuine"],
                 "--spoof-model", models["spoof"], "--out", str(scores),
                 "--manifest", str(manifest_path)]) == 0
    capsys.readouterr()
    assert main(["eer", str(scores)]) == 0
    assert capsys.readouterr().out == f"EER={result.eer:.6f}\n"
    trials = load_scores(scores)
    assert result.genuine_trials == sum(t.label == "genuine" for t in trials)
    assert result.spoof_trials == sum(t.label == "spoof" for t in trials)
    want = []
    for index, entry in manifest.select("test"):
        table = runner.score_file(index, [(key, ()) for key in spec.models()])
        (genuine, _), (spoof, _) = (table[(key, ())] for key in spec.models())
        want.append((entry.path, entry.label, genuine - spoof))
    assert [(t.file_id, t.label, t.score) for t in trials] == want


def test_a_16_khz_bundled_corpus_runs_every_row(tmp_path):
    # the bundled config holds no LFCC setting: the FFT length follows the
    # frame, so 20 ms frames of 320 samples take a 512-point FFT
    manifest_path = make_toy_corpus(tmp_path, sample_rate=16000, files_per_class=2)
    config_path = tmp_path / "config.json"
    assert set(json.loads(config_path.read_text())) == {"seed", "gmm_components", "em_iters"}
    manifest, config = load_run_setup(manifest_path, config_path)
    results = run_matrix(manifest, config)
    assert len(results) == 45
    assert [r.error for r in results if r.eer is None] == []


def test_every_extractor_gets_the_run_config_and_models_record_its_meta(corpus):
    _, _, manifest, config = corpus
    received = []

    def stub(w, cfg):
        received.append(cfg)
        return FeatureMatrix(frames=lfcc(w, cfg).frames, meta="stub-" + cfg.fingerprint())

    register_extractor("stub", stub)
    try:
        runner = _MatrixRunner(manifest, dataclasses.replace(config, features=("stub",)))
        spec = ScenarioSpec(h_train="O", s_train="O", attacker_action="N", cm_action="N",
                            feature="stub")
        runner.run([spec])
        assert received and all(cfg is config.lfcc for cfg in received)
        for label in ("genuine", "spoof"):
            model = runner.model(label, "O", "stub")
            assert model.feature_fingerprint == "stub-" + config.lfcc.fingerprint()
            model = runner.model(label, "O", "lfcc")
            assert model.feature_fingerprint == config.lfcc.fingerprint()
    finally:
        del _EXTRACTORS["stub"]


def test_matrix_csv_shape_and_order(corpus, tmp_path):
    _, _, manifest, config = corpus
    out_csv = tmp_path / "results.csv"
    results = run_matrix(manifest, config, out_csv=out_csv)
    assert len(results) == 45
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "feature,h_train,s_train,attacker,cm,eer,genuine_trials,spoof_trials,seconds"
    assert len(lines) == 46
    combos = [tuple(line.split(",")[1:5]) for line in lines[1:]]
    want = [
        (h, s, a, c)
        for h, s in TRAIN_COMBOS
        for a in ACTIONS
        for c in ACTIONS
    ]
    assert combos == want


def test_matrix_cache_rerun_is_bitwise_identical(corpus, tmp_path):
    _, _, manifest, config = corpus
    cache = tmp_path / "cache"
    csv1 = tmp_path / "r1.csv"
    csv2 = tmp_path / "r2.csv"
    run_matrix(manifest, config, cache_dir=cache, out_csv=csv1)
    run_matrix(manifest, config, cache_dir=cache, out_csv=csv2)
    assert csv1.read_bytes() == csv2.read_bytes()


def test_matrix_resume_equals_fresh_except_timing(corpus, tmp_path):
    _, _, manifest, config = corpus
    cache = tmp_path / "cache"
    csv_full = tmp_path / "full.csv"
    csv_resumed = tmp_path / "resumed.csv"
    run_matrix(manifest, config, cache_dir=cache, out_csv=csv_full)
    cached = sorted((cache / "results").glob("*.json"))
    assert len(cached) == 45
    for path in cached[::3]:
        path.unlink()
    run_matrix(manifest, config, cache_dir=cache, out_csv=csv_resumed)

    def strip_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert strip_seconds(csv_full) == strip_seconds(csv_resumed)


# cache entries that parse but break the row check: (field, stored value)
_DAMAGED_VALUES = (
    ("eer", None), ("eer", "12"), ("eer", 150.0), ("seconds", "abc"), ("genuine_trials", -3),
)


def test_matrix_recomputes_unusable_cache_entries(corpus, tmp_path, caplog):
    root, manifest_path, manifest, config = corpus
    cache = tmp_path / "cache"
    csv_full = tmp_path / "full.csv"
    csv_healed = tmp_path / "healed.csv"
    run_matrix(manifest, config, cache_dir=cache, out_csv=csv_full)
    entries = sorted((cache / "results").glob("*.json"))
    truncated, misplaced, donor = entries[:3]
    damaged = entries[3:3 + len(_DAMAGED_VALUES)]

    def damage_values():
        for path, (name, value) in zip(damaged, _DAMAGED_VALUES):
            path.write_text(json.dumps({**json.loads(path.read_text()), name: value}))

    truncated.write_bytes(truncated.read_bytes()[:10])
    misplaced.write_bytes(donor.read_bytes())  # another scenario's entry
    damage_values()
    with caplog.at_level(logging.WARNING, logger="wavespoof.experiment"):
        run_matrix(manifest, config, cache_dir=cache, out_csv=csv_healed)

    def strip_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    def unusable():
        return sum("unusable cache entry" in r.getMessage() for r in caplog.records)

    assert strip_seconds(csv_full) == strip_seconds(csv_healed)
    assert unusable() == 2 + len(_DAMAGED_VALUES)
    healed = json.loads(misplaced.read_text())["spec"]
    assert healed != json.loads(donor.read_text())["spec"]
    assert json.loads(truncated.read_text())["spec"]
    for path, (name, value) in zip(damaged, _DAMAGED_VALUES):
        assert json.loads(path.read_text())[name] != value

    # the same values through the CLI, progress lines on
    damage_values()
    caplog.clear()
    csv_cli = tmp_path / "cli.csv"
    with caplog.at_level(logging.WARNING, logger="wavespoof.experiment"):
        code = main(["run-matrix", "--manifest", str(manifest_path), "--config",
                     str(root / "config.json"), "--seed", str(config.seed),
                     "--cache-dir", str(cache), "--out", str(csv_cli)])
    assert code == 0 and unusable() == len(_DAMAGED_VALUES)
    assert strip_seconds(csv_full) == strip_seconds(csv_cli)


def test_scenario_result_checks_itself():
    spec = enumerate_scenarios(["lfcc"])[0]
    good = {"eer": 12.5, "genuine_trials": 3, "spoof_trials": 4, "seconds": 0.25}
    ScenarioResult(spec=spec, **good)
    ScenarioResult(spec=spec, **{**good, "eer": 0.0, "seconds": 0.0})
    ScenarioResult(spec=spec, **{**good, "eer": 100.0, "spoof_trials": 0})
    ScenarioResult(spec=spec, **{**good, "eer": None, "error": "FormatError: x"})
    for bad in (
        {"eer": None},
        {"error": "FormatError: x"},
        {"eer": "12"},
        {"eer": 12},
        {"eer": 150.0},
        {"eer": -0.5},
        {"eer": float("nan")},
        {"genuine_trials": -3},
        {"spoof_trials": 2.0},
        {"genuine_trials": True},
        {"seconds": "abc"},
        {"seconds": 1},
        {"seconds": -1.0},
        {"seconds": float("inf")},
        {"seconds": float("nan")},
    ):
        with pytest.raises(InputError):
            ScenarioResult(spec=spec, **{**good, **bad})


def test_result_cache_key_covers_config_selectors_and_results_version(
    corpus, tmp_path, monkeypatch
):
    _, _, manifest, config = corpus
    cache = tmp_path / "cache"
    spec = enumerate_scenarios(["lfcc"])[0]

    def result_path(manifest, config):
        return _MatrixRunner(manifest, config, cache_dir=cache)._result_path(spec)

    base = result_path(manifest, config)
    lfcc_changes = {"frame_len_ms": 25.0, "frame_hop_ms": 12.5, "num_filters": 24,
                    "num_ceps": 13, "include_energy": False, "delta_window": 3}
    assert set(lfcc_changes) == {f.name for f in dataclasses.fields(LfccConfig)}
    config_changes = {"seed": config.seed + 1, "gmm_components": config.gmm_components + 1,
                      "em_iters": config.em_iters + 1, "extra_bits": config.extra_bits + 1,
                      "attacker_pmf_source": "test:spoof", "cm_pmf_source": "train:spoof"}
    assert config.attacker_pmf_source != "test:spoof" and config.cm_pmf_source != "train:spoof"
    assert set(config_changes) | {"lfcc", "workers", "features"} == {
        f.name for f in dataclasses.fields(RunConfig)
    }
    changed = [dataclasses.replace(config, **{name: value})
               for name, value in config_changes.items()]
    changed += [dataclasses.replace(config, lfcc=dataclasses.replace(config.lfcc, **{name: value}))
                for name, value in lfcc_changes.items()]
    for moved in changed:
        assert result_path(manifest, moved) != base, moved
    assert result_path(manifest, dataclasses.replace(config, workers=3)) == base

    # the key names the registered extractor's code: another function under
    # the id moves it, a functools.wraps wrapper of the same function does not
    original = _EXTRACTORS["lfcc"]

    def other(w, cfg):
        return original(w, cfg)

    wrapped = functools.wraps(original)(lambda w, cfg: original(w, cfg))
    for extractor, moves in ((other, True), (wrapped, False)):
        monkeypatch.setitem(_EXTRACTORS, "lfcc", extractor)
        assert (result_path(manifest, config) != base) == moves
    monkeypatch.setitem(_EXTRACTORS, "lfcc", original)

    # a bumped version misses every entry written under the old one
    run_matrix(manifest, config, cache_dir=cache)
    monkeypatch.setattr(wavespoof.experiment, "RESULTS_VERSION",
                        wavespoof.experiment.RESULTS_VERSION + 1)
    assert result_path(manifest, config) != base
    computed = []
    row = _MatrixRunner._row

    def counting_row(self, spec, *args):
        computed.append(spec)
        return row(self, spec, *args)

    monkeypatch.setattr(_MatrixRunner, "_row", counting_row)
    run_matrix(manifest, config, cache_dir=cache)
    assert len(computed) == 45
    assert len(list((cache / "results").glob("*.json"))) == 90


def test_matrix_parallel_equals_serial(corpus, tmp_path):
    import dataclasses

    _, _, manifest, config = corpus
    serial = run_matrix(manifest, config)
    parallel = run_matrix(manifest, dataclasses.replace(config, workers=3))
    assert [(r.spec, r.eer) for r in serial] == [(r.spec, r.eer) for r in parallel]


def test_matrix_trains_each_model_once_across_workers(corpus, monkeypatch):
    # genuine/spoof x O/G/R: six models serve all 45 scenarios, however the
    # two workers interleave
    _, _, manifest, config = corpus
    trained = []

    def counting_train_gmm(*args, **kwargs):
        trained.append(kwargs["provenance"])
        return train_gmm(*args, **kwargs)

    monkeypatch.setattr("wavespoof.experiment.train_gmm", counting_train_gmm)
    results = run_matrix(manifest, dataclasses.replace(config, workers=2))
    assert all(r.error is None for r in results)
    assert len(trained) == 6


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_scores_each_model_file_chain_once(corpus, monkeypatch, workers):
    # a genuine test file has 3 chains (cm action), a spoof file 9 (attacker
    # x cm), and each chain is scored under all six models once
    _, _, manifest, config = corpus
    loglik = wavespoof.gmm.gmm_loglik
    passes = []
    llrs = {}
    local = threading.local()

    def counting_loglik(*args, **kwargs):
        passes.append(1)
        return loglik(*args, **kwargs)

    def recording_row(self, spec, *args):
        local.spec = spec
        return row(self, spec, *args)

    def recording_eer(genuine_scores, spoof_scores):
        llrs[local.spec] = (list(genuine_scores), list(spoof_scores))
        return eer_from_scores(genuine_scores, spoof_scores)

    row = _MatrixRunner._row
    monkeypatch.setattr("wavespoof.gmm.gmm_loglik", counting_loglik)
    monkeypatch.setattr("wavespoof.experiment.gmm_loglik", counting_loglik, raising=False)
    monkeypatch.setattr(_MatrixRunner, "_row", recording_row)
    monkeypatch.setattr("wavespoof.experiment.eer_from_scores", recording_eer)
    results = run_matrix(manifest, dataclasses.replace(config, workers=workers))
    monkeypatch.undo()

    test_genuine = manifest.select("test", "genuine")
    test_spoof = manifest.select("test", "spoof")
    assert all(r.error is None for r in results)
    assert len(passes) == 18 * len(test_genuine) + 54 * len(test_spoof) == 432
    naive = _MatrixRunner(manifest, config)
    assert len(llrs) == 45
    for spec, (genuine_llrs, spoof_llrs) in llrs.items():
        genuine_model = naive.model("genuine", spec.h_train, spec.feature)
        spoof_model = naive.model("spoof", spec.s_train, spec.feature)

        def score(index, label):
            features = naive.features({}, index, naive._test_chain(spec, label), spec.feature)
            return score_trial(genuine_model, spoof_model, features)

        assert genuine_llrs == [score(i, "genuine") for i, _ in test_genuine]
        assert spoof_llrs == [score(i, "spoof") for i, _ in test_spoof]


def test_matrix_seconds_count_scoring_not_training(corpus, monkeypatch):
    # seconds covers a scenario's own log-likelihood passes, subtraction and
    # EER, so no row is charged for a model it happened to build first
    _, _, manifest, config = corpus
    delay = 0.25

    def slow_train_gmm(*args, **kwargs):
        time.sleep(delay)
        return train_gmm(*args, **kwargs)

    monkeypatch.setattr("wavespoof.experiment.train_gmm", slow_train_gmm)
    for workers in (1, 2):
        results = run_matrix(manifest, dataclasses.replace(config, workers=workers))
        assert all(r.error is None for r in results)
        assert all(0.0 < r.seconds < delay for r in results)


def test_matrix_warm_rerun_does_no_work(corpus, tmp_path, monkeypatch):
    _, _, manifest, config = corpus
    cache = tmp_path / "cache"
    csv_cold = tmp_path / "cold.csv"
    csv_warm = tmp_path / "warm.csv"
    run_matrix(manifest, config, cache_dir=cache, out_csv=csv_cold)
    calls = []

    def counting(name, fn):
        @functools.wraps(fn)  # the extractor keeps its name, so its results stay cached
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr("wavespoof.experiment.train_gmm", counting("train_gmm", train_gmm))
    loglik = counting("gmm_loglik", wavespoof.gmm.gmm_loglik)
    monkeypatch.setattr("wavespoof.gmm.gmm_loglik", loglik)
    monkeypatch.setattr("wavespoof.experiment.gmm_loglik", loglik, raising=False)
    monkeypatch.setitem(_EXTRACTORS, "lfcc", counting("lfcc", _EXTRACTORS["lfcc"]))
    run_matrix(manifest, dataclasses.replace(config, workers=2), cache_dir=cache,
               out_csv=csv_warm)
    assert calls == []
    assert csv_cold.read_bytes() == csv_warm.read_bytes()


def test_memo_waits_for_a_build_in_flight_and_keeps_failures(corpus):
    _, _, manifest, config = corpus
    runner = _MatrixRunner(manifest, config)
    store, outcome, builds = {}, {}, []
    started, release = threading.Event(), threading.Event()

    def failing_build():
        builds.append("failing")
        started.set()
        release.wait(10)
        raise ConfigError("first build fails")

    def build():
        builds.append("working")
        return "value"

    def caller(name, fn):
        try:
            runner._memo(store, "key", fn)
        except ConfigError as exc:
            outcome[name] = exc

    first = threading.Thread(target=caller, args=("first", failing_build))
    first.start()
    started.wait(10)
    second = threading.Thread(target=caller, args=("second", build))
    second.start()
    second.join(0.2)
    assert builds == ["failing"] and second.is_alive()  # waiting, not building
    release.set()
    first.join(10)
    second.join(10)
    assert not first.is_alive() and not second.is_alive()
    # the waiter gets a copy of the build's own error; the key was built once
    stored = store["key"].exception()
    assert isinstance(outcome["first"], ConfigError)
    assert type(outcome["second"]) is type(outcome["first"])
    assert str(outcome["second"]) == str(outcome["first"])
    assert outcome["second"].__cause__ is outcome["first"].__cause__ is stored
    assert builds == ["failing"]
    with pytest.raises(ConfigError, match="first build fails"):
        runner._memo(store, "key", build)
    assert builds == ["failing"]


def test_memo_failure_keeps_its_traceback_as_long_as_after_one_caller(corpus):
    # every frame in a stored error's traceback keeps its locals alive, so
    # callers of a failed key must not extend it
    _, _, manifest, config = corpus
    runner = _MatrixRunner(manifest, config)
    store = {}

    def build():
        raise ConfigError("build fails")

    def traceback_length():
        tb, length = store["key"].exception().__traceback__, 0
        while tb is not None:
            tb, length = tb.tb_next, length + 1
        return length

    lengths = []
    for _ in range(100):
        with pytest.raises(ConfigError, match="build fails"):
            runner._memo(store, "key", build)
        lengths.append(traceback_length())
    assert lengths == [lengths[0]] * 100


def test_memo_builds_each_key_once_under_thread_contention(corpus):
    _, _, manifest, config = corpus
    runner = _MatrixRunner(manifest, config)
    store, builds, results = {}, [], []

    def build(key):
        builds.append(key)
        time.sleep(0.01)  # a window in which other threads ask for the key
        return object()

    def caller(offset):
        for step in range(200):
            key = (offset + step) % 5
            results.append((key, runner._memo(store, key, lambda: build(key))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(builds) == list(range(5))
    assert len(results) == 1600 and len({(key, id(v)) for key, v in results}) == 5


def test_matrix_failures_are_reported_not_cached(corpus, tmp_path):
    # an unknown extractor id is the run config's ConfigError, so the rows
    # fail through a registered extractor that fails on every file
    _, _, manifest, config = corpus

    def broken_extractor(w, cfg):
        raise InputError("this extractor fails on every file")

    register_extractor("broken", broken_extractor)
    try:
        broken = dataclasses.replace(config, features=("broken",))
        cache = tmp_path / "cache"
        out_csv = tmp_path / "broken.csv"
        results = run_matrix(manifest, broken, cache_dir=cache, out_csv=out_csv)
    finally:
        del _EXTRACTORS["broken"]
    assert len(results) == 45
    assert {r.error for r in results} == {"InputError: this extractor fails on every file"}
    assert all(r.error is not None and r.eer is None for r in results)
    assert list((cache / "results").glob("*.json")) == []
    for line in out_csv.read_text().splitlines()[1:]:
        assert line.split(",")[5] == ""  # empty EER field on failed rows


def test_matrix_turns_a_damaged_test_wav_into_failed_rows(corpus, tmp_path):
    _, _, manifest, config = corpus
    damaged = tmp_path / "damaged.wav"
    damaged.write_bytes(b"RIFF\x24\x00\x00")  # 7 bytes: the file ends inside its header
    entries = list(manifest.entries)
    first_test = next(i for i, e in enumerate(entries) if e.subset == "test")
    entries[first_test] = dataclasses.replace(entries[first_test], path=str(damaged))
    out_csv = tmp_path / "results.csv"
    results = run_matrix(dataclasses.replace(manifest, entries=entries), config, out_csv=out_csv)
    assert len(results) == 45 and len(out_csv.read_text().splitlines()) == 46
    for r in results:
        assert r.eer is None and r.error.startswith(f"FormatError: {damaged}: ")
        assert r.error.count(str(damaged)) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_scores_nothing_when_a_test_wav_is_unreadable(corpus, tmp_path, monkeypatch,
                                                             workers):
    # every scenario scores every test file, so an unreadable one fails every
    # row after the model stage: the models' training work, and no pass
    _, _, manifest, config = corpus
    entries = list(manifest.entries)
    index = next(i for i, e in enumerate(entries) if e.path == "audio/test/genuine/000.wav")
    cut = tmp_path / "cut.wav"
    cut.write_bytes(manifest.resolve(entries[index]).read_bytes()[:7])
    entries[index] = dataclasses.replace(entries[index], path=str(cut))
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setitem(_EXTRACTORS, "lfcc", counting("lfcc", lfcc))
    monkeypatch.setattr("wavespoof.experiment.genuinize",
                        counting("genuinize", wavespoof.experiment.genuinize))
    monkeypatch.setattr("wavespoof.experiment.gmm_loglik",
                        counting("gmm_loglik", wavespoof.gmm.gmm_loglik))
    results = run_matrix(dataclasses.replace(manifest, entries=entries),
                         dataclasses.replace(config, workers=workers))
    assert (calls.count("lfcc"), calls.count("genuinize"), calls.count("gmm_loglik")) == (36, 24, 0)
    assert len(results) == 45
    assert all(r.eer is None and r.error.startswith(f"FormatError: {cut}: ") for r in results)


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_reads_a_damaged_training_wav_once(corpus, tmp_path, monkeypatch, workers):
    # every model and treatment of the train:genuine side needs the file;
    # its failed read is kept, so the run reads it once
    _, _, manifest, config = corpus
    damaged = tmp_path / "damaged.wav"
    damaged.write_bytes(b"RIFF\x24\x00\x00")
    entries = list(manifest.entries)
    index = manifest.select("train", "genuine")[0][0]
    entries[index] = dataclasses.replace(entries[index], path=str(damaged))
    reads = []

    def counting_read_wav(path):
        reads.append(str(path))
        return read_wav(path)

    monkeypatch.setattr("wavespoof.experiment.read_wav", counting_read_wav)
    results = run_matrix(dataclasses.replace(manifest, entries=entries),
                         dataclasses.replace(config, workers=workers))
    assert reads.count(str(damaged)) == 1
    assert len(results) == 45 and all(r.eer is None for r in results)
    errors = {r.error for r in results}
    assert len(errors) == 1 and errors.pop().startswith(f"FormatError: {damaged}: ")


@pytest.mark.parametrize(
    "damaged", [None, "audio/train/spoof/001.wav", "audio/test/genuine/000.wav"]
)
@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_keeps_a_files_features_only_in_its_pass(corpus, tmp_path, monkeypatch, workers,
                                                        damaged):
    # a model build holds its label's training features, a test file's pass
    # the features of its chains (9 for a spoof file); nothing holds them
    # past the build or the pass, even where a build failed (a damaged
    # test:genuine file fails the attacker's references in every spoof
    # file's pass), and without the cyclic garbage collector
    _, _, manifest, config = corpus
    entries = list(manifest.entries)
    if damaged:
        index = next(i for i, e in enumerate(entries) if e.path == damaged)
        cut = tmp_path / "cut.wav"
        cut.write_bytes(manifest.resolve(entries[index]).read_bytes()[:7])
        entries[index] = dataclasses.replace(entries[index], path=str(cut))
    refs, alive = [], []

    def tracking_lfcc(w, cfg):
        matrix = lfcc(w, cfg)
        refs.append(weakref.ref(matrix))
        alive.append(sum(ref() is not None for ref in refs))
        return matrix

    monkeypatch.setitem(_EXTRACTORS, "lfcc", tracking_lfcc)
    gc.disable()
    try:
        results = run_matrix(dataclasses.replace(manifest, entries=entries),
                             dataclasses.replace(config, workers=workers))
        left = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(results) == 45 and all((r.error is None) == (damaged is None) for r in results)
    training = max(len(manifest.select("train", label)) for label in ("genuine", "spoof"))
    assert alive and max(alive) <= workers * max(training, 9)
    assert left == 0


def test_progress_callback_sees_every_scenario(corpus):
    _, _, manifest, config = corpus
    seen = []
    run_matrix(manifest, config, progress=seen.append)
    assert len(seen) == 45
