import dataclasses
import json
import logging

import numpy as np
import pytest

from wavespoof import (
    ACTIONS,
    ConfigError,
    DatasetManifest,
    FeatureMatrix,
    InputError,
    LfccConfig,
    ManifestEntry,
    RunConfig,
    ScenarioSpec,
    SeedRole,
    TRAIN_COMBOS,
    Waveform,
    apply_action,
    cdf_from_pmf,
    eer_from_scores,
    enumerate_scenarios,
    estimate_pmf,
    lfcc,
    load_run_setup,
    make_toy_corpus,
    read_manifest_csv,
    read_wav,
    register_extractor,
    results_to_csv,
    role_seed,
    run_matrix,
    run_scenario,
    score_trial,
    train_gmm,
    validate_manifest,
)
from wavespoof.experiment import _MatrixRunner
from wavespoof.features import _EXTRACTORS


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
    specs = enumerate_scenarios(["lfcc"], extra_bits=5, seed=3)
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


def test_scenario_spec_validation():
    with pytest.raises(InputError):
        ScenarioSpec(h_train="O", s_train="O", attacker_action="X", cm_action="N", feature="lfcc")
    with pytest.raises(InputError):
        ScenarioSpec(h_train="O", s_train="O", attacker_action="N", cm_action="", feature="lfcc")


def test_apply_action_semantics():
    rng = np.random.default_rng(5)
    waves = [Waveform(samples=rng.integers(1, 65537, size=200), sample_rate=8000) for _ in range(4)]
    labels = ["genuine", "spoof", "genuine", "spoof"]
    target = cdf_from_pmf(estimate_pmf(waves))

    untouched = apply_action(waves, labels, side="attacker", action="N")
    assert all(a is b for a, b in zip(untouched, waves))

    attacked = apply_action(waves, labels, side="attacker", action="G", target=target, seed=3)
    assert attacked[0] is waves[0] and attacked[2] is waves[2]  # genuine spared
    assert not np.array_equal(attacked[1].samples, waves[1].samples)

    defended = apply_action(waves, labels, side="countermeasure", action="G", target=target, seed=3)
    assert all(d is not w for d, w in zip(defended, waves))

    randomized = apply_action(waves, labels, side="attacker", action="R", pool=waves[:1], seed=3)
    assert randomized[0] is waves[0]
    assert not np.array_equal(randomized[3].samples, waves[3].samples)

    with pytest.raises(ConfigError):
        apply_action(waves, labels, side="attacker", action="G")
    with pytest.raises(ConfigError):
        apply_action(waves, labels, side="attacker", action="R", pool=[])
    with pytest.raises(InputError):
        apply_action(waves, labels[:2], side="attacker", action="N")
    with pytest.raises(InputError):
        apply_action(waves, labels, side="both", action="N")


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

    config.write_text(json.dumps({"lfcc": {"fft_size": 256, "bogus": 1}, "seed": 1}))
    with pytest.raises(ConfigError):
        load_run_setup(manifest_csv, config)

    config.write_text(json.dumps({"gmm_components": 8}))
    with pytest.raises(ConfigError):
        load_run_setup(manifest_csv, config)  # no seed anywhere

    manifest, rc = load_run_setup(manifest_csv, config, seed=5, workers=3)
    assert rc.seed == 5 and rc.workers == 3 and rc.features == ("lfcc",)
    assert manifest.root == str(tmp_path)

    config.write_text(json.dumps({"seed": 2, "feature": "lfcc", "extra_bits": 4}))
    _, rc = load_run_setup(manifest_csv, config)
    assert rc.seed == 2 and rc.extra_bits == 4

    # wrong-typed values: integers must be JSON integers, features strings
    for bad in (
        {"seed": 1, "gmm_components": "x"},
        {"seed": 1, "workers": "two"},
        {"seed": 1, "features": 5},
        {"seed": 1, "features": ["lfcc", 3]},
        {"seed": "abc"},
        {"seed": 1, "extra_bits": 1.7},
        {"seed": 1, "em_iters": True},
    ):
        config.write_text(json.dumps(bad))
        with pytest.raises(ConfigError):
            load_run_setup(manifest_csv, config)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(seed=0, features=())
    with pytest.raises(ConfigError):
        RunConfig(seed=0, gmm_components=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=0, workers=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=0, extra_bits=-1)


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
        manifest.select("test")
    with pytest.raises(ConfigError):
        manifest.select("dev:genuine")


def test_baseline_scenario_matches_hand_assembled_pipeline(corpus):
    _, _, manifest, config = corpus
    spec = ScenarioSpec(h_train="O", s_train="O", attacker_action="N", cm_action="N",
                        feature="lfcc", extra_bits=config.extra_bits, seed=config.seed)
    result = run_scenario(manifest, spec, config)

    def features_for(selector):
        rows = [lfcc(read_wav(manifest.resolve(e)), config.lfcc).frames
                for _, e in manifest.select(selector)]
        return np.vstack(rows)

    genuine_model = train_gmm(
        features_for("train:genuine"), k=config.gmm_components, iters=config.em_iters,
        seed=role_seed(config.seed, SeedRole.MODEL_GENUINE),
    )
    spoof_model = train_gmm(
        features_for("train:spoof"), k=config.gmm_components, iters=config.em_iters,
        seed=role_seed(config.seed, SeedRole.MODEL_SPOOF),
    )
    genuine_scores = [
        score_trial(genuine_model, spoof_model, lfcc(read_wav(manifest.resolve(e)), config.lfcc))
        for _, e in manifest.select("test:genuine")
    ]
    spoof_scores = [
        score_trial(genuine_model, spoof_model, lfcc(read_wav(manifest.resolve(e)), config.lfcc))
        for _, e in manifest.select("test:spoof")
    ]
    assert result.eer == eer_from_scores(genuine_scores, spoof_scores)
    assert result.genuine_trials == len(genuine_scores)
    assert result.spoof_trials == len(spoof_scores)


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
                            feature="stub", extra_bits=config.extra_bits, seed=config.seed)
        runner.run_scenario(spec)
        assert received and all(cfg is config.lfcc for cfg in received)
        for model in runner.models_for(spec):
            assert model.feature_fingerprint == "stub-" + config.lfcc.fingerprint()
        for model in runner.models_for(dataclasses.replace(spec, feature="lfcc")):
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


def test_matrix_recomputes_unusable_cache_entries(corpus, tmp_path, caplog):
    _, _, manifest, config = corpus
    cache = tmp_path / "cache"
    csv_full = tmp_path / "full.csv"
    csv_healed = tmp_path / "healed.csv"
    run_matrix(manifest, config, cache_dir=cache, out_csv=csv_full)
    truncated, misplaced, donor = sorted((cache / "results").glob("*.json"))[:3]
    truncated.write_bytes(truncated.read_bytes()[:10])
    misplaced.write_bytes(donor.read_bytes())  # another scenario's entry
    with caplog.at_level(logging.WARNING, logger="wavespoof.experiment"):
        run_matrix(manifest, config, cache_dir=cache, out_csv=csv_healed)

    def strip_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert strip_seconds(csv_full) == strip_seconds(csv_healed)
    assert sum("unusable cache entry" in r.getMessage() for r in caplog.records) == 2
    healed = json.loads(misplaced.read_text())["spec"]
    assert healed != json.loads(donor.read_text())["spec"]
    assert json.loads(truncated.read_text())["spec"]


def test_matrix_parallel_equals_serial(corpus, tmp_path):
    import dataclasses

    _, _, manifest, config = corpus
    serial = run_matrix(manifest, config)
    parallel = run_matrix(manifest, dataclasses.replace(config, workers=3))
    assert [(r.spec, r.eer) for r in serial] == [(r.spec, r.eer) for r in parallel]


def test_matrix_failures_are_reported_not_cached(corpus, tmp_path):
    import dataclasses

    _, _, manifest, config = corpus
    broken = dataclasses.replace(config, features=("no-such-extractor",))
    cache = tmp_path / "cache"
    out_csv = tmp_path / "broken.csv"
    results = run_matrix(manifest, broken, cache_dir=cache, out_csv=out_csv)
    assert len(results) == 45
    assert all(r.error is not None and r.eer is None for r in results)
    assert list((cache / "results").glob("*.json")) == []
    for line in out_csv.read_text().splitlines()[1:]:
        assert line.split(",")[5] == ""  # empty EER field on failed rows


def test_progress_callback_sees_every_scenario(corpus):
    _, _, manifest, config = corpus
    seen = []
    run_matrix(manifest, config, progress=seen.append)
    assert len(seen) == 45
