"""Toolkit acceptance suite.

One test per shipped guarantee, in fixed order. Run with pytest -v to get
one PASSED/FAILED line per criterion; on success each test also echoes an
"ACCEPTANCE nn PASS" line past pytest's capture so the gate is visible in
plain logs. The final criterion needs real corpus data and is skipped
unless WAVESPOOF_LA_MANIFEST is set.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from wavespoof import (
    FeatureMatrix,
    GenuinizeParams,
    Pmf,
    InputError,
    ScenarioSpec,
    SeedRole,
    Waveform,
    amp_to_index,
    cdf_from_pmf,
    eer_from_scores,
    enumerate_scenarios,
    estimate_pmf,
    extend_cdf,
    genuinize,
    index_to_amp,
    load_run_setup,
    make_toy_corpus,
    read_wav,
    run_matrix,
    run_scenario,
    train_gmm,
    tv_distance,
)
from wavespoof.experiment import _MatrixRunner
from oracles import eer_oracle


def announce(capsys, num):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} PASS")


def wave(samples):
    return Waveform(samples=np.asarray(samples), sample_rate=16000)


def test_criterion_01_index_mapping_round_trip(capsys):
    indices = np.arange(1, 65537)
    start = time.perf_counter()
    amps = index_to_amp(indices)
    back = amp_to_index(amps)
    elapsed = time.perf_counter() - start
    assert np.array_equal(back, indices)
    assert elapsed < 1.0
    announce(capsys, 1)


def test_criterion_02_self_target_identity(capsys):
    rng = np.random.default_rng(20)
    for _ in range(100):
        extra = rng.integers(1, 65537, size=rng.integers(1000, 20000))
        samples = np.concatenate([np.arange(1, 65537), extra])
        rng.shuffle(samples)
        w = wave(samples)
        target = cdf_from_pmf(estimate_pmf([w]))
        out = genuinize(w, GenuinizeParams(mode="basic"), (target,))
        assert np.array_equal(out.samples, w.samples)
    announce(capsys, 2)


def test_criterion_03_distribution_matching(capsys):
    start = time.perf_counter()
    levels = 256
    centers = np.arange(levels, dtype=np.float64)
    target_mass = np.exp(-0.5 * ((centers - 128.0) / 40.0) ** 2)
    target_mass /= target_mass.sum()
    source_mass = np.exp(-np.abs(centers - 96.0) / 22.0)
    source_mass /= source_mass.sum()

    rng = np.random.default_rng(123)
    samples = rng.choice(np.arange(1, levels + 1), size=1_000_000, p=source_mass)
    src = wave(samples)
    target_pmf = Pmf(mass=target_mass)
    target = cdf_from_pmf(target_pmf)
    out = genuinize(src, GenuinizeParams(mode="perturbed", extra_bits=5, seed=3), (target,))
    out_pmf = estimate_pmf([out], num_levels=levels)
    gap = tv_distance(out_pmf, target_pmf)
    baseline_gap = tv_distance(Pmf(mass=source_mass), target_pmf)
    elapsed = time.perf_counter() - start
    assert gap < 0.02
    assert gap < baseline_gap
    assert elapsed < 10.0
    announce(capsys, 3)


def test_criterion_04_notch_and_repair(capsys):
    levels = 256
    rng = np.random.default_rng(44)
    centers = np.arange(levels, dtype=np.float64)
    target_mass = np.exp(-0.5 * ((centers - 120.0) / 30.0) ** 2)
    target_mass /= target_mass.sum()

    atom = 90
    spread = rng.integers(1, levels + 1, size=10_000)
    peaked = np.full(9 * spread.size, atom)
    samples = np.concatenate([spread, peaked])
    rng.shuffle(samples)
    src = wave(samples)
    assert np.mean(src.samples == atom) >= 0.9

    target_pmf = Pmf(mass=target_mass)
    target = cdf_from_pmf(target_pmf)

    basic_out = genuinize(src, GenuinizeParams(mode="basic"), (target,))
    basic_pmf = estimate_pmf([basic_out], num_levels=levels)
    unhit = (basic_pmf.mass == 0.0) & (target_mass > 1e-6)
    assert unhit.any()

    perturbed_out = genuinize(
        src, GenuinizeParams(mode="perturbed", extra_bits=5, seed=8), (target,)
    )
    perturbed_pmf = estimate_pmf([perturbed_out], num_levels=levels)
    assert tv_distance(perturbed_pmf, target_pmf) < tv_distance(basic_pmf, target_pmf)
    announce(capsys, 4)


def test_criterion_05_extended_cdf_boundary_identity(capsys):
    rng = np.random.default_rng(17)
    for trial in range(5):
        counts = rng.integers(0, 50, size=256)
        counts[rng.integers(0, 256)] += 1  # non-empty
        mass = counts / counts.sum()
        p = estimate_pmf(
            [wave(np.repeat(np.arange(1, 257), counts))], num_levels=256
        )
        assert np.allclose(p.mass, mass)
        base = cdf_from_pmf(p)
        for d in (0, 1, 3, 5):
            ext = extend_cdf(p, d)
            sub = 1 << d
            assert np.array_equal(ext.cum[sub - 1 :: sub], base.cum)
        assert np.array_equal(extend_cdf(p, 0).cum, base.cum)
    announce(capsys, 5)


def test_criterion_06_eer_oracle_equivalence(capsys):
    rng = np.random.default_rng(99)
    checked_large = 0
    for trial in range(1000):
        if trial % 16 == 0:
            ng = int(rng.integers(75, 101))
            ns = int(rng.integers(75, 101))
            checked_large += 1
        else:
            ng = int(rng.integers(1, 26))
            ns = int(rng.integers(1, 26))
        if trial % 3 == 0:
            genuine = rng.integers(0, 6, size=ng).astype(float)
            spoof = rng.integers(0, 6, size=ns).astype(float)
        else:
            genuine = rng.normal(0.6, 1.0, size=ng)
            spoof = rng.normal(-0.6, 1.0, size=ns)
        assert eer_from_scores(genuine, spoof) == pytest.approx(
            eer_oracle(genuine, spoof), abs=1e-9
        )
    assert checked_large >= 50  # some sets near the 200-trial cap
    for _ in range(50):
        spoof = rng.normal(0.0, 1.0, size=int(rng.integers(1, 40)))
        genuine = rng.normal(0.0, 1.0, size=int(rng.integers(1, 40))) + 10.0
        assert eer_from_scores(genuine, spoof) == 0.0
    announce(capsys, 6)


def test_criterion_07_em_sanity(capsys):
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(40, 200))
        f = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        data = rng.normal(size=(n, f)) * rng.uniform(0.5, 2.0)
        model = train_gmm(FeatureMatrix(frames=data), k=k, iters=int(rng.integers(3, 9)),
                          seed=int(rng.integers(1 << 30)))
        trace = model.loglik_trace
        slack = 1e-6 * np.abs(trace[:-1])
        assert np.all(np.diff(trace) >= -slack)

    data = rng.normal(1.5, 0.7, size=(500, 3))
    single = train_gmm(FeatureMatrix(frames=data), k=1, iters=2, seed=0)
    assert np.allclose(single.means[0], data.mean(axis=0), atol=1e-9)
    assert np.allclose(single.variances[0], data.var(axis=0), atol=1e-9)

    a = rng.normal(-2.0, 0.5, size=(600, 2))
    b = rng.normal(2.0, 0.5, size=(600, 2))
    data = np.vstack([a, b])
    rng.shuffle(data)
    model = train_gmm(FeatureMatrix(frames=data), k=2, iters=30, seed=5)
    order = np.argsort(model.means[:, 0])
    assert np.allclose(model.means[order][0], [-2.0, -2.0], atol=0.1)
    assert np.allclose(model.means[order][1], [2.0, 2.0], atol=0.1)
    announce(capsys, 7)


def test_criterion_08_matrix_structure(capsys, tmp_path):
    specs = enumerate_scenarios(["lfcc"])
    assert len(specs) == 45
    for bad in (("G", "O"), ("R", "O"), ("G", "R"), ("R", "G")):
        assert not any((s.h_train, s.s_train) == bad for s in specs)
        with pytest.raises(InputError):
            ScenarioSpec(h_train=bad[0], s_train=bad[1], attacker_action="N",
                         cm_action="N", feature="lfcc")

    # the attacker treats spoofed test files only, on the matrix's own path
    manifest_path = make_toy_corpus(tmp_path, seed=0, files_per_class=3, duration_s=0.4)
    manifest, config = load_run_setup(manifest_path, tmp_path / "config.json")
    runner = _MatrixRunner(manifest, config)
    tests = [(i, e.label) for i, e in enumerate(manifest.entries) if e.subset == "test"]
    for action in ("G", "R"):
        spec = ScenarioSpec(h_train="O", s_train="O", attacker_action=action, cm_action="N",
                            feature="lfcc")
        for index, label in tests:
            original = read_wav(manifest.resolve(manifest.entries[index])).samples.tobytes()
            out = runner.transformed({}, index, runner._test_chain(spec, label)).samples.tobytes()
            if label == "genuine":
                assert out == original
            else:
                assert out != original
    announce(capsys, 8)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()
    manifest_path = make_toy_corpus(root / "corpus", seed=0, files_per_class=50)
    manifest, config = load_run_setup(manifest_path, root / "corpus" / "config.json")
    cache = root / "cache"
    out_csv = root / "results.csv"
    results = run_matrix(manifest, config, cache_dir=cache, out_csv=out_csv)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        root=root,
        manifest=manifest,
        config=config,
        cache=cache,
        out_csv=out_csv,
        results=results,
        elapsed=elapsed,
    )


def test_criterion_09_toy_corpus_directions(capsys, toy_run):
    assert toy_run.elapsed < 300.0
    by_cell = {
        (r.spec.h_train, r.spec.s_train, r.spec.attacker_action, r.spec.cm_action): r.eer
        for r in toy_run.results
    }
    assert all(v is not None for v in by_cell.values())

    assert by_cell[("O", "G", "G", "N")] < 5.0

    spreads = []
    for h, s in {(r.spec.h_train, r.spec.s_train) for r in toy_run.results}:
        eers = [by_cell[(h, s, attacker, "G")] for attacker in ("N", "G", "R")]
        spreads.append(max(eers) - min(eers))
    assert max(spreads) <= 2.0
    announce(capsys, 9)


def test_criterion_10_matrix_determinism(capsys, toy_run):
    rerun_csv = toy_run.root / "rerun.csv"
    run_matrix(toy_run.manifest, toy_run.config, cache_dir=toy_run.cache, out_csv=rerun_csv)
    assert rerun_csv.read_bytes() == toy_run.out_csv.read_bytes()

    def strip_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    fresh_csv = toy_run.root / "fresh.csv"
    run_matrix(toy_run.manifest, toy_run.config, out_csv=fresh_csv)
    assert strip_seconds(fresh_csv) == strip_seconds(toy_run.out_csv)

    cached = sorted((toy_run.cache / "results").glob("*.json"))
    assert len(cached) == 45
    for path in cached[::2]:
        path.unlink()
    resumed_csv = toy_run.root / "resumed.csv"
    run_matrix(toy_run.manifest, toy_run.config, cache_dir=toy_run.cache, out_csv=resumed_csv)
    assert strip_seconds(resumed_csv) == strip_seconds(toy_run.out_csv)
    announce(capsys, 10)


@pytest.mark.skipif(
    "WAVESPOOF_LA_MANIFEST" not in os.environ,
    reason="full-data baseline needs WAVESPOOF_LA_MANIFEST (and optionally "
    "WAVESPOOF_LA_CONFIG, WAVESPOOF_LA_SEED)",
)
def test_criterion_11_full_data_baseline(capsys):
    manifest, config = load_run_setup(
        os.environ["WAVESPOOF_LA_MANIFEST"],
        os.environ.get("WAVESPOOF_LA_CONFIG"),
        seed=int(os.environ.get("WAVESPOOF_LA_SEED", "1")),
    )
    spec = ScenarioSpec(
        h_train="O",
        s_train="O",
        attacker_action="N",
        cm_action="N",
        feature="lfcc",
    )
    result = run_scenario(manifest, spec, config)
    # published equal error rate for the untreated LFCC-GMM baseline
    assert abs(result.eer - 2.710) <= 2.0
    announce(capsys, 11)
