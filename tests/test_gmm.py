import numpy as np
import pytest

from wavespoof import (
    ConfigError,
    FeatureMatrix,
    FormatError,
    GmmModel,
    InputError,
    Trial,
    compute_eer,
    eer_from_scores,
    gmm_loglik,
    load_gmm,
    load_scores,
    save_gmm,
    save_scores,
    score_trial,
    train_gmm,
)
from wavespoof.gmm import (
    _BLOCK_ROWS, _INIT_SUBSAMPLE, _NEGLIGIBLE, _accumulate, _block_logliks, _kmeans_pp_init,
)
from oracles import eer_oracle, em_step_oracle, gmm_loglik_oracle


def _random_model(rng, k, f):
    weights = rng.random(k) + 0.1
    weights /= weights.sum()
    return GmmModel(
        weights=weights,
        means=rng.normal(0.0, 2.0, size=(k, f)),
        variances=rng.random((k, f)) + 0.2,
    )


def test_model_validation():
    with pytest.raises(InputError):
        GmmModel(weights=np.array([0.7, 0.7]), means=np.zeros((2, 1)), variances=np.ones((2, 1)))
    with pytest.raises(InputError):
        GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.zeros((1, 2)))
    with pytest.raises(InputError):
        GmmModel(weights=np.array([1.0]), means=np.zeros((2, 2)), variances=np.ones((2, 2)))
    with pytest.raises(InputError, match="provenance"):
        GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)),
                 provenance="X")


def test_loglik_matches_loop_oracle():
    rng = np.random.default_rng(20)
    model = _random_model(rng, 3, 4)
    rows = rng.normal(size=(50, 4))
    want = gmm_loglik_oracle(
        rows.tolist(), model.weights.tolist(), model.means.tolist(), model.variances.tolist()
    )
    assert gmm_loglik(model, FeatureMatrix(frames=rows)) == pytest.approx(want, abs=1e-9)


def _check_estep(rows, model):
    got = _accumulate(rows, model.weights, model.means, model.variances)
    want = em_step_oracle(
        rows.tolist(), model.weights.tolist(), model.means.tolist(), model.variances.tolist()
    )
    for name, g, w in zip(("occupancy", "sum_x", "sum_xx", "total"), got, want):
        assert np.ravel(g).tolist() == pytest.approx(np.ravel(w).tolist(), rel=1e-9), name
    assert got[4] == want[4]
    return got[4]


def test_estep_matches_loop_oracle():
    rng = np.random.default_rng(22)
    for k, f in ((3, 4), (5, 2)):
        model = _random_model(rng, k, f)
        _check_estep(rng.normal(1.5, 2.0, size=(150, f)), model)


def test_estep_merges_row_blocks_like_the_loop_oracle():
    # more rows than one block, overlapping components so that no
    # responsibility saturates at 1; the highest one is a row of the second block
    rng = np.random.default_rng(23)
    model = GmmModel(weights=np.array([0.2, 0.5, 0.3]),
                     means=np.array([[1.0, 1.5], [1.5, 1.0], [2.0, 2.0]]),
                     variances=np.array([[1.0, 1.2], [0.8, 1.0], [1.1, 0.9]]))
    rows = rng.normal(1.5, 0.7, size=(_BLOCK_ROWS + 300, 2))
    rows[_BLOCK_ROWS + 100] = [5.0, 5.0]
    assert _check_estep(rows, model) == _BLOCK_ROWS + 100


def test_negligible_densities_are_exact_zeros_and_no_density_is_subnormal():
    # relative to the near component at 0, the middle one's log density is
    # about -704 + 37.5 x0, which crosses the band where exp gives a
    # subnormal, and the far one, 1e3 standard deviations away, sits near -1e6
    tiny = np.finfo(np.float64).tiny
    assert np.exp(_NEGLIGIBLE) >= tiny
    assert np.exp(_NEGLIGIBLE) / 512 >= tiny  # so are responsibilities at the paper's K
    rng = np.random.default_rng(24)
    model = GmmModel(weights=np.array([0.5, 0.25, 0.25]),
                     means=np.array([[0.0, 0.0], [37.5, 0.0], [1e3, 1e3]]),
                     variances=np.ones((3, 2)))
    rows = rng.normal(size=(200, 2))
    shifted = -0.5 * (37.5**2 - 75.0 * rows[:, 0]) + np.log(0.5)
    assert np.any((shifted < -708.4) & (shifted > -745.0))  # exp of these is subnormal

    want = gmm_loglik_oracle(
        rows.tolist(), model.weights.tolist(), model.means.tolist(), model.variances.tolist()
    )
    assert gmm_loglik(model, FeatureMatrix(frames=rows)) == pytest.approx(want, abs=1e-9)
    _check_estep(rows, model)
    assert _accumulate(rows, model.weights, model.means, model.variances)[0][2] == 0.0
    for _, _, dens, _, _ in _block_logliks(rows, *model.kernel):
        assert np.all((dens == 0.0) | (dens >= tiny))
        assert np.any((dens > 0.0) & (dens < 1e-290))  # the band near the cut is kept


def _exact_kmeans_pp(rows, k, rng):
    """k-means++ seeding with exact squared distances, the same rng calls."""
    pool = rows[rng.choice(rows.shape[0], size=_INIT_SUBSAMPLE, replace=False)] \
        if rows.shape[0] > _INIT_SUBSAMPLE else rows
    centers = [pool[rng.integers(0, pool.shape[0])]]
    dist2 = ((pool - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = dist2.sum()
        if total > 0.0:
            chosen = rng.choice(pool.shape[0], p=dist2 / total)
        else:
            chosen = rng.integers(0, pool.shape[0])
        centers.append(pool[chosen])
        dist2 = np.minimum(dist2, ((pool - centers[-1]) ** 2).sum(axis=1))
    return np.array(centers)


def test_seeding_picks_the_centers_of_exact_distances():
    rng = np.random.default_rng(24)
    distinct = rng.normal(0.3, 1.7, size=(40, 5))
    # at k=45 every distinct row is a center before the end: the remaining
    # centers come from the zero-total branch
    for n, k in ((300, 12), (300, 45), (_INIT_SUBSAMPLE + 500, 20)):
        rows = distinct[rng.integers(0, distinct.shape[0], size=n)]  # duplicated rows
        for seed in range(3):
            got = _kmeans_pp_init(rows, k, np.random.default_rng(seed))
            want = _exact_kmeans_pp(rows, k, np.random.default_rng(seed))
            assert np.array_equal(got, want), (n, seed)


def test_loglik_width_mismatch():
    model = _random_model(np.random.default_rng(0), 2, 3)
    with pytest.raises(InputError):
        gmm_loglik(model, FeatureMatrix(frames=np.ones((5, 4))))


def test_loglik_checks_the_recorded_fingerprint():
    rng = np.random.default_rng(21)
    base = _random_model(rng, 2, 3)
    model = GmmModel(weights=base.weights, means=base.means, variances=base.variances,
                     feature_fingerprint="lfcc-aaa")
    rows = rng.normal(size=(5, 3))
    value = gmm_loglik(base, FeatureMatrix(frames=rows))
    assert gmm_loglik(model, FeatureMatrix(frames=rows, meta="lfcc-aaa")) == value
    for meta in ("lfcc-bbb", ""):
        with pytest.raises(ConfigError):
            gmm_loglik(model, FeatureMatrix(frames=rows, meta=meta))
        with pytest.raises(ConfigError):
            score_trial(model, base, FeatureMatrix(frames=rows, meta=meta))
    # a model that records no fingerprint scores any matrix
    assert gmm_loglik(base, FeatureMatrix(frames=rows, meta="lfcc-bbb")) == value


def test_train_single_component_closed_form():
    rng = np.random.default_rng(4)
    rows = rng.normal(3.0, 1.5, size=(400, 2))
    model = train_gmm(FeatureMatrix(frames=rows), k=1, iters=3, seed=0)
    assert model.weights.tolist() == [1.0]
    assert model.means[0] == pytest.approx(rows.mean(axis=0), abs=1e-9)
    assert model.variances[0] == pytest.approx(rows.var(axis=0), rel=1e-9)


def test_train_recovers_two_separated_gaussians():
    rng = np.random.default_rng(11)
    a = rng.normal(-4.0, 0.5, size=(500, 2))
    b = rng.normal(4.0, 0.5, size=(500, 2))
    model = train_gmm(FeatureMatrix(frames=np.vstack([a, b])), k=2, iters=20, seed=1)
    got = sorted(model.means[:, 0].tolist())
    assert got[0] == pytest.approx(-4.0, abs=0.1)
    assert got[1] == pytest.approx(4.0, abs=0.1)
    assert model.weights == pytest.approx([0.5, 0.5], abs=0.05)


def test_training_trace_is_monotone():
    rng = np.random.default_rng(30)
    for trial in range(5):
        rows = rng.normal(size=(200, 3)) * rng.random(3)
        model = train_gmm(FeatureMatrix(frames=rows), k=4, iters=8, seed=trial)
        trace = model.loglik_trace
        assert trace.size >= 2
        slack = 1e-6 * np.abs(trace[:-1])
        assert np.all(np.diff(trace) >= -slack), f"trial {trial}: {trace}"


def test_training_on_degenerate_data_stays_valid():
    rows = FeatureMatrix(frames=np.full((60, 2), 1.25))
    model = train_gmm(rows, k=2, iters=4, seed=0)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert model.variances.min() > 0.0


def test_train_validation():
    rows = FeatureMatrix(frames=np.ones((5, 2)))
    with pytest.raises(InputError):
        train_gmm(rows, k=0)
    with pytest.raises(InputError):
        train_gmm(rows, k=2, iters=0)
    with pytest.raises(InputError):
        train_gmm(rows, k=6)


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(9)
    rows = FeatureMatrix(frames=rng.normal(size=(300, 4)))
    a = train_gmm(rows, k=3, iters=5, seed=42)
    b = train_gmm(rows, k=3, iters=5, seed=42)
    c = train_gmm(rows, k=3, iters=5, seed=43)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.means, c.means)


def test_score_trial_sign():
    rng = np.random.default_rng(2)
    genuine = train_gmm(FeatureMatrix(frames=rng.normal(-3.0, 1.0, size=(300, 2))), k=2, iters=5,
                        seed=0)
    spoof = train_gmm(FeatureMatrix(frames=rng.normal(3.0, 1.0, size=(300, 2))), k=2, iters=5,
                      seed=0)
    near_genuine = FeatureMatrix(frames=rng.normal(-3.0, 1.0, size=(40, 2)))
    near_spoof = FeatureMatrix(frames=rng.normal(3.0, 1.0, size=(40, 2)))
    assert score_trial(genuine, spoof, near_genuine) > 0.0
    assert score_trial(genuine, spoof, near_spoof) < 0.0


def test_eer_frozen_examples():
    assert eer_from_scores([2.0, 3.0], [0.0, 1.0]) == 0.0
    assert eer_from_scores([1.0], [1.0]) == 50.0
    assert eer_from_scores([0.0, 2.0], [1.0, 3.0]) == 50.0
    assert eer_from_scores([1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 1.5, 2.5]) == 25.0
    # worse than chance: every genuine under every spoof
    assert eer_from_scores([0.0, 1.0], [2.0, 3.0]) == 100.0


def test_eer_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(50)
    for trial in range(200):
        ng = int(rng.integers(1, 60))
        ns = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            genuine = rng.normal(0.6, 1.0, size=ng)
            spoof = rng.normal(-0.6, 1.0, size=ns)
        else:
            # integer grids force ties and exact crossings
            genuine = rng.integers(0, 6, size=ng).astype(float)
            spoof = rng.integers(-2, 4, size=ns).astype(float)
        got = eer_from_scores(genuine, spoof)
        want = eer_oracle(genuine.tolist(), spoof.tolist())
        assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"


def test_eer_invariances():
    rng = np.random.default_rng(51)
    genuine = rng.normal(0.5, 1.0, size=37)
    spoof = rng.normal(-0.5, 1.0, size=41)
    base = eer_from_scores(genuine, spoof)
    # strictly increasing transforms preserve the ROC
    assert eer_from_scores(3.0 * genuine + 2.0, 3.0 * spoof + 2.0) == pytest.approx(base, abs=1e-9)
    assert eer_from_scores(np.tanh(genuine), np.tanh(spoof)) == pytest.approx(base, abs=1e-9)
    # negate scores and swap the populations: same error geometry
    assert eer_from_scores(-spoof, -genuine) == pytest.approx(base, abs=1e-9)


def test_eer_validation():
    with pytest.raises(InputError):
        eer_from_scores([], [1.0])
    with pytest.raises(InputError):
        eer_from_scores([1.0], [np.nan])


def test_score_set_and_csv_round_trip(tmp_path):
    trials = (
        Trial(file_id="a.wav", label="genuine", score=1.25),
        Trial(file_id="b.wav", label="spoof", score=-0.75),
        Trial(file_id="dir/c,v1.wav", label="spoof", score=0.5),
    )
    assert compute_eer(trials) == 0.0
    path = tmp_path / "s.csv"
    save_scores(path, trials)
    back = load_scores(path)
    assert back == trials  # commas in file ids survive the round trip

    with pytest.raises(InputError):
        Trial(file_id="x", label="bonafide", score=0.0)
    with pytest.raises(InputError):
        Trial(file_id="x", label="spoof", score=float("inf"))


def test_scores_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what\n")
    with pytest.raises(FormatError):
        load_scores(bad)
    bad.write_text("file_id,label,score\na,genuine,notanumber\n")
    with pytest.raises(FormatError):
        load_scores(bad)


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    model = GmmModel(
        weights=np.array([0.25, 0.75]),
        means=rng.normal(size=(2, 3)),
        variances=rng.random((2, 3)) + 0.5,
        provenance="G",
        feature_fingerprint="lfcc-deadbeef",
    )
    path = tmp_path / "m.gmm"
    save_gmm(path, model)
    back = load_gmm(path)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(back.variances, model.variances)
    assert back.provenance == "G"
    assert back.feature_fingerprint == "lfcc-deadbeef"


def test_model_file_errors(tmp_path):
    bad = tmp_path / "bad.gmm"
    bad.write_bytes(b"NOPE 1 1 O -\n")
    with pytest.raises(FormatError):
        load_gmm(bad)
    model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
    good = tmp_path / "good.gmm"
    save_gmm(good, model)
    blob = good.read_bytes()
    (tmp_path / "trunc.gmm").write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_gmm(tmp_path / "trunc.gmm")
    # NaN compares false, so it would pass the weight and variance checks
    start = blob.index(b"\n") + 1
    nan = np.array([np.nan], dtype="<f8").tobytes()
    for field, offset in (("weights", 0), ("means", 8), ("variances", 24)):
        at = start + offset
        (tmp_path / "nan.gmm").write_bytes(blob[:at] + nan + blob[at + 8 :])
        with pytest.raises(InputError, match=f"GmmModel.{field}"):
            load_gmm(tmp_path / "nan.gmm")
