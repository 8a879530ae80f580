"""The matching rule under test: each source index k maps to the largest
target index whose cumulative probability does not exceed the source
file's cumulative probability at k. Frozen outputs below were computed
with the explicit top-down scan in oracles.py."""

import numpy as np
import pytest

from wavespoof import (
    Cdf,
    ConfigError,
    GenuinizeParams,
    InputError,
    Pmf,
    Waveform,
    cdf_from_pmf,
    estimate_pmf,
    extend_cdf,
    file_streams,
    genuinize,
    load_pmf,
    reference_pool,
    tv_distance,
)
from wavespoof.genuinize import MAX_EXTRA_BITS, MODES
from oracles import basic_genuinize_oracle, extended_value_oracle, match_one, pmf_by_counting


def _wave(samples, rate=8000):
    return Waveform(samples=np.asarray(samples), sample_rate=rate)


def _cdf_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    return Cdf(cum=np.cumsum(counts) / total)


TARGET8 = _cdf_from_counts([4, 0, 1, 0, 2, 0, 0, 1])
BASIC = GenuinizeParams(mode="basic")


def test_basic_frozen_example():
    src = _wave([1, 1, 2, 5, 5, 5, 8, 2])
    out = genuinize(src, BASIC, (TARGET8,))
    assert out.samples.tolist() == [1, 1, 2, 7, 7, 7, 8, 2]
    assert out.sample_rate == src.sample_rate


def test_basic_matches_scan_oracle_on_random_cases():
    rng = np.random.default_rng(17)
    for _ in range(25):
        levels = int(rng.choice([4, 8, 16]))
        src = _wave(rng.integers(1, levels + 1, size=int(rng.integers(3, 60))))
        counts = rng.integers(0, 6, size=levels)
        counts[rng.integers(0, levels)] += 1
        target = _cdf_from_counts(counts)
        out = genuinize(src, BASIC, (target,))
        want = basic_genuinize_oracle(src.samples.tolist(), target.cum.tolist(), levels)
        assert out.samples.tolist() == want


def test_basic_identity_on_full_support():
    # every index of the grid occurs, so the file's own CDF maps it to itself
    rng = np.random.default_rng(23)
    samples = np.concatenate([np.arange(1, 33), rng.integers(1, 33, size=100)])
    rng.shuffle(samples)
    src = _wave(samples)
    own = cdf_from_pmf(estimate_pmf([src], num_levels=32))
    out = genuinize(src, BASIC, (own,))
    assert np.array_equal(out.samples, src.samples)


def test_basic_self_target_with_support_gaps_is_not_identity():
    # support {1, 3} on a 4-level grid: ties in the CDF push each index to
    # the top of its run of equal cumulative values
    src = _wave([1, 3, 1, 3])
    own = cdf_from_pmf(estimate_pmf([src], num_levels=4))
    assert genuinize(src, BASIC, (own,)).samples.tolist() == [2, 4, 2, 4]


def test_basic_constant_file_maps_to_alphabet_top():
    src = _wave([7, 7, 7])
    own = cdf_from_pmf(estimate_pmf([src], num_levels=16))
    assert genuinize(src, BASIC, (own,)).samples.tolist() == [16, 16, 16]


def test_basic_fallback_below_first_target_mass():
    # source level 1 sits below the target's first bin mass; the empty
    # argmax set falls back to the smallest positive-mass target index
    src = _wave([1, 2, 2, 2])
    target = _cdf_from_counts([3, 1])
    assert genuinize(src, BASIC, (target,)).samples.tolist() == [1, 2, 2, 2]


def test_basic_fallback_skips_leading_zero_mass():
    src = _wave([1, 1, 1, 2])
    target = _cdf_from_counts([0, 0, 3, 1])
    out = genuinize(src, BASIC, (target,))
    want = basic_genuinize_oracle(src.samples.tolist(), target.cum.tolist(), 4)
    assert out.samples.tolist() == want
    assert out.samples.min() == 3  # never lands on a zero-mass leading bin


def test_basic_map_is_monotone():
    rng = np.random.default_rng(40)
    src = _wave(rng.integers(1, 65, size=400))
    counts = rng.integers(0, 5, size=64)
    counts[0] += 1
    out = genuinize(src, BASIC, (_cdf_from_counts(counts),))
    order = np.argsort(src.samples, kind="stable")
    assert np.all(np.diff(out.samples[order]) >= 0)


def test_perturbed_d0_equals_basic():
    rng = np.random.default_rng(31)
    src = _wave(rng.integers(1, 9, size=50))
    params = GenuinizeParams(mode="perturbed", extra_bits=0, seed=99)
    out = genuinize(src, params, (TARGET8,), 4)
    assert np.array_equal(out.samples, genuinize(src, BASIC, (TARGET8,)).samples)


def test_perturbed_frozen_example():
    src = _wave([1, 1, 2, 5, 5, 5, 8, 2])
    params = GenuinizeParams(mode="perturbed", extra_bits=2, seed=11)
    out = genuinize(src, params, (TARGET8,), 3)
    assert out.samples.tolist() == [1, 1, 1, 4, 2, 7, 8, 1]


def test_perturbed_matches_per_sample_oracle():
    rng = np.random.default_rng(12)
    src_samples = rng.integers(1, 17, size=120)
    src = _wave(src_samples)
    counts = rng.integers(0, 7, size=16)
    counts[3] += 1
    target = _cdf_from_counts(counts)
    d = 3
    params = GenuinizeParams(mode="perturbed", extra_bits=d, seed=77)
    out = genuinize(src, params, (target,), 9)

    sub = 1 << d
    dither_rng, _ = file_streams(77, 9)
    noise = dither_rng.integers(0, sub, size=src_samples.size)
    _, scounts, stotal = pmf_by_counting([src_samples.tolist()], 16)
    smass = [c / stotal for c in scounts]
    scum = [sum(scounts[: k + 1]) / stotal for k in range(16)]
    want = []
    for s, n in zip(src_samples.tolist(), noise.tolist()):
        m = int(s) * sub - int(n)
        want.append(match_one(target.cum.tolist(), extended_value_oracle(smass, scum, d, m)))
    assert out.samples.tolist() == want


def test_perturbed_deterministic_per_seed_and_ordinal():
    rng = np.random.default_rng(2)
    src = _wave(rng.integers(1, 9, size=4000))
    params = GenuinizeParams(mode="perturbed", extra_bits=5, seed=5)
    a = genuinize(src, params, (TARGET8,), 0)
    b = genuinize(src, params, (TARGET8,), 0)
    c = genuinize(src, params, (TARGET8,), 1)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_perturbed_fills_notch_left_by_basic():
    rng = np.random.default_rng(55)
    counts = np.ones(16, dtype=np.int64)
    counts[5] = 200  # a dominant atom in the source
    src_samples = np.repeat(np.arange(1, 17), counts)
    rng.shuffle(src_samples)
    src = _wave(src_samples)
    target = _cdf_from_counts(rng.integers(1, 5, size=16))
    target_mass = np.diff(np.concatenate(([0.0], target.cum)))

    basic_out = genuinize(src, BASIC, (target,))
    basic_mass, _, _ = pmf_by_counting([basic_out.samples.tolist()], 16)
    unhit = [k for k in range(16) if target_mass[k] > 0 and basic_mass[k] == 0.0]
    assert unhit, "the atom should leave at least one positive-mass bin empty"

    params = GenuinizeParams(mode="perturbed", extra_bits=5, seed=1)
    pert_out = genuinize(src, params, (target,))
    pert_mass, _, _ = pmf_by_counting([pert_out.samples.tolist()], 16)
    target_pmf = Pmf(mass=target_mass)
    assert tv_distance(Pmf(mass=np.asarray(pert_mass)), target_pmf) < tv_distance(
        Pmf(mass=np.asarray(basic_mass)), target_pmf
    )


def test_random_pool_of_one_equals_perturbed():
    rng = np.random.default_rng(8)
    src = _wave(rng.integers(1, 9, size=300))
    reference = _wave(rng.integers(1, 9, size=500))
    ref_cdf = cdf_from_pmf(estimate_pmf([reference], num_levels=8))
    rparams = GenuinizeParams(mode="random", extra_bits=4, seed=13)
    pparams = GenuinizeParams(mode="perturbed", extra_bits=4, seed=13)
    a = genuinize(src, rparams, [ref_cdf], 6)
    b = genuinize(src, pparams, (ref_cdf,), 6)
    assert np.array_equal(a.samples, b.samples)


def test_random_choice_stream_picks_frozen_reference():
    # with seed=11, ordinal=3 the choice stream draws index 2 from a pool of 5
    rng = np.random.default_rng(3)
    src = _wave(rng.integers(1, 9, size=100))
    pool = [_wave(rng.integers(1, 9, size=200)) for _ in range(5)]
    params = GenuinizeParams(mode="random", extra_bits=2, seed=11)
    pool_cdfs = [cdf_from_pmf(estimate_pmf([w], num_levels=8)) for w in pool]
    out = genuinize(src, params, pool_cdfs, 3)
    chosen = cdf_from_pmf(estimate_pmf([pool[2]], num_levels=8))
    pparams = GenuinizeParams(mode="perturbed", extra_bits=2, seed=11)
    assert np.array_equal(
        out.samples, genuinize(src, pparams, (chosen,), 3).samples
    )


def test_random_redraws_reference_per_ordinal():
    rng = np.random.default_rng(9)
    src = _wave(rng.integers(1, 9, size=2000))
    pool = [_wave(rng.integers(1, 9, size=300)) for _ in range(8)]
    params = GenuinizeParams(mode="random", extra_bits=5, seed=21)
    pool_cdfs = [cdf_from_pmf(estimate_pmf([w], num_levels=8)) for w in pool]
    outs = [genuinize(src, params, pool_cdfs, i) for i in range(4)]
    distinct = {tuple(o.samples.tolist()) for o in outs}
    assert len(distinct) > 1


def test_mode_and_pool_validation():
    src = _wave([1, 2, 3])
    rparams = GenuinizeParams(mode="random")
    with pytest.raises(ConfigError):
        genuinize(src, rparams, [])
    with pytest.raises(ConfigError):
        genuinize(src, rparams, ())
    for mode in ("basic", "perturbed"):
        for references in ((), (TARGET8, TARGET8)):
            with pytest.raises(ConfigError):
                genuinize(src, GenuinizeParams(mode=mode), references)
    with pytest.raises(InputError):
        GenuinizeParams(mode="fancy")
    # d's range is GenuinizeParams's in every mode: the kernel, which builds
    # no dense extended CDF, has no cap of its own to reach
    assert MAX_EXTRA_BITS == 10
    for mode in MODES:
        for bits in (-1, MAX_EXTRA_BITS + 1):
            with pytest.raises(InputError, match=rf"^extra_bits must lie in 0\.\.10; got {bits}$"):
                GenuinizeParams(mode=mode, extra_bits=bits)
    full = _wave(np.arange(1, 1 << 16, 7))
    target = cdf_from_pmf(estimate_pmf([full]))
    params = GenuinizeParams(mode="perturbed", extra_bits=MAX_EXTRA_BITS)
    assert genuinize(full, params, (target,)).samples.size == full.samples.size


def test_params_check_their_field_types():
    # an int field takes an integer that is not a bool: 5.0 and 1.5 used to
    # end in a TypeError inside the kernel, and True ran as d=1
    for kwargs, field in (
        ({"extra_bits": 5.0}, "extra_bits"),
        ({"extra_bits": True}, "extra_bits"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
    ):
        with pytest.raises(InputError, match=f"^{field} must be an integer"):
            GenuinizeParams(mode="perturbed", **kwargs)
    params = GenuinizeParams(mode="perturbed", extra_bits=np.int64(3), seed=np.uint32(7))
    assert (type(params.extra_bits), type(params.seed)) == (int, int)


def test_ordinal_is_a_non_negative_integer():
    # -1 used to end in a SeedSequence ValueError, and 1.5 and True ran as 1;
    # basic mode draws nothing, yet takes only the ordinals the others take
    src = _wave([1, 2, 3, 5, 8])
    for params, references in ((GenuinizeParams(mode="basic"), (TARGET8,)),
                               (GenuinizeParams(mode="perturbed"), (TARGET8,)),
                               (GenuinizeParams(mode="random"), (TARGET8, TARGET8))):
        for ordinal in (-1, 1.5, True, "1", None):
            with pytest.raises(InputError, match="file ordinal"):
                genuinize(src, params, references, ordinal)
        same = genuinize(src, params, references, np.int64(1))
        assert np.array_equal(same.samples, genuinize(src, params, references, 1).samples)


def test_source_outside_target_grid_rejected():
    src = _wave([300])
    with pytest.raises(InputError):
        genuinize(src, BASIC, (TARGET8,))


def test_output_distribution_approaches_target():
    # directional check only; the calibrated 0.02 bound lives in the
    # acceptance suite. The attainable TV here is floored by the one-bin
    # shift inherent in the right-aligned argmax, about 1/(sigma*sqrt(2pi))
    # for a Gaussian target of width sigma bins.
    rng = np.random.default_rng(61)
    levels = 64
    centers = np.arange(levels)
    target_mass = np.exp(-0.5 * ((centers - 30.0) / 14.0) ** 2)
    target_mass /= target_mass.sum()
    source_mass = np.exp(-0.5 * ((centers - 44.0) / 7.0) ** 2)
    source_mass /= source_mass.sum()
    samples = rng.choice(centers + 1, size=200_000, p=source_mass)
    src = _wave(samples)
    target = Cdf(cum=np.cumsum(target_mass))
    params = GenuinizeParams(mode="perturbed", extra_bits=5, seed=3)
    out = genuinize(src, params, (target,))
    out_mass = np.bincount(out.samples - 1, minlength=levels) / out.samples.size
    out_pmf, target_pmf = Pmf(mass=out_mass), Pmf(mass=target_mass)
    assert tv_distance(out_pmf, target_pmf) < 0.05
    assert tv_distance(out_pmf, target_pmf) < 0.2 * tv_distance(Pmf(mass=source_mass), target_pmf)


def _grid_source(kind, rng):
    levels = 1 << 16
    if kind == "sparse":  # a few samples scattered over the whole grid
        return rng.integers(1, levels + 1, size=40)
    if kind == "gapped":  # a handful of levels with wide empty runs between
        return rng.choice(rng.integers(1, levels + 1, size=7), size=3000)
    if kind == "tied":  # four levels of equal power-of-two counts
        return rng.permutation(np.repeat(rng.choice(levels, size=4, replace=False) + 1, 1024))
    if kind in ("dense", "coarse"):  # 4 s of 16 kHz speech: ~25k occupied levels
        samples = np.round(rng.laplace(32768.5, 6000.0, size=64000))
    else:  # peaked: a narrow Laplacian around the grid centre, mostly a few atoms
        samples = np.round(rng.laplace(32768.5, 3.0, size=5000))
    return np.clip(samples, 1, levels).astype(np.int64)


def _grid_target_counts(kind, rng):
    if kind == "coarse":  # a few positive-mass levels: brackets span thousands
        counts = np.zeros(1 << 16, dtype=np.int64)
        counts[rng.choice(np.arange(1000, 1 << 16), size=4, replace=False)] = [1, 5, 2, 9]
        return counts
    if kind == "tied":  # cumulative values k/256, which sub-level values hit exactly
        counts = np.zeros(1 << 16, dtype=np.int64)
        counts[255::256] = 1
        return counts
    counts = rng.integers(0, 4, size=1 << 16)
    counts[:1000] = 0  # leading zero mass exercises the fallback
    return counts


def _full_grid_lookup(src, target, d, seed, ordinal):
    # a lookup of the dense target values in the full extended source CDF
    # (target.num_levels x 2**d levels), with the kernel's dither stream
    sub = 1 << d
    table = extend_cdf(estimate_pmf([src], num_levels=target.num_levels), d).cum
    dither_rng, _ = file_streams(seed, ordinal)
    noise = dither_rng.integers(0, sub, size=src.samples.size)
    q = np.searchsorted(target.cum, table[src.samples * sub - noise - 1], side="right")
    q[q == 0] = np.searchsorted(target.cum, 0.0, side="right") + 1
    return q


@pytest.mark.parametrize("d", [0, 1, 3, 5])
@pytest.mark.parametrize("kind", ["sparse", "gapped", "peaked", "dense", "coarse", "tied"])
def test_occupied_level_kernel_matches_full_grid_table(kind, d):
    # the kernel computes one value per sample and searches it inside the
    # bracket of its segment's edges; this pins it to a lookup in the full
    # 2**16 x 2**d extended source CDF
    rng = np.random.default_rng(70 + d)
    src = _wave(_grid_source(kind, rng))
    target = _cdf_from_counts(_grid_target_counts(kind, rng))
    params = GenuinizeParams(mode="perturbed", extra_bits=d, seed=29)
    out = genuinize(src, params, (target,), 5)

    q = _full_grid_lookup(src, target, d, 29, 5)
    assert np.array_equal(out.samples, q)
    if d == 0:
        assert np.array_equal(genuinize(src, BASIC, (target,)).samples, q)


def test_random_kernel_matches_full_grid_table_per_drawn_reference():
    rng = np.random.default_rng(90)
    src = _wave(_grid_source("dense", rng))
    pool = [_cdf_from_counts(_grid_target_counts(kind, rng)) for kind in ("fine", "coarse")]
    pool.append(_cdf_from_counts(estimate_pmf([src]).counts))
    params = GenuinizeParams(mode="random", extra_bits=5, seed=41)
    drawn = set()
    for ordinal in range(4):
        _, choice_rng = file_streams(41, ordinal)
        chosen = int(choice_rng.integers(0, len(pool)))
        drawn.add(chosen)
        out = genuinize(src, params, pool, ordinal)
        assert np.array_equal(out.samples, _full_grid_lookup(src, pool[chosen], 5, 41, ordinal))
    assert len(drawn) > 1


def _float_only_cdf(tmp_path, rows, levels):
    path = tmp_path / "target.csv"
    path.write_text("index,probability\n" + "".join(f"{i},{p!r}\n" for i, p in rows))
    return cdf_from_pmf(load_pmf(path, num_levels=levels))


def test_compact_target_matches_dense_search_on_its_traps(tmp_path):
    # the kernel searches the runs of equal value a Cdf stores; these targets
    # put a run where the dense search could differ from the compact one
    traps = {
        "leading zero mass": _cdf_from_counts([0, 0, 0, 3, 1, 0, 2, 1]),
        "level 1 occupied": _cdf_from_counts([5, 1, 0, 1, 0, 0, 1, 1]),
        "flat runs": _cdf_from_counts([1, 0, 0, 0, 2, 0, 0, 1]),
        "trailing zero mass": _cdf_from_counts([1, 2, 1, 3, 0, 0, 0, 0]),
        "one level": _cdf_from_counts([0, 0, 0, 0, 0, 1, 0, 0]),
        # a float-only PMF whose tiny mass does not raise the Kahan sum
        "unraised mass": _float_only_cdf(tmp_path, [(2, 0.5), (3, 1e-17), (6, 0.5)], 8),
    }
    unraised = traps["unraised mass"]
    assert unraised.cum[2] == unraised.cum[1] and unraised.values.tolist() == [0.0, 0.5, 1.0]
    assert traps["level 1 occupied"].values[0] > 0.0
    rng = np.random.default_rng(44)
    for name, target in traps.items():
        for trial in range(3):
            src = _wave(rng.integers(1, 9, size=int(rng.integers(1, 200))))
            for d in (0, 2, 5, MAX_EXTRA_BITS):
                params = GenuinizeParams(mode="perturbed", extra_bits=d, seed=trial)
                out = genuinize(src, params, (target,), trial)
                assert np.array_equal(out.samples, _full_grid_lookup(src, target, d, trial, trial)), (
                    name, trial, d,
                )


def test_reference_stores_its_rises_only():
    rng = np.random.default_rng(46)
    sources = {
        "toy": np.clip(np.round(rng.laplace(32768.5, 300.0, size=4000)), 1, 1 << 16),
        "speech": np.clip(np.round(rng.laplace(32768.5, 6000.0, size=48000)), 1, 1 << 16),
        "level 1 and top": np.array([1, 1, 1 << 16, 40000]),
        "one level": np.full(10, 123),
    }
    for name, samples in sources.items():
        w = _wave(samples.astype(np.int64))
        (reference,) = reference_pool([w])
        distinct = np.unique(w.samples).size
        assert reference.num_levels == 1 << 16
        assert reference.starts.nbytes + reference.values.nbytes <= 12 * distinct + 64, name
        dense = cdf_from_pmf(estimate_pmf([w])).cum
        assert np.array_equal(reference.cum, dense), name
