import re

import numpy as np
import pytest

from wavespoof import (
    Cdf,
    FormatError,
    InputError,
    Pmf,
    VadMask,
    Waveform,
    cdf_from_pmf,
    estimate_pmf,
    extend_cdf,
    load_pmf,
    save_pmf,
    tv_distance,
)
from oracles import cdf_by_fsum, extended_value_oracle, pmf_by_counting, tv_by_fsum


def _wave(samples, rate=8000):
    return Waveform(samples=np.asarray(samples), sample_rate=rate)


def test_estimate_pmf_matches_counting_oracle():
    rng = np.random.default_rng(5)
    lists = [rng.integers(1, 17, size=n).tolist() for n in (40, 13, 70)]
    mass, counts, total = pmf_by_counting(lists, 16)
    p = estimate_pmf([_wave(s) for s in lists], num_levels=16)
    # both routes divide the same integer counts by the same total
    assert p.mass.tolist() == mass
    assert p.counts.tolist() == counts
    assert int(p.counts.sum()) == total


def test_estimate_pmf_mask_partition():
    samples = np.arange(1, 21)
    flags = np.zeros(20, dtype=bool)
    flags[::3] = True
    w = _wave(samples)
    mask = VadMask(speech=flags)
    speech = estimate_pmf([w], masks=[mask], keep="speech", num_levels=32)
    nonspeech = estimate_pmf([w], masks=[mask], keep="nonspeech", num_levels=32)
    both = estimate_pmf([w], num_levels=32)
    assert np.array_equal(speech.counts + nonspeech.counts, both.counts)


def test_estimate_pmf_errors():
    w = _wave([1, 2, 3])
    with pytest.raises(InputError):
        estimate_pmf([w], keep="speech")
    with pytest.raises(InputError):
        estimate_pmf([w], keep="nope")
    with pytest.raises(InputError):
        estimate_pmf([w], masks=[VadMask(speech=np.array([True]))], keep="speech")
    with pytest.raises(InputError):
        estimate_pmf([w], masks=[VadMask(speech=np.zeros(3, dtype=bool))], keep="speech")
    with pytest.raises(InputError):
        estimate_pmf([_wave([9])], num_levels=8)
    with pytest.raises(InputError):
        estimate_pmf([], num_levels=8)


def test_pmf_validation():
    with pytest.raises(InputError):
        Pmf(mass=np.array([0.5, 0.6]))
    with pytest.raises(InputError):
        Pmf(mass=np.array([-0.1, 1.1]))
    # counts and mass must be one distribution: mass is exactly counts / sum
    for counts in ([3, 1], [1, 1, 0], [-1, -1], [0, 0], [1.5, 1.5]):
        with pytest.raises(InputError):
            Pmf(mass=np.array([0.5, 0.5]), counts=np.array(counts))
    with pytest.raises(InputError):
        Pmf(mass=np.array([1.0, 0.0]), counts=np.array([2, -1]))
    p = Pmf(mass=np.array([0.5, 0.5]), counts=np.array([2, 2]))
    assert cdf_from_pmf(p).cum.tolist() == [0.5, 1.0]
    p = Pmf(mass=np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        p.mass[0] = 0.0
    # NaN compares false, so it would pass the sign and sum checks
    with pytest.raises(InputError, match="Pmf.mass"):
        Pmf(mass=np.array([np.nan, 1.0]))


def test_cdf_from_counts_matches_fsum_oracle():
    rng = np.random.default_rng(9)
    counts = rng.integers(0, 50, size=64)
    counts[0] = 1  # keep total positive
    total = int(counts.sum())
    p = Pmf(mass=counts / total, counts=counts)
    cdf = cdf_from_pmf(p)
    oracle = cdf_by_fsum((counts / total).tolist())
    assert np.allclose(cdf.cum, oracle, rtol=0.0, atol=1e-12)
    assert cdf.cum[-1] == 1.0
    assert np.all(np.diff(cdf.cum) >= 0.0)


def test_cdf_from_float_mass_matches_fsum_oracle():
    rng = np.random.default_rng(10)
    mass = rng.random(300)
    mass /= mass.sum()
    cdf = cdf_from_pmf(Pmf(mass=mass))
    assert np.allclose(cdf.cum, cdf_by_fsum(mass.tolist()), rtol=0.0, atol=1e-12)


def test_cdf_validation():
    with pytest.raises(InputError):
        Cdf(cum=np.array([0.5, 0.4, 1.0]))
    with pytest.raises(InputError):
        Cdf(cum=np.array([0.5, 0.9]))
    # NaN compares false, so it would pass the ordering and end checks
    with pytest.raises(InputError, match="Cdf.cum"):
        Cdf(cum=np.array([0.5, np.nan, 1.0]))


def test_cdf_keeps_its_runs_and_gives_back_its_dense_values():
    cdf = Cdf(cum=np.array([0.0, 0.0, 0.25, 0.25, 0.25, 1.0, 1.0]))
    assert cdf.starts.tolist() == [0, 2, 5, 7] and cdf.starts.dtype == np.int32
    assert cdf.values.tolist() == [0.0, 0.25, 1.0] and cdf.num_levels == 7
    assert not cdf.starts.flags.writeable and not cdf.values.flags.writeable
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 3, size=1 << 16) * (rng.random(1 << 16) < 0.05)
    counts[-1] += 1
    dense_cases = [
        np.cumsum(counts) / counts.sum(),
        # float-only masses take the Kahan path; 1e-17 does not raise its sum
        cdf_from_pmf(Pmf(mass=counts / counts.sum())).cum,
        cdf_from_pmf(Pmf(mass=np.array([0.0, 0.5, 1e-17, 0.0, 0.5, 0.0]))).cum,
        extend_cdf(_random_power_of_two_pmf(rng, 16), 3).cum,
        np.array([1.0]),
    ]
    for dense in dense_cases:
        rebuilt = Cdf(cum=dense).cum
        # bit for bit, not only equal in value
        assert rebuilt.dtype == np.float64
        assert rebuilt.tobytes() == np.ascontiguousarray(dense, dtype=np.float64).tobytes()


def _random_power_of_two_pmf(rng, levels):
    counts = rng.integers(0, 20, size=levels)
    counts[rng.integers(0, levels)] += 1
    return Pmf(mass=counts / counts.sum(), counts=counts)


def test_extend_cdf_boundary_identity_and_interior():
    rng = np.random.default_rng(2)
    p = _random_power_of_two_pmf(rng, 16)
    base = cdf_from_pmf(p)
    for d in (1, 2, 4):
        ext = extend_cdf(p, d)
        sub = 1 << d
        assert ext.cum.size == 16 * sub
        # segment ends agree with the base CDF bit for bit
        assert np.array_equal(ext.cum[sub - 1 :: sub], base.cum)
        assert np.all(np.diff(ext.cum) >= 0.0)
        for m in range(1, 16 * sub + 1):
            want = extended_value_oracle(p.mass.tolist(), base.cum.tolist(), d, m)
            assert ext.cum[m - 1] == pytest.approx(want, abs=1e-12)


def test_extend_cdf_d0_is_verbatim():
    p = _random_power_of_two_pmf(np.random.default_rng(3), 8)
    ext = extend_cdf(p, 0)
    assert np.array_equal(ext.cum, cdf_from_pmf(p).cum)
    assert ext.num_levels == 8


def test_extend_cdf_errors():
    p = _random_power_of_two_pmf(np.random.default_rng(4), 8)
    with pytest.raises(InputError):
        extend_cdf(p, -1)
    # any level count refines; segment ends are the base CDF
    odd = Pmf(mass=np.array([0.5, 0.25, 0.25]))
    assert np.array_equal(extend_cdf(odd, 1).cum[1::2], cdf_from_pmf(odd).cum)
    # 2**16 levels at d=11 exceed the 2**26-level cap before any allocation
    with pytest.raises(InputError, match="cap is 67108864"):
        extend_cdf(_random_power_of_two_pmf(np.random.default_rng(5), 1 << 16), 11)


def test_tv_distance():
    rng = np.random.default_rng(6)
    a = rng.random(40)
    a /= a.sum()
    b = rng.random(40)
    b /= b.sum()
    tv = tv_distance(Pmf(mass=a), Pmf(mass=b))
    assert tv == pytest.approx(tv_by_fsum(a.tolist(), b.tolist()), abs=1e-12)
    assert tv_distance(Pmf(mass=a), Pmf(mass=a)) == 0.0
    with pytest.raises(InputError):
        tv_distance(Pmf(mass=a), Pmf(mass=b[:10] / b[:10].sum()))


def test_pmf_csv_round_trip(tmp_path):
    mass = np.zeros(256)
    mass[[0, 3, 97, 255]] = [0.125, 0.5, 0.25, 0.125]
    p = Pmf(mass=mass)
    path = tmp_path / "p.csv"
    save_pmf(path, p)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,probability"
    assert len(lines) == 5  # header + the four non-zero bins
    back = load_pmf(path, num_levels=256)
    assert np.array_equal(back.mass, p.mass)
    assert back.counts is None


def test_pmf_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(FormatError):
        load_pmf(bad, num_levels=8)
    bad.write_text("index,probability\n1,0.5\nnot-a-row\n")
    with pytest.raises(FormatError):
        load_pmf(bad, num_levels=8)
    bad.write_text("index,probability\n9,1.0\n")
    with pytest.raises(FormatError):
        load_pmf(bad, num_levels=8)
    bad.write_text("index,probability\n3,nan\n4,1.0\n")
    with pytest.raises(InputError):
        load_pmf(bad, num_levels=8)
    bad.write_text("index,probability\n1,0.5\n1,0.5\n2,0.5\n")  # 1.5 of mass
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: line 3: index 1 repeated$"):
        load_pmf(bad, num_levels=8)


def test_pmf_binary_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    p = _random_power_of_two_pmf(rng, 64)
    path = tmp_path / "p.gpmf"
    save_pmf(path, p)
    back = load_pmf(path)
    assert np.array_equal(back.mass, p.mass)


def test_pmf_binary_errors(tmp_path):
    p = _random_power_of_two_pmf(np.random.default_rng(1), 8)
    path = tmp_path / "p.gpmf"
    save_pmf(path, p)
    blob = path.read_bytes()
    (tmp_path / "short.gpmf").write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_pmf(tmp_path / "short.gpmf")
    # the v1 container (magic, version byte, level-bits byte, doubles) is not read
    v1 = tmp_path / "v1.gpmf"
    v1.write_bytes(b"GPMF\x01\x03" + blob[len(b"GPMF2 8\n"):])
    with pytest.raises(FormatError, match=f"^{re.escape(str(v1))}: bad GPMF2 header"):
        load_pmf(v1)
    # any grid round-trips, not only a power-of-two one
    odd = Pmf(mass=np.array([0.5, 0.25, 0.25]))
    save_pmf(tmp_path / "odd.gpmf", odd)
    assert np.array_equal(load_pmf(tmp_path / "odd.gpmf").mass, odd.mass)
    nan = np.array([np.nan], dtype="<f8").tobytes()
    offset = len(b"GPMF2 8\n")
    (tmp_path / "nan.gpmf").write_bytes(blob[:offset] + nan + blob[offset + 8:])
    with pytest.raises(InputError):
        load_pmf(tmp_path / "nan.gpmf")


def test_save_load_dispatch(tmp_path):
    p = _random_power_of_two_pmf(np.random.default_rng(2), 16)
    csv_path = tmp_path / "p.csv"
    bin_path = tmp_path / "p.gpmf"
    save_pmf(csv_path, p)
    save_pmf(bin_path, p)
    assert csv_path.read_text().startswith("index,probability")
    assert bin_path.read_bytes()[:8] == b"GPMF2 16"
    assert np.array_equal(load_pmf(bin_path).mass, p.mass)
    loaded = load_pmf(csv_path, num_levels=16)
    assert np.array_equal(loaded.mass, p.mass)
