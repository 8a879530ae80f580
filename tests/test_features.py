import math

import numpy as np
import pytest
import scipy.fft

from wavespoof import (
    ConfigError,
    FeatureMatrix,
    FormatError,
    InputError,
    LfccConfig,
    Waveform,
    amp_to_index,
    append_deltas,
    get_extractor,
    lfcc,
    load_features,
    register_extractor,
    save_features,
    train_gmm,
)
from wavespoof.features import (
    _EXTRACTORS, _dct_basis, _framed_log_energies, _linear_filterbank, stack_features,
)
from oracles import dct2_ortho, delta_oracle, dft_power


def _wave_from_amps(amps, rate=1000):
    return Waveform(samples=amp_to_index(np.asarray(amps)), sample_rate=rate)


def _triangle_weight(freq, left, mid, right):
    return max(0.0, min((freq - left) / (mid - left), (right - freq) / (right - mid)))


def test_static_lfcc_matches_naive_pipeline():
    """Windowed frame -> naive DFT power -> triangles -> log -> naive DCT,
    each frame zero-padded to the smallest power of two not below it."""
    rng = np.random.default_rng(42)
    amps = np.clip(rng.normal(0.0, 0.3, size=45), -0.9, 0.9)
    rate = 1000
    w = _wave_from_amps(amps, rate)
    quantized = (-1.0 + w.samples * 2.0**-15).tolist()
    hop, nfil = 10, 5
    edges = [j * (rate / 2.0) / (nfil + 1) for j in range(nfil + 2)]
    for frame_len, nfft in ((20, 32), (16, 16), (17, 32)):
        cfg = LfccConfig(frame_len_ms=float(frame_len), frame_hop_ms=10.0,
                         num_filters=nfil, num_ceps=3, include_energy=True, delta_window=2)
        got = lfcc(w, cfg)
        hamming = [0.54 - 0.46 * math.cos(2.0 * math.pi * m / (frame_len - 1))
                   for m in range(frame_len)]
        bin_freqs = [j * rate / nfft for j in range(nfft // 2 + 1)]

        num_frames = (len(quantized) - frame_len) // hop + 1
        assert got.frames.shape[0] == num_frames
        assert got.num_coeffs == (3 + 1) * 3

        for t in range(num_frames):
            frame = quantized[t * hop : t * hop + frame_len]
            windowed = [x * h for x, h in zip(frame, hamming)]
            power = dft_power(windowed, nfft)
            fbank = []
            for j in range(nfil):
                acc = 0.0
                for freq, p in zip(bin_freqs, power):
                    acc += p * _triangle_weight(freq, edges[j], edges[j + 1], edges[j + 2])
                fbank.append(math.log(max(acc, 1e-12)))
            ceps = dct2_ortho(fbank)[:3]
            energy = math.log(max(sum(x * x for x in frame), 1e-12))
            want = ceps + [energy]
            assert got.frames[t, :4] == pytest.approx(want, abs=1e-9), (frame_len, t)


def test_linear_filterbank_matches_the_triangle_loop():
    # same elementwise arithmetic as the per-filter loop, so exactly equal
    for filters, fft_size, rate in ((1, 64, 8000), (20, 512, 16000), (40, 1024, 44100),
                                    (128, 256, 8000)):
        edges = np.linspace(0.0, rate / 2.0, filters + 2).tolist()
        freqs = (np.arange(fft_size // 2 + 1) * (rate / fft_size)).tolist()
        want = [[_triangle_weight(f, *edges[j : j + 3]) for f in freqs] for j in range(filters)]
        assert np.array_equal(_linear_filterbank(filters, fft_size, rate), want)


def test_dct_is_orthonormal_on_log_energies():
    rng = np.random.default_rng(7)
    amps = np.clip(rng.normal(0.0, 0.2, size=400), -0.9, 0.9)
    cfg = LfccConfig(num_filters=8, num_ceps=8, include_energy=False)
    w = _wave_from_amps(amps, rate=2000)
    logs = _framed_log_energies(w, cfg)[1]
    ceps = lfcc(w, cfg).frames[:, :8]
    # num_ceps == num_filters keeps the full orthonormal transform
    assert np.linalg.norm(ceps, axis=1) == pytest.approx(
        np.linalg.norm(logs, axis=1), abs=1e-9
    )


@pytest.mark.parametrize("num_filters, num_ceps", [(20, 19), (20, 20), (8, 3), (1, 1)])
def test_dct_basis_matches_scipy_dct(num_filters, num_ceps):
    logs = np.log(np.random.default_rng(num_filters).uniform(1e-12, 1e3, size=(50, num_filters)))
    want = scipy.fft.dct(logs, type=2, norm="ortho", axis=1)[:, :num_ceps]
    basis = _dct_basis(num_filters, num_ceps)
    assert np.abs(logs @ basis - want).max() <= 1e-12
    # one matrix per shape, read-only, so threads share it
    assert _dct_basis(num_filters, num_ceps) is basis and not basis.flags.writeable


def test_append_deltas_matches_loop_oracle():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(9, 4))
    out = append_deltas(m, window=2)
    assert out.shape == (9, 12)
    d1_want = np.asarray(delta_oracle(m.tolist(), 2))
    assert out[:, 4:8] == pytest.approx(d1_want, abs=1e-12)
    d2_want = np.asarray(delta_oracle(d1_want.tolist(), 2))
    assert out[:, 8:12] == pytest.approx(d2_want, abs=1e-12)


def test_deltas_on_constant_and_ramp():
    const = np.full((6, 2), 3.5)
    out = append_deltas(const, window=2)
    assert np.all(out[:, 2:] == 0.0)
    ramp = np.arange(10.0)[:, None]
    d1 = append_deltas(ramp, window=2)[:, 1]
    # interior frames of a unit ramp report slope 1
    assert d1[2:-2] == pytest.approx(np.ones(6), abs=1e-12)


def test_energy_column_toggle():
    rng = np.random.default_rng(3)
    amps = np.clip(rng.normal(0.0, 0.2, size=300), -0.9, 0.9)
    w = _wave_from_amps(amps, rate=2000)
    with_e = lfcc(w, LfccConfig(num_filters=6, num_ceps=4))
    without_e = lfcc(w, LfccConfig(num_filters=6, num_ceps=4, include_energy=False))
    assert with_e.num_coeffs == 15 and without_e.num_coeffs == 12


def test_default_config_width_is_60():
    rng = np.random.default_rng(5)
    amps = np.clip(rng.normal(0.0, 0.2, size=4000), -0.9, 0.9)
    out = lfcc(_wave_from_amps(amps, rate=16000))
    assert out.num_coeffs == 60  # (19 ceps + energy) * 3
    assert out.meta == LfccConfig().fingerprint()


def test_lfcc_validation():
    w = _wave_from_amps(np.full(100, 0.1), rate=8000)
    with pytest.raises(InputError):
        lfcc(w, LfccConfig())  # 100 samples, shorter than one 160-sample frame
    with pytest.raises(InputError):
        LfccConfig(num_ceps=0)
    with pytest.raises(InputError):
        LfccConfig(num_ceps=21, num_filters=20)
    with pytest.raises(InputError):
        LfccConfig(delta_window=0)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(InputError):
            LfccConfig(frame_len_ms=bad)
        with pytest.raises(InputError):
            LfccConfig(frame_hop_ms=bad)


def test_frame_sizes_too_large_for_the_rate_are_input_errors():
    # a size is checked in samples while it is a float: 1e306 ms at 8 kHz
    # overflows to infinity, which no integer holds
    w = _wave_from_amps(np.full(100, 0.1), rate=8000)
    for cfg in (LfccConfig(frame_len_ms=1e306), LfccConfig(frame_hop_ms=1e306)):
        with pytest.raises(InputError):
            lfcc(w, cfg)


def test_fingerprint_tracks_config():
    a = LfccConfig()
    b = LfccConfig()
    c = LfccConfig(num_ceps=18)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.fingerprint().startswith("lfcc-")


def test_feature_matrix_validation():
    with pytest.raises(InputError):
        FeatureMatrix(frames=np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        FeatureMatrix(frames=np.array([[np.nan, 1.0]]))
    fm = FeatureMatrix(frames=np.ones((2, 3)))
    with pytest.raises(ValueError):
        fm.frames[0, 0] = 9.0


def test_stack_features_keeps_rows_and_meta_for_training():
    rng = np.random.default_rng(12)
    ms = [FeatureMatrix(frames=rng.normal(size=(n, 3)), meta="lfcc-abc") for n in (4, 7, 5)]
    stacked = stack_features(ms)
    assert np.array_equal(stacked.frames, np.vstack([fm.frames for fm in ms]))
    assert not stacked.frames.flags.writeable
    assert stacked.meta == "lfcc-abc"
    other_meta = FeatureMatrix(frames=np.ones((2, 3)), meta="lfcc-def")
    other_width = FeatureMatrix(frames=np.ones((2, 4)), meta="lfcc-abc")
    for odd in (other_meta, other_width):
        with pytest.raises(ConfigError):
            stack_features([*ms, odd])
    model = train_gmm(stack_features(ms), k=2, iters=2, seed=0)
    assert model.feature_fingerprint == ms[0].meta


def test_extractor_registry():
    assert get_extractor("lfcc") is lfcc
    with pytest.raises(ConfigError) as err:
        get_extractor("cqcc")
    assert "lfcc" in str(err.value)
    register_extractor("stub", lambda w, cfg: FeatureMatrix(frames=np.ones((1, 2))))
    try:
        assert get_extractor("stub") is not None
    finally:
        del _EXTRACTORS["stub"]


def test_cache_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    fm = FeatureMatrix(frames=rng.normal(size=(7, 5)), meta="lfcc-abc123")
    path = tmp_path / "f.bin"
    save_features(path, fm)
    back = load_features(path)
    assert back.meta == "lfcc-abc123"
    # the payload is float64 on disk, so every value round-trips exactly
    assert np.array_equal(back.frames, fm.frames)


def test_cache_empty_meta_uses_dash(tmp_path):
    fm = FeatureMatrix(frames=np.ones((2, 2)))
    path = tmp_path / "f.bin"
    save_features(path, fm)
    assert path.read_bytes().startswith(b"FEAT2 - 2 2\n")
    assert load_features(path).meta == ""


def test_cache_errors(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTFEAT x 1 1\n" + b"\x00" * 4)
    with pytest.raises(FormatError):
        load_features(bad)
    fm = FeatureMatrix(frames=np.ones((3, 4)))
    good = tmp_path / "good.bin"
    save_features(good, fm)
    blob = good.read_bytes()
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        load_features(trunc)
