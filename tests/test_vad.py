import numpy as np
import pytest

from wavespoof import (
    InputError,
    VadConfig,
    VadMask,
    Waveform,
    amp_to_index,
    energy_vad,
    format_runs,
    index_to_amp,
    mask_to_runs,
)
from wavespoof.waveform import framed
from oracles import vad_oracle


def _wave_from_amps(amps, rate=8000):
    return Waveform(samples=amp_to_index(np.asarray(amps)), sample_rate=rate)


def test_config_validation():
    with pytest.raises(InputError):
        VadConfig(alpha=0.0)
    with pytest.raises(InputError):
        VadConfig(alpha=1.0)
    with pytest.raises(InputError):
        VadConfig(frame_ms=10.0, hop_ms=20.0)
    for bad in (float("nan"), float("inf"), 0.0, -5.0):
        for kwargs in ({"frame_ms": bad}, {"hop_ms": bad}, {"frame_ms": bad, "hop_ms": bad}):
            with pytest.raises(InputError, match="hop_ms <= frame_ms"):
                VadConfig(**kwargs)
    # each field takes its annotated type, never a bool
    for kwargs, field in (
        ({"frame_ms": "20"}, "frame_ms"),
        ({"hop_ms": None}, "hop_ms"),
        ({"frame_ms": True, "hop_ms": True}, "frame_ms"),
        ({"alpha": True}, "alpha"),
        ({"alpha": "0.03"}, "alpha"),
    ):
        with pytest.raises(InputError, match=f"^{field} must be"):
            VadConfig(**kwargs)
    cfg = VadConfig(frame_ms=np.int64(20), hop_ms=np.float32(10))
    assert (cfg.frame_ms, cfg.hop_ms) == (20.0, 10.0)
    assert (type(cfg.frame_ms), type(cfg.hop_ms)) == (float, float)


def test_frame_sizes_too_large_for_the_rate_are_input_errors():
    # 1e306 ms at 8 kHz overflows to infinity, which no integer holds; it
    # used to end in an OverflowError
    w = _wave_from_amps(np.full(100, 0.1))
    for cfg in (VadConfig(frame_ms=1e306), VadConfig(frame_ms=1e306, hop_ms=1e306)):
        with pytest.raises(InputError, match="overflow"):
            energy_vad(w, cfg)


def test_frames_of_one_sample_are_rejected():
    # 0.125 ms is one sample at 8 kHz, two at 16 kHz
    cfg = VadConfig(frame_ms=0.125, hop_ms=0.125)
    with pytest.raises(InputError, match="fewer than 2 samples"):
        energy_vad(_wave_from_amps(np.full(100, 0.1)), cfg)
    assert len(energy_vad(_wave_from_amps(np.full(100, 0.1), rate=16000), cfg)) == 100


def test_mask_rejects_a_conversion_that_changes_a_value():
    # a cast to bool would make 0.3 and NaN speech
    for speech in (np.array([0.3, np.nan, 0.0]), np.array([2, 0]), np.array([1.0, np.nan])):
        with pytest.raises(InputError, match="VadMask.speech"):
            VadMask(speech=speech)
    for speech in (np.array([1.0, 0.0]), np.array([1, 0], dtype=np.uint8), [True, False]):
        assert VadMask(speech=speech).speech.tolist() == [True, False]


def test_default_config_frames_20_ms_every_10_ms():
    # 160/80 samples at 8 kHz and 320/160 at 16 kHz
    assert VadConfig() == VadConfig(alpha=0.03, frame_ms=20.0, hop_ms=10.0)
    rng = np.random.default_rng(5)
    for rate, frame_len, hop in ((8000, 160, 80), (16000, 320, 160)):
        amps = np.clip(rng.normal(0.0, 0.05, size=4000), -0.99, 0.99)
        amps[1000:2500] *= 0.01
        w = _wave_from_amps(amps, rate)
        quantized = (w.samples * 2.0 ** -15) - 1.0
        want = vad_oracle(quantized.tolist(), frame_len, hop, 0.03)
        assert energy_vad(w).speech.tolist() == want
        assert energy_vad(w, VadConfig()).speech.tolist() == want


def test_hand_computed_example():
    # frames of 4 with hop 2 over 8 samples: energies 0, .125, .25;
    # only the first frame falls below 3% of the max
    amps = [0.0, 0.0, 0.0, 0.0, 0.5, -0.5, 0.5, -0.5]
    w = _wave_from_amps(amps)
    cfg = VadConfig(alpha=0.03, frame_ms=0.5, hop_ms=0.25)
    amp = index_to_amp(w.samples)
    frames, hop = framed(amp * amp, w.sample_rate, cfg.frame_ms, cfg.hop_ms)
    assert frames.shape == (3, 4) and hop == 2
    assert frames.mean(axis=1).tolist() == pytest.approx([0.0, 0.125, 0.25], abs=1e-12)
    mask = energy_vad(w, cfg)
    assert mask.speech.tolist() == [False, False, True, True, True, True, True, True]
    assert mask_to_runs(mask) == [(0, 2, "nonspeech"), (2, 8, "speech")]


def test_matches_loop_oracle_on_random_signals():
    rng = np.random.default_rng(14)
    for trial in range(10):
        n = int(rng.integers(300, 1200))
        amps = rng.normal(0.0, 0.05, size=n)
        # carve out loud and near-silent stretches
        amps[: n // 4] *= 0.01
        amps[n // 2 : n // 2 + n // 5] *= 8.0
        amps = np.clip(amps, -0.99, 0.99)
        w = _wave_from_amps(amps)
        cfg = VadConfig(alpha=0.03, frame_ms=8.0, hop_ms=4.0)
        got = energy_vad(w, cfg).speech.tolist()
        quantized = (w.samples * 2.0 ** -15) - 1.0
        want = vad_oracle(quantized.tolist(), 64, 32, 0.03)
        assert got == want, f"trial {trial}"


def test_scale_invariance():
    rng = np.random.default_rng(3)
    loud = np.where(rng.random(200) < 0.5, 0.5, -0.5)
    amps = np.concatenate([np.zeros(200), loud, np.zeros(100)])
    w1 = _wave_from_amps(amps)
    w2 = _wave_from_amps(amps * 0.25)  # exactly representable on the grid
    cfg = VadConfig(alpha=0.03, frame_ms=6.25, hop_ms=3.125)
    assert np.array_equal(energy_vad(w1, cfg).speech, energy_vad(w2, cfg).speech)


def test_constant_energy_is_all_speech():
    amps = np.tile([0.3, -0.3], 100)
    mask = energy_vad(_wave_from_amps(amps), VadConfig(alpha=0.03, frame_ms=2.5, hop_ms=1.25))
    assert mask.speech.all()


def test_tail_inherits_last_frame_label():
    # 9 trailing samples form no full frame; the last full frame is loud
    amps = np.concatenate([np.zeros(64), np.tile([0.5, -0.5], 32), np.full(9, 0.001)])
    cfg = VadConfig(alpha=0.03, frame_ms=4.0, hop_ms=2.0)
    mask = energy_vad(_wave_from_amps(amps), cfg)
    assert mask.speech[-9:].all()

    # and a quiet last frame leaves a quiet tail
    amps2 = np.concatenate([np.tile([0.5, -0.5], 32), np.zeros(64), np.full(9, 0.0)])
    mask2 = energy_vad(_wave_from_amps(amps2), cfg)
    assert not mask2.speech[-9:].any()


def test_short_waveform_rejected():
    w = _wave_from_amps(np.zeros(10) + 0.1)
    with pytest.raises(InputError):
        energy_vad(w, VadConfig(frame_ms=4.0, hop_ms=2.0))


def test_runs_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(20):
        flags = rng.random(int(rng.integers(1, 400))) < 0.4
        mask = VadMask(speech=flags)
        runs = mask_to_runs(mask)
        assert runs[0][0] == 0 and runs[-1][1] == len(flags)
        for (a, b, label), (c, _, next_label) in zip(runs, runs[1:]):
            assert b == c and label != next_label
        assert format_runs(mask).splitlines() == [f"{a},{b},{label}" for a, b, label in runs]
        spans = [np.full(b - a, label == "speech") for a, b, label in runs]
        assert np.array_equal(np.concatenate(spans), mask.speech)
