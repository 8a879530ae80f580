"""Frame-energy voice activity detection with a per-file relative threshold."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, frozen_array, typed_fields
from .waveform import Waveform, index_to_amp

DEFAULT_ALPHA = 0.03
DEFAULT_FRAME_MS = 20.0
DEFAULT_HOP_MS = 10.0


@dataclass(frozen=True)
class VadConfig:
    """Energy VAD parameters; frame sizes are in samples."""

    alpha: float = DEFAULT_ALPHA
    frame_len: int = 320
    frame_hop: int = 160

    def __post_init__(self):
        typed_fields(self, InputError)
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie in (0, 1)")
        if self.frame_hop < 1 or self.frame_len < self.frame_hop:
            raise InputError("need frame_len >= frame_hop >= 1")

    @classmethod
    def for_rate(cls, sample_rate, frame_ms=DEFAULT_FRAME_MS, hop_ms=DEFAULT_HOP_MS, alpha=DEFAULT_ALPHA):
        """Build a config from millisecond frame sizes at a given rate."""
        return cls(
            alpha=alpha,
            frame_len=int(round(sample_rate * frame_ms / 1000.0)),
            frame_hop=int(round(sample_rate * hop_ms / 1000.0)),
        )


@dataclass(frozen=True)
class VadMask:
    """Per-sample speech/non-speech decisions for one waveform."""

    speech: np.ndarray

    def __post_init__(self):
        frozen_array(self, "speech", bool, 1)

    def __len__(self) -> int:
        return int(self.speech.size)


def frame_energies(w: Waveform, cfg: VadConfig) -> np.ndarray:
    """Mean squared zero-centred amplitude per full frame."""
    if len(w) < cfg.frame_len:
        raise InputError(
            f"waveform of {len(w)} samples is shorter than one {cfg.frame_len}-sample frame"
        )
    amp = index_to_amp(w.samples)
    amp = amp - amp.mean()  # a DC offset would swamp the energies
    squares = amp * amp
    return sliding_window_view(squares, cfg.frame_len)[:: cfg.frame_hop].mean(axis=1)


def energy_vad(w: Waveform, cfg: VadConfig | None = None) -> VadMask:
    """Label each sample speech/non-speech.

    A frame is speech when its energy is at least alpha times the loudest
    frame's energy. A sample is speech when any frame covering it is speech;
    trailing samples not covered by a full frame inherit the last frame's
    label. The relative threshold makes the mask invariant to scaling all
    amplitudes by a positive constant.
    """
    if cfg is None:
        cfg = VadConfig.for_rate(w.sample_rate)
    energies = frame_energies(w, cfg)
    speech_frames = energies >= cfg.alpha * energies.max()
    n = len(w)
    starts = np.arange(energies.size) * cfg.frame_hop
    delta = np.zeros(n + 1, dtype=np.int64)
    on = starts[speech_frames]
    np.add.at(delta, on, 1)
    np.add.at(delta, on + cfg.frame_len, -1)
    mask = np.cumsum(delta[:-1]) > 0
    tail_start = int(starts[-1]) + cfg.frame_len
    if tail_start < n:
        mask[tail_start:] = bool(speech_frames[-1])
    return VadMask(speech=mask)


def mask_to_runs(mask: VadMask):
    """Run-length encode a mask as (start, end, label) with half-open spans."""
    speech = mask.speech
    edges = np.flatnonzero(np.diff(speech)) + 1
    bounds = np.concatenate(([0], edges, [speech.size]))
    return [
        (int(bounds[i]), int(bounds[i + 1]), "speech" if speech[bounds[i]] else "nonspeech")
        for i in range(bounds.size - 1)
    ]


def format_runs(mask: VadMask) -> str:
    """Text form of mask_to_runs: one `start_sample,end_sample,label` per line."""
    return "".join(f"{start},{end},{label}\n" for start, end, label in mask_to_runs(mask))

