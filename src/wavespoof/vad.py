"""Frame-energy voice activity detection with a per-file relative threshold,
over frames sized in milliseconds that waveform.framed cuts at a file's rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, frozen_array, typed_fields
from .waveform import Waveform, framed, index_to_amp

DEFAULT_ALPHA = 0.03


@dataclass(frozen=True)
class VadConfig:
    """Energy VAD parameters; frame sizes are in ms, so one config fits any rate."""

    alpha: float = DEFAULT_ALPHA
    frame_ms: float = 20.0
    hop_ms: float = 10.0

    def __post_init__(self):
        typed_fields(self, InputError)
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie in (0, 1)")
        if not (math.isfinite(self.frame_ms) and 0.0 < self.hop_ms <= self.frame_ms):
            raise InputError("need 0 < hop_ms <= frame_ms, both finite")


@dataclass(frozen=True)
class VadMask:
    """Per-sample speech/non-speech decisions for one waveform."""

    speech: np.ndarray

    def __post_init__(self):
        frozen_array(self, "speech", bool, 1)

    def __len__(self) -> int:
        return int(self.speech.size)


def energy_vad(w: Waveform, cfg: VadConfig = VadConfig()) -> VadMask:
    """Label each sample speech/non-speech.

    A frame is speech when its mean squared zero-centred amplitude is at
    least alpha times the loudest frame's. A sample is speech when any frame
    covering it is speech; trailing samples not covered by a full frame
    inherit the last frame's label. The relative threshold makes the
    mask invariant to scaling all amplitudes by a positive constant.
    """
    amp = index_to_amp(w.samples)
    amp = amp - amp.mean()  # a DC offset would swamp the energies
    frames, hop = framed(amp * amp, w.sample_rate, cfg.frame_ms, cfg.hop_ms)
    frame_len = frames.shape[1]
    energies = frames.mean(axis=1)
    speech_frames = energies >= cfg.alpha * energies.max()
    n = len(w)
    starts = np.arange(energies.size) * hop
    delta = np.zeros(n + 1, dtype=np.int64)
    on = starts[speech_frames]
    np.add.at(delta, on, 1)
    np.add.at(delta, on + frame_len, -1)
    mask = np.cumsum(delta[:-1]) > 0
    tail_start = int(starts[-1]) + frame_len
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

