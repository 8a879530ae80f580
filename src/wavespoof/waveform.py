"""16-bit PCM WAV I/O on a 1-based amplitude-index grid.

Samples travel through the toolkit as integer indices k in 1..65536; the
amplitude of index k is -1 + k * 2**-15, so the grid spans (-1, 1] with the
top level at exactly +1.0. Float amplitudes appear only at the I/O boundary
and inside energy computations. framed is the one rule that cuts a signal
into frames sized in milliseconds.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, InputError, frozen_array, payload_arrays, reading, typed_fields

BASE_BITS = 16
NUM_LEVELS = 1 << BASE_BITS
_HALF_LEVELS = 1 << (BASE_BITS - 1)
# PCM code c in [-32768, 32767] maps to index c + 32769: a bijection onto
# 1..65536 in which code +32767 carries the grid's +1.0 level, so WAV round
# trips are exact at the index level.
_CODE_OFFSET = _HALF_LEVELS + 1
# The largest rate a 16-bit mono WAV header holds: its 32-bit byte-rate
# field stores 2 bytes per sample.
MAX_SAMPLE_RATE = (2**32 - 1) // 2


@dataclass(frozen=True)
class Waveform:
    """Mono PCM signal as amplitude indices plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        typed_fields(self, InputError)
        samples = frozen_array(self, "samples", np.int64, 1)
        if samples.min() < 1 or samples.max() > NUM_LEVELS:
            raise InputError(f"sample indices must lie in 1..{NUM_LEVELS}")
        if not 0 < self.sample_rate <= MAX_SAMPLE_RATE:
            raise InputError(f"sample rate must be positive and at most {MAX_SAMPLE_RATE}")

    def __len__(self) -> int:
        return int(self.samples.size)


def amp_to_index(s):
    """Quantize amplitudes in (-1, 1] to indices ceil((s + 1) * 2**15).

    Accepts a scalar or an array and returns the matching shape. Amplitudes
    at or below -1, or above +1, raise InputError.
    """
    arr = np.asarray(s, dtype=np.float64)
    if arr.size and (np.any(arr <= -1.0) or np.any(arr > 1.0)):
        raise InputError("amplitude outside (-1, 1]")
    idx = np.clip(np.ceil((arr + 1.0) * _HALF_LEVELS).astype(np.int64), 1, NUM_LEVELS)
    if arr.ndim == 0:
        return int(idx)
    return idx


def index_to_amp(k):
    """Amplitude of index k: -1 + k * 2**-15. Scalar or array."""
    arr = np.asarray(k, dtype=np.int64)
    if arr.size and (arr.min() < 1 or arr.max() > NUM_LEVELS):
        raise InputError(f"amplitude index outside 1..{NUM_LEVELS}")
    amp = -1.0 + arr * 2.0 ** -(BASE_BITS - 1)
    if arr.ndim == 0:
        return float(amp)
    return amp


def framed(values: np.ndarray, sample_rate: int, frame_ms: float, hop_ms: float):
    """A (num_frames, frame_len) view of values, frames of frame_ms every
    hop_ms at sample_rate, and the hop in samples; ms become round(ms * rate
    / 1000) samples. A size that overflows, a frame under 2 samples or a hop
    under 1, and values shorter than one frame, raise InputError."""
    sizes = [ms * sample_rate / 1000.0 for ms in (frame_ms, hop_ms)]
    if not all(map(math.isfinite, sizes)):
        raise InputError("frame sizes overflow to infinity at this rate")
    frame_len, hop = (int(round(size)) for size in sizes)
    if frame_len < 2 or hop < 1:
        raise InputError("frame sizes collapse to fewer than 2 samples at this rate")
    if values.size < frame_len:
        raise InputError(
            f"waveform of {values.size} samples is shorter than one {frame_len}-sample frame"
        )
    return sliding_window_view(values, frame_len)[::hop], hop


def read_wav(path) -> Waveform:
    """Read a mono 16-bit PCM RIFF/WAVE file into index form."""
    with reading(path):
        try:
            handle = wave.open(str(path), "rb")
        except (wave.Error, EOFError, RuntimeError) as exc:
            # wave raises EOFError when the file ends inside its header and
            # RuntimeError when a chunk size points past the end of the file
            reason = str(exc) or "a chunk runs past the end of the file"
            raise FormatError(f"not a readable RIFF/WAVE file ({reason})") from exc
        with handle:
            comptype = handle.getcomptype()
            if comptype != "NONE":
                raise FormatError(f"compressed WAV ({comptype}) is unsupported")
            channels = handle.getnchannels()
            if channels != 1:
                raise FormatError(f"{channels} channels; only mono is supported")
            width = handle.getsampwidth()
            if width != 2:
                raise FormatError(f"{8 * width}-bit samples; only 16-bit PCM is supported")
            frames = handle.getnframes()
            if frames == 0:
                raise FormatError("empty waveform")
            rate = handle.getframerate()
            raw = handle.readframes(frames)
        (codes,) = payload_arrays(raw, "<i2", (frames,))
        return Waveform(samples=codes.astype(np.int64) + _CODE_OFFSET, sample_rate=rate)


def write_wav(path, w: Waveform) -> None:
    """Write a Waveform as mono 16-bit PCM; read_wav inverts it exactly."""
    codes = (w.samples - _CODE_OFFSET).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(w.sample_rate)
        handle.writeframes(codes.tobytes())
