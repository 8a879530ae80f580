"""LFCC front end: framed power spectra through a linear triangular
filterbank, log compression, an orthonormal DCT-II (a product with its basis
matrix), optional log-energy, and regression deltas. Extractors are looked
up by id and share one contract, fn(waveform, cfg: LfccConfig) ->
FeatureMatrix whose meta is the fingerprint. They all receive the run's
LfccConfig, so an alternative front end (e.g. a constant-Q variant) takes its
settings from it and the result cache digest, which hashes that config,
covers it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError, InputError, frozen_array, payload_arrays, read_headed, reading, typed_fields,
    write_headed,
)
from .waveform import Waveform, framed, index_to_amp

LOG_FLOOR = 1e-12
_CACHE_MAGIC = "FEAT2"


@dataclass(frozen=True)
class LfccConfig:
    frame_len_ms: float = 20.0
    frame_hop_ms: float = 10.0
    num_filters: int = 20
    num_ceps: int = 19
    include_energy: bool = True
    delta_window: int = 2

    def __post_init__(self):
        typed_fields(self, InputError)
        if not all(math.isfinite(ms) and ms > 0 for ms in (self.frame_len_ms, self.frame_hop_ms)):
            raise InputError("frame sizes must be finite and positive")
        if not 1 <= self.num_ceps <= self.num_filters:
            raise InputError("need 1 <= num_ceps <= num_filters")
        if self.delta_window < 1:
            raise InputError("delta_window must be at least 1")
        blob = json.dumps(asdict(self), sort_keys=True).encode("ascii")
        object.__setattr__(self, "_fingerprint", "lfcc-" + hashlib.sha256(blob).hexdigest()[:12])

    def fingerprint(self) -> str:
        """The id every feature matrix and model made with this config carries."""
        return self._fingerprint


@dataclass(frozen=True)
class FeatureMatrix:
    """Frame-by-coefficient matrix plus the config fingerprint behind it."""

    frames: np.ndarray
    meta: str = ""

    def __post_init__(self):
        frozen_array(self, "frames", np.float64, 2)

    @property
    def num_coeffs(self) -> int:
        return int(self.frames.shape[1])


def _linear_filterbank(num_filters: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters with linearly spaced edges from 0 to Nyquist."""
    freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    edges = np.linspace(0.0, sample_rate / 2.0, num_filters + 2)[:, None]
    left, mid, right = edges[:-2], edges[1:-1], edges[2:]
    rising = (freqs - left) / (mid - left)
    falling = (right - freqs) / (right - mid)
    return np.clip(np.minimum(rising, falling), 0.0, None)


@lru_cache(maxsize=None)
def _spectral_setup(frame_len: int, num_filters: int, sample_rate: int):
    """(fft_size, window, bank) of a frame_len-sample frame: the smallest power
    of two not below frame_len, and its Hamming window and linear filterbank
    as read-only arrays shared by every thread."""
    fft_size = 1 << (frame_len - 1).bit_length()
    window = np.hamming(frame_len)
    bank = _linear_filterbank(num_filters, fft_size, sample_rate)
    return fft_size, np.broadcast_to(window, window.shape), np.broadcast_to(bank, bank.shape)


@lru_cache(maxsize=None)
def _dct_basis(num_filters: int, num_ceps: int) -> np.ndarray:
    """The first num_ceps orthonormal DCT-II basis vectors as the columns of
    a read-only (num_filters x num_ceps) matrix, shared by every thread."""
    n = np.arange(num_filters)[:, None]
    k = np.arange(num_ceps)[None, :]
    basis = np.cos(np.pi * k * (2 * n + 1) / (2 * num_filters)) * math.sqrt(2.0 / num_filters)
    basis[:, 0] = math.sqrt(1.0 / num_filters)
    return np.broadcast_to(basis, basis.shape)  # a read-only view of it


def _regression_delta(m: np.ndarray, window: int) -> np.ndarray:
    padded = np.pad(m, ((window, window), (0, 0)), mode="edge")
    frames = m.shape[0]
    acc = np.zeros_like(m)
    for j in range(1, window + 1):
        acc += j * (padded[window + j : window + j + frames] - padded[window - j : window - j + frames])
    return acc / (2.0 * sum(j * j for j in range(1, window + 1)))


def append_deltas(m: np.ndarray, window: int = 2) -> np.ndarray:
    """Append regression deltas and delta-deltas; output is 3x as wide.

    Edges are handled by replicating the first and last frame, so a constant
    input yields zero deltas and an interior linear ramp yields its slope.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InputError("append_deltas expects a 2-D matrix")
    if window < 1:
        raise InputError("delta window must be at least 1")
    d1 = _regression_delta(m, window)
    d2 = _regression_delta(d1, window)
    return np.concatenate([m, d1, d2], axis=1)


def _framed_log_energies(w: Waveform, cfg: LfccConfig):
    """Frames of w and their log filterbank energies (the DCT input)."""
    amp = index_to_amp(w.samples)
    frames, _ = framed(amp, w.sample_rate, cfg.frame_len_ms, cfg.frame_hop_ms)
    fft_size, window, bank = _spectral_setup(frames.shape[1], cfg.num_filters, w.sample_rate)
    windowed = frames * window
    spectrum = np.fft.rfft(windowed, n=fft_size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    filterbank_energies = power @ bank.T
    return frames, np.log(np.maximum(filterbank_energies, LOG_FLOOR))


def lfcc(w: Waveform, cfg: LfccConfig = LfccConfig()) -> FeatureMatrix:
    """Extract LFCC(+energy) with deltas and delta-deltas.

    Frames are Hamming-windowed, zero-padded to the smallest power of two
    not below the frame's sample count (256 points for 20 ms at 8 kHz, 512
    at 16 kHz), and reduced to num_filters triangular-filterbank energies on
    the power spectrum; logs are floored at 1e-12 and multiplied by the
    first num_ceps columns of the orthonormal DCT-II basis. Output width is
    (num_ceps + energy) * 3.
    """
    frames, log_energies = _framed_log_energies(w, cfg)
    ceps = log_energies @ _dct_basis(cfg.num_filters, cfg.num_ceps)
    columns = [ceps]
    if cfg.include_energy:
        frame_energy = np.log(np.maximum((frames * frames).sum(axis=1), LOG_FLOOR))
        columns.append(frame_energy[:, None])
    static = np.concatenate(columns, axis=1)
    return FeatureMatrix(frames=append_deltas(static, cfg.delta_window), meta=cfg.fingerprint())


_EXTRACTORS = {}


def register_extractor(name: str, fn) -> None:
    """Register fn(waveform, cfg: LfccConfig) -> FeatureMatrix under an id."""
    _EXTRACTORS[name] = fn


def get_extractor(name: str):
    if name not in _EXTRACTORS:
        known = ", ".join(sorted(_EXTRACTORS))
        raise ConfigError(
            f"unknown feature extractor {name!r}; registered extractors: {known}. "
            "Alternative front ends can be added with register_extractor()."
        )
    return _EXTRACTORS[name]


register_extractor("lfcc", lfcc)


def stack_features(matrices) -> FeatureMatrix:
    """One FeatureMatrix of the rows of all matrices stacked in order, with
    their shared meta: the training input of train_gmm.

    Raises ConfigError unless the matrices share one (fingerprint, width)."""
    kinds = sorted({(fm.meta or "-", fm.num_coeffs) for fm in matrices})
    if len(kinds) != 1:
        raise ConfigError(f"feature matrices must share one (fingerprint, width); got {kinds}")
    return FeatureMatrix(frames=np.vstack([fm.frames for fm in matrices]), meta=matrices[0].meta)


def save_features(path, fm: FeatureMatrix) -> None:
    """Cache format: the header `FEAT2 <meta> <frames> <coeffs>`, then the
    float64 frames as row-major <f8, so a loaded matrix equals fm exactly."""
    write_headed(path, _CACHE_MAGIC, (fm.meta, *fm.frames.shape), fm.frames)


def load_features(path) -> FeatureMatrix:
    with reading(path):
        (meta, frames, coeffs), payload = read_headed(path, _CACHE_MAGIC, (str, int, int))
        (data,) = payload_arrays(payload, "<f8", (frames, coeffs))
        return FeatureMatrix(frames=data, meta=meta)
