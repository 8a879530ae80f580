"""Quantile matching of waveform amplitude distributions ("genuinization").

Every sample index k of a source file is replaced by the largest target
index q whose cumulative probability does not exceed the source file's
cumulative probability at k. One kernel serves all three modes:

- perturbed: refine the source CDF to 2**d sub-levels per index (uniform
  density inside each segment) and dither each sample to a random sub-level,
  which repairs the gaps a strongly peaked source PMF leaves in the output;
- basic: the same kernel at d=0, which matches the per-file source CDF
  directly and draws no dither;
- random: perturbed matching against a reference CDF drawn uniformly from a
  pool of precomputed CDFs, redrawn for every file.

genuinize() is the one entry point that dispatches on the mode. The kernel
computes segment values only for the levels the file occupies; integer
prefix sums do not change across zero-mass levels, so this equals a lookup
in the full 2**16 x 2**d extended source CDF bit for bit.

All randomness is derived from (seed, file ordinal) through named numpy
machinery: SeedSequence([seed, ordinal]).spawn(2) yields the dither stream
(child 0) and the reference-choice stream (child 1), each driving a PCG64
generator. The split keeps a pool of size one bit-identical to the
perturbed variant against that CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, InputError
from .pmf import MAX_EXTENDED_LEVELS, Cdf, _extended_segment_values
from .waveform import Waveform

MODES = ("basic", "perturbed", "random")

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class GenuinizeParams:
    """Mode, dither resolution (extra bits d), and RNG seed.

    mode="basic" ignores extra_bits; the seed fully determines every random
    draw made by the perturbed and random variants.
    """

    mode: str
    extra_bits: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}; got {self.mode!r}")
        if self.extra_bits < 0:
            raise InputError("extra_bits must be non-negative")


def file_streams(seed: int, ordinal: int):
    """Per-file RNG streams (dither, reference choice); see module docstring."""
    root = np.random.SeedSequence(entropy=(seed & _SEED_MASK, int(ordinal)))
    dither_ss, choice_ss = root.spawn(2)
    return np.random.default_rng(dither_ss), np.random.default_rng(choice_ss)


def _match(src: Waveform, target: Cdf, d: int, dither_rng) -> Waveform:
    """The kernel behind every mode: match src at 2**d sub-levels per index."""
    levels = target.num_levels
    if int(src.samples.max()) > levels:
        raise InputError("source sample index exceeds the target grid")
    if d and (levels << d) > MAX_EXTENDED_LEVELS:
        raise CapacityError(
            f"extended source CDF would need {levels << d} levels; "
            f"cap is {MAX_EXTENDED_LEVELS}"
        )
    sub = 1 << d
    _, row_of, counts = np.unique(src.samples, return_inverse=True, return_counts=True)
    total = src.samples.size
    segment_values = _extended_segment_values(np.cumsum(counts) / total, counts / total, sub)
    # Largest 1-based q with target.cum[q] <= v; ties (runs of equal
    # cumulative value) resolve to the top of the run. When no q qualifies
    # (v below the first positive-mass bin) fall back to the smallest
    # positive-mass index.
    lut = np.searchsorted(target.cum, segment_values, side="right")
    lut[lut == 0] = np.searchsorted(target.cum, 0.0, side="right") + 1
    # Sample n ~ U{0..2**d - 1} sends index k to extended level
    # m = k * 2**d - n, i.e. sub-level i = 2**d - n of segment k.
    column = sub - 1 - dither_rng.integers(0, sub, size=total) if d else 0
    return Waveform(
        samples=lut[row_of, column], sample_rate=src.sample_rate, source_path=src.source_path
    )


def genuinize_basic(src: Waveform, target: Cdf) -> Waveform:
    """Map src through discrete quantile matching against the target CDF."""
    return _match(src, target, 0, None)


def genuinize_perturbed(
    src: Waveform, target: Cdf, params: GenuinizeParams, ordinal: int = 0
) -> Waveform:
    """Dithered quantile matching on the 2**d-times finer source grid.

    d=0 reproduces genuinize_basic bit-exactly. ordinal selects the
    per-file RNG stream in batch runs.
    """
    if params.mode != "perturbed":
        raise InputError("genuinize_perturbed requires params.mode='perturbed'")
    dither_rng, _ = file_streams(params.seed, ordinal)
    return _match(src, target, params.extra_bits, dither_rng)


def genuinize_random(src: Waveform, pool, params: GenuinizeParams, ordinal: int = 0) -> Waveform:
    """Perturbed matching against one reference CDF drawn from pool.

    pool holds the references' per-file CDFs, built once by the caller. The
    reference is drawn uniformly (from the choice stream); a new one is
    drawn for every (seed, ordinal) pair.
    """
    if params.mode != "random":
        raise InputError("genuinize_random requires params.mode='random'")
    pool = list(pool or ())
    if not pool:
        raise ConfigError("reference pool is empty")
    dither_rng, choice_rng = file_streams(params.seed, ordinal)
    reference = pool[int(choice_rng.integers(0, len(pool)))]
    return _match(src, reference, params.extra_bits, dither_rng)


def genuinize(
    src: Waveform, params: GenuinizeParams, target: Cdf | None = None, pool=None, ordinal: int = 0
) -> Waveform:
    """Genuinize one file in params.mode: basic and perturbed match against
    target, random against a CDF drawn from pool (see genuinize_random)."""
    if params.mode == "random":
        return genuinize_random(src, pool, params, ordinal)
    if target is None:
        raise ConfigError(f"mode {params.mode!r} requires a target CDF")
    if params.mode == "basic":
        return genuinize_basic(src, target)
    return genuinize_perturbed(src, target, params, ordinal)
