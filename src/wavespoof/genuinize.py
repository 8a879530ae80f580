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

Every caller treats a file against a reference set, a sequence of target
Cdfs: basic and perturbed match against its one CDF, random draws one CDF
from it per file. genuinize(src, params, references, ordinal) is the one
entry point that dispatches on the mode; reference_pool builds the per-file
reference CDFs of a pool.

The kernel computes at most one value per sample, from integer prefix sums
over the levels the file occupies, and finds each sample's match inside the
bracket that the matches of its segment's two edges give (see _match).
Integer prefix sums do not change across zero-mass levels, so the result
equals a lookup in the full 2**16 x 2**d extended source CDF bit for bit.
The target is searched in its compact form, the runs of equal cumulative
value that pmf.Cdf stores, so memory stays O(N + occupied levels) instead
of O(levels x 2**d), and a reference set holds no dense 2**16-level array.

All randomness is derived from (seed, file ordinal) through named numpy
machinery: SeedSequence([seed, ordinal]).spawn(2) yields the dither stream
(child 0) and the reference-choice stream (child 1), each driving a PCG64
generator. The split keeps a pool of size one bit-identical to the
perturbed variant against that CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, InputError, typed, typed_fields
from .pmf import MAX_EXTENDED_LEVELS, Cdf, cdf_from_pmf, estimate_pmf, sub_level_values
from .waveform import Waveform

MODES = ("basic", "perturbed", "random")
# d, the dither sub-level bits of the paper's countermeasure setting.
DEFAULT_EXTRA_BITS = 5

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class GenuinizeParams:
    """Mode, dither resolution (extra bits d), and RNG seed.

    mode="basic" ignores extra_bits; the seed fully determines every random
    draw made by the perturbed and random variants.
    """

    mode: str
    extra_bits: int = DEFAULT_EXTRA_BITS
    seed: int = 0

    def __post_init__(self):
        typed_fields(self, InputError)
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}; got {self.mode!r}")
        if self.extra_bits < 0:
            raise InputError("extra_bits must be non-negative")


def file_streams(seed: int, ordinal: int):
    """Per-file RNG streams (dither, reference choice); see module docstring."""
    ordinal = typed(ordinal, "int", "file ordinal")
    if ordinal < 0:
        raise InputError(f"file ordinal must be non-negative; got {ordinal}")
    root = np.random.SeedSequence(entropy=(seed & _SEED_MASK, ordinal))
    dither_ss, choice_ss = root.spawn(2)
    return np.random.default_rng(dither_ss), np.random.default_rng(choice_ss)


def _search_brackets(cum: np.ndarray, values: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Count of entries of the sorted cum that are <= each value, given that
    the count lies in [lo, hi] and lo < hi; a binary search per value,
    vectorized."""
    found = lo.copy()
    open_ = np.arange(lo.size)
    while open_.size:
        mid = (lo + hi) >> 1
        below = cum[mid] <= values
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
        found[open_] = lo
        keep = np.flatnonzero(lo < hi)
        open_, lo, hi, values = open_[keep], lo[keep], hi[keep], values[keep]
    return found


def _match(src: Waveform, target: Cdf, d: int, dither_rng) -> Waveform:
    """The kernel behind every mode: match src at 2**d sub-levels per index.

    A sample of index k at sub-level i has the value of sub-level i of
    segment k of the extended source CDF (pmf.sub_level_values), which lies
    between the segment's edges F(k-1) and F(k). Its match, the largest
    1-based q with target.cum[q] <= value (ties resolve to the top of a run
    of equal cumulative values), therefore lies between the edges' matches.
    One sorted search of the occupied levels' edges yields those brackets.
    The end sub-level i = 2**d (every sample at d=0) has the value F(k) and
    takes the upper bracket as it is; the others are resolved by a binary
    search inside their bracket. Both searches run over target.values, one
    entry per run, and one gather through target.starts turns each count of
    runs into q. Memory is O(N + occupied levels), of source and target.
    """
    levels = target.num_levels
    if int(src.samples.max()) > levels:
        raise InputError("source sample index exceeds the target grid")
    if d and (levels << d) > MAX_EXTENDED_LEVELS:
        raise CapacityError(
            f"extended source CDF would need {levels << d} levels; "
            f"cap is {MAX_EXTENDED_LEVELS}"
        )
    sub = 1 << d
    total = src.samples.size
    counts = np.bincount(src.samples)
    occupied = np.flatnonzero(counts > 0)
    # Each sample's rank among the occupied levels; no sample reads the
    # entries of unoccupied levels, which stay unset.
    rank = np.empty(counts.size, dtype=np.intp)
    rank[occupied] = np.arange(occupied.size)
    row = rank[src.samples]
    counts = counts[occupied]
    # Occupied level u spans [edges[u], edges[u + 1]] of the source CDF.
    edges = np.concatenate(([0.0], np.cumsum(counts) / total))
    # Brackets and matches count the target's runs of equal value whose
    # value does not exceed the sample's; starts maps such a count to the
    # level at the top of the last run counted, a one-to-one increasing map.
    bracket = np.searchsorted(target.values, edges, side="right")
    q = bracket[row + 1]
    if d:
        # Sample n ~ U{0..2**d - 1} sends index k to extended level
        # m = k * 2**d - n, i.e. sub-level i = 2**d - n of segment k.
        sub_level = sub - dither_rng.integers(0, sub, size=total)
        inner = np.flatnonzero((sub_level != sub) & (bracket[row] < q))
        r = row[inner]
        values = sub_level_values(edges[r], counts[r] / total, edges[r + 1], sub_level[inner], sub)
        q[inner] = _search_brackets(target.values, values, bracket[r], q[inner])
    # Gathered from an int64 copy of the level starts, q is already in the
    # dtype of Waveform.samples, which then stores it without a copy.
    q = target.starts.astype(np.int64)[q]
    # No q qualifies when the value lies below the first positive-mass bin:
    # fall back to the smallest positive-mass index. A value is never
    # negative, so that happens only when level 1 holds mass, and is level 1.
    q[q == 0] = 1
    return Waveform(samples=q, sample_rate=src.sample_rate)


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

    pool is a reference set, usually built once by reference_pool. The
    reference is drawn uniformly (from the choice stream); a new one is
    drawn for every (seed, ordinal) pair.
    """
    if params.mode != "random":
        raise InputError("genuinize_random requires params.mode='random'")
    if not pool:
        raise ConfigError("reference pool is empty")
    dither_rng, choice_rng = file_streams(params.seed, ordinal)
    reference = pool[int(choice_rng.integers(0, len(pool)))]
    return _match(src, reference, params.extra_bits, dither_rng)


def reference_pool(waveforms) -> tuple:
    """One reference CDF per waveform: the reference set random mode draws
    from. waveforms may be any iterable, so each file can be dropped once
    its CDF is built."""
    return tuple(cdf_from_pmf(estimate_pmf([w])) for w in waveforms)


def genuinize(src: Waveform, params: GenuinizeParams, references, ordinal: int = 0) -> Waveform:
    """Genuinize one file in params.mode against a reference set (a sequence
    of Cdfs): basic and perturbed take exactly one CDF, random draws one per
    (seed, ordinal) (see genuinize_random)."""
    if params.mode == "random":
        return genuinize_random(src, references, params, ordinal)
    if len(references) != 1:
        raise ConfigError(f"mode {params.mode!r} takes one reference CDF, not {len(references)}")
    if params.mode == "basic":
        return genuinize_basic(src, references[0])
    return genuinize_perturbed(src, references[0], params, ordinal)
