"""Amplitude PMFs and CDFs: estimation, refinement to finer grids, distances,
and the on-disk formats used by the CLI.

Count-backed PMFs keep their integer histograms, so cumulative sums stay
exact rationals until the final division. PMFs that arrive without counts
(for example loaded from a file) fall back to compensated summation, which
keeps 65536-term prefix sums well inside the 1e-9 tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError, FormatError, InputError, checked_array, frozen_array, payload_arrays, reading,
    text_rows,
)
from .waveform import NUM_LEVELS

PROB_TOL = 1e-9
# Cap on len(cum) for extended CDFs; 2**16 base levels with d=10 extra bits.
MAX_EXTENDED_LEVELS = 1 << 26

_GPMF_MAGIC = b"GPMF"
_GPMF_VERSION = 1
_CSV_HEADER = "index,probability"
KEEPS = ("speech", "nonspeech", "all")


@dataclass(frozen=True)
class Pmf:
    """Probability mass over amplitude indices 1..len(mass).

    counts, when the PMF came from data, is its non-negative integer
    histogram, and mass is then exactly counts / counts.sum(), as
    estimate_pmf computes it: the two are one distribution.
    """

    mass: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        mass = frozen_array(self, "mass", np.float64, 1)
        if mass.min() < 0.0:
            raise InputError("PMF mass must be non-negative")
        if abs(float(mass.sum()) - 1.0) > PROB_TOL:
            raise InputError("PMF mass must sum to 1 within 1e-9")
        if self.counts is not None:
            counts = frozen_array(self, "counts", np.int64, 1)
            total = int(counts.sum())  # mass >= 0, so equal mass means counts >= 0
            if total <= 0 or not np.array_equal(mass, counts / total):
                raise InputError("PMF mass must be exactly its non-negative counts over their sum")

    @property
    def num_levels(self) -> int:
        return int(self.mass.size)


@dataclass(frozen=True, init=False)
class Cdf:
    """Cumulative distribution over the same 1-based index grid as Pmf,
    stored as its runs of equal value.

    Cdf(cum=dense) checks the dense values (finite, non-decreasing, ending
    at 1) and keeps only the levels where they rise: run k holds values[k]
    over the 0-based levels starts[k] .. starts[k + 1] - 1, so starts[0] is
    0 and starts[-1] is num_levels. A level rises when its value exceeds the
    one before it; a mass too small to raise a float running sum starts no
    run, just as a search of the dense values passes over its level. A CDF
    with m rises holds about 12 * m bytes instead of 8 per level of the
    grid. cum rebuilds the dense values, equal to the ones given.
    """

    starts: np.ndarray
    values: np.ndarray

    def __init__(self, cum):
        dense = checked_array(cum, "Cdf.cum", np.float64, 1)
        steps = np.diff(dense)
        if np.any(steps < 0.0):
            raise InputError("CDF must be non-decreasing")
        if abs(float(dense[-1]) - 1.0) > PROB_TOL:
            raise InputError("CDF must end at 1 within 1e-9")
        starts = np.concatenate(([0], np.flatnonzero(steps > 0.0) + 1, [dense.size]))
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "values", dense[starts[:-1]])
        frozen_array(self, "starts", np.int32, 1)
        frozen_array(self, "values", np.float64, 1)

    @property
    def num_levels(self) -> int:
        return int(self.starts[-1])

    @property
    def cum(self) -> np.ndarray:
        """The dense cumulative values, one per level, rebuilt as a new array
        on each call, so writing to it leaves the Cdf as it is."""
        return np.repeat(self.values, np.diff(self.starts))


def estimate_pmf(waveforms, masks=None, keep="all", num_levels=NUM_LEVELS) -> Pmf:
    """Pool one or more waveforms into a PMF over num_levels indices.

    masks, when given, supplies one VadMask (or boolean array) per waveform;
    keep selects which samples enter the histogram: "speech", "nonspeech",
    or "all". Estimation is pure integer counting until the final division.
    """
    if keep not in KEEPS:
        raise InputError(f"keep must be one of {KEEPS}; got {keep!r}")
    if keep != "all" and masks is None:
        raise InputError(f"keep={keep!r} requires per-waveform masks")
    if num_levels < 1:
        raise InputError("num_levels must be positive")
    waveforms = list(waveforms)
    if masks is not None:
        masks = list(masks)
        if len(masks) != len(waveforms):
            raise InputError("need exactly one mask per waveform")
    counts = np.zeros(num_levels, dtype=np.int64)
    for pos, w in enumerate(waveforms):
        samples = w.samples
        if keep != "all":
            flags = np.asarray(getattr(masks[pos], "speech", masks[pos]), dtype=bool)
            if flags.size != samples.size:
                raise InputError("mask length must match the waveform length")
            samples = samples[flags] if keep == "speech" else samples[~flags]
        if samples.size == 0:
            continue
        if int(samples.max()) > num_levels:
            raise InputError(f"sample index exceeds the {num_levels}-level grid")
        counts += np.bincount(samples - 1, minlength=num_levels)
    total = int(counts.sum())
    if total == 0:
        raise InputError("no samples retained for PMF estimation")
    return Pmf(mass=counts / total, counts=counts)


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    # Running compensated summation; plain cumsum would be fine at 1e-9 but
    # this keeps the drift independent of the level count.
    out = np.empty(values.size, dtype=np.float64)
    total = 0.0
    carry = 0.0
    for pos, value in enumerate(values.tolist()):
        adjusted = value - carry
        new_total = total + adjusted
        carry = (new_total - total) - adjusted
        total = new_total
        out[pos] = total
    return out


def cdf_from_pmf(p: Pmf) -> Cdf:
    """Cumulative form of a PMF.

    Count-backed PMFs use exact integer prefix sums divided once by the last
    one; float-only PMFs use Kahan-compensated running summation.
    """
    if p.counts is not None:
        sums = np.cumsum(p.counts, dtype=np.int64)
        cum = sums / sums[-1]
    else:
        cum = _kahan_cumsum(p.mass)
    return Cdf(cum=cum)


def sub_level_values(base, mass, cum, sub_level, sub_levels: int):
    """Value of sub-level sub_level (1..sub_levels) of segments that start at
    base, hold mass and end at cum: base + (sub_level / sub_levels) * mass,
    clipped to cum so the values stay monotone. Broadcasts elementwise."""
    return np.minimum(base + (sub_level / sub_levels) * mass, cum)


def extend_cdf(p: Pmf, d: int) -> Cdf:
    """Refine the CDF of p to 2**d sub-levels per index, a Cdf over
    p.num_levels * 2**d levels.

    Sub-level i of segment k (i in 1..2**d) takes the value
    F(k-1) + (i / 2**d) * mass[k], i.e. the mass of each segment is spread
    uniformly across its sub-levels. d=0 returns the base CDF verbatim; more
    than MAX_EXTENDED_LEVELS levels raise CapacityError.
    """
    if d < 0:
        raise InputError("extra bits d must be non-negative")
    if d == 0:
        return cdf_from_pmf(p)
    levels = p.num_levels << d
    if levels > MAX_EXTENDED_LEVELS:
        raise CapacityError(
            f"extended CDF would need {levels} levels; cap is {MAX_EXTENDED_LEVELS}"
        )
    base = cdf_from_pmf(p).cum
    # Uniform density inside each base segment. The segment-end column is
    # pinned to the base CDF so boundaries agree exactly.
    sub = 1 << d
    starts = np.concatenate(([0.0], base[:-1]))
    vals = sub_level_values(
        starts[:, None], p.mass[:, None], base[:, None], np.arange(1, sub + 1), sub
    )
    vals[:, -1] = base
    return Cdf(cum=vals.reshape(-1))


def tv_distance(a, b) -> float:
    """Total variation distance 0.5 * sum(|a - b|) between two mass vectors.

    Accepts Pmf instances or plain arrays of equal length.
    """
    mass_a = np.asarray(getattr(a, "mass", a), dtype=np.float64)
    mass_b = np.asarray(getattr(b, "mass", b), dtype=np.float64)
    if mass_a.shape != mass_b.shape:
        raise InputError("TV distance requires equally sized mass vectors")
    return 0.5 * float(np.abs(mass_a - mass_b).sum())


def save_pmf_csv(path, p: Pmf) -> None:
    """Write `index,probability` rows for the non-zero bins only."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(_CSV_HEADER + "\n")
        for pos in np.flatnonzero(p.mass):
            fh.write(f"{pos + 1},{float(p.mass[pos])!r}\n")


def load_pmf_csv(path, num_levels=NUM_LEVELS) -> Pmf:
    mass = np.zeros(num_levels, dtype=np.float64)
    seen = set()

    def row(index_text, prob_text):
        index, prob = int(index_text), float(prob_text)
        if not 1 <= index <= num_levels:
            raise FormatError(f"index {index} outside 1..{num_levels}")
        if index in seen:
            raise FormatError(f"index {index} repeated")
        seen.add(index)
        mass[index - 1] = prob

    with reading(path):
        text_rows(path, _CSV_HEADER, "ascii", FormatError, row)
        return Pmf(mass=mass)


def save_pmf_binary(path, p: Pmf) -> None:
    """Binary container: magic GPMF, version byte, D byte, 2**D LE doubles."""
    levels = p.num_levels
    if levels & (levels - 1):
        raise InputError("binary PMF files require a power-of-two level count")
    bits = levels.bit_length() - 1
    with open(path, "wb") as fh:
        fh.write(_GPMF_MAGIC)
        fh.write(bytes((_GPMF_VERSION, bits)))
        fh.write(p.mass.astype("<f8").tobytes())


def load_pmf_binary(path) -> Pmf:
    with reading(path):
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _GPMF_MAGIC:
            raise FormatError("missing GPMF magic")
        if len(blob) < 6:
            raise FormatError("truncated GPMF header")
        version, bits = blob[4], blob[5]
        if version != _GPMF_VERSION:
            raise FormatError(f"unsupported GPMF version {version}")
        (mass,) = payload_arrays(blob[6:], "<f8", (1 << bits,))
        return Pmf(mass=mass)


def save_pmf(path, p: Pmf) -> None:
    """Write CSV when the path ends in .csv, the binary container otherwise."""
    if str(path).lower().endswith(".csv"):
        save_pmf_csv(path, p)
    else:
        save_pmf_binary(path, p)


def load_pmf(path, num_levels=NUM_LEVELS) -> Pmf:
    """Load either PMF format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _GPMF_MAGIC:
        return load_pmf_binary(path)
    return load_pmf_csv(path, num_levels=num_levels)
