"""Diagonal-covariance GMMs trained with EM, log-likelihood-ratio scoring,
and equal error rate computation."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError, FormatError, InputError, frozen_array, payload_arrays, read_headed, reading,
    text_rows, write_headed,
)
from .features import FeatureMatrix
from .genuinize import SEED_MASK

log = logging.getLogger(__name__)

VARIANCE_FLOOR_FRACTION = 1e-4
DEFAULT_COMPONENTS = 512
DEFAULT_ITERS = 10
DEFAULT_TOL = 1e-5
_BLOCK_ROWS = 8192
# A log density this far below its row's peak counts as an exact 0 density:
# its exp (below 1e-304) is under the rounding error of any sum it joins,
# since a row's mass is at least 1, and exp of anything lower is subnormal or
# 0, which x86 computes and multiplies on a path up to 100 times slower.
_NEGLIGIBLE = -700.0
_INIT_SUBSAMPLE = 20000
_MODEL_MAGIC = "GMM1"
_SCORE_HEADER = "file_id,label,score"

LABELS = ("genuine", "spoof")
PROVENANCES = ("O", "G", "R")


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance mixture; provenance, one of PROVENANCES, records
    the training-data treatment (O original, G genuinized, R randomly genuinized)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    provenance: str = "O"
    feature_fingerprint: str = ""
    loglik_trace: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        weights = frozen_array(self, "weights", np.float64, 1)
        means = frozen_array(self, "means", np.float64, 2)
        variances = frozen_array(self, "variances", np.float64, 2)
        if self.loglik_trace is not None:
            frozen_array(self, "loglik_trace", np.float64, 1)
        if variances.shape != means.shape:
            raise InputError("inconsistent GMM parameter shapes")
        if weights.size != means.shape[0]:
            raise InputError("one weight per component required")
        if abs(float(weights.sum()) - 1.0) > 1e-9 or weights.min() < 0.0:
            raise InputError("weights must be a probability vector")
        if variances.min() <= 0.0:
            raise InputError("variances must be strictly positive")
        if self.provenance not in PROVENANCES:
            raise InputError(f"provenance must be one of {PROVENANCES}; got {self.provenance!r}")

    @property
    def num_components(self) -> int:
        return int(self.weights.size)

    @property
    def num_features(self) -> int:
        return int(self.means.shape[1])

    @cached_property
    def kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(const, proj) of the fused log density (see _kernel), computed
        once per model and reused by every scoring pass."""
        return _kernel(self.weights, self.means, self.variances)


def _kmeans_pp_init(rows: np.ndarray, k: int, rng) -> np.ndarray:
    # Distance-weighted seeding on a bounded subsample keeps init cheap on
    # large corpora while staying fully determined by the rng. Each center's
    # squared distances are |x|^2 - 2 x.c + |c|^2: one GEMV against row norms
    # computed once. A value below that sum's rounding error is set to 0, so
    # a duplicate of a center is never drawn again, as with exact distances.
    n = rows.shape[0]
    if n > _INIT_SUBSAMPLE:
        pick = rng.choice(n, size=_INIT_SUBSAMPLE, replace=False)
        pool = rows[pick]
    else:
        pool = rows
    norms = np.einsum("ij,ij->i", pool, pool)
    rounding = 4 * pool.shape[1] * np.finfo(np.float64).eps

    def dist2_to(chosen):
        dist2 = pool @ pool[chosen]
        dist2 *= -2.0
        dist2 += norms
        dist2 += norms[chosen]
        dist2[dist2 <= rounding * (norms + norms[chosen])] = 0.0
        return dist2

    chosen = rng.integers(0, pool.shape[0])
    picks = [chosen]
    dist2 = dist2_to(chosen)
    for _ in range(1, k):
        total = dist2.sum()
        if total > 0.0:
            # rng.choice(n, p=dist2 / total) without its validation of p:
            # the same cumulative sum, normalisation and draw, so the same pick
            cdf = np.cumsum(dist2 / total)
            cdf /= cdf[-1]
            chosen = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            chosen = rng.integers(0, pool.shape[0])
        picks.append(chosen)
        np.minimum(dist2, dist2_to(chosen), out=dist2)
    return pool[picks]


def _kernel(weights, means, variances):
    """(const, proj) of the fused log density: the weighted component log
    densities of a row x are [x*x, x] @ proj + const, with proj the (2f, K)
    matrix [-1/(2 var); mean/var] and const = log w + log_norm - sum(mean^2/var)/2."""
    inv = 1.0 / variances
    scaled_means = means * inv
    log_norm = -0.5 * (means.shape[1] * np.log(2.0 * np.pi) + np.log(variances).sum(axis=1))
    const = np.log(weights) + log_norm - 0.5 * (means * scaled_means).sum(axis=1)
    return const, np.hstack([-0.5 * inv, scaled_means]).T


def _block_logliks(rows, const, proj):
    """Yield (start, stats, dens, mass, loglik) per row block, in fixed order.

    stats is [x*x, x] for the block's rows; dens holds their weighted
    component densities scaled by exp(-peak), peak being each row's largest
    log density, with a density below exp(_NEGLIGIBLE) set to exactly 0, and
    mass their row sums; a row's log-likelihood is peak + log(mass), and
    loglik is the block's sum of them. dens is the caller's to overwrite.
    """
    f = rows.shape[1]
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        stats = np.empty((block.shape[0], 2 * f))
        np.multiply(block, block, out=stats[:, :f])
        stats[:, f:] = block
        dens = stats @ proj
        dens += const
        peak = dens.max(axis=1, keepdims=True)
        dens -= peak
        kept = dens >= _NEGLIGIBLE
        np.maximum(dens, _NEGLIGIBLE, out=dens)
        np.exp(dens, out=dens)
        dens *= kept
        mass = dens.sum(axis=1, keepdims=True)
        yield start, stats, dens, mass, float((peak + np.log(mass)).sum())


def _accumulate(rows, weights, means, variances):
    """One E-step over row blocks, merged in fixed order.

    Returns (occupancy, weighted sums, weighted squared sums, total loglik,
    index of the row with the highest single responsibility). A row's
    highest responsibility is 1/mass, since its peak density is exp(0).
    """
    k, f = means.shape
    occupancy = np.zeros(k)
    moments = np.zeros((2 * f, k))
    total = 0.0
    least_mass = np.inf
    best_row = 0
    for start, stats, dens, mass, loglik in _block_logliks(rows, *_kernel(weights, means, variances)):
        total += loglik
        dens /= mass
        occupancy += dens.sum(axis=0)
        moments += stats.T @ dens
        local = int(np.argmin(mass))
        if mass[local, 0] < least_mass:
            least_mass = float(mass[local, 0])
            best_row = start + local
    return occupancy, moments[f:].T, moments[:f].T, total, best_row


def check_budget(k: int, iters: int) -> None:
    """InputError unless k components and an iters EM budget are each at least 1."""
    if k < 1:
        raise InputError("component count must be at least 1")
    if iters < 1:
        raise InputError("iteration budget must be at least 1")


def train_gmm(
    features: FeatureMatrix,
    k: int,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    provenance: str = "O",
) -> GmmModel:
    """EM training on the rows of features from a k-means++-style seeded
    initialization; the model records features.meta as its fingerprint.

    Stops after iters iterations or when the relative log-likelihood
    improvement falls below DEFAULT_TOL, whichever comes first. Variances
    are floored each M-step at 1e-4 of the global per-dimension variance; a
    component that loses all its mass is re-seeded from the datum with the
    highest single responsibility. The per-iteration total log-likelihood
    trace is attached to the returned model.
    """
    rows = features.frames
    n, f = rows.shape
    check_budget(k, iters)
    if n < k:
        raise InputError(f"{n} rows cannot support {k} components")
    rng = np.random.default_rng(seed & SEED_MASK)
    global_variance = rows.var(axis=0)
    floor = np.maximum(VARIANCE_FLOOR_FRACTION * global_variance, 1e-12)
    means = _kmeans_pp_init(rows, k, rng)
    variances = np.tile(np.maximum(global_variance, floor), (k, 1))
    weights = np.full(k, 1.0 / k)
    trace = []
    previous = None
    for _ in range(iters):
        occupancy, sum_x, sum_xx, total, best_row = _accumulate(rows, weights, means, variances)
        trace.append(total)
        empty = occupancy < 1e-10
        alive = ~empty
        weights = np.where(alive, occupancy / n, 1.0 / n)
        safe = np.maximum(occupancy, 1e-300)[:, None]
        new_means = sum_x / safe
        new_vars = sum_xx / safe - new_means**2
        means = np.where(alive[:, None], new_means, means)
        variances = np.where(alive[:, None], new_vars, variances)
        if np.any(empty):
            log.warning("re-seeding %d empty component(s) from datum %d", int(empty.sum()), best_row)
            for j in np.flatnonzero(empty):
                means[j] = rows[best_row]
                variances[j] = np.maximum(global_variance, floor)
        weights = weights / weights.sum()
        variances = np.maximum(variances, floor)
        if previous is not None and abs(total - previous) <= DEFAULT_TOL * abs(previous):
            break
        previous = total
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        provenance=provenance,
        feature_fingerprint=features.meta,
        loglik_trace=np.asarray(trace),
    )


def gmm_loglik(model: GmmModel, features: FeatureMatrix) -> float:
    """Mean per-frame log-likelihood of the rows of features under the model.

    When the model records a fingerprint, features.meta must equal it
    (ConfigError otherwise).
    """
    recorded = model.feature_fingerprint
    if recorded and features.meta != recorded:
        raise ConfigError(
            f"model was trained on features {recorded}, but these are {features.meta or '-'}"
        )
    rows = features.frames
    if rows.shape[1] != model.num_features:
        raise InputError(
            f"feature width {rows.shape[1]} does not match the model's {model.num_features}"
        )
    total = 0.0
    for _, _, _, _, loglik in _block_logliks(rows, *model.kernel):
        total += loglik
    return total / rows.shape[0]


def score_trial(genuine_model: GmmModel, spoof_model: GmmModel, features: FeatureMatrix) -> float:
    """Log-likelihood ratio: positive favours the genuine hypothesis."""
    return gmm_loglik(genuine_model, features) - gmm_loglik(spoof_model, features)


@dataclass(frozen=True)
class Trial:
    file_id: str
    label: str
    score: float

    def __post_init__(self):
        if self.label not in LABELS:
            raise InputError(f"label must be one of {LABELS}; got {self.label!r}")
        # a scores CSV holds one stripped UTF-8 line per Trial
        fid = self.file_id
        if (fid != fid.strip() or "\n" in fid or "\r" in fid
                or fid.encode("utf-8", "replace").decode("utf-8") != fid):
            raise InputError(f"file id {fid!r} must be UTF-8 without a line break or "
                             "leading or trailing whitespace")
        if not np.isfinite(self.score):
            raise InputError(f"score for {self.file_id!r} is not finite")


def eer_from_scores(genuine_scores, spoof_scores) -> float:
    """Equal error rate, in percent, from the two score populations.

    Each distinct score value u is an operating point with false-accept
    rate #(spoof > u)/Ns and false-reject rate #(genuine <= u)/Ng (plus
    the accept-everything point). The crossing is located by linear
    interpolation between adjacent points; an exact crossing, as with
    all-identical scores, lands on the midpoint of the two rates.
    """
    genuine = np.sort(np.asarray(genuine_scores, dtype=np.float64))
    spoof = np.sort(np.asarray(spoof_scores, dtype=np.float64))
    if genuine.size == 0 or spoof.size == 0:
        raise InputError("EER needs at least one genuine and one spoof trial")
    if not (np.all(np.isfinite(genuine)) and np.all(np.isfinite(spoof))):
        raise InputError("EER requires finite scores")
    cuts = np.unique(np.concatenate([genuine, spoof]))
    far = np.empty(cuts.size + 1)
    frr = np.empty(cuts.size + 1)
    far[0], frr[0] = 1.0, 0.0
    far[1:] = (spoof.size - np.searchsorted(spoof, cuts, side="right")) / spoof.size
    frr[1:] = np.searchsorted(genuine, cuts, side="right") / genuine.size
    gap = far - frr
    crossing = int(np.argmax(gap <= 0.0))  # gap[0] = 1, so crossing >= 1
    if gap[crossing] == 0.0:
        eer = 0.5 * (far[crossing] + frr[crossing])
    else:
        frac = gap[crossing - 1] / (gap[crossing - 1] - gap[crossing])
        eer = far[crossing - 1] + frac * (far[crossing] - far[crossing - 1])
    return 100.0 * float(eer)


def compute_eer(trials: tuple) -> float:
    """EER in percent for a tuple of labelled Trials."""
    genuine, spoof = ([t.score for t in trials if t.label == label] for label in LABELS)
    return eer_from_scores(genuine, spoof)


def save_scores(path, trials: tuple) -> None:
    """Write the Trials in order, as UTF-8, under the header `file_id,label,score`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_SCORE_HEADER + "\n")
        for t in trials:
            fh.write(f"{t.file_id},{t.label},{float(t.score)!r}\n")


def load_scores(path) -> tuple:
    """The Trials of a scores CSV, in file order."""
    with reading(path):
        return tuple(text_rows(path, _SCORE_HEADER, "utf-8", FormatError,
                               lambda file_id, label, score: Trial(file_id, label, float(score))))


def save_gmm(path, model: GmmModel) -> None:
    """Header `GMM1 <components> <width> <provenance> <fingerprint>`, then
    weights, means, and variances as little-endian doubles."""
    fields = (model.num_components, model.num_features, model.provenance,
              model.feature_fingerprint)
    write_headed(path, _MODEL_MAGIC, fields, model.weights, model.means, model.variances)


def load_gmm(path) -> GmmModel:
    with reading(path):
        (k, f, provenance, fingerprint), payload = read_headed(
            path, _MODEL_MAGIC, (int, int, str, str)
        )
        weights, means, variances = payload_arrays(payload, "<f8", (k,), (k, f), (k, f))
        return GmmModel(weights=weights, means=means, variances=variances,
                        provenance=provenance, feature_fingerprint=fingerprint)
