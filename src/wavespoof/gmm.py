"""Diagonal-covariance GMMs trained with EM, log-likelihood-ratio scoring,
and equal error rate computation."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InputError

log = logging.getLogger(__name__)

VARIANCE_FLOOR_FRACTION = 1e-4
DEFAULT_COMPONENTS = 512
DEFAULT_ITERS = 10
DEFAULT_TOL = 1e-5
_BLOCK_ROWS = 8192
_INIT_SUBSAMPLE = 20000
_SEED_MASK = (1 << 64) - 1
_MODEL_MAGIC = "GMM1"
_SCORE_HEADER = "file_id,label,score"

LABELS = ("genuine", "spoof")


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance mixture; provenance records the training-data
    treatment (O original, G genuinized, R randomly genuinized)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    provenance: str = "O"
    feature_fingerprint: str = ""
    loglik_trace: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        variances = np.ascontiguousarray(self.variances, dtype=np.float64)
        if weights.ndim != 1 or means.ndim != 2 or variances.shape != means.shape:
            raise InputError("inconsistent GMM parameter shapes")
        if weights.size != means.shape[0]:
            raise InputError("one weight per component required")
        if abs(float(weights.sum()) - 1.0) > 1e-9 or weights.min() < 0.0:
            raise InputError("weights must be a probability vector")
        if variances.min() <= 0.0:
            raise InputError("variances must be strictly positive")
        for name, arr in (("weights", weights), ("means", means), ("variances", variances)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_components(self) -> int:
        return int(self.weights.size)

    @property
    def num_features(self) -> int:
        return int(self.means.shape[1])


def _as_rows(features) -> np.ndarray:
    rows = np.ascontiguousarray(getattr(features, "frames", features), dtype=np.float64)
    if rows.ndim != 2 or rows.size == 0:
        raise InputError("features must form a non-empty 2-D row matrix")
    return rows


def _kmeans_pp_init(rows: np.ndarray, k: int, rng) -> np.ndarray:
    # Distance-weighted seeding on a bounded subsample keeps init cheap on
    # large corpora while staying fully determined by the rng.
    n = rows.shape[0]
    if n > _INIT_SUBSAMPLE:
        pick = rng.choice(n, size=_INIT_SUBSAMPLE, replace=False)
        pool = rows[pick]
    else:
        pool = rows
    centers = np.empty((k, rows.shape[1]))
    centers[0] = pool[rng.integers(0, pool.shape[0])]
    dist2 = ((pool - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = dist2.sum()
        if total > 0.0:
            chosen = rng.choice(pool.shape[0], p=dist2 / total)
        else:
            chosen = rng.integers(0, pool.shape[0])
        centers[j] = pool[chosen]
        dist2 = np.minimum(dist2, ((pool - centers[j]) ** 2).sum(axis=1))
    return centers


def _block_logliks(rows, weights, means, variances):
    """Yield (start, block, ll, lse) per row block, in fixed order: ll holds the
    weighted component log densities of the block's rows, lse their log-sum-exp."""
    inv = 1.0 / variances
    scaled_means = means * inv
    mean_term = (means * means * inv).sum(axis=1)[None, :]
    log_norm = -0.5 * (means.shape[1] * np.log(2.0 * np.pi) + np.log(variances).sum(axis=1))
    log_prior = (np.log(weights) + log_norm)[None, :]
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        ll = log_prior - 0.5 * (
            (block * block) @ inv.T - 2.0 * (block @ scaled_means.T) + mean_term
        )
        peak = ll.max(axis=1, keepdims=True)
        yield start, block, ll, peak + np.log(np.exp(ll - peak).sum(axis=1, keepdims=True))


def _accumulate(rows, weights, means, variances):
    """One E-step over row blocks, merged in fixed order.

    Returns (occupancy, weighted sums, weighted squared sums, total loglik,
    index and value of the highest single responsibility seen).
    """
    k, f = means.shape
    occupancy = np.zeros(k)
    sum_x = np.zeros((k, f))
    sum_xx = np.zeros((k, f))
    total = 0.0
    best_resp = -1.0
    best_row = 0
    for start, block, ll, lse in _block_logliks(rows, weights, means, variances):
        total += float(lse.sum())
        resp = np.exp(ll - lse)
        occupancy += resp.sum(axis=0)
        sum_x += resp.T @ block
        sum_xx += resp.T @ (block * block)
        row_peaks = resp.max(axis=1)
        local = int(np.argmax(row_peaks))
        if row_peaks[local] > best_resp:
            best_resp = float(row_peaks[local])
            best_row = start + local
    return occupancy, sum_x, sum_xx, total, best_row


def train_gmm(
    features,
    k: int,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    provenance: str = "O",
    feature_fingerprint: str = "",
) -> GmmModel:
    """EM training from a k-means++-style seeded initialization.

    Stops after iters iterations or when the relative log-likelihood
    improvement falls below tol, whichever comes first. Variances are
    floored each M-step at 1e-4 of the global per-dimension variance; a
    component that loses all its mass is re-seeded from the datum with the
    highest single responsibility. The per-iteration total log-likelihood
    trace is attached to the returned model.
    """
    rows = _as_rows(features)
    n, f = rows.shape
    if k < 1:
        raise InputError("component count must be at least 1")
    if iters < 1:
        raise InputError("iteration budget must be at least 1")
    if n < k:
        raise InputError(f"{n} rows cannot support {k} components")
    rng = np.random.default_rng(seed & _SEED_MASK)
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
        if previous is not None and abs(total - previous) <= tol * abs(previous):
            break
        previous = total
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        provenance=provenance,
        feature_fingerprint=feature_fingerprint,
        loglik_trace=np.asarray(trace),
    )


def gmm_loglik(model: GmmModel, features) -> float:
    """Mean per-frame log-likelihood of the rows under the model."""
    rows = _as_rows(features)
    if rows.shape[1] != model.num_features:
        raise InputError(
            f"feature width {rows.shape[1]} does not match the model's {model.num_features}"
        )
    total = 0.0
    for _, _, _, lse in _block_logliks(rows, model.weights, model.means, model.variances):
        total += float(lse.sum())
    return total / rows.shape[0]


def score_trial(genuine_model: GmmModel, spoof_model: GmmModel, features) -> float:
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
        if not np.isfinite(self.score):
            raise InputError(f"score for {self.file_id!r} is not finite")


@dataclass(frozen=True)
class ScoreSet:
    trials: tuple

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))

    def scores(self, label: str) -> np.ndarray:
        return np.asarray([t.score for t in self.trials if t.label == label], dtype=np.float64)


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


def compute_eer(scores: ScoreSet) -> float:
    """EER in percent for a labelled score set."""
    return eer_from_scores(scores.scores("genuine"), scores.scores("spoof"))


def save_scores(path, scores: ScoreSet) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(_SCORE_HEADER + "\n")
        for t in scores.trials:
            fh.write(f"{t.file_id},{t.label},{float(t.score)!r}\n")


def load_scores(path) -> ScoreSet:
    with open(path, "r", encoding="ascii", newline="") as fh:
        header = fh.readline().strip()
        if header != _SCORE_HEADER:
            raise FormatError(f"{path}: expected header {_SCORE_HEADER!r}, got {header!r}")
        trials = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.rsplit(",", 2)
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: malformed row {line!r}")
            try:
                trials.append(Trial(file_id=parts[0], label=parts[1], score=float(parts[2])))
            except (ValueError, InputError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed row {line!r}") from exc
    return ScoreSet(trials=tuple(trials))


def save_gmm(path, model: GmmModel) -> None:
    """Text header (component count, width, provenance, fingerprint) followed
    by weights, means, and variances as little-endian doubles."""
    fingerprint = model.feature_fingerprint or "-"
    with open(path, "wb") as fh:
        fh.write(
            f"{_MODEL_MAGIC} {model.num_components} {model.num_features} "
            f"{model.provenance} {fingerprint}\n".encode("ascii")
        )
        fh.write(model.weights.astype("<f8").tobytes())
        fh.write(model.means.astype("<f8").tobytes())
        fh.write(model.variances.astype("<f8").tobytes())


def load_gmm(path) -> GmmModel:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        payload = fh.read()
    parts = header.split(" ")
    if len(parts) != 5 or parts[0] != _MODEL_MAGIC:
        raise FormatError(f"{path}: bad model header {header!r}")
    try:
        k, f = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise FormatError(f"{path}: bad model header {header!r}") from exc
    expected = 8 * (k + 2 * k * f)
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    weights = np.frombuffer(payload, dtype="<f8", count=k)
    means = np.frombuffer(payload, dtype="<f8", count=k * f, offset=8 * k).reshape(k, f)
    variances = np.frombuffer(payload, dtype="<f8", count=k * f, offset=8 * (k + k * f)).reshape(k, f)
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        provenance=parts[3],
        feature_fingerprint="" if parts[4] == "-" else parts[4],
    )
