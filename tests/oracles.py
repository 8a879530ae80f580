"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (python loops, math.fsum,
explicit scans) and deliberately shares no code with src/. Tests compare
the fast implementations against these on small inputs.
"""

import math
import struct


def pmf_by_counting(sample_lists, num_levels):
    """Plain dict counting; returns (mass list, counts list, total)."""
    counts = [0] * num_levels
    for samples in sample_lists:
        for s in samples:
            s = int(s)
            assert 1 <= s <= num_levels
            counts[s - 1] += 1
    total = sum(counts)
    assert total > 0
    return [c / total for c in counts], counts, total


def cdf_by_fsum(mass):
    """Prefix sums, each computed independently with math.fsum."""
    return [math.fsum(mass[: k + 1]) for k in range(len(mass))]


def first_positive_index(target_cum):
    for q in range(1, len(target_cum) + 1):
        if target_cum[q - 1] > 0.0:
            return q
    raise AssertionError("target CDF has no mass")


def match_one(target_cum, v):
    """Largest 1-based q with target_cum[q] <= v, scanning from the top;
    falls back to the first positive-mass index when no q qualifies."""
    for q in range(len(target_cum), 0, -1):
        if target_cum[q - 1] <= v:
            return q
    return first_positive_index(target_cum)


def basic_genuinize_oracle(source_samples, target_cum, num_levels):
    """Per-sample quantile matching via the explicit scan above."""
    _, counts, total = pmf_by_counting([source_samples], num_levels)
    source_cum = [sum(counts[: k + 1]) / total for k in range(num_levels)]
    return [match_one(target_cum, source_cum[int(s) - 1]) for s in source_samples]


def extended_value_oracle(mass, cum, d, m):
    """Extended CDF level m (1-based), matching the pinned-boundary and
    clipped-interior construction: exact cum at segment ends."""
    sub = 1 << d
    k = (m + sub - 1) // sub
    i = m - (k - 1) * sub
    if i == sub:
        return cum[k - 1]
    prev = cum[k - 2] if k > 1 else 0.0
    return min(prev + (i / sub) * mass[k - 1], cum[k - 1])


def dft_power(frame, nfft):
    """O(n^2) DFT power spectrum, bins 0..nfft//2."""
    bins = []
    for j in range(nfft // 2 + 1):
        re = 0.0
        im = 0.0
        for m, x in enumerate(frame):
            angle = -2.0 * math.pi * j * m / nfft
            re += x * math.cos(angle)
            im += x * math.sin(angle)
        bins.append(re * re + im * im)
    return bins


def dct2_ortho(values):
    """Orthonormal DCT-II by the textbook formula."""
    n = len(values)
    out = []
    for j in range(n):
        acc = math.fsum(
            values[m] * math.cos(math.pi * j * (2 * m + 1) / (2 * n)) for m in range(n)
        )
        scale = math.sqrt(1.0 / n) if j == 0 else math.sqrt(2.0 / n)
        out.append(scale * acc)
    return out


def delta_oracle(rows, window):
    """Regression deltas with edge replication, row by row."""
    n = len(rows)
    denom = 2.0 * sum(j * j for j in range(1, window + 1))
    out = []
    for t in range(n):
        row = []
        for c in range(len(rows[0])):
            acc = 0.0
            for j in range(1, window + 1):
                ahead = rows[min(t + j, n - 1)][c]
                behind = rows[max(t - j, 0)][c]
                acc += j * (ahead - behind)
            row.append(acc / denom)
        out.append(row)
    return out


def vad_oracle(amps, frame_len, hop, alpha):
    """Frame-energy VAD by loops: zero-centre, threshold against the max
    frame, mark samples under any speech frame, tail inherits the last
    frame's label."""
    n = len(amps)
    mean = math.fsum(amps) / n
    centred = [a - mean for a in amps]
    energies = []
    start = 0
    while start + frame_len <= n:
        frame = centred[start : start + frame_len]
        energies.append(math.fsum(x * x for x in frame) / frame_len)
        start += hop
    peak = max(energies)
    speech_frames = [e >= alpha * peak for e in energies]
    mask = [False] * n
    for idx, flag in enumerate(speech_frames):
        if flag:
            for pos in range(idx * hop, idx * hop + frame_len):
                mask[pos] = True
    tail_start = (len(energies) - 1) * hop + frame_len
    for pos in range(tail_start, n):
        mask[pos] = speech_frames[-1]
    return mask


def gmm_loglik_oracle(rows, weights, means, variances):
    """Mean per-row log-likelihood with explicit per-component sums."""
    total = 0.0
    for row in rows:
        terms = []
        for k in range(len(weights)):
            quad = 0.0
            norm = 0.0
            for c in range(len(row)):
                diff = row[c] - means[k][c]
                quad += diff * diff / variances[k][c]
                norm += math.log(2.0 * math.pi * variances[k][c])
            terms.append(math.log(weights[k]) - 0.5 * (norm + quad))
        peak = max(terms)
        total += peak + math.log(math.fsum(math.exp(t - peak) for t in terms))
    return total / len(rows)


def em_step_oracle(rows, weights, means, variances):
    """One E-step by loops: (occupancy, sum of resp * x, sum of resp * x^2,
    total log-likelihood, index of the row holding the highest single
    responsibility). Each component's sums are taken with math.fsum."""
    k_count, width = len(weights), len(rows[0])
    resps = []
    total_terms = []
    for row in rows:
        terms = []
        for k in range(k_count):
            quad = 0.0
            norm = 0.0
            for c in range(width):
                diff = row[c] - means[k][c]
                quad += diff * diff / variances[k][c]
                norm += math.log(2.0 * math.pi * variances[k][c])
            terms.append(math.log(weights[k]) - 0.5 * (norm + quad))
        peak = max(terms)
        lse = peak + math.log(math.fsum(math.exp(t - peak) for t in terms))
        total_terms.append(lse)
        resps.append([math.exp(t - lse) for t in terms])
    occupancy = [math.fsum(r[k] for r in resps) for k in range(k_count)]
    sum_x = [[math.fsum(r[k] * row[c] for r, row in zip(resps, rows)) for c in range(width)]
             for k in range(k_count)]
    sum_xx = [[math.fsum(r[k] * row[c] * row[c] for r, row in zip(resps, rows))
               for c in range(width)] for k in range(k_count)]
    best_row = 0
    for i, r in enumerate(resps):
        if max(r) > max(resps[best_row]):
            best_row = i
    return occupancy, sum_x, sum_xx, math.fsum(total_terms), best_row


def eer_oracle(genuine, spoof):
    """EER in percent from a literal threshold sweep.

    Thresholds sit below all scores, at midpoints between consecutive
    distinct pooled scores, and above all scores; accept means score >
    threshold. The crossing of the piecewise-linear (FAR, FRR) path is
    solved on the first segment where FAR - FRR changes sign.
    """
    distinct = sorted(set(list(genuine) + list(spoof)))
    thresholds = [distinct[0] - 1.0]
    for a, b in zip(distinct, distinct[1:]):
        thresholds.append((a + b) / 2.0)
    thresholds.append(distinct[-1] + 1.0)
    points = []
    for t in thresholds:
        far = sum(1 for s in spoof if s > t) / len(spoof)
        frr = sum(1 for g in genuine if g <= t) / len(genuine)
        points.append((far, frr))
    for (f0, r0), (f1, r1) in zip(points, points[1:]):
        g0 = f0 - r0
        g1 = f1 - r1
        if g0 == 0.0:
            return 100.0 * (f0 + r0) / 2.0
        if g1 <= 0.0:
            if g1 == 0.0:
                return 100.0 * (f1 + r1) / 2.0
            lam = g0 / (g0 - g1)
            return 100.0 * (f0 + lam * (f1 - f0))
    raise AssertionError("no crossing found")


def tv_by_fsum(a, b):
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a, b))


def pcm16_wav_bytes(codes, sample_rate):
    """Minimal RIFF/WAVE container built by hand with struct."""
    payload = b"".join(struct.pack("<h", c) for c in codes)
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body
