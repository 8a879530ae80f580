"""Synthetic two-class corpus for exercising the full pipeline quickly.

The two classes are built to differ in both spectrum and amplitude
distribution, the two axes the toolkit works on. "Genuine" files are
strongly coloured AR(1) noise with heavy-tailed innovations; "spoof"
files are weakly coloured AR(1) noise with Gaussian innovations whose
small amplitudes are gated to exact zero, giving them the concentrated
zero atom typical of synthesis artefacts. Each file gets its own gain
and a short raised-cosine fade at both ends.

make_toy_corpus writes the WAV tree, a manifest CSV, and a matrix config
JSON sized so the whole 45-scenario matrix runs in well under a minute.
It draws each file in (subset, label, index) order, its innovations and
then its gain, from one generator, so a seed fixes every byte. The AR(1)
filter, a recursion over time, runs on blocks of files at once: each block
is a time-major (samples x files) float64 array of at most BLOCK_BYTES,
filtered with one numpy step per sample time; each file is then scaled,
faded, gated, clipped and written on its own.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import InputError, typed
from .waveform import MAX_SAMPLE_RATE, Waveform, amp_to_index, write_wav

GENUINE_POLE = 0.92
SPOOF_POLE = 0.55
SPOOF_GATE = 0.012
# The most bytes one AR(1) block holds. Time grows with the number of blocks
# (each costs one numpy step per sample), and peak memory with their size.
# At 12 MiB the batch benchmark's 40 four-second 16 kHz files take two blocks
# of 20, and its peak RSS stays where filtering file by file left it.
BLOCK_BYTES = 12 << 20


def _ar1(block: np.ndarray, poles: np.ndarray) -> None:
    """Filter each column of the time-major float64 block in place by the
    first-order all-pole filter y[n] = x[n] + pole * y[n-1] from rest, with
    the column's pole from poles.

    Each time step is two ufunc calls over the columns, pole * y[n-1] and
    then x[n] + that: per sample the same two float64 operations as a scalar
    loop, so each column is bit-equal to filtering it alone. A fused form
    (dot, einsum, matmul) may use FMA and change the bits."""
    step = np.empty(block.shape[1])
    prev = np.zeros(block.shape[1])
    # local names and positional outs take about a quarter off each step
    multiply, add = np.multiply, np.add
    for row in block:
        multiply(poles, prev, step)
        add(row, step, row)
        prev = row


def _fade(n: int, edge: int) -> np.ndarray:
    env = np.ones(n)
    if edge > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
        env[:edge] = ramp
        env[n - edge:] = ramp[::-1]
    return env


def _filtered_block(rng: np.random.Generator, labels, num_samples: int):
    """(block, gains) of the files with these labels: each file's innovations
    (Laplace for genuine, Gaussian for spoof), then its gain, drawn in order,
    and the innovations AR(1)-filtered as the columns of one block."""
    block = np.empty((num_samples, len(labels)))
    gains = []
    for j, label in enumerate(labels):
        draw = rng.laplace if label == "genuine" else rng.normal
        block[:, j] = draw(0.0, 1.0, size=num_samples)
        gains.append(rng.uniform(0.12, 0.35))
    _ar1(block, np.array([GENUINE_POLE if label == "genuine" else SPOOF_POLE
                          for label in labels]))
    return block, gains


def _amplitudes(x: np.ndarray, label: str, gain: float, fade: np.ndarray) -> np.ndarray:
    """One file's filtered noise x as an amplitude vector in (-1, 1]. x must
    be contiguous: numpy does not promise np.std the same summation order on
    a strided view."""
    x = x / max(float(np.std(x)), 1e-12)
    x = x * gain * fade
    if label == "spoof":
        x[np.abs(x) < SPOOF_GATE] = 0.0
    return np.clip(x, -0.999, 0.999)


def make_toy_corpus(
    out_dir,
    seed: int = 0,
    files_per_class: int = 50,
    sample_rate: int = 8000,
    duration_s: float = 0.5,
    run_seed: int = 7,
) -> Path:
    """Generate the corpus; returns the manifest path.

    Layout: out_dir/audio/<subset>/<label>/<nnn>.wav plus manifest.csv
    and config.json at out_dir's top level.
    """
    # every argument is checked before the first folder is made
    if not isinstance(out_dir, (str, os.PathLike)):
        raise InputError(f"out_dir must be a path; got {out_dir!r}")
    seed, run_seed = typed(seed, "int", "seed"), typed(run_seed, "int", "run_seed")
    files_per_class = typed(files_per_class, "int", "files_per_class")
    sample_rate = typed(sample_rate, "int", "sample_rate")
    duration_s = typed(duration_s, "float", "duration_s")
    if (seed < 0 or files_per_class < 2 or not 0 < sample_rate <= MAX_SAMPLE_RATE
            or not 0 < duration_s < math.inf):
        raise InputError("seed must be non-negative, files_per_class at least 2, "
                         f"sample_rate in 1..{MAX_SAMPLE_RATE} and duration_s finite and positive")
    out_dir = Path(out_dir)
    num_samples = int(round(duration_s * sample_rate))
    edge = int(round(0.01 * sample_rate))
    if num_samples < max(edge, 1):
        raise InputError(f"duration gives {num_samples} samples; a file needs at least one "
                         f"and the {edge}-sample fade")
    files = [(subset, label, i) for subset in ("train", "test")
             for label in ("genuine", "spoof") for i in range(files_per_class)]
    num_blocks = -(-len(files) // max(1, BLOCK_BYTES // (8 * num_samples)))
    rng = np.random.default_rng(seed)
    fade = _fade(num_samples, edge)
    rows = []
    for b in range(num_blocks):  # an even split: blocks differ by at most one file
        chunk = files[b * len(files) // num_blocks:(b + 1) * len(files) // num_blocks]
        block, gains = _filtered_block(rng, [label for _, label, _ in chunk], num_samples)
        for j, (subset, label, i) in enumerate(chunk):
            amps = _amplitudes(block[:, j].copy(), label, gains[j], fade)
            w = Waveform(samples=amp_to_index(amps), sample_rate=sample_rate)
            rel = Path("audio") / subset / label / f"{i:03d}.wav"
            (out_dir / rel).parent.mkdir(parents=True, exist_ok=True)
            write_wav(out_dir / rel, w)
            rows.append(f"{rel.as_posix()},{label},{subset}")
        del block  # freed before the next block is allocated
    manifest_path = out_dir / "manifest.csv"
    manifest_path.write_text(
        "path,label,subset\n" + "\n".join(rows) + "\n", encoding="ascii"
    )
    config = {"seed": run_seed, "gmm_components": 4, "em_iters": 5}
    (out_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="ascii")
    return manifest_path
