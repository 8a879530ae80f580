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


def _ar1(innovations: np.ndarray, pole: float) -> np.ndarray:
    """The first-order all-pole filter y[n] = x[n] + pole * y[n-1] from rest,
    one float64 step per sample."""
    out, y = [], 0.0
    for x in innovations.tolist():
        y = x + pole * y
        out.append(y)
    return np.array(out, dtype=np.float64)


def _fade(n: int, edge: int) -> np.ndarray:
    env = np.ones(n)
    if edge > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
        env[:edge] = ramp
        env[n - edge:] = ramp[::-1]
    return env


def synth_file(rng: np.random.Generator, label: str, num_samples: int, edge: int) -> np.ndarray:
    """One file's amplitude vector in (-1, 1]."""
    if label == "genuine":
        innovations = rng.laplace(0.0, 1.0, size=num_samples)
        x = _ar1(innovations, GENUINE_POLE)
    else:
        innovations = rng.normal(0.0, 1.0, size=num_samples)
        x = _ar1(innovations, SPOOF_POLE)
    x = x / max(float(np.std(x)), 1e-12)
    gain = rng.uniform(0.12, 0.35)
    x = x * gain * _fade(num_samples, edge)
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
    if num_samples < edge:
        raise InputError(
            f"duration gives {num_samples} samples, fewer than the {edge}-sample fade"
        )
    rng = np.random.default_rng(seed)
    rows = []
    for subset in ("train", "test"):
        for label in ("genuine", "spoof"):
            folder = out_dir / "audio" / subset / label
            folder.mkdir(parents=True, exist_ok=True)
            for i in range(files_per_class):
                amps = synth_file(rng, label, num_samples, edge)
                w = Waveform(samples=amp_to_index(amps), sample_rate=sample_rate)
                rel = Path("audio") / subset / label / f"{i:03d}.wav"
                write_wav(out_dir / rel, w)
                rows.append(f"{rel.as_posix()},{label},{subset}")
    manifest_path = out_dir / "manifest.csv"
    manifest_path.write_text(
        "path,label,subset\n" + "\n".join(rows) + "\n", encoding="ascii"
    )
    config = {"seed": run_seed, "gmm_components": 4, "em_iters": 5}
    (out_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="ascii")
    return manifest_path
