"""Command-line front end.

Every subcommand is a thin adapter over one pipeline module; no numeric
logic lives here. Errors exit with a stable per-kind code and a one-line
`error: <Kind>: <message>` on stderr:

    2  usage error (bad flag or subcommand)
    3  missing or unreadable file
    4  malformed file format (a payload of the wrong size included)
    5  invalid input data
    6  invalid configuration
    7  resource limit exceeded
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigError, ToolError
from .experiment import SUBSETS, DatasetManifest, RunConfig, load_run_setup, run_matrix
from .features import LfccConfig, get_extractor, load_features, save_features, stack_features
from .genuinize import DEFAULT_EXTRA_BITS, MODES, GenuinizeParams, genuinize, reference_pool
from .gmm import (
    DEFAULT_COMPONENTS,
    DEFAULT_ITERS,
    LABELS,
    PROVENANCES,
    ScoreSet,
    Trial,
    compute_eer,
    load_gmm,
    load_scores,
    save_gmm,
    save_scores,
    score_trial,
    train_gmm,
)
from .pmf import KEEPS, cdf_from_pmf, estimate_pmf, load_pmf, save_pmf, tv_distance
from .synth import make_toy_corpus
from .vad import DEFAULT_ALPHA, VadConfig, energy_vad, format_runs
from .waveform import read_wav, write_wav


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text}")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_lfcc_flags(sub) -> None:
    defaults = LfccConfig()
    sub.add_argument("--feature", default="lfcc", help="feature extractor id")
    sub.add_argument("--frame-ms", type=float, default=defaults.frame_len_ms)
    sub.add_argument("--hop-ms", type=float, default=defaults.frame_hop_ms)
    sub.add_argument("--fft-size", type=_positive_int, default=defaults.fft_size)
    sub.add_argument("--num-filters", type=_positive_int, default=defaults.num_filters)
    sub.add_argument("--num-ceps", type=_positive_int, default=defaults.num_ceps)
    sub.add_argument("--delta-window", type=_positive_int, default=defaults.delta_window)
    sub.add_argument("--no-energy", action="store_true", help="drop the log-energy coefficient")


def _lfcc_config(args) -> LfccConfig:
    return LfccConfig(
        frame_len_ms=args.frame_ms,
        frame_hop_ms=args.hop_ms,
        fft_size=args.fft_size,
        num_filters=args.num_filters,
        num_ceps=args.num_ceps,
        include_energy=not args.no_energy,
        delta_window=args.delta_window,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavespoof",
        description="Waveform genuinization and anti-spoofing countermeasure toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("estimate-pmf", help="estimate an amplitude PMF from WAV files")
    sub.add_argument("--out", required=True, help="output path (.csv or binary)")
    sub.add_argument("--keep", choices=KEEPS, default="all")
    sub.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                     help="VAD energy threshold factor")
    sub.add_argument("inputs", nargs="+", help="WAV files")

    sub = commands.add_parser("genuinize", help="quantile-match WAV amplitudes to a target PMF")
    sub.add_argument("--mode", choices=MODES, required=True)
    sub.add_argument("--target", help="target PMF file (basic and perturbed modes)")
    sub.add_argument("--pool", nargs="+", help="reference WAVs (random mode, single-file form)")
    sub.add_argument("--pool-selector", default=RunConfig.cm_pmf_source,
                     help="manifest selector for the random-mode pool (batch form)")
    sub.add_argument("--d-bits", type=_nonneg_int, default=DEFAULT_EXTRA_BITS,
                     help="dither sub-level bits")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ordinal", type=_nonneg_int, default=0,
                     help="file ordinal for stream derivation (single-file form)")
    sub.add_argument("--manifest", help="batch form: manifest CSV of files to process")
    sub.add_argument("--out-dir", help="batch form: root of the mirror output tree")
    sub.add_argument("--subset", choices=SUBSETS, help="batch form: only this subset")
    sub.add_argument("--label", choices=LABELS, help="batch form: only this label")
    sub.add_argument("paths", nargs="*", help="single-file form: input WAV, output WAV")

    sub = commands.add_parser("vad", help="run the energy voice-activity detector")
    sub.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sub.add_argument("--out", help="write run-length text here instead of stdout")
    sub.add_argument("input", help="WAV file")

    sub = commands.add_parser("extract-features", help="compute frame features from a WAV file")
    _add_lfcc_flags(sub)
    sub.add_argument("--out", required=True, help="feature cache output path")
    sub.add_argument("input", help="WAV file")

    sub = commands.add_parser("train-gmm", help="fit a diagonal-covariance GMM to features")
    sub.add_argument("--components", type=_positive_int, default=DEFAULT_COMPONENTS)
    sub.add_argument("--iters", type=_positive_int, default=DEFAULT_ITERS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--provenance", choices=PROVENANCES, default="O",
                     help="training-material treatment tag stored in the model")
    sub.add_argument("--out", required=True, help="model output path")
    sub.add_argument("inputs", nargs="+", help="feature cache files")

    sub = commands.add_parser("score", help="log-likelihood-ratio scores for trial files")
    _add_lfcc_flags(sub)
    sub.add_argument("--genuine-model", required=True)
    sub.add_argument("--spoof-model", required=True)
    sub.add_argument("--out", required=True, help="scores CSV output path")
    sub.add_argument("--manifest", help="score manifest rows instead of listed WAVs")
    sub.add_argument("--subset", choices=(*SUBSETS, "all"), default="test",
                     help="manifest rows to score")
    sub.add_argument("--label", choices=LABELS, help="label for bare WAV inputs")
    sub.add_argument("inputs", nargs="*", help="WAV files (when not using --manifest)")

    sub = commands.add_parser("eer", help="equal error rate of a scores CSV")
    sub.add_argument("scores", help="scores CSV")

    sub = commands.add_parser("pmf-distance", help="total-variation distance of two PMF files")
    sub.add_argument("first")
    sub.add_argument("second")

    sub = commands.add_parser("run-matrix", help="run the attacker/countermeasure scenario matrix")
    sub.add_argument("--manifest", required=True, help="dataset manifest CSV")
    sub.add_argument("--config", help="run configuration JSON")
    sub.add_argument("--seed", type=int, help="run seed (default: the config's)")
    sub.add_argument("--cache-dir", help="scenario result cache directory")
    sub.add_argument("--out", required=True, help="results CSV output path")
    sub.add_argument("--workers", type=_positive_int, default=None)
    sub.add_argument("--quiet", action="store_true", help="suppress per-scenario progress")

    sub = commands.add_parser("make-corpus", help="generate the bundled synthetic toy corpus")
    sub.add_argument("--out", required=True, help="corpus output directory")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--files-per-class", type=_positive_int, default=50)
    sub.add_argument("--sample-rate", type=_positive_int, default=8000)
    sub.add_argument("--duration", type=float, default=0.5, help="seconds per file")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


# -- subcommand bodies ------------------------------------------------------


def _read_masked(paths, keep: str, alpha: float):
    waveforms = [read_wav(p) for p in paths]
    if keep == "all":
        return waveforms, None
    cfg = VadConfig(alpha=alpha)
    return waveforms, [energy_vad(w, cfg) for w in waveforms]


def _cmd_estimate_pmf(args) -> int:
    waveforms, masks = _read_masked(args.inputs, args.keep, args.alpha)
    pmf = estimate_pmf(waveforms, masks=masks, keep=args.keep)
    save_pmf(args.out, pmf)
    return 0


def _references(args, pool_paths) -> tuple:
    """Reference set: the --target CDF (basic, perturbed) or one CDF per
    pool file (random)."""
    if args.mode == "random":
        if not pool_paths:
            raise ConfigError("--mode random needs reference WAVs: --pool, or in the batch "
                              f"form manifest rows matching --pool-selector {args.pool_selector}")
        return reference_pool(read_wav(p) for p in pool_paths)
    if args.target is None:
        raise ConfigError(f"--mode {args.mode} requires --target")
    return (cdf_from_pmf(load_pmf(args.target)),)


def _mirror_path(manifest: DatasetManifest, entry, out_dir: str, suffix: str) -> Path:
    """A batch row's output: its path relative to the manifest's directory,
    ".." collapsed, under out_dir, with suffix in place of .wav."""
    path = Path(entry.path)
    if path.is_absolute():  # the manifest's root is resolved, so resolve this too
        path = path.parent.resolve() / path.name
    path = Path(os.path.normpath(Path(manifest.root) / path))
    if not path.is_relative_to(manifest.root):
        raise ConfigError(f"manifest row {entry.path!r} lies outside {manifest.root}, "
                          "so it has no place under --out-dir")
    rel = path.relative_to(manifest.root)
    return Path(out_dir) / rel.parent / (rel.name.removesuffix(".wav") + suffix)


def _cmd_genuinize(args) -> int:
    params = GenuinizeParams(mode=args.mode, extra_bits=args.d_bits, seed=args.seed)
    batch = args.manifest is not None
    for flag, value, read in (
        ("--pool", args.pool, args.mode == "random" and not batch),
        ("--target", args.target, args.mode != "random"),
        ("--out-dir", args.out_dir, batch),
        ("--subset", args.subset, batch),
        ("--label", args.label, batch),
    ):
        if value is not None and not read:
            form = "batch" if batch else "single-file"
            raise ConfigError(f"{form} genuinize --mode {args.mode} does not read {flag}")
    if not batch:
        if len(args.paths) != 2:
            raise ConfigError("single-file genuinize takes exactly: input.wav output.wav")
        references = _references(args, args.pool)
        write_wav(args.paths[1], genuinize(read_wav(args.paths[0]), params, references, args.ordinal))
        return 0
    if args.out_dir is None:
        raise ConfigError("batch genuinize requires --out-dir")
    if args.paths:
        raise ConfigError("use either a manifest or an input/output pair, not both")
    manifest = DatasetManifest.from_csv(args.manifest)
    suffix = ".rgen.wav" if args.mode == "random" else ".gen.wav"
    jobs = [
        (ordinal, entry, _mirror_path(manifest, entry, args.out_dir, suffix))
        for ordinal, entry in enumerate(manifest.entries)
        if args.subset in (None, entry.subset) and args.label in (None, entry.label)
    ]
    pool_paths = ([manifest.resolve(e) for _, e in manifest.select(args.pool_selector)]
                  if args.mode == "random" else None)
    references = _references(args, pool_paths)
    for ordinal, entry, dest in jobs:
        out = genuinize(read_wav(manifest.resolve(entry)), params, references, ordinal)
        dest.parent.mkdir(parents=True, exist_ok=True)
        write_wav(dest, out)
    return 0


def _cmd_vad(args) -> int:
    w = read_wav(args.input)
    mask = energy_vad(w, VadConfig(alpha=args.alpha))
    text = format_runs(mask)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _extract(args, path):
    return get_extractor(args.feature)(read_wav(path), _lfcc_config(args))


def _cmd_extract_features(args) -> int:
    save_features(args.out, _extract(args, args.input))
    return 0


def _cmd_train_gmm(args) -> int:
    rows, fingerprint = stack_features([load_features(p) for p in args.inputs])
    model = train_gmm(
        rows,
        k=args.components,
        iters=args.iters,
        seed=args.seed,
        provenance=args.provenance,
        feature_fingerprint=fingerprint,
    )
    save_gmm(args.out, model)
    return 0


def _cmd_score(args) -> int:
    genuine_model = load_gmm(args.genuine_model)
    spoof_model = load_gmm(args.spoof_model)
    jobs = []
    if args.manifest is not None:
        if args.inputs:
            raise ConfigError("use either --manifest or listed WAVs, not both")
        manifest = DatasetManifest.from_csv(args.manifest)
        for entry in manifest.entries:
            if args.subset != "all" and entry.subset != args.subset:
                continue
            jobs.append((entry.path, entry.label, manifest.resolve(entry)))
    else:
        if not args.inputs:
            raise ConfigError("score needs WAV inputs or --manifest")
        if args.label is None:
            raise ConfigError("scoring bare WAVs requires --label")
        jobs = [(str(p), args.label, p) for p in args.inputs]
    trials = []
    for file_id, label, path in jobs:
        features = _extract(args, path)
        trials.append(Trial(file_id=file_id, label=label,
                            score=score_trial(genuine_model, spoof_model, features)))
    save_scores(args.out, ScoreSet(trials=tuple(trials)))
    return 0


def _cmd_eer(args) -> int:
    value = compute_eer(load_scores(args.scores))
    sys.stdout.write(f"EER={value:.6f}\n")
    return 0


def _cmd_pmf_distance(args) -> int:
    tv = tv_distance(load_pmf(args.first), load_pmf(args.second))
    sys.stdout.write(f"TV={tv:.6f}\n")
    return 0


def _cmd_run_matrix(args) -> int:
    manifest, config = load_run_setup(
        args.manifest, args.config, seed=args.seed, workers=args.workers
    )
    progress = None
    if not args.quiet:
        def progress(result):
            spec = result.spec
            outcome = f"failed: {result.error}" if result.error else f"eer={result.eer:.4f}"
            sys.stderr.write(
                f"[{spec.feature}] {spec.h_train}{spec.s_train} "
                f"attacker={spec.attacker_action} cm={spec.cm_action} {outcome}\n"
            )
    run_matrix(manifest, config, cache_dir=args.cache_dir, out_csv=args.out, progress=progress)
    return 0


def _cmd_make_corpus(args) -> int:
    manifest = make_toy_corpus(
        args.out,
        seed=args.seed,
        files_per_class=args.files_per_class,
        sample_rate=args.sample_rate,
        duration_s=args.duration,
    )
    sys.stdout.write(f"{manifest}\n")
    return 0


_DISPATCH = {
    "estimate-pmf": _cmd_estimate_pmf,
    "genuinize": _cmd_genuinize,
    "vad": _cmd_vad,
    "extract-features": _cmd_extract_features,
    "train-gmm": _cmd_train_gmm,
    "score": _cmd_score,
    "eer": _cmd_eer,
    "pmf-distance": _cmd_pmf_distance,
    "run-matrix": _cmd_run_matrix,
    "make-corpus": _cmd_make_corpus,
}


def execute(args: argparse.Namespace) -> int:
    return _DISPATCH[args.command](args)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return execute(args)
    except ToolError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
