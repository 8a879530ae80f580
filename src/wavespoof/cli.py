"""Command-line front end.

Every subcommand is a thin adapter over one pipeline module; no numeric
logic lives here. Errors exit with a stable per-kind code and a one-line
`error: <Kind>: <message>` on stderr:

    2  usage error (bad flag or subcommand)
    3  I/O failure (missing file, truncated payload)
    4  malformed file format
    5  invalid input data
    6  invalid configuration
    7  resource limit exceeded
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, InputError, ToolError
from .experiment import (
    DatasetManifest,
    load_run_setup,
    read_manifest_csv,
    run_matrix,
)
from .features import LfccConfig, get_extractor, load_features, save_features, stack_features
from .genuinize import GenuinizeParams, genuinize
from .gmm import (
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
from .pmf import cdf_from_pmf, estimate_pmf, load_pmf, save_pmf, tv_distance
from .synth import make_toy_corpus
from .vad import VadConfig, energy_vad, format_runs
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
    sub.add_argument("--feature", default="lfcc", help="feature extractor id")
    sub.add_argument("--frame-ms", type=float, default=20.0)
    sub.add_argument("--hop-ms", type=float, default=10.0)
    sub.add_argument("--fft-size", type=_positive_int, default=512)
    sub.add_argument("--num-filters", type=_positive_int, default=20)
    sub.add_argument("--num-ceps", type=_positive_int, default=19)
    sub.add_argument("--delta-window", type=_positive_int, default=2)
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
    sub.add_argument("--keep", choices=("all", "speech", "nonspeech"), default="all")
    sub.add_argument("--alpha", type=float, default=0.03, help="VAD energy threshold factor")
    sub.add_argument("inputs", nargs="+", help="WAV files")

    sub = commands.add_parser("genuinize", help="quantile-match WAV amplitudes to a target PMF")
    sub.add_argument("--mode", choices=("basic", "perturbed", "random"), required=True)
    sub.add_argument("--target", help="target PMF file (basic and perturbed modes)")
    sub.add_argument("--pool", nargs="+", help="reference WAVs (random mode, single-file form)")
    sub.add_argument("--pool-selector", default="train:genuine",
                     help="manifest selector for the random-mode pool (batch form)")
    sub.add_argument("--d-bits", type=_nonneg_int, default=5, help="dither sub-level bits")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ordinal", type=_nonneg_int, default=0,
                     help="file ordinal for stream derivation (single-file form)")
    sub.add_argument("--manifest", help="batch form: manifest CSV of files to process")
    sub.add_argument("--out-dir", help="batch form: root of the mirror output tree")
    sub.add_argument("--subset", choices=("train", "test"), help="batch form: only this subset")
    sub.add_argument("--label", choices=("genuine", "spoof"), help="batch form: only this label")
    sub.add_argument("paths", nargs="*", help="single-file form: input WAV, output WAV")

    sub = commands.add_parser("vad", help="run the energy voice-activity detector")
    sub.add_argument("--alpha", type=float, default=0.03)
    sub.add_argument("--out", help="write run-length text here instead of stdout")
    sub.add_argument("input", help="WAV file")

    sub = commands.add_parser("extract-features", help="compute frame features from a WAV file")
    _add_lfcc_flags(sub)
    sub.add_argument("--out", required=True, help="feature cache output path")
    sub.add_argument("input", help="WAV file")

    sub = commands.add_parser("train-gmm", help="fit a diagonal-covariance GMM to features")
    sub.add_argument("--components", type=_positive_int, default=512)
    sub.add_argument("--iters", type=_positive_int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--provenance", choices=("O", "G", "R"), default="O",
                     help="training-material treatment tag stored in the model")
    sub.add_argument("--out", required=True, help="model output path")
    sub.add_argument("inputs", nargs="+", help="feature cache files")

    sub = commands.add_parser("score", help="log-likelihood-ratio scores for trial files")
    _add_lfcc_flags(sub)
    sub.add_argument("--genuine-model", required=True)
    sub.add_argument("--spoof-model", required=True)
    sub.add_argument("--out", required=True, help="scores CSV output path")
    sub.add_argument("--manifest", help="score manifest rows instead of listed WAVs")
    sub.add_argument("--subset", choices=("train", "test", "all"), default="test",
                     help="manifest rows to score")
    sub.add_argument("--label", choices=("genuine", "spoof"),
                     help="label for bare WAV inputs")
    sub.add_argument("inputs", nargs="*", help="WAV files (when not using --manifest)")

    sub = commands.add_parser("eer", help="equal error rate of a scores CSV")
    sub.add_argument("scores", help="scores CSV")

    sub = commands.add_parser("pmf-distance", help="total-variation distance of two PMF files")
    sub.add_argument("first")
    sub.add_argument("second")

    sub = commands.add_parser("run-matrix", help="run the attacker/countermeasure scenario matrix")
    sub.add_argument("--manifest", required=True, help="dataset manifest CSV")
    sub.add_argument("--config", help="run configuration JSON")
    sub.add_argument("--seed", type=int, required=True, help="run seed (mandatory)")
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
    masks = [
        energy_vad(w, VadConfig.for_rate(w.sample_rate, alpha=alpha)) for w in waveforms
    ]
    return waveforms, masks


def _cmd_estimate_pmf(args) -> int:
    waveforms, masks = _read_masked(args.inputs, args.keep, args.alpha)
    pmf = estimate_pmf(waveforms, masks=masks, keep=args.keep)
    save_pmf(args.out, pmf)
    return 0


def _target_and_pool(args, pool_paths, missing_pool: str):
    """Target CDF (basic, perturbed) or reference CDF pool (random)."""
    if args.mode != "random":
        if args.target is None:
            raise ConfigError(f"--mode {args.mode} requires --target")
        return cdf_from_pmf(load_pmf(args.target)), None
    if not pool_paths:
        raise ConfigError(missing_pool)
    return None, [cdf_from_pmf(estimate_pmf([read_wav(p)])) for p in pool_paths]


def _cmd_genuinize(args) -> int:
    params = GenuinizeParams(mode=args.mode, extra_bits=args.d_bits, seed=args.seed)
    batch = args.manifest is not None
    if batch:
        if args.out_dir is None:
            raise ConfigError("batch genuinize requires --out-dir")
        if args.paths:
            raise ConfigError("use either a manifest or an input/output pair, not both")
        entries = read_manifest_csv(args.manifest)
        manifest = DatasetManifest(entries=entries, root=str(Path(args.manifest).resolve().parent))
        pool_paths = None
        if args.mode == "random":
            pool_paths = [manifest.resolve(e) for _, e in manifest.select(args.pool_selector)]
        target, pool = _target_and_pool(
            args, pool_paths, f"selector {args.pool_selector!r} matches no manifest rows"
        )
        suffix = ".rgen.wav" if args.mode == "random" else ".gen.wav"
        for ordinal, entry in enumerate(manifest.entries):
            if args.subset and entry.subset != args.subset:
                continue
            if args.label and entry.label != args.label:
                continue
            src = read_wav(manifest.resolve(entry))
            out = genuinize(src, params, target=target, pool=pool, ordinal=ordinal)
            rel = Path(entry.path)
            name = rel.name[: -len(".wav")] + suffix if rel.name.endswith(".wav") else rel.name + suffix
            dest = Path(args.out_dir) / rel.parent / name
            dest.parent.mkdir(parents=True, exist_ok=True)
            write_wav(dest, out)
        return 0
    if len(args.paths) != 2:
        raise ConfigError("single-file genuinize takes exactly: input.wav output.wav")
    src = read_wav(args.paths[0])
    target, pool = _target_and_pool(args, args.pool, "--mode random requires --pool")
    write_wav(args.paths[1], genuinize(src, params, target=target, pool=pool, ordinal=args.ordinal))
    return 0


def _cmd_vad(args) -> int:
    w = read_wav(args.input)
    mask = energy_vad(w, VadConfig.for_rate(w.sample_rate, alpha=args.alpha))
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
        entries = read_manifest_csv(args.manifest)
        manifest = DatasetManifest(entries=entries, root=str(Path(args.manifest).resolve().parent))
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
    recorded = {m.feature_fingerprint for m in (genuine_model, spoof_model)} - {""}
    trials = []
    for file_id, label, path in jobs:
        features = _extract(args, path)
        if recorded and recorded != {features.meta}:
            raise ConfigError(
                f"models were trained on features {sorted(recorded)}, "
                f"but this extraction gives {features.meta or '-'}"
            )
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
            outcome = "failed" if result.error else f"eer={result.eer:.4f}"
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
