"""Command-line front end.

Every subcommand is a thin adapter over one pipeline module; no numeric
logic or range rule lives here, so an out-of-range flag value exits with
the code of the owner it reaches, as it does from a Python caller. Errors
exit with a stable per-kind code and one `error: <Kind>: <message>` line on
stderr:

    2  usage error (a flag, subcommand or value that does not parse)
    3  missing or unreadable file
    4  malformed file format (a payload of the wrong size included)
    5  invalid input data
    6  invalid configuration
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, ToolError, check_out_path, reading
from .experiment import (
    SUBSETS, DatasetManifest, RunConfig, load_run_setup, parse_selector, run_matrix,
)
from .features import LfccConfig, get_extractor, load_features, save_features, stack_features
from .genuinize import (DEFAULT_EXTRA_BITS, MODES, GenuinizeParams, check_ordinal, genuinize,
                        reference_pool)
from .gmm import (
    DEFAULT_COMPONENTS,
    DEFAULT_ITERS,
    LABELS,
    PROVENANCES,
    Trial,
    check_budget,
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


def _add_lfcc_flags(sub) -> None:
    defaults = LfccConfig()
    sub.add_argument("--feature", default="lfcc", help="feature extractor id")
    sub.add_argument("--frame-ms", type=float, default=defaults.frame_len_ms)
    sub.add_argument("--hop-ms", type=float, default=defaults.frame_hop_ms)
    sub.add_argument("--num-filters", type=int, default=defaults.num_filters)
    sub.add_argument("--num-ceps", type=int, default=defaults.num_ceps)
    sub.add_argument("--delta-window", type=int, default=defaults.delta_window)
    sub.add_argument("--no-energy", action="store_true", help="drop the log-energy coefficient")


def _lfcc_config(args) -> LfccConfig:
    return LfccConfig(
        frame_len_ms=args.frame_ms,
        frame_hop_ms=args.hop_ms,
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
    sub.add_argument("--out", required=True,
                     help="output path: CSV when it ends in .csv, else GPMF2 binary")
    sub.add_argument("--keep", choices=KEEPS, default="all")
    sub.add_argument("--alpha", type=float,
                     help="VAD energy threshold factor, read by --keep speech and nonspeech "
                          f"(default {DEFAULT_ALPHA})")
    sub.add_argument("inputs", nargs="+", help="WAV files")

    sub = commands.add_parser("genuinize", help="quantile-match WAV amplitudes to a target PMF")
    sub.add_argument("--mode", choices=MODES, required=True)
    sub.add_argument("--target", help="target PMF file (basic and perturbed modes)")
    sub.add_argument("--pool", nargs="+", help="reference WAVs (random mode, single-file form)")
    sub.add_argument("--pool-selector",
                     help="manifest selector for the random-mode pool (batch form; default "
                          f"{RunConfig.cm_pmf_source})")
    sub.add_argument("--d-bits", type=int, default=DEFAULT_EXTRA_BITS,
                     help="dither sub-level bits")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ordinal", type=int,
                     help="file ordinal for stream derivation (single-file form; default 0)")
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
    sub.add_argument("--components", type=int, default=DEFAULT_COMPONENTS)
    sub.add_argument("--iters", type=int, default=DEFAULT_ITERS)
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
    sub.add_argument("--subset", choices=(*SUBSETS, "all"),
                     help="manifest rows to score (default test)")
    sub.add_argument("--label", choices=LABELS, help="label for listed WAVs")
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
    sub.add_argument("--workers", type=int)
    sub.add_argument("--quiet", action="store_true", help="suppress per-scenario progress")

    sub = commands.add_parser("make-corpus", help="generate the bundled synthetic toy corpus")
    sub.add_argument("--out", required=True, help="corpus output directory")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--files-per-class", type=int, default=50)
    sub.add_argument("--sample-rate", type=int, default=8000)
    sub.add_argument("--duration", type=float, default=0.5, help="seconds per file")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


# -- subcommand bodies ------------------------------------------------------


def _refuse_unread(form: str, flags) -> None:
    """ConfigError for the first (flag, value, read) given a value form does not read."""
    for flag, value, read in flags:
        if value is not None and not read:
            raise ConfigError(f"{form} does not read {flag}")


def _cmd_estimate_pmf(args) -> int:
    _refuse_unread(f"estimate-pmf --keep {args.keep}",
                   (("--alpha", args.alpha, args.keep != "all"),))
    cfg = VadConfig() if args.alpha is None else VadConfig(alpha=args.alpha)
    check_out_path(args.out, "PMF file")
    waveforms = [read_wav(p) for p in args.inputs]
    masks = None if args.keep == "all" else [energy_vad(w, cfg) for w in waveforms]
    save_pmf(args.out, estimate_pmf(waveforms, masks=masks, keep=args.keep))
    return 0


def _references(args, pool_paths, source="--pool") -> tuple:
    """Reference set: the --target CDF (basic, perturbed) or one CDF per
    pool file (random), the pool_paths that source names."""
    if args.mode == "random":
        if not pool_paths:
            raise ConfigError(f"--mode random needs reference WAVs: {source}")
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
    ordinal = check_ordinal(args.ordinal or 0)
    batch = args.manifest is not None
    _refuse_unread(f"{'batch' if batch else 'single-file'} genuinize --mode {args.mode}", (
        ("--pool", args.pool, args.mode == "random" and not batch),
        ("--target", args.target, args.mode != "random"),
        ("--out-dir", args.out_dir, batch),
        ("--subset", args.subset, batch),
        ("--label", args.label, batch),
        ("--ordinal", args.ordinal, not batch),
        ("--pool-selector", args.pool_selector, batch and args.mode == "random"),
    ))
    if not batch:
        if len(args.paths) != 2:
            raise ConfigError("single-file genuinize takes exactly: input.wav output.wav")
        check_out_path(args.paths[1], "output WAV")
        references = _references(args, args.pool)
        write_wav(args.paths[1],
                  genuinize(read_wav(args.paths[0]), params, references, ordinal))
        return 0
    if args.out_dir is None:
        raise ConfigError("batch genuinize requires --out-dir")
    if args.paths:
        raise ConfigError("use either a manifest or an input/output pair, not both")
    nearest = next(p for p in (Path(args.out_dir), *Path(args.out_dir).parents) if p.exists())
    if not nearest.is_dir():  # a missing tree is made as files are written
        raise NotADirectoryError(f"--out-dir needs a directory, not the file {nearest}")
    manifest = DatasetManifest.from_csv(args.manifest)
    suffix = ".rgen.wav" if args.mode == "random" else ".gen.wav"
    jobs = [(ordinal, entry, _mirror_path(manifest, entry, args.out_dir, suffix))
            for ordinal, entry in manifest.select(args.subset, args.label)]
    selector = RunConfig.cm_pmf_source if args.pool_selector is None else args.pool_selector
    pool = manifest.select(*parse_selector(selector)) if args.mode == "random" else ()
    references = _references(args, [manifest.resolve(entry) for _, entry in pool],
                             f"manifest rows matching --pool-selector {selector}")
    for ordinal, entry, dest in jobs:
        out = genuinize(read_wav(manifest.resolve(entry)), params, references, ordinal)
        dest.parent.mkdir(parents=True, exist_ok=True)
        write_wav(dest, out)
    return 0


def _cmd_vad(args) -> int:
    cfg = VadConfig(alpha=args.alpha)
    if args.out:
        check_out_path(args.out, "run-length text")
    text = format_runs(energy_vad(read_wav(args.input), cfg))
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _extractor(args):
    """path -> its WAV's features; extractor and config are checked before any read."""
    extract, cfg = get_extractor(args.feature), _lfcc_config(args)
    return lambda path: extract(read_wav(path), cfg)


def _cmd_extract_features(args) -> int:
    extract = _extractor(args)
    check_out_path(args.out, "feature file")
    save_features(args.out, extract(args.input))
    return 0


def _cmd_train_gmm(args) -> int:
    check_out_path(args.out, "model")
    check_budget(args.components, args.iters)
    model = train_gmm(
        stack_features([load_features(p) for p in args.inputs]),
        k=args.components,
        iters=args.iters,
        seed=args.seed,
        provenance=args.provenance,
    )
    save_gmm(args.out, model)
    return 0


def _cmd_score(args) -> int:
    listed = args.manifest is None
    _refuse_unread("score of listed WAVs" if listed else "score --manifest", (
        ("--subset", args.subset, not listed),
        ("--label", args.label, listed),
        ("listed WAVs", args.inputs or None, listed),
    ))
    if listed and not (args.inputs and args.label):
        raise ConfigError("score needs --manifest, or WAV inputs and their --label")
    extract = _extractor(args)
    check_out_path(args.out, "scores CSV")
    genuine_model = load_gmm(args.genuine_model)
    spoof_model = load_gmm(args.spoof_model)
    # each (id, label) meets Trial's rule, with a placeholder score, before any file is read
    if listed:
        jobs = [(Trial(file_id=str(p), label=args.label, score=0.0), p) for p in args.inputs]
    else:
        manifest = DatasetManifest.from_csv(args.manifest)
        subset = args.subset or "test"
        jobs = [(Trial(file_id=entry.path, label=entry.label, score=0.0), manifest.resolve(entry))
                for _, entry in manifest.select(None if subset == "all" else subset)]
    trials = tuple(replace(trial, score=score_trial(genuine_model, spoof_model, extract(path)))
                   for trial, path in jobs)
    save_scores(args.out, trials)
    return 0


def _cmd_eer(args) -> int:
    trials = load_scores(args.scores)
    with reading(args.scores):
        value = compute_eer(trials)
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


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ToolError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
