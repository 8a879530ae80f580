"""End-to-end command-line checks, run in process via main(argv)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavespoof
from wavespoof import (
    FeatureMatrix,
    GenuinizeParams,
    LfccConfig,
    RunConfig,
    ToolError,
    cdf_from_pmf,
    get_extractor,
    load_features,
    load_gmm,
    load_pmf,
    load_run_setup,
    load_scores,
    make_toy_corpus,
    read_wav,
    register_extractor,
    score_trial,
    train_gmm,
)
from wavespoof.cli import _lfcc_config, build_parser, main, parse_args
from wavespoof.experiment import SUBSETS
from wavespoof.features import _EXTRACTORS
from wavespoof.genuinize import DEFAULT_EXTRA_BITS, MODES, genuinize, reference_pool
from wavespoof.gmm import DEFAULT_COMPONENTS, DEFAULT_ITERS, LABELS, PROVENANCES
from wavespoof.pmf import KEEPS
from wavespoof.vad import DEFAULT_ALPHA


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    code = main(["make-corpus", "--out", str(root), "--seed", "1",
                 "--files-per-class", "4", "--duration", "0.3"])
    assert code == 0
    return root


def wavs(corpus, subset, label):
    return sorted(str(p) for p in (corpus / "audio" / subset / label).glob("*.wav"))


def test_make_corpus_layout(corpus):
    manifest = (corpus / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "path,label,subset"
    assert len(manifest) == 1 + 16
    assert (corpus / "config.json").exists()
    assert len(wavs(corpus, "train", "genuine")) == 4


def test_estimate_pmf_and_distance(corpus, tmp_path, capsys):
    out_a = tmp_path / "train_genuine.csv"
    out_b = tmp_path / "test_genuine.gpmf"
    assert main(["estimate-pmf", "--out", str(out_a)] + wavs(corpus, "train", "genuine")) == 0
    assert main(["estimate-pmf", "--out", str(out_b), "--keep", "speech"]
                + wavs(corpus, "test", "genuine")) == 0
    pmf = load_pmf(out_a)
    assert pmf.mass.size == 65536
    capsys.readouterr()
    assert main(["pmf-distance", str(out_a), str(out_b)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("TV=")
    assert 0.0 <= float(line[3:]) <= 1.0


def test_csv_and_gpmf_targets_genuinize_alike(corpus, tmp_path, capsys):
    # one PMF in either file format: no distance between them, and the same
    # genuinized bytes in every mode that reads a target
    train = wavs(corpus, "train", "genuine")
    csv, gpmf = tmp_path / "t.csv", tmp_path / "t.gpmf"
    for out in (csv, gpmf):
        assert main(["estimate-pmf", "--out", str(out)] + train) == 0
    assert gpmf.read_bytes().startswith(b"GPMF2 65536\n")
    capsys.readouterr()
    assert main(["pmf-distance", str(csv), str(gpmf)]) == 0
    assert capsys.readouterr().out == "TV=0.000000\n"
    src = wavs(corpus, "test", "spoof")[0]
    for mode in ("basic", "perturbed"):
        outs = [tmp_path / f"{mode}_{target.suffix[1:]}.wav" for target in (csv, gpmf)]
        for target, out in zip((csv, gpmf), outs):
            assert main(["genuinize", "--mode", mode, "--target", str(target),
                         "--seed", "9", src, str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
    # the v1 container (magic, version byte, level-bits byte, doubles) is not read
    v1 = tmp_path / "v1.gpmf"
    v1.write_bytes(b"GPMF\x01\x01" + bytes(16))
    assert main(["pmf-distance", str(v1), str(v1)]) == 4
    assert capsys.readouterr().err.startswith(f"error: FormatError: {v1}: bad GPMF2 header")


def test_genuinize_single_and_batch(corpus, tmp_path):
    target = tmp_path / "target.csv"
    assert main(["estimate-pmf", "--out", str(target)] + wavs(corpus, "train", "genuine")) == 0

    src = wavs(corpus, "test", "spoof")[0]
    out = tmp_path / "g.wav"
    assert main(["genuinize", "--mode", "perturbed", "--target", str(target),
                 "--seed", "9", str(src), str(out)]) == 0
    assert read_wav(out).samples.shape == read_wav(src).samples.shape

    out_rand = tmp_path / "r.wav"
    pool = wavs(corpus, "train", "genuine")[:2]
    assert main(["genuinize", "--mode", "random", "--pool", *pool,
                 "--seed", "9", str(src), str(out_rand)]) == 0

    tree = tmp_path / "tree"
    assert main(["genuinize", "--mode", "perturbed", "--target", str(target),
                 "--manifest", str(corpus / "manifest.csv"), "--out-dir", str(tree),
                 "--subset", "test", "--label", "spoof"]) == 0
    produced = sorted(tree.rglob("*.gen.wav"))
    assert len(produced) == 4
    assert produced[0].parts[-3:-1] == ("test", "spoof")

    assert main(["genuinize", "--mode", "random",
                 "--manifest", str(corpus / "manifest.csv"), "--out-dir", str(tree),
                 "--subset", "test"]) == 0
    assert len(sorted(tree.rglob("*.rgen.wav"))) == 8


def test_batch_genuinize_mirrors_rows_under_out_dir(corpus, tmp_path, capsys):
    # absolute rows and rows through ".." land under --out-dir at their path
    # relative to the manifest's directory; a row outside it is refused
    # before any file is written
    root = tmp_path / "corpus"
    (root / "audio").mkdir(parents=True)
    for label in ("genuine", "spoof"):
        wav = Path(wavs(corpus, "train", label)[0])
        (root / "audio" / f"{label}.wav").write_bytes(wav.read_bytes())
    names = sorted(p.name for p in (root / "audio").iterdir())
    target = tmp_path / "target.csv"
    assert main(["estimate-pmf", "--out", str(target), str(root / "audio" / names[0])]) == 0
    rows = {
        "abs.csv": [str(root / "audio" / names[0]), str(root / "audio" / names[1])],
        "dotdot.csv": [f"../{root.name}/audio/{names[0]}", f"audio/../audio/{names[1]}"],
    }
    for manifest_name, paths in rows.items():
        manifest = root / manifest_name
        manifest.write_text("path,label,subset\n" + "".join(
            f"{path},{label},train\n" for path, label in zip(paths, ("genuine", "spoof"))))
        out_dir = tmp_path / manifest_name
        assert main(["genuinize", "--mode", "perturbed", "--target", str(target),
                     "--manifest", str(manifest), "--out-dir", str(out_dir)]) == 0
        assert sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*.wav")) == [
            f"audio/{name[:-len('.wav')]}.gen.wav" for name in names
        ]
    assert sorted(p.name for p in (root / "audio").iterdir()) == names

    (root / "sub").mkdir()
    outside = root / "sub" / "m.csv"
    for row in (f"../audio/{names[0]}", str(root / "audio" / names[0])):
        outside.write_text(f"path,label,subset\naudio.wav,genuine,train\n{row},spoof,train\n")
        capsys.readouterr()
        assert main(["genuinize", "--mode", "perturbed", "--target", str(target),
                     "--manifest", str(outside), "--out-dir", str(tmp_path / "never")]) == 6
        assert "error: ConfigError:" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()


def test_vad_output(corpus, tmp_path, capsys):
    wav = wavs(corpus, "train", "genuine")[0]
    capsys.readouterr()
    assert main(["vad", wav]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(len(line.split(",")) == 3 for line in lines)
    assert {line.split(",")[2] for line in lines} <= {"speech", "nonspeech"}

    out = tmp_path / "runs.txt"
    assert main(["vad", "--out", str(out), wav]) == 0
    assert out.read_text().strip().splitlines() == lines


def test_feature_model_score_eer_chain(corpus, tmp_path, capsys):
    caches = {}
    for label in ("genuine", "spoof"):
        paths = []
        for i, wav in enumerate(wavs(corpus, "train", label)):
            cache = tmp_path / f"{label}{i}.feat"
            assert main(["extract-features", "--out", str(cache), wav]) == 0
            paths.append(str(cache))
        caches[label] = paths
    mat = load_features(caches["genuine"][0])
    assert mat.frames.shape[1] == 60

    models = {}
    for label in ("genuine", "spoof"):
        model_path = tmp_path / f"{label}.gmm"
        assert main(["train-gmm", "--components", "2", "--iters", "3", "--seed", "4",
                     "--out", str(model_path), *caches[label]]) == 0
        models[label] = str(model_path)
    assert load_gmm(models["genuine"]).means.shape[0] == 2

    scores_csv = tmp_path / "scores.csv"
    assert main(["score", "--genuine-model", models["genuine"], "--spoof-model", models["spoof"],
                 "--out", str(scores_csv), "--manifest", str(corpus / "manifest.csv")]) == 0
    trials = load_scores(scores_csv)
    assert len(trials) == 8
    assert {t.label for t in trials} == {"genuine", "spoof"}

    capsys.readouterr()
    assert main(["eer", str(scores_csv)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("EER=")
    assert 0.0 <= float(line[4:]) <= 100.0


def test_a_meta_that_cannot_be_read_back_is_refused_before_writing(corpus, tmp_path, capsys):
    # a header field holding whitespace would split into two on reading, so
    # the feature file is not made
    register_extractor("spaced", lambda w, cfg: FeatureMatrix(frames=np.ones((2, 3)),
                                                             meta="my feat"))
    try:
        out = tmp_path / "f.feat"
        capsys.readouterr()
        assert main(["extract-features", "--feature", "spaced", "--out", str(out),
                     wavs(corpus, "train", "genuine")[0]]) == 5
        assert capsys.readouterr().err == ("error: InputError: FEAT2 header field 'my feat' "
                                           "must be ASCII without whitespace\n")
        assert not out.exists()
    finally:
        del _EXTRACTORS["spaced"]


def test_score_bare_wavs_need_label(corpus, tmp_path):
    target = tmp_path / "m.gmm"
    cache = tmp_path / "c.feat"
    wav = wavs(corpus, "train", "genuine")[0]
    assert main(["extract-features", "--out", str(cache), wav]) == 0
    assert main(["train-gmm", "--components", "1", "--iters", "1",
                 "--out", str(target), str(cache)]) == 0
    assert main(["score", "--genuine-model", str(target), "--spoof-model", str(target),
                 "--out", str(tmp_path / "s.csv"), wav]) == 6
    assert main(["score", "--label", "genuine",
                 "--genuine-model", str(target), "--spoof-model", str(target),
                 "--out", str(tmp_path / "s.csv"), wav]) == 0


def test_every_scores_csv_that_score_writes_eer_reads(corpus, tmp_path, capsys, monkeypatch):
    # a listed WAV's file id is the path as given, here relative to tmp_path
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "m.gmm"
    cache = tmp_path / "c.feat"
    wav = wavs(corpus, "train", "genuine")[0]
    assert main(["extract-features", "--out", str(cache), wav]) == 0
    assert main(["train-gmm", "--components", "1", "--iters", "1",
                 "--out", str(model), str(cache)]) == 0

    def score(name):
        shutil.copyfile(wav, tmp_path / name)
        out = tmp_path / "s.csv"
        capsys.readouterr()
        code = main(["score", "--label", "genuine", "--genuine-model",
                     str(model), "--spoof-model", str(model), "--out", str(out), name])
        return code, out, capsys.readouterr().err

    code, out, _ = score("é.wav")
    assert code == 0
    assert [t.file_id for t in load_scores(out)] == ["é.wav"]
    out.unlink()
    # a file id that a CSV line could not carry back is refused before writing
    for name in ("a\nb.wav", " lead.wav", os.fsdecode(b"\xff.wav")):
        code, out, err = score(name)
        assert code == 5 and not out.exists(), (name, code)
        assert err.startswith("error: InputError: file id ")


def test_score_checks_every_file_id_before_it_reads_or_scores_a_file(corpus, tmp_path,
                                                                      capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "m.gmm"
    wav = wavs(corpus, "train", "genuine")[0]
    assert main(["extract-features", "--out", "c.feat", wav]) == 0
    assert main(["train-gmm", "--components", "1", "--iters", "1", "--out", str(model),
                 "c.feat"]) == 0
    for name in ("good.wav", " lead.wav"):
        shutil.copyfile(wav, tmp_path / name)
    reads, calls = [], []

    def counting_read_wav(path):
        reads.append(path)
        return read_wav(path)

    def counting_score_trial(*args):
        calls.append(args)
        return score_trial(*args)

    monkeypatch.setattr("wavespoof.cli.read_wav", counting_read_wav)
    monkeypatch.setattr("wavespoof.cli.score_trial", counting_score_trial)
    capsys.readouterr()
    assert main(["score", "--label", "genuine", "--genuine-model", str(model), "--spoof-model",
                 str(model), "--out", "s.csv", "good.wav", "good.wav", " lead.wav"]) == 5
    assert capsys.readouterr().err.startswith("error: InputError: file id ' lead.wav' ")
    assert (reads, calls) == ([], [])
    assert not (tmp_path / "s.csv").exists()


def test_feature_fingerprints_flow_from_caches_to_scoring(corpus, tmp_path, capsys):
    wav = wavs(corpus, "train", "genuine")[0]
    caches = {}
    for name, flags in (("base", []), ("hop", ["--hop-ms", "5"]), ("narrow", ["--no-energy"])):
        caches[name] = str(tmp_path / f"{name}.feat")
        assert main(["extract-features", *flags,
                     "--out", caches[name], wav]) == 0
    train = ["train-gmm", "--components", "1", "--iters", "1"]
    model = str(tmp_path / "m.gmm")
    assert main([*train, "--out", model, caches["base"], caches["base"]]) == 0
    fingerprint = load_gmm(model).feature_fingerprint
    assert fingerprint.startswith("lfcc-")
    assert fingerprint == load_features(caches["base"]).meta

    # mixed fingerprints (same width), then mixed fingerprints and widths
    for other in ("hop", "narrow"):
        capsys.readouterr()
        assert main([*train, "--out", str(tmp_path / "x.gmm"), caches["base"], caches[other]]) == 6
        assert "error: ConfigError:" in capsys.readouterr().err

    score = ["score", "--label", "genuine", "--genuine-model", model, "--spoof-model", model,
             "--out", str(tmp_path / "s.csv")]
    assert main([*score, wav]) == 0
    capsys.readouterr()
    assert main([*score, "--hop-ms", "5", wav]) == 6
    assert "error: ConfigError:" in capsys.readouterr().err


def test_run_matrix_cli(corpus, tmp_path, capsys):
    out = tmp_path / "results.csv"
    cache = tmp_path / "cache"
    capsys.readouterr()
    code = main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(corpus / "config.json"), "--seed", "7",
                 "--cache-dir", str(cache), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 46
    assert lines[0].startswith("feature,h_train,s_train,attacker,cm,")
    assert len([l for l in captured.err.splitlines() if "attacker=" in l]) == 45

    capsys.readouterr()
    assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(corpus / "config.json"), "--seed", "7",
                 "--cache-dir", str(cache), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""

    # without --seed the run takes the config's seed, 7 in the bundled config
    own_seed = tmp_path / "own_seed.csv"
    assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(corpus / "config.json"), "--out", str(own_seed),
                 "--quiet"]) == 0

    def strip_seconds(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert strip_seconds(own_seed) == strip_seconds(out)


def test_run_matrix_progress_names_the_failure(corpus, tmp_path, capsys):
    copy = tmp_path / "corpus"
    shutil.copytree(corpus, copy)
    damaged = Path(wavs(copy, "test", "genuine")[0])
    damaged.write_bytes(b"RIFF\x24\x00\x00")  # 7 bytes: the file ends inside its header
    out = tmp_path / "results.csv"
    capsys.readouterr()
    assert main(["run-matrix", "--manifest", str(copy / "manifest.csv"),
                 "--config", str(copy / "config.json"), "--seed", "7", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if "attacker=" in l]
    assert len(lines) == 45
    assert all(f"failed: FormatError: {damaged}: " in l for l in lines)
    assert all(str(damaged) not in l for l in out.read_text().splitlines())


def test_exit_codes_and_error_format(corpus, tmp_path, capsys):
    # 2: a value, flag or subcommand that does not parse; an out-of-range
    # value is its owner's to reject (test_out_of_range_flags_exit_with_their_owners_code)
    for argv in (["genuinize", "--mode", "perturbed", "--d-bits", "x", "a", "b"],
                 ["genuinize", "--mode", "perturbed", "--no-such-flag", "a", "b"],
                 ["no-such-command"]):
        assert main(argv) == 2, argv

    # 3: input file missing
    capsys.readouterr()
    assert main(["vad", str(tmp_path / "missing.wav")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    # 4: malformed PMF file
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,pmf\n")
    capsys.readouterr()
    assert main(["pmf-distance", str(bad), str(bad)]) == 4
    assert "error: FormatError:" in capsys.readouterr().err

    # 5: semantically invalid input
    wav = wavs(corpus, "train", "genuine")[0]
    capsys.readouterr()
    assert main(["vad", "--alpha", "1.5", wav]) == 5
    assert "error: InputError:" in capsys.readouterr().err

    # 5: a PMF file that holds a NaN, rejected before any output is written
    nan_pmf = tmp_path / "nan.csv"
    nan_pmf.write_text("index,probability\n30000,nan\n30001,1.0\n")
    out_wav = tmp_path / "nan.wav"
    for argv in (["pmf-distance", str(nan_pmf), str(nan_pmf)],
                 ["genuinize", "--mode", "perturbed", "--target", str(nan_pmf), wav,
                  str(out_wav)]):
        capsys.readouterr()
        assert main(argv) == 5, argv
        assert "error: InputError:" in capsys.readouterr().err
    assert not out_wav.exists()

    # 5: the value error of a loaded file names that file
    good_pmf = tmp_path / "good.csv"
    good_pmf.write_text("index,probability\n30000,0.5\n30001,0.5\n")
    capsys.readouterr()
    assert main(["pmf-distance", str(good_pmf), str(nan_pmf)]) == 5
    assert f"error: InputError: {nan_pmf}: " in capsys.readouterr().err

    # 5: a scores file without one label's trials names that file, once
    header_only = tmp_path / "header.csv"
    header_only.write_text("file_id,label,score\n")
    capsys.readouterr()
    assert main(["eer", str(header_only)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: {header_only}: ")
    assert err.count(str(header_only)) == 1

    # 6: inconsistent request
    capsys.readouterr()
    assert main(["genuinize", "--mode", "random", wav, str(tmp_path / "o.wav")]) == 6
    assert "error: ConfigError:" in capsys.readouterr().err

    # 6: a genuinize flag that the chosen form or mode would ignore
    target = tmp_path / "target.csv"
    assert main(["estimate-pmf", "--out", str(target), wav]) == 0
    single = [wav, str(tmp_path / "o.wav")]
    batch = ["--manifest", str(corpus / "manifest.csv"), "--out-dir", str(tmp_path / "ignored")]
    for flags in (
        ["--mode", "random", "--pool", wav, *batch],
        ["--mode", "perturbed", "--target", str(target), "--pool", wav, *single],
        ["--mode", "random", "--target", str(target), "--pool", wav, *single],
        ["--mode", "random", "--target", str(target), *batch],
        ["--mode", "perturbed", "--target", str(target), "--out-dir", str(tmp_path), *single],
        ["--mode", "perturbed", "--target", str(target), "--subset", "test", *single],
        ["--mode", "perturbed", "--target", str(target), "--label", "spoof", *single],
        ["--mode", "perturbed", "--target", str(target), "--ordinal", "5", *batch],
        ["--mode", "random", "--pool", wav, "--pool-selector", "bogus", *single],
        ["--mode", "perturbed", "--target", str(target), "--pool-selector", "train:genuine",
         *batch],
    ):
        capsys.readouterr()
        assert main(["genuinize", *flags]) == 6, flags
        assert "error: ConfigError:" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "ignored").exists()

    # 6: --alpha, which only --keep speech and nonspeech read
    capsys.readouterr()
    assert main(["estimate-pmf", "--keep", "all", "--alpha", "0.5", "--out",
                 str(tmp_path / "p.csv"), wav]) == 6
    err = capsys.readouterr().err
    assert err == "error: ConfigError: estimate-pmf --keep all does not read --alpha\n"
    assert not (tmp_path / "p.csv").exists()

    # 6: wrong-typed run config value
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"gmm_components": "x"}')
    capsys.readouterr()
    assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(bad_config), "--seed", "7",
                 "--out", str(tmp_path / "r.csv")]) == 6
    assert "error: ConfigError:" in capsys.readouterr().err

    # 6: no run seed in the config or on the command line
    bad_config.write_text('{"gmm_components": 4}')
    capsys.readouterr()
    assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(bad_config), "--out", str(tmp_path / "r.csv")]) == 6
    assert "error: ConfigError:" in capsys.readouterr().err

    # 5: a wrong-typed or out-of-range lfcc option in the run config is
    # LfccConfig's InputError, named by the config file, before any scenario
    # runs or a results CSV is written
    results = tmp_path / "never.csv"
    for lfcc_options in ('{"num_ceps": 19.0}', '{"include_energy": "no"}',
                         '{"delta_window": 0}', '{"num_ceps": 30}'):
        bad_config.write_text('{"lfcc": %s}' % lfcc_options)
        capsys.readouterr()
        assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                     "--config", str(bad_config), "--seed", "7", "--out", str(results)]) == 5
        assert f"error: InputError: {bad_config}: " in capsys.readouterr().err
        assert not results.exists()

    # 6: bad selectors in the run config, before any scenario runs or a
    # results CSV is written
    for config_text in ('{"attacker_pmf_source": 5}', '{"cm_pmf_source": "train:bogus"}',
                        '{"cm_pmf_source": "test:genuine:x"}'):
        bad_config.write_text(config_text)
        capsys.readouterr()
        assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                     "--config", str(bad_config), "--seed", "7", "--out", str(results)]) == 6
        assert "error: ConfigError:" in capsys.readouterr().err
        assert not results.exists()

    # 5: non-finite frame size
    for frame_ms in ("nan", "inf"):
        capsys.readouterr()
        assert main(["extract-features", "--frame-ms", frame_ms,
                     "--out", str(tmp_path / "f.feat"), wav]) == 5
        assert "error: InputError:" in capsys.readouterr().err

    # 5: a frame size too large for the sample rate to hold in samples; in a
    # run config it fails every row instead, and the run finishes
    for flag in ("--frame-ms", "--hop-ms"):
        capsys.readouterr()
        assert main(["extract-features", flag, "1e306", "--out", str(tmp_path / "f.feat"),
                     wav]) == 5
        assert "error: InputError:" in capsys.readouterr().err
    huge = tmp_path / "huge.csv"
    for lfcc_options in ('{"frame_len_ms": 1e306}', '{"frame_hop_ms": 1e306}'):
        bad_config.write_text('{"lfcc": %s}' % lfcc_options)
        assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"), "--config",
                     str(bad_config), "--seed", "7", "--out", str(huge), "--quiet"]) == 0
        rows = huge.read_text().splitlines()[1:]
        assert len(rows) == 45 and all(row.split(",")[5] == "" for row in rows)

    # 5: a corpus duration that is not finite, or shorter than the 10 ms fade,
    # and a negative seed (a ValueError traceback from numpy once), before
    # any folder is made
    for flags in (["--duration", "nan"], ["--duration", "inf"], ["--duration", "0.001"],
                  ["--seed", "-1"]):
        capsys.readouterr()
        assert main(["make-corpus", "--out", str(tmp_path / "c"), "--files-per-class", "2",
                     *flags]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: InputError:") and err.count("\n") == 1
        assert not (tmp_path / "c").exists()

    # 6 and 4: bytes that are not text in a manifest, config, PMF or scores file
    bytes_manifest = tmp_path / "bytes_manifest.csv"
    bytes_manifest.write_bytes(b"path,label,subset\n\xff.wav,genuine,train\n")
    bad_config.write_bytes(b'{"seed": 1, "cm_pmf_source": "\xff"}')
    bytes_pmf = tmp_path / "bytes_pmf.csv"
    bytes_pmf.write_bytes(b"index,probability\n1,0.5\xff\n")
    bytes_scores = tmp_path / "bytes_scores.csv"
    bytes_scores.write_bytes(b"file_id,label,score\n\xff,genuine,1.0\n")
    for argv, path, code, kind in (
        (["run-matrix", "--manifest", str(bytes_manifest), "--seed", "7", "--out", str(results)],
         bytes_manifest, 6, "ConfigError"),
        (["run-matrix", "--manifest", str(corpus / "manifest.csv"), "--config", str(bad_config),
          "--seed", "7", "--out", str(results)], bad_config, 6, "ConfigError"),
        (["pmf-distance", str(bytes_pmf), str(bytes_pmf)], bytes_pmf, 4, "FormatError"),
        (["genuinize", "--mode", "perturbed", "--target", str(bytes_pmf), wav,
          str(tmp_path / "o.wav")], bytes_pmf, 4, "FormatError"),
        (["eer", str(bytes_scores)], bytes_scores, 4, "FormatError"),
    ):
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind}: {path}:") and err.count("\n") == 1


@pytest.fixture(scope="module")
def stage_inputs(corpus, tmp_path_factory):
    """A WAV, a target PMF and a feature cache, with the corpus manifest and config."""
    root = tmp_path_factory.mktemp("stage")
    wav = wavs(corpus, "train", "genuine")[0]
    assert main(["estimate-pmf", "--out", str(root / "target.csv"), wav]) == 0
    assert main(["extract-features", "--out", str(root / "in.feat"), wav]) == 0
    return {"wav": wav, "target": str(root / "target.csv"), "feat": str(root / "in.feat"),
            "manifest": str(corpus / "manifest.csv"), "config": str(corpus / "config.json")}


def _genuinize_ordinal(mode):
    def owner(f):
        source = read_wav(f["wav"])
        references = (reference_pool([source]) if mode == "random"
                      else (cdf_from_pmf(load_pmf(f["target"])),))
        return genuinize(source, GenuinizeParams(mode=mode), references, -1)
    return owner


def _single_file_genuinize(mode, *flags):
    reference = ["--pool", "{wav}"] if mode == "random" else ["--target", "{target}"]
    return ["genuinize", "--mode", mode, *flags, "{wav}", "{out}", *reference]


# case: (argv, owner) where owner(files) passes the same value to the flag's
# owner in Python; {name} in argv is files[name], and {out} is never made
_OUT_OF_RANGE = {
    "num-ceps 0": (["extract-features", "--num-ceps", "0", "--out", "{out}", "{wav}"],
                   lambda f: LfccConfig(num_ceps=0)),
    "num-ceps 25": (["extract-features", "--num-ceps", "25", "--out", "{out}", "{wav}"],
                    lambda f: LfccConfig(num_ceps=25)),
    "delta-window 0": (["extract-features", "--delta-window", "0", "--out", "{out}", "{wav}"],
                       lambda f: LfccConfig(delta_window=0)),
    "d-bits -1": (_single_file_genuinize("perturbed", "--d-bits", "-1"),
                  lambda f: GenuinizeParams(mode="perturbed", extra_bits=-1)),
    **{f"d-bits 11 {mode}": (_single_file_genuinize(mode, "--d-bits", "11"),
                             lambda f, mode=mode: GenuinizeParams(mode=mode, extra_bits=11))
       for mode in ("perturbed", "basic")},
    **{f"ordinal -1 {mode}": (_single_file_genuinize(mode, "--ordinal", "-1"),
                              _genuinize_ordinal(mode)) for mode in MODES},
    "components 0": (["train-gmm", "--components", "0", "--out", "{out}", "{feat}"],
                     lambda f: train_gmm(load_features(f["feat"]), k=0)),
    "iters 0": (["train-gmm", "--iters", "0", "--out", "{out}", "{feat}"],
                lambda f: train_gmm(load_features(f["feat"]), k=DEFAULT_COMPONENTS,
                                    iters=0)),
    "workers 0": (["run-matrix", "--manifest", "{manifest}", "--config", "{config}",
                   "--workers", "0", "--out", "{out}"],
                  lambda f: load_run_setup(f["manifest"], f["config"], workers=0)),
    "files-per-class 0": (["make-corpus", "--files-per-class", "0", "--out", "{out}"],
                          lambda f: make_toy_corpus(f["out"], files_per_class=0)),
    "files-per-class 1": (["make-corpus", "--files-per-class", "1", "--out", "{out}"],
                          lambda f: make_toy_corpus(f["out"], files_per_class=1)),
    "sample-rate 2**32": (["make-corpus", "--sample-rate", str(2**32), "--out", "{out}"],
                          lambda f: make_toy_corpus(f["out"], sample_rate=2**32)),
    "sample-rate 0": (["make-corpus", "--sample-rate", "0", "--out", "{out}"],
                      lambda f: make_toy_corpus(f["out"], sample_rate=0)),
}


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
def test_out_of_range_flags_exit_with_their_owners_code(stage_inputs, tmp_path, capsys,
                                                       monkeypatch, case):
    # the flag parses as a plain number; its owner alone checks the range,
    # so the command line and a Python caller get one error, and nothing is
    # made; a setting is checked before any WAV is read
    argv, owner = _OUT_OF_RANGE[case]
    files = {**stage_inputs, "out": str(tmp_path / "out")}
    with pytest.raises(ToolError) as raised:
        owner(files)
    assert raised.value.exit_code == (6 if case == "workers 0" else 5)
    reads = []

    def counting_read_wav(path):
        reads.append(str(path))
        return read_wav(path)

    for module in ("cli", "experiment"):
        monkeypatch.setattr(f"wavespoof.{module}.read_wav", counting_read_wav)
    capsys.readouterr()
    assert main([arg.format(**files) for arg in argv]) == raised.value.exit_code
    assert capsys.readouterr().err == f"error: {type(raised.value).__name__}: {raised.value}\n"
    assert not (tmp_path / "out").exists()
    assert reads == []


# case: (run config settings, owner) where owner(files) passes the same value
# to the setting's owner in Python, as the setting's flag does
_CONFIG_OUT_OF_RANGE = {
    "lfcc num_ceps 30": ({"lfcc": {"num_ceps": 30}}, lambda f: LfccConfig(num_ceps=30)),
    "extra_bits -1": ({"extra_bits": -1},
                      lambda f: GenuinizeParams(mode="perturbed", extra_bits=-1)),
    "extra_bits 11": ({"extra_bits": 11},
                      lambda f: GenuinizeParams(mode="perturbed", extra_bits=11)),
    "features cqcc": ({"features": ["cqcc"]}, lambda f: get_extractor("cqcc")),
    "gmm_components 0": ({"gmm_components": 0},
                         lambda f: train_gmm(load_features(f["feat"]), k=0)),
    "em_iters 0": ({"em_iters": 0},
                   lambda f: train_gmm(load_features(f["feat"]), k=DEFAULT_COMPONENTS,
                                       iters=0)),
    "workers 0": ({"workers": 0}, lambda f: RunConfig(seed=7, workers=0)),
}


@pytest.mark.parametrize("case", list(_CONFIG_OUT_OF_RANGE))
def test_out_of_range_config_values_exit_with_their_owners_code(stage_inputs, tmp_path, capsys,
                                                                monkeypatch, case):
    # a run config value reaches the owner its flag reaches and gets its
    # error, before any WAV is read or a results CSV is written; only the
    # lfcc block is read inside the config file, so only its error names it
    settings, owner = _CONFIG_OUT_OF_RANGE[case]
    with pytest.raises(ToolError) as raised:
        owner(stage_inputs)
    assert raised.value.exit_code == (6 if case in ("workers 0", "features cqcc") else 5)
    config, results = tmp_path / "config.json", tmp_path / "results.csv"
    config.write_text(json.dumps({"seed": 7, **settings}))
    reads = []

    def counting_read_wav(path):
        reads.append(str(path))
        return read_wav(path)

    monkeypatch.setattr("wavespoof.experiment.read_wav", counting_read_wav)
    capsys.readouterr()
    assert main(["run-matrix", "--manifest", stage_inputs["manifest"], "--config", str(config),
                 "--out", str(results), "--quiet"]) == raised.value.exit_code
    prefix = f"{config}: " if "lfcc" in settings else ""
    error = f"error: {type(raised.value).__name__}: {prefix}{raised.value}\n"
    assert capsys.readouterr().err == error
    assert reads == [] and not results.exists()


def _run_matrix_into(out, stage_inputs, cache, capsys, monkeypatch):
    """Exit code, stderr and the WAVs read by a run-matrix into out."""
    reads = []

    def counting_read_wav(path):
        reads.append(str(path))
        return read_wav(path)

    monkeypatch.setattr("wavespoof.experiment.read_wav", counting_read_wav)
    capsys.readouterr()
    code = main(["run-matrix", "--manifest", stage_inputs["manifest"], "--config",
                 stage_inputs["config"], "--cache-dir", str(cache), "--out", str(out),
                 "--quiet"])
    return code, capsys.readouterr().err, reads


def test_run_matrix_into_a_missing_directory_runs_nothing(stage_inputs, tmp_path, capsys,
                                                          monkeypatch):
    # the results CSV's directory is checked before the matrix runs, so no
    # WAV is read, no cache directory made and no CSV written
    results, cache = tmp_path / "missing" / "r.csv", tmp_path / "cache"
    code, err, reads = _run_matrix_into(results, stage_inputs, cache, capsys, monkeypatch)
    assert code == 3
    assert err.startswith("error: FileNotFoundError: ") and str(results) in err
    assert reads == []
    assert not cache.exists() and not results.parent.exists()


def test_run_matrix_into_a_directory_runs_nothing(stage_inputs, tmp_path, capsys, monkeypatch):
    # a results CSV path that names a directory used to fail only after the
    # whole matrix had run, with the IsADirectoryError of the final write
    results, cache = tmp_path / "results", tmp_path / "cache"
    results.mkdir()
    code, err, reads = _run_matrix_into(results, stage_inputs, cache, capsys, monkeypatch)
    assert code == 3
    assert err.startswith("error: IsADirectoryError: ") and str(results) in err
    assert reads == []
    assert not cache.exists() and list(results.iterdir()) == []


def test_score_rejects_a_flag_its_form_does_not_read(corpus, tmp_path, capsys):
    model, cache = tmp_path / "m.gmm", tmp_path / "c.feat"
    wav = wavs(corpus, "test", "genuine")[0]
    assert main(["extract-features", "--out", str(cache), wav]) == 0
    assert main(["train-gmm", "--components", "1", "--iters", "1",
                 "--out", str(model), str(cache)]) == 0
    out = tmp_path / "s.csv"
    score = ["score", "--genuine-model", str(model),
             "--spoof-model", str(model), "--out", str(out)]
    manifest = ["--manifest", str(corpus / "manifest.csv")]
    for flags, unread in ((["--label", "spoof", *manifest], "--label"),
                          (["--label", "genuine", "--subset", "train", wav], "--subset"),
                          ([*manifest, wav], "listed WAVs")):
        capsys.readouterr()
        assert main([*score, *flags]) == 6, flags
        assert capsys.readouterr().err.endswith(f"does not read {unread}\n")
        assert not out.exists()
    # the manifest form scores the test rows unless --subset says otherwise
    for subset, wanted in ((None, {"test"}), ("test", {"test"}), ("train", {"train"}),
                           ("all", {"train", "test"})):
        flags = [] if subset is None else ["--subset", subset]
        assert main([*score, *manifest, *flags]) == 0
        trials = load_scores(out)
        assert {t.file_id.split("/")[1] for t in trials} == wanted
        assert len(trials) == 8 * len(wanted)


def test_parser_defaults_come_from_their_owners(corpus, tmp_path):
    assert _lfcc_config(parse_args(["extract-features", "--out", "f", "in.wav"])) == LfccConfig()
    train = parse_args(["train-gmm", "--out", "m", "in.feat"])
    assert (train.components, train.iters) == (DEFAULT_COMPONENTS, DEFAULT_ITERS)
    gen = parse_args(["genuinize", "--mode", "random"])
    assert gen.d_bits == DEFAULT_EXTRA_BITS
    # without --pool-selector, the batch random pool is RunConfig.cm_pmf_source
    assert RunConfig.cm_pmf_source == "train:genuine"
    batch = ["genuinize", "--mode", "random", "--seed", "3", "--manifest",
             str(corpus / "manifest.csv"), "--subset", "test", "--label", "spoof"]
    written = {}
    for name, flags in (("default", []), ("train", ["--pool-selector", "train:genuine"]),
                        ("test", ["--pool-selector", "test:genuine"])):
        assert main([*batch, "--out-dir", str(tmp_path / name), *flags]) == 0
        written[name] = {p.relative_to(tmp_path / name): p.read_bytes()
                         for p in (tmp_path / name).rglob("*.wav")}
    assert len(written["default"]) == 4
    assert written["default"] == written["train"] != written["test"]
    assert parse_args(["vad", "in.wav"]).alpha == DEFAULT_ALPHA
    # without --alpha, --keep speech masks at VadConfig's DEFAULT_ALPHA
    speech = ["estimate-pmf", "--keep", "speech", *wavs(corpus, "train", "genuine")]
    for name, flags in (("default", []), ("given", ["--alpha", str(DEFAULT_ALPHA)]),
                        ("other", ["--alpha", "0.5"])):
        assert main([*speech, "--out", str(tmp_path / f"{name}.csv"), *flags]) == 0
    pmfs = {name: (tmp_path / f"{name}.csv").read_bytes() for name in ("default", "given", "other")}
    assert pmfs["default"] == pmfs["given"] != pmfs["other"]
    # choices that name the matrix vocabulary are its constants themselves
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    choices = {
        (command, action.dest): action.choices
        for command, sub in subcommands.items()
        for action in sub._actions
        if action.dest in ("mode", "subset", "label", "keep", "provenance")
    }
    assert set(choices) == {("genuinize", "mode"), ("genuinize", "subset"),
                            ("genuinize", "label"), ("score", "subset"), ("score", "label"),
                            ("estimate-pmf", "keep"), ("train-gmm", "provenance")}
    assert choices["genuinize", "mode"] is MODES
    assert choices["genuinize", "subset"] is SUBSETS
    assert choices["genuinize", "label"] is LABELS and choices["score", "label"] is LABELS
    assert choices["score", "subset"] == (*SUBSETS, "all")
    assert choices["estimate-pmf", "keep"] is KEEPS
    assert choices["train-gmm", "provenance"] is PROVENANCES
    assert wavespoof.experiment.LABELS is LABELS  # one definition, in gmm


# one flag per LfccConfig field: field -> (its flag's arguments, the value they give)
_LFCC_FLAGS = {
    "frame_len_ms": (["--frame-ms", "25"], 25.0),
    "frame_hop_ms": (["--hop-ms", "5"], 5.0),
    "num_filters": (["--num-filters", "24"], 24),
    "num_ceps": (["--num-ceps", "13"], 13),
    "include_energy": (["--no-energy"], False),
    "delta_window": (["--delta-window", "3"], 3),
}


def test_each_lfcc_flag_sets_its_field_and_no_other():
    assert set(_LFCC_FLAGS) == {f.name for f in dataclasses.fields(LfccConfig)}
    lfcc_flags = {flag[0] for flag, _ in _LFCC_FLAGS.values()}
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    forms = {"extract-features": (["--out", "f", "in.wav"], {"--out"}),
             "score": (["--genuine-model", "g", "--spoof-model", "s", "--out", "o"],
                       {"--genuine-model", "--spoof-model", "--out", "--manifest", "--subset",
                        "--label"})}
    for command, (required, others) in forms.items():
        options = {o for a in subcommands[command]._actions for o in a.option_strings}
        assert options == lfcc_flags | others | {"-h", "--help", "--feature"}, command
        for name, (flag, value) in _LFCC_FLAGS.items():
            assert getattr(LfccConfig(), name) != value
            got = _lfcc_config(parse_args([command, *required, *flag]))
            assert got == dataclasses.replace(LfccConfig(), **{name: value}), (command, flag)


def _run_probe(probe, *args):
    src = Path(wavespoof.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env, timeout=300,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_corpus_and_features_load_no_scipy(tmp_path):
    probe = """if True:
        import sys
        import wavespoof.cli
        from wavespoof import lfcc, make_toy_corpus, read_wav
        manifest = make_toy_corpus(sys.argv[1], files_per_class=2)
        wav = manifest.parent / manifest.read_text().splitlines()[1].split(",")[0]
        assert lfcc(read_wav(wav)).frames.size
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
    assert _run_probe(probe, str(tmp_path / "corpus")).strip() == "[]"


def test_matrix_runs_where_scipy_cannot_be_imported(tmp_path):
    # a meta-path finder that refuses scipy stands in for an environment
    # holding the runtime dependencies only
    probe = """if True:
        import sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} is blocked")

        sys.meta_path.insert(0, NoScipy())
        from wavespoof import load_run_setup, make_toy_corpus, run_matrix
        manifest = make_toy_corpus(sys.argv[1], files_per_class=2)
        rows = run_matrix(*load_run_setup(manifest, manifest.parent / "config.json"))
        print(len(rows), sum(row.error is not None for row in rows))
    """
    assert _run_probe(probe, str(tmp_path / "corpus")).split() == ["45", "0"]
