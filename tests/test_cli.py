"""End-to-end command-line checks, run in process via main(argv)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavespoof
from wavespoof import (
    LfccConfig,
    RunConfig,
    load_features,
    load_gmm,
    load_pmf,
    load_scores,
    read_wav,
)
from wavespoof.cli import _lfcc_config, build_parser, main, parse_args
from wavespoof.experiment import SUBSETS
from wavespoof.genuinize import DEFAULT_EXTRA_BITS, MODES
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
            assert main(["extract-features", "--fft-size", "256", "--out", str(cache), wav]) == 0
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
    assert main(["score", "--fft-size", "256",
                 "--genuine-model", models["genuine"], "--spoof-model", models["spoof"],
                 "--out", str(scores_csv), "--manifest", str(corpus / "manifest.csv")]) == 0
    scores = load_scores(scores_csv)
    assert len(scores.trials) == 8
    assert {t.label for t in scores.trials} == {"genuine", "spoof"}

    capsys.readouterr()
    assert main(["eer", str(scores_csv)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("EER=")
    assert 0.0 <= float(line[4:]) <= 100.0


def test_score_bare_wavs_need_label(corpus, tmp_path):
    target = tmp_path / "m.gmm"
    cache = tmp_path / "c.feat"
    wav = wavs(corpus, "train", "genuine")[0]
    assert main(["extract-features", "--fft-size", "256", "--out", str(cache), wav]) == 0
    assert main(["train-gmm", "--components", "1", "--iters", "1",
                 "--out", str(target), str(cache)]) == 0
    assert main(["score", "--genuine-model", str(target), "--spoof-model", str(target),
                 "--out", str(tmp_path / "s.csv"), wav]) == 6
    assert main(["score", "--fft-size", "256", "--label", "genuine",
                 "--genuine-model", str(target), "--spoof-model", str(target),
                 "--out", str(tmp_path / "s.csv"), wav]) == 0


def test_feature_fingerprints_flow_from_caches_to_scoring(corpus, tmp_path, capsys):
    wav = wavs(corpus, "train", "genuine")[0]
    caches = {}
    for name, flags in (("base", []), ("hop", ["--hop-ms", "5"]), ("narrow", ["--no-energy"])):
        caches[name] = str(tmp_path / f"{name}.feat")
        assert main(["extract-features", "--fft-size", "256", *flags,
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
    assert main([*score, "--fft-size", "256", wav]) == 0
    capsys.readouterr()
    assert main([*score, "--fft-size", "256", "--hop-ms", "5", wav]) == 6
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
    # 2: argparse rejects the flag value
    assert main(["genuinize", "--mode", "perturbed", "--d-bits", "-1", "a", "b"]) == 2

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
    ):
        capsys.readouterr()
        assert main(["genuinize", *flags]) == 6, flags
        assert "error: ConfigError:" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "ignored").exists()

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

    # 6: wrong-typed lfcc option in the run config
    for lfcc_options in ('{"num_ceps": 19.0}', '{"include_energy": "no"}'):
        bad_config.write_text('{"lfcc": %s}' % lfcc_options)
        capsys.readouterr()
        assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                     "--config", str(bad_config), "--seed", "7",
                     "--out", str(tmp_path / "r.csv")]) == 6
        assert "error: ConfigError:" in capsys.readouterr().err

    # 6: out-of-range values and bad selectors in the run config, before any
    # scenario runs or a results CSV is written
    results = tmp_path / "never.csv"
    for config_text in ('{"lfcc": {"fft_size": 300}}', '{"lfcc": {"num_ceps": 30}}',
                        '{"attacker_pmf_source": 5}', '{"cm_pmf_source": "train:bogus"}',
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


def test_parser_defaults_come_from_their_owners():
    assert _lfcc_config(parse_args(["extract-features", "--out", "f", "in.wav"])) == LfccConfig()
    train = parse_args(["train-gmm", "--out", "m", "in.feat"])
    assert (train.components, train.iters) == (DEFAULT_COMPONENTS, DEFAULT_ITERS)
    gen = parse_args(["genuinize", "--mode", "random"])
    assert gen.d_bits == DEFAULT_EXTRA_BITS
    assert gen.pool_selector == RunConfig.cm_pmf_source == "train:genuine"
    assert parse_args(["vad", "in.wav"]).alpha == DEFAULT_ALPHA
    assert parse_args(["estimate-pmf", "--out", "p", "in.wav"]).alpha == DEFAULT_ALPHA
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


def test_cli_import_leaves_scipy_signal_unloaded():
    src = Path(wavespoof.__file__).resolve().parents[1]
    probe = "import sys, wavespoof.cli; sys.exit('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=120).returncode == 0
