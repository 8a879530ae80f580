"""End-to-end command-line checks, run in process via main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavespoof
from wavespoof import load_features, load_gmm, load_pmf, load_scores, read_wav
from wavespoof.cli import main


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

    # 6: inconsistent request
    capsys.readouterr()
    assert main(["genuinize", "--mode", "random", wav, str(tmp_path / "o.wav")]) == 6
    assert "error: ConfigError:" in capsys.readouterr().err

    # 6: wrong-typed run config value
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"gmm_components": "x"}')
    capsys.readouterr()
    assert main(["run-matrix", "--manifest", str(corpus / "manifest.csv"),
                 "--config", str(bad_config), "--seed", "7",
                 "--out", str(tmp_path / "r.csv")]) == 6
    assert "error: ConfigError:" in capsys.readouterr().err

    # 5: non-finite frame size
    for frame_ms in ("nan", "inf"):
        capsys.readouterr()
        assert main(["extract-features", "--frame-ms", frame_ms,
                     "--out", str(tmp_path / "f.feat"), wav]) == 5
        assert "error: InputError:" in capsys.readouterr().err


def test_cli_import_leaves_scipy_signal_unloaded():
    src = Path(wavespoof.__file__).resolve().parents[1]
    probe = "import sys, wavespoof.cli; sys.exit('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=120).returncode == 0
