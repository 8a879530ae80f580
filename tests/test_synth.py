"""make_toy_corpus checks every argument before it writes anything, and
writes the same bytes for the same arguments."""

import hashlib

import numpy as np
import pytest

from wavespoof import InputError, make_toy_corpus, synth
from wavespoof.synth import GENUINE_POLE, SPOOF_POLE, _ar1


def _tree_digest(root):
    """sha256 over the relative path and bytes of every WAV and the manifest."""
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.wav"), root / "manifest.csv"]):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# Digests of corpora made by AR(1)-filtering one file at a time, as
# scipy.signal.lfilter does. The benchmark's reference outputs are computed on
# these bytes, so they must not move. The last corpus (40 files of 64000
# samples) spans two blocks.
@pytest.mark.parametrize("kwargs, want", [
    ({}, "0b86bd3e92772353848b3a47b9605f5c64a2ddab2a94607a291d5c3f3b1176ee"),
    ({"sample_rate": 16000, "duration_s": 3.0, "files_per_class": 2},
     "09b1f2eaabdd15af44d1e7611ed71ec0a822a7823a1469c15ac7d01ef93cfdd9"),
    ({"sample_rate": 16000, "duration_s": 4.0, "files_per_class": 10},
     "5de345ec66688d972e3333dc2641ad0004f2b2b54816ec2d7f5f43f889508d05"),
])
def test_corpus_bytes_are_pinned(tmp_path, kwargs, want):
    make_toy_corpus(tmp_path, **kwargs)
    assert _tree_digest(tmp_path) == want


def test_one_file_per_block_writes_the_same_bytes(tmp_path, monkeypatch):
    kwargs = {"sample_rate": 16000, "duration_s": 3.0, "files_per_class": 2}
    monkeypatch.setattr(synth, "BLOCK_BYTES", 8 * 48000)
    make_toy_corpus(tmp_path, **kwargs)
    assert _tree_digest(tmp_path) == \
        "09b1f2eaabdd15af44d1e7611ed71ec0a822a7823a1469c15ac7d01ef93cfdd9"


@pytest.mark.parametrize("pole", [GENUINE_POLE, SPOOF_POLE])
def test_ar1_equals_lfilter_bit_for_bit(pole):
    # each column of a block whose columns alternate pole and the other class's
    lfilter = pytest.importorskip("scipy.signal").lfilter
    other = SPOOF_POLE if pole == GENUINE_POLE else GENUINE_POLE
    poles = np.array([pole, other] * 4)
    for length in (1, 2, 4000):
        rng = np.random.default_rng(length)
        block = np.stack([rng.laplace(0.0, 1.0, size=length) for _ in poles], axis=1)
        want = [lfilter([1.0], [1.0, -p], block[:, j]) for j, p in enumerate(poles)]
        _ar1(block, poles)
        for j, column in enumerate(want):
            assert np.array_equal(block[:, j], column)


@pytest.mark.parametrize("kwargs", [
    {"sample_rate": 8000.0},  # used to fail in Waveform after the first folder was made
    {"files_per_class": 2.5},  # used to end in a TypeError from range()
    {"files_per_class": 1},
    {"files_per_class": True},
    {"sample_rate": 0},
    {"sample_rate": 2**31},  # over a WAV header's 32-bit byte rate: a struct.error once
    {"duration_s": float("nan")},
    {"duration_s": -1.0},
    {"duration_s": "0.5"},
    {"duration_s": True},
    {"seed": -1},
    {"seed": 0.5},
    {"run_seed": "7"},
    {"sample_rate": 50, "duration_s": 0.001},  # 0 samples: used to fail after a folder was made
])
def test_a_rejected_corpus_call_creates_nothing(tmp_path, kwargs):
    out = tmp_path / "corpus"
    with pytest.raises(InputError):
        make_toy_corpus(out, **kwargs)
    assert not out.exists()


def test_corpus_arguments_take_numpy_integers(tmp_path):
    manifest = make_toy_corpus(tmp_path, seed=np.int64(0), files_per_class=np.int32(2),
                               sample_rate=np.int64(8000), duration_s=np.float32(0.05),
                               run_seed=np.uint8(3))
    assert len(manifest.read_text().splitlines()) == 1 + 4 * 2
    assert '"seed": 3' in (tmp_path / "config.json").read_text()

