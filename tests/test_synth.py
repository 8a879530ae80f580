"""make_toy_corpus checks every argument before it writes anything."""

import numpy as np
import pytest

from wavespoof import InputError, make_toy_corpus


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

