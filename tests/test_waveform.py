import wave

import numpy as np
import pytest

from wavespoof import InputError, FormatError, Waveform, amp_to_index, index_to_amp, read_wav, write_wav
from oracles import pcm16_wav_bytes


def test_amp_to_index_reference_points():
    assert amp_to_index(0.0) == 32768
    assert amp_to_index(1.0) == 65536
    assert amp_to_index(-1.0 + 2.0**-15) == 1
    assert amp_to_index(2.0**-15) == 32769


def test_amp_to_index_rejects_out_of_range():
    with pytest.raises(InputError):
        amp_to_index(-1.0)
    with pytest.raises(InputError):
        amp_to_index(1.0 + 1e-9)
    with pytest.raises(InputError):
        amp_to_index(np.array([0.0, -2.0]))


def test_amp_to_index_shapes():
    assert isinstance(amp_to_index(0.25), int)
    out = amp_to_index(np.array([0.0, 0.5]))
    assert out.dtype == np.int64 and out.tolist() == [32768, 49152]


def test_index_to_amp_reference_points():
    assert index_to_amp(65536) == 1.0
    assert index_to_amp(32768) == 0.0
    assert index_to_amp(1) == -1.0 + 2.0**-15
    with pytest.raises(InputError):
        index_to_amp(0)
    with pytest.raises(InputError):
        index_to_amp(65537)


def test_round_trip_spot_checks():
    ks = np.array([1, 2, 32767, 32768, 32769, 65535, 65536])
    assert np.array_equal(amp_to_index(index_to_amp(ks)), ks)


def test_waveform_validation():
    with pytest.raises(InputError):
        Waveform(samples=np.array([], dtype=np.int64), sample_rate=8000)
    with pytest.raises(InputError):
        Waveform(samples=np.array([0]), sample_rate=8000)
    with pytest.raises(InputError):
        Waveform(samples=np.array([65537]), sample_rate=8000)
    with pytest.raises(InputError):
        Waveform(samples=np.array([[1, 2]]), sample_rate=8000)
    with pytest.raises(InputError):
        Waveform(samples=np.array([1]), sample_rate=0)
    # a 16-bit mono WAV header stores 2 bytes per sample, a second's worth in
    # 32 bits: 2**31 and 2**32 ended in a struct.error traceback from
    # write_wav, after the file was opened
    for rate in (2**31, 2**32):
        with pytest.raises(InputError, match="at most 2147483647"):
            Waveform(samples=np.array([1]), sample_rate=rate)
    # the rate is an integer, never a bool; it used to be truncated, so
    # 8000.7 became 8000 and True became 1
    for rate in (8000.7, 8000.0, True, "8000", None):
        with pytest.raises(InputError, match="^sample_rate must be an integer"):
            Waveform(samples=np.array([1, 2, 3]), sample_rate=rate)
    for rate in (np.int64(8000), np.int32(8000), np.uint16(8000)):
        w = Waveform(samples=np.array([1, 2, 3]), sample_rate=rate)
        assert w.sample_rate == 8000 and type(w.sample_rate) is int
    w = Waveform(samples=np.array([1, 65536]), sample_rate=16000)
    assert len(w) == 2
    with pytest.raises(ValueError):
        w.samples[0] = 5


def test_waveform_rejects_a_conversion_that_changes_a_value():
    # a cast to the int64 grid would truncate 1.7 to 1 or wrap a large index
    for samples in (np.array([1.7, 2.9]), np.array([1.0, np.nan]),
                    np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(InputError, match="Waveform.samples"):
            Waveform(samples=samples, sample_rate=8000)
    # a conversion that keeps every value is accepted
    for samples in (np.array([1.0, 2.0]), np.array([1, 2], dtype=np.int16), [1, 2]):
        w = Waveform(samples=samples, sample_rate=8000)
        assert w.samples.dtype == np.int64 and w.samples.tolist() == [1, 2]


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    w = Waveform(samples=rng.integers(1, 65537, size=777), sample_rate=16000)
    path = tmp_path / "x.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert np.array_equal(back.samples, w.samples)
    assert back.sample_rate == 16000
    # the largest rate the header holds round-trips
    top = Waveform(samples=np.array([1, 2, 3, 4]), sample_rate=2**31 - 1)
    write_wav(path, top)
    assert read_wav(path).sample_rate == 2**31 - 1


def test_read_wav_against_hand_built_bytes(tmp_path):
    codes = [-32768, -1, 0, 1, 32767]
    path = tmp_path / "golden.wav"
    path.write_bytes(pcm16_wav_bytes(codes, 8000))
    w = read_wav(path)
    # code c carries index c + 32769
    assert w.samples.tolist() == [1, 32768, 32769, 32770, 65536]
    assert w.sample_rate == 8000
    # the amplitude of the top code is exactly +1
    assert index_to_amp(int(w.samples[-1])) == 1.0


def test_write_wav_bytes_match_hand_built(tmp_path):
    codes = [-32768, -5, 0, 7, 32767]
    w = Waveform(samples=np.array(codes) + 32769, sample_rate=44100)
    path = tmp_path / "w.wav"
    write_wav(path, w)
    assert path.read_bytes() == pcm16_wav_bytes(codes, 44100)


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not a RIFF container at all")
    with pytest.raises(FormatError):
        read_wav(path)


def test_read_wav_rejects_stereo_and_wide_samples(tmp_path):
    stereo = tmp_path / "stereo.wav"
    with wave.open(str(stereo), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00" * 8)
    with pytest.raises(FormatError) as err:
        read_wav(stereo)
    assert "mono" in str(err.value)

    wide = tmp_path / "wide.wav"
    with wave.open(str(wide), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(4)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00\x00\x00" * 4)
    with pytest.raises(FormatError) as err:
        read_wav(wide)
    assert "16-bit" in str(err.value)


def test_read_wav_rejects_empty(tmp_path):
    path = tmp_path / "empty.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"")
    with pytest.raises(FormatError) as err:
        read_wav(path)
    assert "empty" in str(err.value)


def test_read_wav_truncated_data_is_format_error(tmp_path):
    path = tmp_path / "trunc.wav"
    good = pcm16_wav_bytes([0, 1, 2, 3, 4, 5, 6, 7], 8000)
    path.write_bytes(good[:-6])  # header intact, data short
    with pytest.raises(FormatError):
        read_wav(path)
