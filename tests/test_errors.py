"""The one owner of reading a stored file: every loader fault is a typed
ToolError whose message starts with the file's path, named once."""

import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from wavespoof import (
    ConfigError,
    FeatureMatrix,
    FormatError,
    GmmModel,
    InputError,
    Pmf,
    ToolError,
    load_features,
    load_gmm,
    load_pmf,
    load_run_setup,
    load_scores,
    read_manifest_csv,
    read_wav,
    save_features,
    save_gmm,
    save_pmf,
)
from wavespoof.errors import payload_arrays, read_headed, reading, typed, typed_fields, write_headed
from oracles import pcm16_wav_bytes

WAV = pcm16_wav_bytes([0, 1, 2, 3, 4, 5, 6, 7], 8000)  # 44-byte header, 16 data bytes


def _feat2_bytes(tmp_path):
    save_features(tmp_path / "good.feat", FeatureMatrix(frames=np.ones((3, 4)), meta="m"))
    return (tmp_path / "good.feat").read_bytes()


def _gmm1_bytes(tmp_path):
    model = GmmModel(weights=np.array([0.5, 0.5]), means=np.zeros((2, 3)),
                     variances=np.ones((2, 3)))
    save_gmm(tmp_path / "good.gmm", model)
    return (tmp_path / "good.gmm").read_bytes()


def _gpmf_bytes(tmp_path):
    save_pmf(tmp_path / "good.gpmf", Pmf(mass=np.full(4, 0.25)))
    return (tmp_path / "good.gpmf").read_bytes()


SIGNALING_NAN = struct.pack("<Q", 0x7FF4000000000000)


def _fault_table(tmp_path):
    """(case, file name, bytes, loader, error type, message after `path: `)."""
    feat2, gmm1, gpmf = _feat2_bytes(tmp_path), _gmm1_bytes(tmp_path), _gpmf_bytes(tmp_path)
    feat2_payload = len(feat2) - 96
    return [
        ("empty WAV", "a.wav", b"", read_wav, FormatError, "not a readable"),
        ("7-byte WAV", "a.wav", WAV[:7], read_wav, FormatError, "not a readable"),
        ("fmt chunk cut", "a.wav", WAV[:30], read_wav, FormatError, "not a readable"),
        ("fmt chunk size past the end", "a.wav", WAV[:16] + struct.pack("<I", 0xFFFF) + WAV[20:],
         read_wav, FormatError, "not a readable"),
        ("WAV data truncated", "a.wav", WAV[:-6], read_wav, FormatError, "payload of 10 bytes"),
        ("WAV sample rate 0", "a.wav", WAV[:24] + bytes(4) + WAV[28:], read_wav, InputError,
         "sample rate must be positive"),
        ("FEAT2 NaN payload", "a.feat", feat2[:feat2_payload] + SIGNALING_NAN + feat2[feat2_payload + 8:],
         load_features, InputError, "FeatureMatrix.frames holds a non-finite value"),
        ("FEAT2 short payload", "a.feat", feat2[:-8], load_features, FormatError, "payload of 88"),
        ("FEAT2 negative size", "a.feat", b"FEAT2 m -3 -4\n" + bytes(96), load_features,
         FormatError, "bad FEAT2 header"),
        ("FEAT1 file", "a.feat", b"FEAT1 m 3 4\n" + np.ones(12, "<f4").tobytes(), load_features,
         FormatError, "bad FEAT2 header 'FEAT1 m 3 4'"),
        ("GMM1 short payload", "a.gmm", gmm1[:-8], load_gmm, FormatError, "payload of"),
        ("GMM1 provenance typo", "a.gmm", gmm1.replace(b" O ", b" X ", 1), load_gmm, InputError,
         "provenance must be one of"),
        ("GPMF short payload", "a.gpmf", gpmf[:-8], load_pmf, FormatError, "payload of 24"),
        ("manifest label typo", "m.csv", b"path,label,subset\na.wav,bonafide,train\n",
         read_manifest_csv, ConfigError, "line 2: label must be one of"),
        ("PMF index repeated", "p.csv", b"index,probability\n1,0.5\n1,0.5\n2,0.5\n", load_pmf,
         FormatError, "line 3: index 1 repeated"),
        ("scores label typo", "s.csv", b"file_id,label,score\n\nx,real,1.0\n", load_scores,
         FormatError, "line 3: malformed row 'x,real,1.0'"),
    ]


def test_every_loader_fault_names_its_file_once(tmp_path):
    wrong = []
    for case, name, blob, load, error, message in _fault_table(tmp_path):
        path = tmp_path / name
        path.write_bytes(blob)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                load(path)
        except ToolError as exc:
            text = str(exc)
            if type(exc) is not error or not text.startswith(f"{path}: {message}"):
                wrong.append((case, f"{type(exc).__name__}: {text}"))
            elif text.count(str(path)) != 1:
                wrong.append((case, f"path named {text.count(str(path))} times: {text}"))
        except Exception as exc:  # the fault escaped as another type
            wrong.append((case, f"{type(exc).__name__}: {exc}"))
        else:
            wrong.append((case, "loaded"))
    assert wrong == []


def test_run_setup_names_the_file_at_fault(tmp_path):
    manifest, config = tmp_path / "m.csv", tmp_path / "c.json"
    manifest.write_text("path,label,subset\na.wav,genuine,train\n")
    config.write_text(json.dumps({"seed": 1, "lfcc": {"num_ceps": 30}}))
    with pytest.raises(InputError) as err:
        load_run_setup(manifest, config)
    assert str(err.value) == f"{config}: need 1 <= num_ceps <= num_filters"
    config.write_text(json.dumps({"seed": 1, "lfcc": {"num_filters": "x"}}))
    with pytest.raises(InputError) as err:
        load_run_setup(manifest, config)
    assert str(err.value) == f"{config}: num_filters must be an integer; got 'x'"
    # a manifest fault names the manifest, not the config file that was read first
    config.write_text(json.dumps({"seed": 1}))
    manifest.write_text("path,label,subset\na.wav,genuine,exam\n")
    with pytest.raises(ConfigError) as err:
        load_run_setup(manifest, config)
    assert str(err.value).startswith(f"{manifest}: line 2: subset must be one of")
    assert str(config) not in str(err.value)


def test_reading_prefixes_a_tool_error_once_and_keeps_its_type():
    for error in (FormatError, InputError, ConfigError):
        with pytest.raises(error) as err:
            with reading("some/file"):
                raise error("bad")
        assert str(err.value) == "some/file: bad"
    with pytest.raises(KeyError):  # not a ToolError: passes through unchanged
        with reading("some/file"):
            raise KeyError("k")


def test_headed_codec_round_trip_and_faults(tmp_path):
    path = tmp_path / "h.bin"
    write_headed(path, "TEST1", ("", 2, "x"), np.arange(2.0), np.ones((1, 3)))
    assert path.read_bytes() == b"TEST1 - 2 x\n" + np.array([0, 1, 1, 1, 1], "<f8").tobytes()
    (meta, n, tag), payload = read_headed(path, "TEST1", (str, int, str))
    assert (meta, n, tag) == ("", 2, "x")
    first, second = payload_arrays(payload, "<f8", (n,), (1, 3))
    assert first.tolist() == [0.0, 1.0] and second.tolist() == [[1.0, 1.0, 1.0]]
    for header in (b"TEST2 - 2 x", b"TEST1 - 2", b"TEST1 - +2 x", b"TEST1 - -2 x", b"TEST1 - 2 x y",
                   b"TEST1  2 x"):
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(FormatError):
            read_headed(path, "TEST1", (str, int, str))
    for size in (len(payload) - 1, len(payload) + 8):
        with pytest.raises(FormatError):
            payload_arrays(bytes(size), "<f8", (n,), (1, 3))
    # a field read_headed could not read back as itself is refused before the file is made
    for field in ("my feat", " x", "x\n", "\u00e9"):
        with pytest.raises(InputError, match="must be ASCII without whitespace"):
            write_headed(tmp_path / "w.bin", "TEST1", (field,), np.ones(1))
    assert not (tmp_path / "w.bin").exists()
    # `-` stands for an empty field, so a field that is `-` would read back empty
    with pytest.raises(InputError, match="^TEST1 header field '-' would read back as an empty one$"):
        write_headed(tmp_path / "w.bin", "TEST1", ("x", "-"), np.ones(1))
    assert not (tmp_path / "w.bin").exists()
    with pytest.raises(InputError):
        save_features(tmp_path / "dash.feat", FeatureMatrix(frames=np.ones((2, 3)), meta="-"))
    assert not (tmp_path / "dash.feat").exists()


def test_a_bad_header_is_quoted_briefly(tmp_path):
    path = tmp_path / "h.bin"
    path.write_bytes(b"RIFF" + bytes(800_000))  # a binary file with no line break
    with pytest.raises(FormatError) as err:
        read_headed(path, "FEAT2", (str, int, int))
    assert str(err.value) == f"bad FEAT2 header {'RIFF' + chr(0) * 60!r}"


def test_typed_fields_apply_one_rule_to_numbers_and_flags():
    @dataclasses.dataclass(frozen=True)
    class Settings:
        count: int = 1
        scale: float = 1.0
        flag: bool = False
        name: str = "x"

        def __post_init__(self):
            typed_fields(self, InputError)

    # each is stored as its annotated type; other annotations are not checked
    settings = Settings(count=np.int64(2), scale=3, flag=True, name=5)
    assert (settings.count, settings.scale, settings.flag, settings.name) == (2, 3.0, True, 5)
    assert [type(v) for v in (settings.count, settings.scale, settings.flag)] == [int, float, bool]
    for name, value in (("count", 1.0), ("count", True), ("count", "1"), ("scale", False),
                        ("scale", "1.0"), ("scale", None), ("flag", 1), ("flag", "yes")):
        with pytest.raises(InputError) as err:
            Settings(**{name: value})
        assert str(err.value).startswith(f"{name} must be "), (name, value)
    # typed is the same rule for a single argument
    assert typed(np.uint8(7), "int", "n") == 7 and type(typed(2, "float", "x")) is float
    with pytest.raises(ConfigError, match="^n must be an integer"):
        typed(False, "int", "n", ConfigError)
