import re
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absalab.checkpoint import MAGIC, atomic_write, load_archive, load_checkpoint, save_archive, save_checkpoint


def test_round_trip_preserves_values_and_order(tmp_path):
    entries = {
        "b/weight": np.arange(6, dtype=np.float32).reshape(2, 3),
        "a/bias": np.array([1.5, -2.5], dtype=np.float32),
        "scalarish": np.array([[7.0]], dtype=np.float32),
    }
    path = tmp_path / "model.ckpt"
    save_archive(path, entries)
    loaded = load_archive(path)
    assert list(loaded) == list(entries)  # insertion order kept
    for name in entries:
        npt.assert_array_equal(loaded[name], entries[name])
        assert loaded[name].dtype == np.float32


def test_float64_values_are_stored_as_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    save_archive(path, {"w": np.array([1 / 3], dtype=np.float64)})
    loaded = load_archive(path)
    assert loaded["w"].dtype == np.float32
    npt.assert_allclose(loaded["w"], np.float32(1 / 3))


def test_archive_layout_starts_with_magic_and_version(tmp_path):
    path = tmp_path / "m.ckpt"
    save_archive(path, {"w": np.zeros(1, dtype=np.float32)})
    blob = path.read_bytes()
    assert blob.startswith(MAGIC)
    assert blob[len(MAGIC)] == 1  # format version byte
    assert int.from_bytes(blob[len(MAGIC) + 1 : len(MAGIC) + 5], "little") == 1  # entry count


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOT-A-CKPT" + b"\x00" * 10)
    with pytest.raises(ValueError, match="not an ABSA-CKPT"):
        load_archive(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + bytes([9]) + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="version"):
        load_archive(path)


def test_truncated_archive_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_archive(path, {"w": np.arange(8, dtype=np.float32)})
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_archive(tmp_path / "cut.ckpt")


def test_extent_product_does_not_wrap(tmp_path):
    # 65536**4 == 2**64 wraps to 0 in int64 and would read as an empty entry
    header = MAGIC + bytes([1]) + (1).to_bytes(4, "little") + (1).to_bytes(2, "little") + b"x" + bytes([4])
    path = tmp_path / "huge.ckpt"
    path.write_bytes(header + (65536).to_bytes(4, "little") * 4)
    with pytest.raises(ValueError, match="truncated values for entry 'x'"):
        load_archive(path)


def test_extents_numpy_cannot_hold_name_the_file_and_entry(tmp_path):
    # no values to read, but numpy refuses a shape this large
    header = MAGIC + bytes([1]) + (1).to_bytes(4, "little") + (1).to_bytes(2, "little") + b"x" + bytes([3])
    path = tmp_path / "big.ckpt"
    path.write_bytes(header + (0).to_bytes(4, "little") + (2**32 - 1).to_bytes(4, "little") * 2)
    with pytest.raises(ValueError, match=re.escape(f"{path}: entry 'x' has extents (0, 4294967295, 4294967295)")):
        load_archive(path)


def _fuzz_archive() -> bytes:
    """A small archive holding a rank-0, a rank-1, a rank-2 and an empty entry."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "small.ckpt"
        save_archive(path, {"s": np.float32(1.5), "b": np.arange(3, dtype=np.float32),
                            "w/é": np.ones((2, 2), dtype=np.float32), "e": np.zeros((0, 4), dtype=np.float32)})
        return path.read_bytes()


FUZZ_ARCHIVE = _fuzz_archive()


def test_an_archive_cut_at_any_byte_is_refused_by_name(tmp_path):
    path = tmp_path / "cut.ckpt"
    for end in range(len(FUZZ_ARCHIVE)):
        path.write_bytes(FUZZ_ARCHIVE[:end])
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_archive(path)


@settings(max_examples=400, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, len(FUZZ_ARCHIVE) - 1), st.integers(1, 255)), min_size=1, max_size=3))
def test_an_archive_with_flipped_bytes_loads_or_names_the_file(tmp_path_factory, flips):
    blob = bytearray(FUZZ_ARCHIVE)
    for position, bits in flips:
        blob[position] ^= bits
    path = tmp_path_factory.mktemp("flips") / "flipped.ckpt"
    path.write_bytes(bytes(blob))
    try:  # a damaged archive loads whole or fails with a ValueError naming its path
        entries = load_archive(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: "), err
        return
    assert all(isinstance(value, np.ndarray) and value.dtype == np.float32 for value in entries.values())


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_archive(path, {"w": np.zeros(2, dtype=np.float32)})
    (tmp_path / "pad.ckpt").write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ValueError, match="trailing"):
        load_archive(tmp_path / "pad.ckpt")


def _one_entry(name: bytes, value: float) -> bytes:
    return len(name).to_bytes(2, "little") + name + bytes([1]) + (1).to_bytes(4, "little") + np.float32(value).tobytes()


def test_duplicate_entry_name_rejected(tmp_path):
    path = tmp_path / "dup.ckpt"
    path.write_bytes(MAGIC + bytes([1]) + (2).to_bytes(4, "little") + _one_entry(b"w", 1.0) + _one_entry(b"w", 2.0))
    with pytest.raises(ValueError, match=r"dup\.ckpt: duplicate entry 'w'"):
        load_archive(path)


def test_non_utf8_entry_name_names_file_and_byte(tmp_path):
    path = tmp_path / "name.ckpt"
    path.write_bytes(MAGIC + bytes([1]) + (1).to_bytes(4, "little") + _one_entry(b"a\xffb", 1.0))
    # the name starts after magic, version, count and its uint16 length: its 0xff is byte 18
    with pytest.raises(ValueError, match=r"name\.ckpt: entry name is not UTF-8 at byte 18"):
        load_archive(path)


def test_sentence_keyed_cache(tmp_path):
    cache = {f"sent-{i}": np.random.default_rng(i).normal(size=(i + 1, 4)).astype(np.float32)
             for i in range(5)}
    path = tmp_path / "transfer.cache"
    save_archive(path, cache)
    loaded = load_archive(path)
    assert set(loaded) == set(cache)
    for sid in cache:
        npt.assert_array_equal(loaded[sid], cache[sid])


def test_failed_save_keeps_the_previous_archive(tmp_path):
    path = tmp_path / "model.ckpt"
    save_archive(path, {"w": np.ones(1, dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="entry name too long"):  # raised after the header is written
        save_archive(path, {"w": np.zeros(1, dtype=np.float32), "x" * 70_000: np.zeros(1, dtype=np.float32)})
    assert path.read_bytes() == before
    npt.assert_array_equal(load_archive(path)["w"], np.ones(1, dtype=np.float32))
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_atomic_write_replaces_only_on_a_clean_exit(tmp_path):
    path = tmp_path / "run.log.jsonl"
    with atomic_write(path) as fh:
        fh.write("first\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("second, cut short")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.log.jsonl"]


def test_checkpoint_sidecar_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    meta = {"architecture": "atae", "hidden": 8, "task": "alsa"}
    save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)}, meta)
    values, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    npt.assert_array_equal(values["w"], np.ones(3, dtype=np.float32))


def test_missing_sidecar_is_an_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_archive(path, {"w": np.ones(1, dtype=np.float32)})
    with pytest.raises(FileNotFoundError, match="sidecar"):
        load_checkpoint(path)


def test_undecodable_sidecar_names_its_path(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(1, dtype=np.float32)}, {"task": "alsa"})
    sidecar = tmp_path / "model.ckpt.meta.json"
    sidecar.write_bytes(b'{"task": "\xffalsa"}')
    with pytest.raises(ValueError, match=re.escape(f"{sidecar}: not UTF-8 text: invalid start byte at byte 10")):
        load_checkpoint(path)


def test_malformed_sidecar_names_its_path(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(1, dtype=np.float32)}, {"task": "alsa"})
    sidecar = tmp_path / "model.ckpt.meta.json"
    sidecar.write_text('{"task": "alsa",', encoding="utf-8")
    with pytest.raises(ValueError, match=r"model\.ckpt\.meta\.json: malformed JSON"):
        load_checkpoint(path)
