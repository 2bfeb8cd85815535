"""Binary archive of named float32 arrays, used for checkpoints and caches.

Layout (all integers little-endian):

    magic         10 bytes  b"ABSA-CKPT\\0"
    version       1 byte    currently 1
    entry count   uint32
    per entry:
        name length   uint16
        name          UTF-8 bytes
        rank          uint8
        extents       rank x uint32
        values        product(extents) x float32, C order

Model checkpoints pair the archive with a ``<path>.meta.json`` sidecar
describing how to rebuild the model (architecture, dimensions, input
mode). Transfer-row caches reuse the same archive with one entry per
sentence id. Archives, sidecars and training logs are written whole or not
at all: into a temporary file beside the target, then moved onto it.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import numpy as np

MAGIC = b"ABSA-CKPT\x00"
VERSION = 1


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside `path` that replaces `path` on a clean
    exit; on an error it is removed, and `path` keeps what it held."""
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_archive(path, entries: Mapping[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<BI", VERSION, len(entries)))  # "<": no padding
        for name, values in entries.items():
            arr = np.ascontiguousarray(values, dtype="<f4")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"entry name too long: {name[:40]}...")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(arr)  # the C-order buffer itself: no bytes copy


def load_archive(path) -> dict[str, np.ndarray]:
    path = Path(path)
    blob = path.read_bytes()
    view = memoryview(blob)
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not an ABSA-CKPT archive")
    offset = len(MAGIC)

    def unpack(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(blob):
            raise ValueError(f"{path}: truncated archive at byte {offset}")
        out = struct.unpack_from(fmt, view, offset)
        offset += size
        return out

    (version,) = unpack("<B")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported archive version {version}")
    (count,) = unpack("<I")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        if offset + name_len > len(blob):
            raise ValueError(f"{path}: truncated archive at byte {offset}")
        try:
            name = bytes(view[offset : offset + name_len]).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: entry name is not UTF-8 at byte {offset + err.start}") from None
        if name in entries:
            raise ValueError(f"{path}: duplicate entry {name!r}")
        offset += name_len
        (rank,) = unpack("<B")
        shape = tuple(unpack(f"<{rank}I")) if rank else ()
        size = math.prod(shape)  # Python ints: a wrapped product would pass the length check
        nbytes = 4 * size
        if offset + nbytes > len(blob):
            raise ValueError(f"{path}: truncated values for entry {name!r}")
        try:  # numpy refuses some shapes of no values too, e.g. (0, 2**32 - 1, 2**32 - 1)
            entries[name] = np.frombuffer(view, dtype="<f4", count=size, offset=offset).reshape(shape).copy()
        except ValueError as err:
            raise ValueError(f"{path}: entry {name!r} has extents {shape} that numpy cannot hold: {err}") from None
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return entries


def save_checkpoint(path, values: Mapping[str, np.ndarray], meta: dict) -> None:
    """Archive plus a JSON sidecar describing the model it belongs to."""
    save_archive(path, values)
    with atomic_write(str(path) + ".meta.json") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    values = load_archive(path)
    sidecar = Path(str(path) + ".meta.json")
    if not sidecar.exists():
        raise FileNotFoundError(f"missing checkpoint sidecar {sidecar}")
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ValueError(f"{sidecar}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{sidecar}: malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: expected a JSON object, got {type(meta).__name__}")
    return values, meta
