"""The checkpoint container: one file of checksummed array sections.

A checkpoint is a small JSON header (scalar state) followed by the raw
bytes of named numpy arrays.  Callers hand over *components* — flat
dicts mixing scalars and arrays, as ``dump``-style methods produce them
— and get the same dicts back; a component's arrays are the sections
``<component>.<key>``.  Little-endian, no padding — every byte of
the file is covered by a check, so damage anywhere is detected::

    offset  size  what
    0       8     magic ``RVSCKPT`` + one format byte
    8       4     header length H (uint32)
    12      4     CRC-32 of the header bytes (uint32)
    16      H     header: UTF-8 JSON ``{"state": {...}, "components":
                  {name: {scalars}}, "sections": [[name, dtype, shape,
                  crc32], ...]}``
    16+H    ...   each section's C-order bytes, back to back, in
                  header order; the file ends with the last section

Writers go through :func:`atomic_write_bytes` (same-directory temp +
``os.replace``), so a crash mid-write leaves the previous file intact.
Readers get one exception type, :class:`CheckpointError`, naming the
file and the section that failed — truncation, a flipped byte, or
arrays that do not have the shape the header's scalars promise.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

#: Format 4 stores the ballot payloads as one store-wide pool.  Format
#: 3 (a slab per ballot box) was the first sectioned format; 1 and 2
#: were whole-shard JSON documents.  Nothing reads any of them.
CHECKPOINT_FORMAT = 4
_MAGIC = b"RVSCKPT" + bytes([CHECKPOINT_FORMAT])
_PREAMBLE = struct.Struct("<8sII")


class CheckpointError(ValueError):
    """A checkpoint that cannot be trusted; the message names the file
    and the section at fault."""


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp +
    ``os.replace``), so readers see either the old contents or the new
    — never a torn prefix."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - cleanup best effort
                pass


def write_sections(
    path: PathLike, state: Dict[str, Any], components: Dict[str, Dict[str, Any]]
) -> int:
    """Atomically write one checkpoint file; returns its size in bytes.

    ``state`` is JSON-clean scalar state.  Each component is a flat
    dict mixing scalars and arrays: its arrays become the sections
    ``<component>.<key>``, its scalars ride in the header."""
    scalars: Dict[str, Dict[str, Any]] = {}
    table = []
    chunks = []
    for prefix, component in components.items():
        scalars[prefix] = {}
        for key, value in component.items():
            if not isinstance(value, np.ndarray):
                scalars[prefix][key] = value
                continue
            raw = np.ascontiguousarray(value).tobytes()
            table.append(
                [f"{prefix}.{key}", value.dtype.str, list(value.shape), zlib.crc32(raw)]
            )
            chunks.append(raw)
    header = json.dumps(
        {"state": state, "components": scalars, "sections": table},
        separators=(",", ":"),
    ).encode("utf-8")
    preamble = _PREAMBLE.pack(_MAGIC, len(header), zlib.crc32(header))
    data = b"".join([preamble, header, *chunks])
    atomic_write_bytes(path, data)
    return len(data)


def read_sections(
    path: PathLike,
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Read and verify a :func:`write_sections` file: ``(state,
    components)``, the arrays read-only views of the file's bytes."""
    data = Path(path).read_bytes()

    def fail(section: str, why: str) -> CheckpointError:
        return CheckpointError(f"{path}: section {section!r}: {why}")

    if len(data) < _PREAMBLE.size:
        raise fail("preamble", f"truncated at byte {len(data)}")
    magic, header_len, header_crc = _PREAMBLE.unpack_from(data)
    if magic != _MAGIC:
        raise fail("preamble", f"not a format-{CHECKPOINT_FORMAT} checkpoint")
    offset = _PREAMBLE.size + header_len
    if len(data) < offset:
        raise fail("header", f"truncated at byte {len(data)}")
    raw_header = data[_PREAMBLE.size : offset]
    if zlib.crc32(raw_header) != header_crc:
        raise fail("header", "checksum mismatch")
    header = json.loads(raw_header)
    components = header["components"]
    view = memoryview(data)
    for name, dtype_str, shape, crc in header["sections"]:
        dtype = np.dtype(dtype_str)
        end = offset + int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if len(data) < end:
            raise fail(name, f"truncated at byte {len(data)}")
        if zlib.crc32(view[offset:end]) != crc:
            raise fail(name, "checksum mismatch")
        prefix, _dot, key = name.partition(".")
        components[prefix][key] = np.frombuffer(
            view[offset:end], dtype=dtype
        ).reshape(shape)
        offset = end
    if offset != len(data):
        raise fail("end of file", f"{len(data) - offset} trailing bytes")
    return header["state"], components


def take(
    state: Dict[str, Any], name: str, dtype: Any, *shape: Optional[int]
) -> np.ndarray:
    """``state[name]``, checked to be an array of ``dtype`` and
    ``shape`` (``None`` leaves a dimension free) — the guard between a
    header's scalars and the arrays they describe."""
    arr = state.get(name)
    ok = (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.dtype(dtype)
        and arr.ndim == len(shape)
        and all(want is None or want == got for want, got in zip(shape, arr.shape))
    )
    if not ok:
        found = (
            f"{arr.dtype}{list(arr.shape)}"
            if isinstance(arr, np.ndarray)
            else type(arr).__name__
        )
        raise CheckpointError(
            f"section {name!r}: expected {np.dtype(dtype)}{list(shape)}, "
            f"found {found}"
        )
    return arr


def pack_strings(items: Sequence[str]) -> np.ndarray:
    """A list of ids as one NUL-separated UTF-8 byte section."""
    blob = "\0".join(items).encode("utf-8")
    if blob.count(b"\0") != max(len(items) - 1, 0):
        raise ValueError("ids containing NUL cannot be checkpointed")
    return np.frombuffer(blob, dtype=np.uint8)


def unpack_strings(state: Dict[str, Any], name: str, count: int) -> List[str]:
    """The ``count`` ids :func:`pack_strings` stored under ``name``."""
    blob = take(state, name, np.uint8, None)
    items = blob.tobytes().decode("utf-8").split("\0") if count else []
    if len(items) != count:
        raise CheckpointError(
            f"section {name!r}: expected {count} ids, found {len(items)}"
        )
    return items
