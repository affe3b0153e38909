"""Bit-exact volume file format plus report/config serialization.

Volume file layout (little-endian throughout, described in docs/volume_format.md):

    offset  size  field
    0       4     magic "HDTV"
    4       2     format version (u16), currently 1
    6       1     dtype tag (u8): 1 = f32, 2 = f64, 3 = u8 mask (0/1)
    7       12    dims, 3 x u32 (nx, ny, nz)
    19      24    spacing, 3 x f64, mm
    43      ...   payload: nx*ny*nz values in x-fastest order
    end     4     CRC32 of the payload bytes (u32)

write -> read is bit-identical for f64 payloads and for masks.  The f32 tag is
read, as float64, but no longer written.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import TYPE_CHECKING

import numpy as np

from .volume import Mask, Volume

if TYPE_CHECKING:
    from .pipeline import RunReport

MAGIC = b"HDTV"
VERSION = 1
REPORT_SCHEMA_VERSION = 4
# z-planes per read block: of 1, 8, 16, 32 and 64, 32 read a 240x240x155 f64
# volume fastest, and 1 or 8 no faster than the whole file read at once
BLOCK_PLANES = 32

_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
_TAG_F64, _TAG_MASK = 2, 3


class VolumeFileError(ValueError):
    """Base class for volume file problems."""


class BadMagicError(VolumeFileError):
    pass


class UnsupportedVersionError(VolumeFileError):
    pass


class TruncatedFileError(VolumeFileError):
    pass


class CrcMismatchError(VolumeFileError):
    pass


class BadMaskByteError(VolumeFileError):
    """A mask payload byte other than 0 or 1."""


def write_volume(path, v: Volume | Mask) -> None:
    """Serialize to the HDTV container: a volume with the f64 tag, a mask with
    the u8 tag."""
    tag = _TAG_MASK if isinstance(v, Mask) else _TAG_F64
    # the payload in x-fastest order, converted and reordered in one copy:
    # the transpose of the C-ordered data laid out in C order
    payload = np.asarray(v.data.T, dtype=_DTYPE_TAGS[tag], order="C")
    header = bytearray()
    header += MAGIC
    header += VERSION.to_bytes(2, "little")
    header += tag.to_bytes(1, "little")
    for n in v.dims:
        header += int(n).to_bytes(4, "little")
    header += np.asarray(v.spacing, dtype="<f8").tobytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.data.cast("B"))
        f.write(crc.to_bytes(4, "little"))


def read_volume(path) -> Volume | Mask:
    """Parse an HDTV container; raises a distinct error per failure mode.

    Besides the returned array, a read holds one staging block of
    :data:`BLOCK_PLANES` z-planes: the header's dims are checked against the
    file size before the array is allocated, and each block is read into the
    staging buffer, added to the running CRC (and, for a mask, its running
    max) and transposed from x-fastest into the C-ordered array while it is
    in cache.  The CRC and mask-byte checks run once the payload is in."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(43)
        if len(head) < 4 or head[:4] != MAGIC:
            raise BadMagicError(f"{path}: not an HDTV volume file")
        if len(head) < 43:
            raise TruncatedFileError(f"{path}: header truncated ({size} bytes)")
        version = int.from_bytes(head[4:6], "little")
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported format version {version}")
        tag = head[6]
        if tag not in _DTYPE_TAGS:
            raise VolumeFileError(f"{path}: unknown dtype tag {tag}")
        nx, ny, nz = dims = tuple(int.from_bytes(head[7 + 4 * i : 11 + 4 * i], "little")
                                  for i in range(3))
        spacing = tuple(np.frombuffer(head[19:43], dtype="<f8"))
        dtype = _DTYPE_TAGS[tag]
        payload_len = nx * ny * nz * dtype.itemsize
        if size != 43 + payload_len + 4:
            raise TruncatedFileError(
                f"{path}: expected {43 + payload_len + 4} bytes for dims {dims}, got {size}"
            )
        # a zero dim leaves nothing to read; numpy cannot shape every such
        # dims (a zero beside two dims near 2**32 overflows its size check)
        out = np.empty(dims if payload_len else 0,
                       dtype=np.uint8 if tag == _TAG_MASK else np.float64)
        staging = np.empty(min(nz, BLOCK_PLANES) * nx * ny, dtype=dtype)
        crc, top = 0, 0
        for k in range(0, nz if payload_len else 0, BLOCK_PLANES):
            n = min(BLOCK_PLANES, nz - k)
            block = staging[: n * nx * ny]
            if f.readinto(block.view(np.uint8)) != block.nbytes:
                raise TruncatedFileError(f"{path}: payload truncated while reading")
            crc = zlib.crc32(block, crc)
            if tag == _TAG_MASK:
                top = max(top, int(block.max(initial=0)))
            out[:, :, k : k + n] = block.reshape(n, ny, nx).T
        trailer = f.read(4)
        if len(trailer) != 4:
            raise TruncatedFileError(f"{path}: payload CRC truncated while reading")
        if int.from_bytes(trailer, "little") != crc & 0xFFFFFFFF:
            raise CrcMismatchError(f"{path}: payload CRC mismatch")
    if top > 1:
        raise BadMaskByteError(f"{path}: mask bytes must be 0 or 1, found {top}")
    if not payload_len:
        raise VolumeFileError(f"{path}: dims {dims} hold no voxels")
    try:
        if tag == _TAG_MASK:
            return Mask(out.view(np.bool_), spacing)
        return Volume(out, spacing)
    except ValueError as exc:  # zero dim, non-finite payload or bad spacing
        raise VolumeFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# structured-text serialization of reports and configs
# ---------------------------------------------------------------------------


def dumps_json(payload) -> str:
    """The one JSON text form of every output: sorted keys, two-space indent,
    a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dumps_report(report: RunReport, include_timings: bool = True) -> str:
    """JSON report: full decision trace, the run's config (the fixed
    constants aside), scalars at full precision.  The mask payload lives in its own volume file; only its
    voxel count is recorded here."""
    payload = dataclasses.asdict(dataclasses.replace(report, final_mask=None))
    del payload["final_mask"]
    payload["final_mask_voxels"] = report.final_mask.count if report.final_mask is not None else None
    payload["schema_version"] = REPORT_SCHEMA_VERSION
    if not include_timings:
        payload["timings_s"] = None
    return dumps_json(payload)


def spec_to_json(spec) -> str:
    return dumps_json(dataclasses.asdict(spec))


def spec_from_json(text: str, spec_cls):
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"spec must be a JSON object, found {type(data).__name__}")
    fields = dataclasses.fields(spec_cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown spec fields: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing spec fields: {missing}")
    return spec_cls(**{key: _tuples(value) for key, value in data.items()})


def _tuples(value):
    """JSON arrays, nested ones too, as the tuples the frozen specs hold."""
    return tuple(_tuples(x) for x in value) if isinstance(value, list) else value
