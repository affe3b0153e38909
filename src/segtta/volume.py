"""Dense 3D scalar fields with physical voxel spacing, and the elementwise
and differential primitives the rest of the library builds on.

Conventions fixed here and relied on everywhere else:

* arrays are float64 (or bool for masks), shape ``(nx, ny, nz)``;
* the canonical linear order is x-fastest (flat index ``i`` maps to voxel
  ``(i % nx, (i // nx) % ny, i // (nx*ny))``), i.e. Fortran ravel order —
  file I/O in :mod:`segtta.fileio` serializes in this order;
* spatial differences use a replicate boundary: the final slab of a forward
  difference along any axis is zero, so nothing penalizes the volume border;
* thresholds are strict (``value > t``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

Spacing = tuple[float, float, float]


def _canonical_spacing(spacing) -> Spacing:
    s = tuple(float(x) for x in spacing)
    if len(s) != 3 or any(not np.isfinite(x) or x <= 0.0 for x in s):
        raise ValueError(f"spacing must be three positive finite numbers, got {spacing!r}")
    return s


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Volume:
    """A ``(nx, ny, nz)`` float64 grid with voxel spacing in mm."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"volume data must be a 3D array, got shape {arr.shape}")
        if not all_finite(arr):
            raise ValueError("volume data must be finite (no NaN/Inf)")
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "spacing", _canonical_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def nvox(self) -> int:
        return int(self.data.size)

    def with_data(self, data: np.ndarray) -> "Volume":
        """New volume on the same grid."""
        return Volume(data, self.spacing)


@dataclass(frozen=True, eq=False)
class Mask:
    """A boolean grid on the same layout/spacing conventions as Volume."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.bool_:
            raise ValueError(f"mask data must be boolean, got dtype {arr.dtype}")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"mask data must be a 3D array, got shape {arr.shape}")
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "spacing", _canonical_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def count(self) -> int:
        """Number of foreground voxels."""
        return int(np.count_nonzero(self.data))


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite, without a bool per entry when
    they are: a sum is finite only if every entry is, so the exact test runs
    only when the sum is not, and an overflowing sum of finite entries still
    passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(arr.sum()) or np.isfinite(arr).all())


def require(condition: bool, message: str) -> None:
    """Raise ValueError(message) unless ``condition`` holds; a NaN fails every
    comparison, so range checks written as ``lo <= x <= hi`` reject it."""
    if not condition:
        raise ValueError(message)


# the ranges a config field can be bounded to, keyed by their wording
_BOUNDS = {
    None: lambda x: True,
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "> 0": lambda x: x > 0,
}
_INVALID = object()


@lru_cache(maxsize=None)
def _hints(cls) -> tuple:
    return tuple(get_type_hints(cls).items())


def check_fields(obj, **bounds: str) -> None:
    """Check each field of the frozen dataclass ``obj`` against its type hint,
    and store each number as its declared type, so that a numpy scalar
    serializes like a Python one.

    ``int`` takes an integer, ``float`` a finite real, neither of them a bool;
    a fixed-length ``tuple[...]`` is checked element by element; ``X | None``
    takes None too; any other class (bool, str, a config) its instances.
    ``bounds`` maps a field to a key of ``_BOUNDS``, the range its number, or
    each number of its tuple, must lie in.  Raises ValueError naming the field.
    """
    for name, hint in _hints(type(obj)):
        value, bound = getattr(obj, name), bounds.get(name)
        stored = _conform(value, hint, _BOUNDS[bound])
        if stored is _INVALID:
            raise ValueError(f"{name} must be {_wording(hint, bound)}, got {value!r}")
        if stored is not value:
            object.__setattr__(obj, name, stored)


def _conform(value, hint, within):
    """``value`` as ``hint`` declares it, or _INVALID."""
    if hint is int or hint is float:
        ok = not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) if hint is int
            else isinstance(value, numbers.Real) and math.isfinite(value))
        return hint(value) if ok and within(value) else _INVALID
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, tuple) or len(value) != len(args):
            return _INVALID
        items = tuple(_conform(v, a, within) for v, a in zip(value, args))
        return _INVALID if any(v is _INVALID for v in items) else items
    if args:  # X | None
        return None if value is None else _conform(value, args[0], within)
    return value if isinstance(value, hint) else _INVALID


def _wording(hint, bound: str | None) -> str:
    if hint is int:
        return f"an integer {bound}" if bound else "an integer"
    if hint is float:
        return f"finite and {bound}" if bound else "a finite number"
    args = get_args(hint)
    if get_origin(hint) is tuple:  # the configs' tuples are homogeneous
        return f"{len(args)} values, each {_wording(args[0], bound)}"
    if args:
        return f"None or {_wording(args[0], bound)}"
    return f"of type {hint.__name__}"


def require_same_grid(a, b, what: str = "operands") -> None:
    if a.dims != b.dims or a.spacing != b.spacing:
        raise ValueError(
            f"dimension/spacing mismatch between {what}: "
            f"{a.dims}@{a.spacing} vs {b.dims}@{b.spacing}"
        )


@dataclass(frozen=True, eq=False)
class Case:
    """One test sample: >=1 image channels plus the initial logits, all on one grid."""

    image: tuple[Volume, ...]
    logits0: Volume
    case_id: str = ""

    def __post_init__(self):
        channels = tuple(self.image)
        if len(channels) < 1:
            raise ValueError("a case needs at least one image channel")
        for i, ch in enumerate(channels):
            require_same_grid(ch, self.logits0, f"image channel {i} and logits0")
        object.__setattr__(self, "image", channels)

    @property
    def spacing(self) -> Spacing:
        return self.logits0.spacing


def sigmoid(z: Volume) -> Volume:
    """P = 1 / (1 + exp(-z)), exact 0 and 1 at large |z|."""
    return z.with_data(sigmoid_into(z.data, np.empty(z.dims)))


def sigmoid_into(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P = 1 / (1 + exp(-z)) written into ``out`` and returned; the library's
    one sigmoid.  exp(-z) overflows to inf for z < -709, giving P = 0."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(z, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def along(axis: int, s: slice) -> tuple[slice, slice, slice]:
    """Index of a 3D array taking ``s`` along ``axis`` and all of the other two."""
    index = [slice(None)] * 3
    index[axis] = s
    return tuple(index)


#: The fewest voxels in a slab of the refinement step (512 KiB per float64
#: array), unless the whole grid is smaller.  Thinner slabs keep more of a
#: step in cache but make more numpy calls, each with its overhead and, under
#: the two-thread hypothesis pool, a release and retake of the GIL.  At 64^3
#: with both hypotheses on two threads of a 2-core Xeon (2 MiB L2 per core),
#: 2^16 took 12.3 ms per step, 2^15 13.0, 2^14 16.5 and one slab 13.8.
SLAB_VOXELS = 2**16


def slab_planes(shape: tuple[int, ...]) -> int:
    """Axis-0 planes per slab of the refinement step on a ``shape`` grid.

    The grid is cut into max(1, N // SLAB_VOXELS) slabs of near-equal
    thickness (the last may be thinner), so a grid of fewer than
    2 SLAB_VOXELS voxels stays one slab and pays no per-slab calls."""
    return -(-shape[0] // max(1, math.prod(shape) // SLAB_VOXELS))


@lru_cache(maxsize=32)
def axis_coords(dims: tuple[int, int, int], spacing: Spacing) -> tuple[np.ndarray, ...]:
    """Physical coordinate (mm) of each index along each axis, shaped to
    broadcast against a ``dims`` grid.  Cached, so the arrays are read-only."""
    xs = []
    for axis, (n, s) in enumerate(zip(dims, spacing)):
        c = (np.arange(n, dtype=np.float64) * s).reshape([n if a == axis else 1 for a in range(3)])
        c.flags.writeable = False
        xs.append(c)
    return tuple(xs)


def threshold(v: Volume, t: float) -> Mask:
    """Strict threshold: mask is true exactly where v > t."""
    return Mask(v.data > float(t), v.spacing)
