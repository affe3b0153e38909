"""Brute-force reference implementations used to validate the library's
metric paths.  Deliberately naive: all-pairs distances, the plain KD-tree
hd95, a surface extraction and an edge map with one full-size temporary per
term, literal 2^n sign enumeration, hand-rolled average ranks, a SplitMix64
in Python integers, an HDTV reader that holds the whole file.  These never call the code they check.
"""

import itertools
import math
import zlib
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter
from scipy.spatial import cKDTree

from segtta import fileio
from segtta.volume import Mask, Volume, along


def surface_points_mm(mask):
    pts = []
    fg = mask.data
    dims = fg.shape
    for idx in np.argwhere(fg):
        x, y, z = idx
        on_border = x in (0, dims[0] - 1) or y in (0, dims[1] - 1) or z in (0, dims[2] - 1)
        has_bg_neighbor = False
        for axis, step in itertools.product(range(3), (-1, 1)):
            n = idx.copy()
            n[axis] += step
            if 0 <= n[axis] < dims[axis] and not fg[tuple(n)]:
                has_bg_neighbor = True
        if on_border or has_bg_neighbor:
            pts.append(idx * np.asarray(mask.spacing))
    return np.asarray(pts, dtype=float)


def hd95(pred, gt):
    a = surface_points_mm(pred)
    b = surface_points_mm(gt)
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return math.sqrt(sum((n * s) ** 2 for n, s in zip(pred.dims, pred.spacing)))
    d_ab = [min(np.linalg.norm(p - q) for q in b) for p in a]
    d_ba = [min(np.linalg.norm(q - p) for p in a) for q in b]
    return float(np.percentile(np.asarray(d_ab + d_ba), 95.0))


def hd95_kdtree(pred, gt):
    """hd95 of two non-empty masks by the plain KD-tree formula: every surface
    point of each mask is looked up in a tree over all surface points of the
    other, shared points included.  Surfaces come from a padded six-neighbour
    test, not from the library's extraction."""
    def points(m):
        fg = np.pad(m.data, 1)
        inner = fg[1:-1, 1:-1, 1:-1]
        interior = inner.copy()
        for axis in range(3):
            for lo in (0, 2):
                index = [slice(1, -1)] * 3
                index[axis] = slice(lo, lo + inner.shape[axis])
                interior &= fg[tuple(index)]
        return np.argwhere(inner & ~interior).astype(np.float64) * np.asarray(m.spacing)

    a, b = points(pred), points(gt)
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return float(np.percentile(np.concatenate([d_ab, d_ba]), 95.0))


def dice(pred, gt):
    na = int(np.count_nonzero(pred.data))
    nb = int(np.count_nonzero(gt.data))
    if na + nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(pred.data & gt.data)) / (na + nb)


def precision(pred, gt):
    na = int(np.count_nonzero(pred.data))
    if na == 0:
        return 1.0 if int(np.count_nonzero(gt.data)) == 0 else 0.0
    return int(np.count_nonzero(pred.data & gt.data)) / na


def average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def wilcoxon_exact(diffs, direction):
    d = [x for x in diffs if x != 0.0]
    if direction == "less":
        d = [-x for x in d]
    n = len(d)
    ranks = average_ranks([abs(x) for x in d])
    observed = sum(r for r, x in zip(ranks, d) if x > 0)
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w >= observed - 1e-9:
            hits += 1
    return hits / 2.0**n



def surface_voxels(mask):
    """Boundary voxels by ORing each border plane and each one-sided face
    difference into a zeroed grid, one full-size temporary per term."""
    fg = mask.data
    boundary = np.zeros_like(fg)
    for axis in range(3):
        lo, hi = along(axis, slice(0, 1)), along(axis, slice(fg.shape[axis] - 1, None))
        boundary[lo] |= fg[lo]
        boundary[hi] |= fg[hi]
        a, b = along(axis, slice(None, -1)), along(axis, slice(1, None))
        boundary[a] |= fg[a] & ~fg[b]
        boundary[b] |= fg[b] & ~fg[a]
    return boundary


def edge_map(channels, sigma_mm=1.0, alpha=10.0):
    """The edge-stopping map as one expression per step, a fresh grid each:
    scipy's Gaussian, spacing-scaled central differences (one-sided at the
    ends), the magnitude over its 99th percentile (zero when that is not
    positive), 1 / (1 + alpha m^2), and the minimum over channels."""
    spacing = channels[0].spacing
    g = None
    for ch in channels:
        smooth = gaussian_filter(ch.data.astype(np.float64), [sigma_mm / s for s in spacing],
                                 mode="nearest")
        sq = np.zeros_like(smooth)
        for axis, s in enumerate(spacing):
            n = smooth.shape[axis]
            if n == 1:
                continue
            d = np.empty_like(smooth)
            d[along(axis, slice(1, -1))] = (smooth[along(axis, slice(2, None))]
                                            - smooth[along(axis, slice(None, -2))])
            d[along(axis, slice(0, 1))] = (smooth[along(axis, slice(1, 2))]
                                           - smooth[along(axis, slice(0, 1))])
            d[along(axis, slice(n - 1, n))] = (smooth[along(axis, slice(n - 1, n))]
                                               - smooth[along(axis, slice(n - 2, n - 1))])
            d /= 2.0 * s
            sq += d * d
        mag = np.sqrt(sq)
        p99 = float(np.percentile(mag, 99.0))
        norm = mag / p99 if p99 > 0.0 else np.zeros_like(mag)
        g_c = 1.0 / (1.0 + alpha * norm * norm)
        g = g_c if g is None else np.minimum(g, g_c)
    return g


_U64 = 2**64 - 1


def splitmix64(seed, k):
    """Output k of the SplitMix64 stream of ``seed``, in Python integers."""
    x = (seed + (k + 1) * 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def read_volume(path):
    """An HDTV file read whole into one bytes object, its CRC taken over a
    view of the payload and the array made by one transposing conversion."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != fileio.MAGIC:
        raise fileio.BadMagicError(f"{path}: not an HDTV volume file")
    if len(raw) < 43:
        raise fileio.TruncatedFileError(f"{path}: header truncated ({len(raw)} bytes)")
    version = int.from_bytes(raw[4:6], "little")
    if version != fileio.VERSION:
        raise fileio.UnsupportedVersionError(f"{path}: unsupported format version {version}")
    tag = raw[6]
    if tag not in fileio._DTYPE_TAGS:
        raise fileio.VolumeFileError(f"{path}: unknown dtype tag {tag}")
    dims = tuple(int.from_bytes(raw[7 + 4 * i : 11 + 4 * i], "little") for i in range(3))
    spacing = tuple(np.frombuffer(raw[19:43], dtype="<f8"))
    dtype = fileio._DTYPE_TAGS[tag]
    count = dims[0] * dims[1] * dims[2]
    payload_len = count * dtype.itemsize
    if len(raw) != 43 + payload_len + 4:
        raise fileio.TruncatedFileError(
            f"{path}: expected {43 + payload_len + 4} bytes for dims {dims}, got {len(raw)}"
        )
    stored_crc = int.from_bytes(raw[43 + payload_len :], "little")
    if zlib.crc32(memoryview(raw)[43 : 43 + payload_len]) & 0xFFFFFFFF != stored_crc:
        raise fileio.CrcMismatchError(f"{path}: payload CRC mismatch")
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=43).reshape(dims, order="F")
    if tag == 3 and (top := int(arr.max(initial=0))) > 1:
        raise fileio.BadMaskByteError(f"{path}: mask bytes must be 0 or 1, found {top}")
    try:
        if tag == 3:
            return Mask(np.ascontiguousarray(arr.view(np.bool_)), spacing)
        return Volume(np.ascontiguousarray(arr, dtype=np.float64), spacing)
    except ValueError as exc:  # zero dim, non-finite payload or bad spacing
        raise fileio.VolumeFileError(f"{path}: {exc}") from exc


def write_volume_f32(path, v):
    """``v`` as an HDTV file with the f32 tag (1), which the library reads but
    no longer writes: the header, the payload as float32 in x-fastest order
    and its CRC."""
    payload = np.asarray(v.data, dtype="<f4").tobytes(order="F")
    header = fileio.MAGIC + fileio.VERSION.to_bytes(2, "little") + bytes([1])
    header += b"".join(int(n).to_bytes(4, "little") for n in v.dims)
    header += np.asarray(v.spacing, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload + zlib.crc32(payload).to_bytes(4, "little"))
