"""Volume-level segmentation metrics, cohort aggregation, and the paired
one-sided Wilcoxon signed-rank test with Holm-Bonferroni correction.

Conventions (fixed and documented because cohorts with near-empty predictions
need a deterministic policy):

* dice: both masks empty -> 1.0
* precision: empty prediction -> 1.0 if the reference is empty, else 0.0
* hd95: both empty -> 0.0; exactly one empty -> the physical diagonal of the
  volume
* hd95 pools the two directed surface-distance sets before taking the 95th
  percentile (linear interpolation)
* a voxel on both surfaces is at distance exactly 0 from the other surface;
  hd95 counts it as 0 without a nearest-neighbour lookup, which leaves the
  pooled distances, and so the percentile, unchanged.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .volume import Mask, along, require, require_same_grid


@dataclass(frozen=True)
class MetricSet:
    dice: float
    hd95_mm: float
    precision: float


@dataclass(frozen=True)
class CohortStats:
    n: int
    dice_mean: float
    dice_std: float
    hd95_mean: float
    hd95_std: float
    precision_mean: float
    precision_std: float
    degenerate: bool = False  # true when n == 1 (std reported as 0)


@dataclass(frozen=True)
class WilcoxonResult:
    metric: str
    direction: str           # "greater" or "less" (alternative for pred-vs-ref diffs)
    n_nonzero: int
    statistic: float         # W+ of the oriented differences
    p_raw: float
    p_adjusted: float
    method: str              # "exact" | "normal" | "degenerate"
    degenerate: bool = False


def dice(pred: Mask, gt: Mask) -> float:
    """2|A n B| / (|A| + |B|); both empty counts as perfect agreement."""
    require_same_grid(pred, gt, "prediction and reference masks")
    a, b = pred.data, gt.data
    denom = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / denom


def precision(pred: Mask, gt: Mask) -> float:
    """TP / (TP + FP); an empty prediction is perfect iff the reference is empty."""
    require_same_grid(pred, gt, "prediction and reference masks")
    n_pred = int(np.count_nonzero(pred.data))
    if n_pred == 0:
        return 1.0 if int(np.count_nonzero(gt.data)) == 0 else 0.0
    tp = int(np.count_nonzero(pred.data & gt.data))
    return tp / n_pred


def surface_voxels(mask: Mask) -> np.ndarray:
    """Boolean array of boundary voxels: foreground with at least one of the six
    face-neighbors background, or lying on the volume border."""
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


def volume_diagonal_mm(mask: Mask) -> float:
    return math.sqrt(sum((n * s) ** 2 for n, s in zip(mask.dims, mask.spacing)))


# hd95's nearest-surface search (see ``hd95``).  The offset table holds the
# shortest offsets of a ball of about this many voxels.
_TABLE_OFFSETS = 4096
# Squared lengths closer than this, relative, share a band.  On an axis of n
# voxels rounding moves a squared distance by under (4n + 6) units of
# roundoff (1.1e-16 each), so below 1e8 voxels per axis no offset of a later
# band can come out nearer than a hit of an earlier one.
_TIE = 1e-6
# Largest (rows x columns) block that one gather or brute-force step builds:
# temporaries of at most 256 KB.  Twice that was as fast on the phantoms but
# left phantom_triage's peak RSS 2 MiB higher.
_BLOCK = 1 << 15


@functools.lru_cache(maxsize=16)
def _offset_table(spacing: tuple[float, float, float]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The nonzero integer voxel offsets up to the radius of a ball of about
    ``_TABLE_OFFSETS`` voxels, sorted by physical length, and the edges of
    the bands the search walks.

    Bands end only at a gap of more than ``_TIE`` between two lengths, and a
    band holds at least a quarter as many offsets as all bands before it, so
    a search makes O(log n) gathers, and past the first bands it looks up at
    most about a quarter more offsets than it needs.  Every offset left out of
    the table is longer than all in it by more than ``_TIE``.  The arrays are
    cached, so they are read-only."""
    s = np.asarray(spacing)
    reach = (3.0 * _TABLE_OFFSETS * s.prod() / (4.0 * math.pi)) ** (1.0 / 3.0)
    r = np.ceil(reach / s).astype(np.int64)  # the box holds every offset up to reach
    grid = np.meshgrid(*(np.arange(-k, k + 1) for k in r), indexing="ij")
    offsets = np.stack([g.ravel() for g in grid], axis=1)
    sq = ((offsets * s) ** 2).sum(axis=1)
    order = np.argsort(sq, kind="stable")[1:]  # the zero offset comes first
    offsets, sq = offsets[order], sq[order]
    gaps = np.flatnonzero(sq[1:] > sq[:-1] * (1.0 + _TIE)) + 1
    n = int(gaps[np.searchsorted(sq[gaps], reach * reach, side="right")])
    edges = [0]
    for g in gaps[gaps <= n]:
        if g - edges[-1] >= max(6, edges[-1] // 4) or g == n:
            edges.append(int(g))
    offsets = offsets[:n]
    offsets.flags.writeable = False
    return offsets, tuple(edges)


def _voxels(mask: np.ndarray) -> np.ndarray:
    """Indices (3, n) of the true voxels of ``mask`` in C order; ten times
    faster than ``np.argwhere`` on a 64^3 surface."""
    return np.array(np.unravel_index(np.flatnonzero(mask), mask.shape))


def _nearest_sq(src: np.ndarray, dst: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Smallest squared distance from each voxel in ``src`` (indices, 3 x n)
    to a voxel of the boolean grid ``dst``, in cKDTree's arithmetic:
    coordinates are index times spacing, and the sum is
    (dx*dx + dy*dy) + dz*dz."""
    offsets, edges = _offset_table(tuple(float(x) for x in spacing))
    # past as many offsets as dst has voxels, comparing a voxel with all of
    # dst costs less than walking on
    budget = int(np.count_nonzero(dst))
    edges = [e for e in edges if e <= max(edges[1], budget)]
    offsets = offsets[:edges[-1]].T
    pad = np.abs(offsets).max(axis=1)
    padded = np.zeros(tuple(np.add(dst.shape, 2 * pad)), dtype=bool)
    padded[tuple(slice(p, p + n) for p, n in zip(pad, dst.shape))] = dst
    strides = np.array([padded.shape[1] * padded.shape[2], padded.shape[2], 1])
    padded, base, flat_offsets = padded.ravel(), strides @ (src + pad[:, None]), strides @ offsets
    spacing = spacing[:, None]
    coords = src * spacing
    best = np.full(src.shape[1], np.inf)

    def sq_to(rows, targets):
        """Squared distances from the voxels ``rows`` to the points whose
        coordinates along axis k are ``targets[k]``, broadcast together."""
        acc = None
        for k in range(3):
            d = coords[k, rows] - targets[k]
            d *= d
            acc = d if acc is None else np.add(acc, d, out=acc)
        return acc

    todo = np.arange(src.shape[1])
    for lo, hi in zip(edges[:-1], edges[1:]):
        missed, step = [], max(1, _BLOCK // (hi - lo))
        for c in range(0, len(todo), step):
            rows = todo[c:c + step]
            hit = padded[base[rows][:, None] + flat_offsets[lo:hi]]
            found = hit.any(axis=1)
            missed.append(rows[~found])
            if not found.any():
                continue
            rows = rows[found]
            # row-major order: each row's hits are adjacent, and every row has one
            r, col = np.divmod(np.flatnonzero(hit[found]), hi - lo)
            sq = sq_to(rows[r], (src[:, rows[r]] + offsets[:, lo + col]) * spacing)
            best[rows] = np.minimum.reduceat(sq, np.flatnonzero(np.diff(r, prepend=-1)))
        todo = np.concatenate(missed)
        if not len(todo):
            return best
    targets = _voxels(dst) * spacing
    step = max(1, _BLOCK // targets.shape[1])
    for c in range(0, len(todo), step):
        rows = todo[c:c + step]
        best[rows] = sq_to(rows[:, None], targets).min(axis=1)
    return best


def hd95(pred: Mask, gt: Mask) -> float:
    """95th percentile of the pooled bidirectional nearest-surface distances,
    in mm, with the bits of the KD-tree formula (``tests/oracles.py``).

    A voxel on both surfaces is at distance exactly 0 from the other surface,
    so only the voxels on one surface alone are searched for.  The search is
    exact, with no tree:

    * it walks a table of integer voxel offsets sorted by physical length,
      over a padded copy of the other surface, in bands of near-equal length;
      each band is one gather for all voxels still unresolved;
    * a voxel's first band with a hit holds its nearest surface voxel.  Bands
      split only where lengths differ by far more than rounding can move a
      distance, so no later offset can come out nearer, and the voxel's
      distance is the smallest over that band's hits;
    * voxels with no hit in the table, or none within as many offsets as the
      other surface has voxels, are compared with every voxel of that
      surface, in chunks;
    * each distance is computed from absolute coordinates as cKDTree computes
      it: coordinates are index times spacing, the squared distance is
      (dx*dx + dy*dy) + dz*dz and the result its square root."""
    require_same_grid(pred, gt, "prediction and reference masks")
    n_pred = int(np.count_nonzero(pred.data))
    n_gt = int(np.count_nonzero(gt.data))
    if n_pred == 0 and n_gt == 0:
        return 0.0
    if n_pred == 0 or n_gt == 0:
        return volume_diagonal_mm(pred)
    a, b = surface_voxels(pred), surface_voxels(gt)
    spacing = np.asarray(pred.spacing)

    def distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Nearest distance from each voxel of surface ``src`` to surface ``dst``."""
        alone = src & ~dst
        shared = np.zeros(int(np.count_nonzero(src)) - int(np.count_nonzero(alone)))
        if not alone.any():
            return shared
        return np.concatenate([shared, np.sqrt(_nearest_sq(_voxels(alone), dst, spacing))])

    return float(np.percentile(np.concatenate([distances(a, b), distances(b, a)]), 95.0))


def evaluate(pred: Mask, gt: Mask) -> MetricSet:
    return MetricSet(dice=dice(pred, gt), hd95_mm=hd95(pred, gt), precision=precision(pred, gt))


def aggregate(metric_sets: Sequence[MetricSet]) -> CohortStats:
    """Per-metric mean and sample (N-1) std; a single case reports std 0 with
    the degenerate flag set."""
    if len(metric_sets) < 1:
        raise ValueError("aggregate needs at least one metric set")
    arr = np.array([[m.dice, m.hd95_mm, m.precision] for m in metric_sets], dtype=np.float64)
    means = arr.mean(axis=0)
    if arr.shape[0] == 1:
        stds = np.zeros(3)
        degenerate = True
    else:
        stds = arr.std(axis=0, ddof=1)
        degenerate = False
    return CohortStats(
        n=arr.shape[0],
        dice_mean=float(means[0]), dice_std=float(stds[0]),
        hd95_mean=float(means[1]), hd95_std=float(stds[1]),
        precision_mean=float(means[2]), precision_std=float(stds[2]),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# paired one-sided Wilcoxon signed-rank with Holm-Bonferroni step-down
# ---------------------------------------------------------------------------


def _wilcoxon_one_sided(diffs: Sequence[float], direction: str, method: str = "auto"):
    """Returns (W+, p, n_nonzero, method_used).  ``direction`` states the
    alternative for the differences: "greater" means median(diff) > 0."""
    if direction not in ("greater", "less"):
        raise ValueError(f"direction must be 'greater' or 'less', got {direction!r}")
    d = np.asarray(diffs, dtype=np.float64)
    if direction == "less":
        d = -d
    d = d[d != 0.0]  # zeros dropped
    n = d.size
    if n == 0:
        return 0.0, 1.0, 0, "degenerate"
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    use_exact = method == "exact" or (method == "auto" and n <= 25)
    if use_exact:
        p = _exact_tail_geq(ranks, w_plus)
        return w_plus, p, n, "exact"
    # normal approximation with tie correction and continuity correction
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts) / 48.0).sum())
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    if sigma == 0.0:
        return w_plus, 1.0, n, "degenerate"
    zscore = (w_plus - mu - 0.5) / sigma
    p = 0.5 * math.erfc(zscore / math.sqrt(2.0))
    return w_plus, p, n, "normal"


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x`` in float64, tied values sharing the mean of their
    ranks (``scipy.stats.rankdata``'s "average" method).  Each rank is a whole
    or half integer, so the result is exact."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # positions [start, end) of each tie group in sorted order
    start = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    end = np.append(start[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((start + end + 1) / 2.0, end - start)
    return ranks


def _exact_tail_geq(ranks: np.ndarray, w_plus: float) -> float:
    """P(W+ >= observed) under the signed-rank null, by convolving the rank
    polynomial prod_i (1 + x^{2 r_i}) / 2^n.  Doubled ranks are integers even
    with averaged ties, so the distribution is exact; this enumerates all 2^n
    sign assignments implicitly."""
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    top = 0
    for r in doubled:
        counts[r : top + r + 1] += counts[0 : top + 1]
        top += r
    obs = int(np.rint(2.0 * w_plus))
    tail = counts[obs:].sum()
    return float(tail / counts.sum())


def holm_bonferroni(p_values: Sequence[float]) -> list[float]:
    """Step-down adjustment: sorted p_i -> max over j<=i of (m-j+1) p_(j), clipped at 1."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank_idx, i in enumerate(order):
        running = max(running, (m - rank_idx) * p_values[i])
        adjusted[i] = min(1.0, running)
    return adjusted


def wilcoxon_holm(
    per_case_diffs: Mapping[str, Sequence[float]],
    directions: Mapping[str, str],
    method: str = "auto",
) -> dict[str, WilcoxonResult]:
    """Per-metric one-sided tests, Holm-adjusted across the metric family.

    ``per_case_diffs[metric]`` holds paired differences (one per case);
    ``directions[metric]`` is the alternative for those differences.  All-zero
    difference lists report p = 1 with the degenerate flag; fewer than 6
    nonzero differences (but more than zero) is a contract violation and
    raises, as does a NaN difference; an infinite one ranks
    last.
    """
    names = list(per_case_diffs)
    raw: dict[str, tuple] = {}
    for name in names:
        diffs = np.asarray(per_case_diffs[name], dtype=np.float64)
        require(not np.isnan(diffs).any(), f"metric {name!r} has a NaN paired difference")
        stat, p, n, used = _wilcoxon_one_sided(diffs, directions[name], method)
        if 0 < n < 6:
            raise ValueError(f"metric {name!r} has only {n} nonzero paired differences; need >= 6")
        raw[name] = (stat, p, n, used)
    adjusted = holm_bonferroni([raw[name][1] for name in names])
    out = {}
    for name, adj in zip(names, adjusted):
        stat, p, n, used = raw[name]
        out[name] = WilcoxonResult(
            metric=name,
            direction=directions[name],
            n_nonzero=n,
            statistic=stat,
            p_raw=p,
            p_adjusted=adj,
            method=used,
            degenerate=used == "degenerate",
        )
    return out


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

CASE_CSV_FIELDS = ("case_id", "dice", "hd95_mm", "precision", "flagged", "source")


def case_rows_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """One CSV row per case with the fixed column set."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CASE_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in CASE_CSV_FIELDS})
    return buf.getvalue()


def summary_json(stats: CohortStats) -> str:
    payload = {
        "n": stats.n,
        "dice": {"mean": stats.dice_mean, "std": stats.dice_std},
        "hd95_mm": {"mean": stats.hd95_mean, "std": stats.hd95_std},
        "precision": {"mean": stats.precision_mean, "std": stats.precision_std},
        "degenerate": stats.degenerate,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
