"""Central finite-difference verification of every analytic gradient.

The checker treats a loss term as a black-box scalar function of the logits
and compares its analytic gradient against (f(z + h e_i) - f(z - h e_i)) / 2h
per voxel.  Voxels taking part in a near-kink difference of the TV/geodesic
terms (any axis |dP| below a cutoff) are excluded there, since the Charbonnier
curvature makes the quotient ill-conditioned.  The two composites are
checked through the evaluators :func:`segtta.optim.refine` runs, with the
gradient taken both with and without the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import losses
from .phantom import standard_normals
from .volume import Volume, along, require, sigmoid

FD_STEP = 1e-5
KINK_CUTOFF = 1e-4
DEFAULT_TOLERANCE = 1e-3


@dataclass(frozen=True)
class GradCheckResult:
    term: str
    max_rel_err: float
    checked_voxels: int
    excluded_voxels: int


def finite_diff_grad(f: Callable[[np.ndarray], float], z: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(z)
    flat = grad.ravel()
    work = z.copy()
    wflat = work.ravel()
    for i in range(work.size):
        orig = wflat[i]
        wflat[i] = orig + FD_STEP
        f_plus = f(work)
        wflat[i] = orig - FD_STEP
        f_minus = f(work)
        wflat[i] = orig
        flat[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return grad


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return np.abs(analytic - numeric) / scale


def tv_kink_exclusion(p: np.ndarray) -> np.ndarray:
    """Voxels touching any forward difference with |dP| < KINK_CUTOFF."""
    excluded = np.zeros(p.shape, dtype=bool)
    for axis in range(3):
        src, dst = along(axis, slice(1, None)), along(axis, slice(None, -1))
        small = np.abs(p[src] - p[dst]) < KINK_CUTOFF
        excluded[dst] |= small
        excluded[src] |= small
    return excluded


def _random_volume(seed: int, stream: int, dims=(4, 4, 4), spacing=(1.0, 1.3, 0.8)) -> Volume:
    n = int(np.prod(dims))
    vals = standard_normals(seed, 2 * stream * n, n).reshape(dims, order="F")
    return Volume(vals, spacing)


def _unit_interval_volume(seed: int, stream: int, dims=(4, 4, 4), spacing=(1.0, 1.3, 0.8)) -> Volume:
    raw = _random_volume(seed, stream, dims, spacing)
    return raw.with_data(sigmoid(raw).data * 0.999 + 0.0005)  # values in (0, 1]ish


def check_term(term: str, seed: int, dims=(4, 4, 4)) -> GradCheckResult:
    """Compare one term's analytic gradient against central differences on a
    seeded random volume; returns the masked maximum relative error."""
    z = _random_volume(seed, 0, dims)
    z0 = _random_volume(seed, 1, dims)
    g = _unit_interval_volume(seed, 2, dims)
    p = sigmoid(z).data

    terms = {
        "entropy": losses.entropy_term,
        "tv": losses.tv_term,
        "gravity": losses.gravity_term,
        "geodesic": lambda vol: losses.geodesic_term(vol, g),
        "inflation": losses.inflation_term,
        "anchor": lambda vol: losses.anchor_term(vol, z0),
    }
    # the evaluators optim.refine runs, audited with and without the value
    objectives = {
        "compact": lambda: losses.compact_objective(z0.data, z.spacing, losses.CompactWeights()),
        "diffuse": lambda: losses.diffuse_objective(z0.data, g.data, losses.DiffuseWeights()),
    }
    if term in terms:
        evaluate = terms[term]
        analytic = [evaluate(z).grad_z.data]
        numeric = finite_diff_grad(lambda arr: evaluate(z.with_data(arr)).value, z.data)
    elif term in objectives:
        obj = objectives[term]()
        analytic = [obj(z.data, value=value)[1].copy() for value in (True, False)]
        numeric = finite_diff_grad(lambda arr: obj(arr)[0], z.data)
    else:
        raise ValueError(f"unknown term {term!r}")
    uses_kinks = term in ("tv", "geodesic", "compact", "diffuse")
    err = np.maximum.reduce([relative_errors(a, numeric) for a in analytic])
    keep = ~tv_kink_exclusion(p) if uses_kinks else np.ones(p.shape, dtype=bool)
    checked = int(keep.sum())
    max_err = float(err[keep].max()) if checked else 0.0
    return GradCheckResult(
        term=term,
        max_rel_err=max_err,
        checked_voxels=checked,
        excluded_voxels=int((~keep).sum()),
    )


ALL_TERMS = ("entropy", "tv", "gravity", "geodesic", "inflation", "anchor", "compact", "diffuse")


def check_all(seed: int = 0, volumes: int = 20, dims=(4, 4, 4)) -> dict[str, GradCheckResult]:
    """Worst relative error per term over ``volumes`` independent random volumes."""
    require(volumes >= 1, f"volumes must be >= 1, got {volumes!r}")
    require(isinstance(dims, tuple) and len(dims) == 3
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in dims),
            f"dims must be three integers >= 1, got {dims!r}")
    out: dict[str, GradCheckResult] = {}
    for term in ALL_TERMS:
        max_err = 0.0
        checked = excluded = 0
        for k in range(volumes):
            res = check_term(term, seed + 1000 * k, dims)
            max_err = max(max_err, res.max_rel_err)
            checked += res.checked_voxels
            excluded += res.excluded_voxels
        out[term] = GradCheckResult(term, max_err, checked, excluded)
    return out
