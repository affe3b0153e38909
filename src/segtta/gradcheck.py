"""Central finite-difference audit of every analytic gradient, through the
evaluators :func:`segtta.optim.refine` runs.

Each entry of :data:`AUDITS` is the weights of one hypothesis: one-hot
weights audit one term alone at weight 1, the default weights the composite.
Its objective is built once per seeded random volume, and its analytic
gradient, taken both with and without the value, is compared against
(f(z + h e_i) - f(z - h e_i)) / 2h per voxel, with f that objective's value.
Where the boundary penalty's weight is nonzero, voxels taking part in a
near-kink difference (any axis |dP| below a cutoff) are excluded, since the
Charbonnier curvature makes the quotient ill-conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import losses
from .losses import CompactWeights, DiffuseWeights
from .phantom import standard_normals
from .volume import along, require, sigmoid_into

FD_STEP = 1e-5
KINK_CUTOFF = 1e-4
TOLERANCE = 1e-3
SPACING = (1.0, 1.3, 0.8)  # mm, of every random volume; anisotropic for gravity's coordinates


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_err: float
    checked_voxels: int
    excluded_voxels: int


def _alone(weights: type, field: str) -> CompactWeights | DiffuseWeights:
    """The hypothesis weights whose objective is one term alone, at weight 1."""
    return weights(**{f.name: float(f.name == field) for f in fields(weights)})


AUDITS: dict[str, CompactWeights | DiffuseWeights] = {
    "entropy": _alone(CompactWeights, "lambda_ent"),
    "tv": _alone(CompactWeights, "lambda_tv"),
    "gravity": _alone(CompactWeights, "lambda_grav"),
    "geodesic": _alone(DiffuseWeights, "lambda_geo"),
    "inflation": _alone(DiffuseWeights, "lambda_inf"),
    "anchor": _alone(CompactWeights, "lambda_anc"),
    "compact": CompactWeights(),
    "diffuse": DiffuseWeights(),
}


def _random_fields(seed: int, dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The logits z, the anchor logits z0 and an edge map g in (0, 1) of one
    seeded random volume, C-ordered, each from its own normal stream."""
    n = math.prod(dims)
    z, z0, g = (np.ascontiguousarray(standard_normals(seed, 2 * stream * n, n).reshape(dims, order="F"))
                for stream in range(3))
    return z, z0, sigmoid_into(g, g) * 0.999 + 0.0005


def _audit(weights: CompactWeights | DiffuseWeights, seed: int, dims) -> GradCheckResult:
    """The worst relative error of one objective's analytic gradient on one
    seeded random volume, over the voxels the kink exclusion keeps."""
    z, z0, g = _random_fields(seed, dims)
    if isinstance(weights, CompactWeights):
        f, face = losses.compact_objective(z0, SPACING, weights), weights.lambda_tv
    else:
        f, face = losses.diffuse_objective(z0, g, weights), weights.lambda_geo
    analytic = [f(z, value=value)[1].copy() for value in (True, False)]
    numeric = np.empty(z.size)
    work = z.copy()
    flat = work.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = f(work)[0]
        flat[i] = orig - FD_STEP
        numeric[i] = (f_plus - f(work)[0]) / (2.0 * FD_STEP)
        flat[i] = orig
    numeric = numeric.reshape(dims)
    # relative to the larger magnitude, floored at 1e-8; a NaN is infinitely wrong
    err = np.maximum.reduce([np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
                             for a in analytic])
    err[np.isnan(err)] = np.inf
    keep = np.ones(dims, dtype=bool)
    if face != 0.0:
        p = sigmoid_into(z, np.empty(dims))
        for axis in range(3):
            src, dst = along(axis, slice(1, None)), along(axis, slice(None, -1))
            smooth = np.abs(p[src] - p[dst]) >= KINK_CUTOFF
            keep[dst] &= smooth
            keep[src] &= smooth
    checked = int(keep.sum())
    return GradCheckResult(float(err[keep].max()) if checked else 0.0, checked, keep.size - checked)


def check_all(seed: int = 0, volumes: int = 20, dims=(4, 4, 4)) -> dict[str, GradCheckResult]:
    """Per entry of :data:`AUDITS`, the worst relative error over ``volumes``
    independent random volumes, and the voxels checked and excluded in all."""
    require(volumes >= 1, f"volumes must be >= 1, got {volumes!r}")
    require(isinstance(dims, tuple) and len(dims) == 3
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in dims),
            f"dims must be three integers >= 1, got {dims!r}")
    out: dict[str, GradCheckResult] = {}
    for term, weights in AUDITS.items():
        runs = [_audit(weights, seed + 1000 * k, dims) for k in range(volumes)]
        out[term] = GradCheckResult(max(r.max_rel_err for r in runs), sum(r.checked_voxels for r in runs),
                                    sum(r.excluded_voxels for r in runs))
    return out
