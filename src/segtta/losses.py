"""Value-and-analytic-gradient implementations of every refinement loss term,
composed into the two competing hypothesis losses.

All gradients are taken with respect to the logits z and chained through
P = sigmoid(z) via dP/dz = P(1-P).  Every term except the foreground-variance
("gravity") term is normalized by voxel count, so the fixed weighting
coefficients behave consistently across volume sizes; the gravity term is
normalized intrinsically by its probability weights.  The full derivations
live in docs/gradients.md and are validated by the finite-difference checker
in :mod:`segtta.gradcheck`.

Each hypothesis is a table of ``(weight, kernel)`` pairs over one family of
terms, and :func:`objective` is the only builder of a weighted sum: it drops
zero-weight terms once, then on every call loads P and P(1-P) into a shared
workspace and lets each kernel, in table order, add its own weighted gradient
into the workspace's sum.  The kernel applies the weight, so each keeps its
own operand order: most scale their finished gradient, ``lam * (grad_p * pq)``
for tv, while geodesic scales before the chain factor, ``(lam * grad_p) * pq``.
A public ``*_term`` function is the single-term table with weight 1.

An evaluator called with ``value=False`` returns the gradient only: each
kernel skips the operations that serve its value alone, and the gradient is
bit-identical to the one ``value=True`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.ndimage import gaussian_filter

from .volume import Spacing, Volume, along, axis_coords, require, require_same_grid, sigmoid_into

# Charbonnier smoothing of |.| in the TV/geodesic terms and the mass guard in
# the gravity weights.
TV_EPS = 1e-6
GRAVITY_EPS = 1e-8

Objective = Callable[..., tuple[float | None, np.ndarray]]


@dataclass(frozen=True)
class LossTermResult:
    """Scalar loss value plus its gradient with respect to the logits."""

    value: float
    grad_z: Volume


@dataclass(frozen=True)
class CompactWeights:
    """Coefficients of the compaction hypothesis loss (entropy + total
    variation + foreground-coordinate variance + logit anchor)."""

    lambda_ent: float = 10.0
    lambda_tv: float = 0.5
    lambda_grav: float = 50.0
    lambda_anc: float = 50.0

    def __post_init__(self):
        _require_finite_nonnegative(self)


@dataclass(frozen=True)
class DiffuseWeights:
    """Coefficients of the diffuse-recovery hypothesis loss (entropy +
    edge-gated boundary penalty + inflation + logit anchor)."""

    lambda_ent: float = 2.0
    lambda_geo: float = 50.0
    lambda_inf: float = 5.0
    lambda_anc: float = 0.1

    def __post_init__(self):
        _require_finite_nonnegative(self)


@dataclass(frozen=True)
class EdgeMapConfig:
    """Edge-stopping map parameters: Gaussian scale (physical units) and the
    gradient sensitivity of g = 1 / (1 + alpha * |grad I|^2)."""

    sigma_mm: float = 1.0
    alpha: float = 10.0

    def __post_init__(self):
        for name in ("sigma_mm", "alpha"):
            value = getattr(self, name)
            require(0.0 <= value < math.inf, f"{name} must be finite and >= 0, got {value!r}")


def _require_finite_nonnegative(cfg) -> None:
    for field, value in vars(cfg).items():
        if field.startswith("lambda_"):
            require(0.0 <= value < math.inf, f"{field} must be finite and >= 0, got {value!r}")


# ---------------------------------------------------------------------------
# term kernels and the objective builder
# ---------------------------------------------------------------------------


class _Workspace:
    """The full-grid buffers one objective reuses on every call: P, P(1-P),
    the summed gradient and three scratch arrays the kernels take in turn,
    plus the current logits ``z``, the anchor logits ``z0`` and the voxel
    count ``n``."""

    def __init__(self, z0: np.ndarray):
        self.z0, self.n = z0, z0.size
        self.p, self.pq, self.grad, self.a, self.b, self.c = (np.empty(z0.shape) for _ in range(6))

    def load(self, z: np.ndarray, value: bool) -> None:
        self.z, self.value = z, value
        sigmoid_into(z, self.p)
        np.multiply(self.p, np.subtract(1.0, self.p, out=self.pq), out=self.pq)
        self.grad.fill(0.0)


# A kernel adds lam times its gradient into ws.grad and returns its
# unweighted value, or None when ws.value is False.
Kernel = Callable[[_Workspace, float], float | None]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # einsum's own loop rather than BLAS ddot: single-threaded, and its
    # summation order does not depend on the BLAS thread count
    return float(np.einsum("i,i->", x.ravel(), y.ravel()))


def _add(ws: _Workspace, lam: float, g: np.ndarray) -> None:
    # grad += lam * g, scaling the kernel's scratch array g in place
    g *= lam
    ws.grad += g


def _entropy(ws: _Workspace, lam: float) -> float | None:
    # H = mean(P softplus(-z) + (1-P) softplus(z)), the binary entropy
    # written in the logits (-ln P = softplus(-z), -ln(1-P) = softplus(z));
    # its exact derivative is dH/dz = -z P(1-P) / N.  With softplus(x) =
    # max(x, 0) + softplus(-|x|) the value is a sum of three non-negative
    # fields: softplus(-|z|) + P max(-z, 0) + (1-P) max(z, 0).
    value = None
    if ws.value:
        sp, relu, q = ws.a, ws.b, ws.c
        np.log1p(np.exp(np.negative(np.abs(ws.z, out=sp), out=sp), out=sp), out=sp)
        np.subtract(1.0, ws.p, out=q)
        total = float(sp.sum()) + _dot(q, np.maximum(ws.z, 0.0, out=relu))
        total += _dot(ws.p, np.maximum(np.negative(ws.z, out=relu), 0.0, out=relu))
        value = total / ws.n
    grad = np.negative(ws.z, out=ws.a)
    grad *= ws.pq
    grad /= ws.n
    _add(ws, lam, grad)
    return value


def _charbonnier_faces(ws: _Workspace, face_w: Sequence[np.ndarray] | None) -> float | None:
    # sum over axes of w * (sqrt(d^2 + eps^2) - eps) with d the forward
    # difference (replicate boundary: final slab is zero), averaged over N;
    # zero-difference entries contribute exactly zero.  The gradient with
    # respect to P is left in ws.a.
    #
    # The difference and its adjoint run on flat views of the C-ordered
    # buffers, where a step along ``axis`` is a shift by s entries.  A shifted
    # pair that wraps past the end of an axis lands in that axis's final slab,
    # which is then zeroed; in the adjoint such an entry adds that +0.0, which
    # leaves every gradient entry as it was (none is ever -0.0).  So each entry
    # gets the same operations, in the same order, as with strided slices.
    p, grad, d, root = ws.p, ws.a, ws.b, ws.c
    pf, gf, df = p.ravel(), grad.ravel(), d.ravel()
    value = 0.0
    grad.fill(0.0)
    for axis in range(3):
        s = math.prod(p.shape[axis + 1:])
        np.subtract(pf[s:], pf[:-s], out=df[:-s])
        d[along(axis, slice(-1, None))] = 0.0
        np.multiply(d, d, out=root)
        root += TV_EPS * TV_EPS
        np.sqrt(root, out=root)
        np.divide(d, root, out=d)  # d now holds u
        if ws.value:
            root -= TV_EPS  # smoothed |d|, exactly zero where d is zero
            # (w * root).sum() keeps the same pairwise reduction as the
            # unweighted path, so g == 1 reproduces tv bit-for-bit
            value += (root if face_w is None else np.multiply(face_w[axis], root, out=root)).sum()
        if face_w is not None:
            d *= face_w[axis]
        grad -= d
        gf[s:] += df[:-s]
    grad /= ws.n
    return value / ws.n if ws.value else None


def _face_weights(g: np.ndarray) -> list[np.ndarray]:
    # face value between voxel k and k+1 along each axis: (g_k + g_{k+1}) / 2;
    # the final slab pairs with itself (its difference is zero anyway).
    weights = []
    for axis in range(3):
        src, dst = along(axis, slice(1, None)), along(axis, slice(None, -1))
        w = g.copy()
        w[dst] = 0.5 * (g[src] + g[dst])
        weights.append(w)
    return weights


def _tv(ws: _Workspace, lam: float) -> float:
    value = _charbonnier_faces(ws, None)
    ws.a *= ws.pq
    _add(ws, lam, ws.a)  # lam * (grad_p * pq)
    return value


def _geodesic(ws: _Workspace, lam: float, faces: Sequence[np.ndarray] | None) -> float:
    value = _charbonnier_faces(ws, faces)
    # (lam * grad_p) * pq: here the weight comes before the chain factor, in
    # tv after it; the order shows in the last bit
    ws.a *= lam
    ws.a *= ws.pq
    ws.grad += ws.a
    return value


def _gravity(ws: _Workspace, lam: float, spacing: Spacing) -> float:
    # V = sum_v w_v ||x_v - c||^2 with w = P / (sum P + eps) and c = sum w x;
    # the gradient is differentiated through both w and c:
    #   dV/dP_k = (||x_k - c||^2 - V - 2 (1 - sum w) c.(x_k - c)) / (sum P + eps)
    # where (1 - sum w) = eps / (sum P + eps).  Both the value and the grad
    # basis separate over axes, so everything heavy is assembled from 1D
    # per-axis pieces broadcast together once.
    p = ws.p
    coords = axis_coords(p.shape, spacing)
    marg = (p.sum(axis=(1, 2)), p.sum(axis=(0, 2)), p.sum(axis=(0, 1)))
    mass = float(marg[0].sum())
    total = mass + GRAVITY_EPS
    deltas = []
    value = 0.0
    for c_ax, m_ax in zip(coords, marg):
        ctr = float(m_ax @ c_ax.ravel()) / total
        delta = c_ax - ctr
        value += float(m_ax @ np.square(delta.ravel()))
        deltas.append((delta, ctr))
    value /= total
    # per-axis basis: delta^2 - 2 (eps/total) ctr delta, still 1D
    shrink = 2.0 * (1.0 - mass / total)
    basis = [d * d - shrink * ctr * d for d, ctr in deltas]
    grad_p = np.add(basis[0] + basis[1], basis[2], out=ws.a)  # broadcast to full shape
    grad_p -= value
    grad_p *= ws.pq
    grad_p /= total
    _add(ws, lam, grad_p)
    return value


def _inflation(ws: _Workspace, lam: float) -> float | None:
    grad = np.negative(ws.pq, out=ws.a)
    grad /= ws.n
    _add(ws, lam, grad)
    return -float(ws.p.sum()) / ws.n if ws.value else None


def _anchor(ws: _Workspace, lam: float) -> float | None:
    d = np.subtract(ws.z, ws.z0, out=ws.a)
    value = float(np.multiply(d, d, out=ws.b).sum()) / ws.n if ws.value else None
    d *= 2.0
    d /= ws.n
    _add(ws, lam, d)
    return value


def objective(z0: np.ndarray, terms: Sequence[tuple[float, Kernel]]) -> Objective:
    """Array-level evaluator ``(z, value=True) -> (sum of lam * term value,
    its gradient)`` over ``(lam, kernel)`` pairs; zero-weight terms are
    dropped here, once.  With ``value=False`` the value is None and the
    kernels skip the work only the value needs; the gradient is bit-identical.

    The evaluator allocates its full-grid buffers once and reuses them: the
    returned grad is overwritten by the next call, and one evaluator must not
    be called from two threads at once.
    """
    terms = [(lam, kernel) for lam, kernel in terms if lam != 0.0]
    ws = _Workspace(z0)

    def evaluate(z: np.ndarray, value: bool = True):
        ws.load(z, value)
        total = 0.0
        for lam, kernel in terms:
            term = kernel(ws, lam)
            if value:
                total += lam * term
        return (total if value else None), ws.grad

    return evaluate


def compact_objective(z0: np.ndarray, spacing: Spacing, weights: CompactWeights) -> Objective:
    """The compaction hypothesis (entropy + total variation + gravity +
    anchor) as an :func:`objective`."""
    return objective(z0, [
        (weights.lambda_ent, _entropy),
        (weights.lambda_tv, _tv),
        (weights.lambda_grav, partial(_gravity, spacing=spacing)),
        (weights.lambda_anc, _anchor),
    ])


def diffuse_objective(z0: np.ndarray, g_map: np.ndarray | None, weights: DiffuseWeights) -> Objective:
    """The diffuse-recovery hypothesis (entropy + edge-gated boundary penalty
    + inflation + anchor) as an :func:`objective`; ``g_map=None`` is g
    identically 1, bit-for-bit the all-ones map without its face grids."""
    faces = None if g_map is None else _face_weights(g_map)
    return objective(z0, [
        (weights.lambda_ent, _entropy),
        (weights.lambda_geo, partial(_geodesic, faces=faces)),
        (weights.lambda_inf, _inflation),
        (weights.lambda_anc, _anchor),
    ])


# ---------------------------------------------------------------------------
# public single-term operations and composite losses (each on fresh buffers)
# ---------------------------------------------------------------------------


def _single(z: Volume, kernel: Kernel, z0: Volume | None = None) -> LossTermResult:
    value, grad = objective((z if z0 is None else z0).data, [(1.0, kernel)])(z.data)
    return LossTermResult(value, z.with_data(grad))


def entropy_term(z: Volume) -> LossTermResult:
    """Mean binary entropy of P = sigmoid(z); zero gradient at P = 1/2."""
    return _single(z, _entropy)


def tv_term(z: Volume) -> LossTermResult:
    """Smoothed total variation of P (Charbonnier |.|, eps = 1e-6), mean over voxels."""
    return _single(z, _tv)


def gravity_term(z: Volume) -> LossTermResult:
    """Probability-weighted spatial variance of foreground coordinates (mm^2).

    Minimizing it pulls stray foreground mass toward the centroid; coordinates
    are physical, so anisotropic spacing is respected.
    """
    return _single(z, partial(_gravity, spacing=z.spacing))


def inflation_term(z: Volume) -> LossTermResult:
    """Negative mean foreground probability; descending it grows the region."""
    return _single(z, _inflation)


def anchor_term(z: Volume, z0: Volume) -> LossTermResult:
    """Mean squared logit deviation from the baseline, bounding refinement drift."""
    require_same_grid(z, z0, "logits and anchor logits")
    return _single(z, _anchor, z0)


def geodesic_term(z: Volume, g: Volume) -> LossTermResult:
    """Edge-gated boundary penalty: each axis difference of P is weighted by
    the mean edge-map value of the two voxels sharing the face.

    With g identically 1 this reduces to :func:`tv_term` bit-for-bit.
    """
    require_same_grid(z, g, "logits and edge map")
    return _single(z, partial(_geodesic, faces=_face_weights(g.data)))


def compact_loss(z: Volume, z0: Volume, weights: CompactWeights = CompactWeights()) -> LossTermResult:
    """Weighted sum: entropy + total variation + gravity + anchor."""
    require_same_grid(z, z0, "logits and anchor logits")
    value, grad = compact_objective(z0.data, z.spacing, weights)(z.data)
    return LossTermResult(value, z.with_data(grad))


def diffuse_loss(z: Volume, z0: Volume, g: Volume,
                 weights: DiffuseWeights = DiffuseWeights()) -> LossTermResult:
    """Weighted sum: entropy + edge-gated boundary penalty + inflation + anchor."""
    require_same_grid(z, z0, "logits and anchor logits")
    require_same_grid(z, g, "logits and edge map")
    value, grad = diffuse_objective(z0.data, g.data, weights)(z.data)
    return LossTermResult(value, z.with_data(grad))


def edge_map(channels: Sequence[Volume], sigma_mm: float = 1.0, alpha: float = 10.0) -> Volume:
    """Edge-stopping map in (0, 1]: ~1 in homogeneous tissue, ~0 at image edges.

    Per channel: Gaussian-smooth at a physical scale, take the spacing-scaled
    central-difference gradient magnitude, normalize by its 99th percentile,
    then g_c = 1 / (1 + alpha * m^2).  The map is the voxelwise minimum over
    channels, so an edge in any channel acts as a barrier.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("edge_map needs at least one image channel")
    for ch in channels[1:]:
        require_same_grid(ch, channels[0], "image channels")
    spacing = channels[0].spacing
    sigma_vox = [sigma_mm / s for s in spacing]
    g = None
    for ch in channels:
        smooth = gaussian_filter(ch.data, sigma=sigma_vox, mode="nearest")
        mag = _gradient_magnitude(smooth, spacing)
        p99 = float(np.percentile(mag, 99.0))
        norm = mag / p99 if p99 > 0.0 else np.zeros_like(mag)
        g_c = 1.0 / (1.0 + alpha * norm * norm)
        g = g_c if g is None else np.minimum(g, g_c)
    return Volume(g, spacing)


def _gradient_magnitude(arr: np.ndarray, spacing: Spacing) -> np.ndarray:
    out = np.zeros_like(arr)
    for axis, s in enumerate(spacing):
        n = arr.shape[axis]
        if n == 1:
            continue
        d = np.empty_like(arr)
        d[along(axis, slice(1, -1))] = arr[along(axis, slice(2, None))] - arr[along(axis, slice(None, -2))]
        first, second = along(axis, slice(0, 1)), along(axis, slice(1, 2))
        d[first] = arr[second] - arr[first]
        last, prior = along(axis, slice(n - 1, n)), along(axis, slice(n - 2, n - 1))
        d[last] = arr[last] - arr[prior]
        d /= 2.0 * s
        out += d * d
    return np.sqrt(out)
