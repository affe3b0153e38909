"""Value-and-analytic-gradient implementations of every refinement loss term,
composed into the two competing hypothesis losses.

All gradients are taken with respect to the logits z and chained through
P = sigmoid(z) via dP/dz = P(1-P).  Every term except the foreground-variance
("gravity") term is normalized by voxel count, so the fixed weighting
coefficients behave consistently across volume sizes; the gravity term is
normalized intrinsically by its probability weights.  The full derivations
live in docs/gradients.md and are validated by the finite-difference checker
in :mod:`segtta.gradcheck`.

Each hypothesis is one call of :func:`objective`, the only builder of a
weighted sum.  Every term but the anchor has gradient (dL/dP) P(1-P), so each
P-space kernel adds its weighted dL/dP into one accumulator, with its scalars
folded into a pass it already makes, and the objective multiplies by the chain
factor once before it adds the anchor's logit-space gradient.  A public
``*_term`` function is the objective of that term alone, at weight 1.

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

from .volume import (Spacing, Volume, along, axis_coords, check_fields, require_same_grid,
                     sigmoid_into)

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
        check_fields(self, **dict.fromkeys(vars(self), ">= 0"))


@dataclass(frozen=True)
class DiffuseWeights:
    """Coefficients of the diffuse-recovery hypothesis loss (entropy +
    edge-gated boundary penalty + inflation + logit anchor)."""

    lambda_ent: float = 2.0
    lambda_geo: float = 50.0
    lambda_inf: float = 5.0
    lambda_anc: float = 0.1

    def __post_init__(self):
        check_fields(self, **dict.fromkeys(vars(self), ">= 0"))


@dataclass(frozen=True)
class EdgeMapConfig:
    """Edge-stopping map parameters: Gaussian scale (physical units) and the
    gradient sensitivity of g = 1 / (1 + alpha * |grad I|^2)."""

    sigma_mm: float = 1.0
    alpha: float = 10.0

    def __post_init__(self):
        check_fields(self, **dict.fromkeys(vars(self), ">= 0"))


# ---------------------------------------------------------------------------
# term kernels and the objective builder
# ---------------------------------------------------------------------------


class _Workspace:
    """The full-grid buffers one objective reuses on every call: P, the chain
    factor, the gradient accumulator and two scratch arrays, plus the current
    logits ``z``, the anchor logits ``z0`` and the voxel count ``n``."""

    def __init__(self, z0: np.ndarray):
        self.z0, self.n = z0, z0.size
        self.p, self.pq, self.grad, self.a, self.b = (np.empty(z0.shape) for _ in range(5))

    def load(self, z: np.ndarray, value: bool) -> None:
        self.z, self.value = z, value
        sigmoid_into(z, self.p)


# A P-space kernel adds w N dL/dP into ws.grad, with w its weight over the
# objective's reference weight, and returns its unweighted value, or None when
# ws.value is False.  The entropy kernel writes ws.grad instead of adding.
Kernel = Callable[..., float | None]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # einsum's own loop rather than BLAS ddot: single-threaded, and its
    # summation order does not depend on the BLAS thread count
    return float(np.einsum("i,i->", x.ravel(), y.ravel()))


def _entropy(ws: _Workspace, w: float) -> float | None:
    # H = mean(P softplus(-z) + (1-P) softplus(z)), the binary entropy
    # written in the logits (-ln P = softplus(-z), -ln(1-P) = softplus(z));
    # dH/dP = -z / N.  With softplus(x) = max(x, 0) + softplus(-|x|) the value
    # is a sum of three non-negative fields: softplus(-|z|) + P max(-z, 0) +
    # (1-P) max(z, 0).  The chain-factor buffer is free until the objective
    # builds the factor, after every kernel.
    value = None
    if ws.value:
        sp, relu, q = ws.a, ws.b, ws.pq
        np.log1p(np.exp(np.negative(np.abs(ws.z, out=sp), out=sp), out=sp), out=sp)
        np.subtract(1.0, ws.p, out=q)
        total = float(sp.sum()) + _dot(q, np.maximum(ws.z, 0.0, out=relu))
        total += _dot(ws.p, np.maximum(np.negative(ws.z, out=relu), 0.0, out=relu))
        value = total / ws.n
    np.multiply(ws.z, -w, out=ws.grad)
    return value


def _charbonnier_faces(ws: _Workspace, face_w: Sequence[np.ndarray] | None) -> float | None:
    # sum over axes of w * (sqrt(d^2 + eps^2) - eps) with d the forward
    # difference (replicate boundary: final slab is zero), averaged over N;
    # zero-difference entries contribute exactly zero.  The kernel adds N dL/dP,
    # the divergence of the face field, unscaled: the objective makes this
    # term's weight its reference and puts 1/N on the chain factor.
    #
    # The difference and its adjoint run on flat views of the C-ordered
    # buffers, where a step along ``axis`` is a shift by s entries.  A shifted
    # pair that wraps past the end of an axis lands in that axis's final slab,
    # which is then zeroed; in the adjoint such an entry adds that +0.0, which
    # changes no value (it can only turn a -0.0 into +0.0).
    p, grad, d, root = ws.p, ws.grad, ws.a, ws.b
    pf, gf, df = p.ravel(), grad.ravel(), d.ravel()
    value = 0.0
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


def _gravity(ws: _Workspace, w: float, spacing: Spacing) -> float:
    # V = sum_v w_v ||x_v - c||^2 with w = P / (sum P + eps) and c = sum w x;
    # the gradient is differentiated through both w and c:
    #   dV/dP_k = (||x_k - c||^2 - V - 2 (1 - sum w) c.(x_k - c)) / (sum P + eps)
    # where (1 - sum w) = eps / (sum P + eps).  Both the value and the grad
    # basis separate over axes, so everything heavy is assembled from 1D
    # per-axis pieces, with the scalars folded in, broadcast into ws.grad.
    p = ws.p
    coords = axis_coords(p.shape, spacing)
    plane = p.sum(axis=0)  # the two passes over the grid: plane sums, then row sums
    marg = (p.sum(axis=(1, 2)), plane.sum(axis=1), plane.sum(axis=0))
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
    # per-axis basis: k (delta^2 - 2 (eps/total) ctr delta), still 1D, with
    # -k V on the first axis
    shrink = 2.0 * (1.0 - mass / total)
    k = w * ws.n / total
    bx, by, bz = (k * (d * d - shrink * ctr * d) for d, ctr in deltas)
    bx -= k * value
    ws.grad += bx + by
    ws.grad += bz
    return value


def _inflation(ws: _Workspace, w: float) -> float | None:
    ws.grad -= w
    return -float(ws.p.sum()) / ws.n if ws.value else None


def _anchor(ws: _Workspace, lam: float) -> float | None:
    # a logit-space term: added after the chain multiply, with its own weight
    d = np.subtract(ws.z, ws.z0, out=ws.a)
    value = float(np.multiply(d, d, out=ws.b).sum()) / ws.n if ws.value else None
    d *= 2.0 * lam / ws.n
    ws.grad += d
    return value


def objective(z0: np.ndarray, ent: float = 0.0, face: float = 0.0,
              faces: Sequence[np.ndarray] | None = None,
              term: tuple[float, Kernel] = (0.0, _inflation), anc: float = 0.0) -> Objective:
    """Array-level evaluator ``(z, value=True) -> (value, gradient)`` of

        ent * entropy + face * boundary penalty + lam * term + anc * anchor

    with ``term = (lam, kernel)`` (gravity or inflation) and the boundary
    penalty weighted by ``faces`` (None: total variation).  Zero-weight terms
    are dropped here, once.  With ``value=False`` the value is None and the
    kernels skip the work only the value needs; the gradient is bit-identical.

    The evaluator allocates its full-grid buffers once and reuses them: the
    returned grad is overwritten by the next call, and one evaluator must not
    be called from two threads at once.
    """
    ws = _Workspace(z0)
    # The P-space kernels sum N dL/dP / ref into one accumulator, which is
    # multiplied once by the chain factor (ref / N) P(1-P).  With ref the face
    # weight, the face kernel adds its scatter without a scaling pass.
    ref = face if face != 0.0 else 1.0
    chain = ref / ws.n
    lam, kernel = term
    kernels = [(weight, k) for weight, k in (
        (ent, partial(_entropy, w=ent / ref)),
        (face, partial(_charbonnier_faces, face_w=faces)),
        (lam, partial(kernel, w=lam / ref)),
    ) if weight != 0.0]

    def evaluate(z: np.ndarray, value: bool = True):
        ws.load(z, value)
        if ent == 0.0:
            ws.grad.fill(0.0)  # otherwise the entropy kernel writes it first
        total = 0.0
        for weight, k in kernels:
            term_value = k(ws)
            if value:
                total += weight * term_value
        pq = np.subtract(1.0, ws.p, out=ws.pq)
        pq *= ws.p
        pq *= chain
        ws.grad *= pq
        if anc != 0.0:
            term_value = _anchor(ws, anc)
            if value:
                total += anc * term_value
        return (total if value else None), ws.grad

    return evaluate


def compact_objective(z0: np.ndarray, spacing: Spacing, weights: CompactWeights) -> Objective:
    """The compaction hypothesis (entropy + total variation + gravity +
    anchor) as an :func:`objective`."""
    return objective(z0, ent=weights.lambda_ent, face=weights.lambda_tv,
                     term=(weights.lambda_grav, partial(_gravity, spacing=spacing)),
                     anc=weights.lambda_anc)


def diffuse_objective(z0: np.ndarray, g_map: np.ndarray | None, weights: DiffuseWeights) -> Objective:
    """The diffuse-recovery hypothesis (entropy + edge-gated boundary penalty
    + inflation + anchor) as an :func:`objective`; ``g_map=None`` is g
    identically 1, bit-for-bit the all-ones map without its face grids."""
    return objective(z0, ent=weights.lambda_ent, face=weights.lambda_geo,
                     faces=None if g_map is None else _face_weights(g_map),
                     term=(weights.lambda_inf, _inflation), anc=weights.lambda_anc)


# ---------------------------------------------------------------------------
# public single-term operations (each on fresh buffers)
# ---------------------------------------------------------------------------


def _single(z: Volume, z0: Volume | None = None, **weights) -> LossTermResult:
    value, grad = objective((z if z0 is None else z0).data, **weights)(z.data)
    return LossTermResult(value, z.with_data(grad))


def entropy_term(z: Volume) -> LossTermResult:
    """Mean binary entropy of P = sigmoid(z); zero gradient at P = 1/2."""
    return _single(z, ent=1.0)


def tv_term(z: Volume) -> LossTermResult:
    """Smoothed total variation of P (Charbonnier |.|, eps = 1e-6), mean over voxels."""
    return _single(z, face=1.0)


def gravity_term(z: Volume) -> LossTermResult:
    """Probability-weighted spatial variance of foreground coordinates (mm^2).

    Minimizing it pulls stray foreground mass toward the centroid; coordinates
    are physical, so anisotropic spacing is respected.
    """
    return _single(z, term=(1.0, partial(_gravity, spacing=z.spacing)))


def inflation_term(z: Volume) -> LossTermResult:
    """Negative mean foreground probability; descending it grows the region."""
    return _single(z, term=(1.0, _inflation))


def anchor_term(z: Volume, z0: Volume) -> LossTermResult:
    """Mean squared logit deviation from the baseline, bounding refinement drift."""
    require_same_grid(z, z0, "logits and anchor logits")
    return _single(z, z0, anc=1.0)


def geodesic_term(z: Volume, g: Volume) -> LossTermResult:
    """Edge-gated boundary penalty: each axis difference of P is weighted by
    the mean edge-map value of the two voxels sharing the face.

    With g identically 1 this reduces to :func:`tv_term` bit-for-bit.
    """
    require_same_grid(z, g, "logits and edge map")
    return _single(z, face=1.0, faces=_face_weights(g.data))


def edge_map(channels: Sequence[Volume], cfg: EdgeMapConfig = EdgeMapConfig()) -> Volume:
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
    sigma_vox = [cfg.sigma_mm / s for s in spacing]
    g = None
    for ch in channels:
        smooth = _gaussian_nearest(ch.data, sigma_vox)
        mag = _gradient_magnitude(smooth, spacing)
        p99 = float(np.percentile(mag, 99.0))
        norm = mag / p99 if p99 > 0.0 else np.zeros_like(mag)
        g_c = 1.0 / (1.0 + cfg.alpha * norm * norm)
        g = g_c if g is None else np.minimum(g, g_c)
    return Volume(g, spacing)


# Bytes of padded lines per pass of the Gaussian's tap loop, so the padded
# chunk, its scratch and the output chunk stay in cache: of 64 KiB to 1 MiB,
# 256 KiB was fastest at 36x28x28 to 64^3 on a 2-core Xeon (2 MiB L2 per core).
GAUSS_CHUNK_BYTES = 256 * 1024


def _gaussian_nearest(x: np.ndarray, sigmas: Sequence[float],
                      chunk_bytes: int = GAUSS_CHUNK_BYTES) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(x, sigmas, mode="nearest")`` (truncate
    4), bit for bit, in numpy; ``x`` uncopied when no sigma exceeds 1e-15.

    It is scipy's computation: axis by axis, a kernel of radius
    r = int(4 sigma + 0.5) normalised by its sum, and per output voxel
    scipy's symmetric-kernel loop, c w_0 + sum over k = r..1 of
    (left_k + right_k) w_k on edge-replicated lines, all in float64.  The tap
    loop runs over chunks of padded lines that fit in cache."""
    out = np.ascontiguousarray(x, dtype=np.float64)
    for axis, sigma in enumerate(sigmas):
        if sigma <= 1e-15:
            continue
        r = int(4.0 * sigma + 0.5)
        taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
        w = (taps / taps.sum())[r:]
        n = out.shape[axis]
        src = out.reshape(math.prod(out.shape[:axis]), n, -1)  # (outer, line, inner)
        dst = np.empty_like(src)
        per_chunk = max(1, chunk_bytes // (8 * (n + 2 * r)))
        bi = min(src.shape[2], per_chunk)
        bo = max(1, per_chunk // bi)
        pad, tmp = np.empty((bo, n + 2 * r, bi)), np.empty((bo, n, bi))
        for o in range(0, src.shape[0], bo):
            for i in range(0, src.shape[2], bi):
                s, d = src[o:o + bo, :, i:i + bi], dst[o:o + bo, :, i:i + bi]
                p, t = pad[:s.shape[0], :, :s.shape[2]], tmp[:s.shape[0], :, :s.shape[2]]
                p[:, :r], p[:, r:r + n], p[:, r + n:] = s[:, :1], s, s[:, -1:]
                np.multiply(s, w[0], out=d)
                for k in range(r, 0, -1):
                    np.add(p[:, r - k:r - k + n], p[:, r + k:r + k + n], out=t)
                    t *= w[k]
                    d += t
        out = dst.reshape(out.shape)
    return out


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
