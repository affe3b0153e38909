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

The evaluator is cache-blocked: it works through slabs of axis-0 planes
(:func:`volume.slab_planes`), so only P, the accumulator and the face
weights are full-grid, and its scratch arrays hold one slab.  The gradient
keeps every bit of a whole-grid pass at any slab thickness; the value's sums
are added up slab by slab, which moves only its last bits.

An evaluator called with ``value=False`` returns the gradient only: each
kernel skips the operations that serve its value alone, and the gradient is
bit-identical to the one ``value=True`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .volume import (Spacing, Volume, along, axis_coords, check_fields, require_same_grid,
                     sigmoid_into, slab_planes)

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


# Edge-stopping map: Gaussian scale in mm, and the gradient sensitivity alpha
# of g = 1 / (1 + alpha |grad I|^2).
EDGE_SIGMA_MM = 1.0
EDGE_ALPHA = 10.0


# ---------------------------------------------------------------------------
# term kernels and the objective builder
# ---------------------------------------------------------------------------


class _Faces(NamedTuple):
    """One axis of one slab's face loop, as views of flat C-ordered buffers,
    where a step along the axis is a shift by its stride st.  The scratch
    views ``d`` and ``root`` cover the slab and, below it, the halo: the st
    entries whose u the adjoint reads into the slab's first st entries."""

    ahead: np.ndarray       # P one stride on from ``here``
    here: np.ndarray
    diff: np.ndarray        # the part of d that the difference writes
    zeroed: tuple[np.ndarray, ...]  # parts of d in the axis's final slab
    d: np.ndarray
    root: np.ndarray
    root_own: np.ndarray    # root without the halo, for the value
    w_own: np.ndarray | None  # face weights of root_own and of d
    w: np.ndarray | None
    grad_own: np.ndarray    # the slab's accumulator, less d_own
    d_own: np.ndarray
    grad_next: np.ndarray   # the accumulator one stride on, plus d_prev
    d_prev: np.ndarray


def _face_views(p: np.ndarray, grad: np.ndarray, a: np.ndarray, b: np.ndarray, s: slice,
                face_w: Sequence[np.ndarray] | None) -> tuple[_Faces, ...]:
    # The slab is planes [lo, hi).  A shifted pair that wraps past the end of
    # an axis lands in that axis's final slab, which is zeroed; in the adjoint
    # such an entry adds that zero times its face weight, which changes no
    # value (it can only turn a -0.0 into +0.0).  The halo is all of plane
    # lo - 1 along axis 0, whose u the slab computes again, and the zeroed
    # wrap at the end of that plane along axes 1 and 2.
    pf, gf, af, bf = p.ravel(), grad.ravel(), a.ravel(), b.ravel()
    n, (n0, *rest) = p.size, p.shape
    lo, hi = s.start, s.stop
    plane = n // n0
    views = []
    for axis in range(3):
        st = math.prod(p.shape[axis + 1:])
        start, stop = (lo * plane - st if lo > 0 else 0), hi * plane
        own, end = lo * plane - start, min(stop + st, n)
        d, root = af[:stop - start], bf[:stop - start]
        zeroed = [d[:own]] if axis > 0 and own > 0 else []
        if axis > 0 or hi == n0:
            zeroed.append(d[own:].reshape(hi - lo, *rest)[along(axis, slice(-1, None))])
        w = None if face_w is None else face_w[axis]
        views.append(_Faces(
            ahead=pf[start + st:end], here=pf[start:end - st], diff=d[:end - st - start],
            zeroed=tuple(zeroed), d=d, root=root, root_own=root[own:],
            w_own=None if w is None else w[lo * plane:stop], w=None if w is None else w[start:stop],
            grad_own=gf[lo * plane:stop], d_own=d[own:],
            grad_next=gf[start + st:stop], d_prev=d[:stop - start - st]))
    return tuple(views)


class _Slab(NamedTuple):
    """The views of one slab ``s`` of axis-0 planes: of P, the accumulator
    ``grad`` and the anchor logits ``z0``, of the slab-sized scratch ``a``
    and ``b``, and the face loop's ``faces``."""

    s: slice
    p: np.ndarray
    grad: np.ndarray
    z0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    faces: tuple[_Faces, ...]


class _Workspace:
    """The buffers one objective reuses on every call, and their ``slabs``
    (:class:`_Slab`), cut by :func:`volume.slab_planes`.  Full-grid: P and
    the gradient accumulator ``grad``.  Slab-sized: two scratch arrays, one
    slab plus the plane below it (the face loop's halo), which then take the
    chain factor and the anchor.  Also ``n`` and the call's ``value`` flag."""

    def __init__(self, z0: np.ndarray, face_w: Sequence[np.ndarray] | None):
        self.n = z0.size
        self.p, self.grad = np.empty(z0.shape), np.empty(z0.shape)
        n0, rest = z0.shape[0], z0.shape[1:]
        planes = slab_planes(z0.shape)
        a, b = (np.empty((min(planes + 1, n0), *rest)) for _ in range(2))
        self.slabs = []
        for lo in range(0, n0, planes):
            s = slice(lo, min(lo + planes, n0))
            k = s.stop - lo
            self.slabs.append(_Slab(s, self.p[s], self.grad[s], z0[s], a[:k], b[:k],
                                    _face_views(self.p, self.grad, a, b, s, face_w)))

    def load(self, z: np.ndarray, value: bool) -> None:
        """Sweep 1: P = sigmoid(z), slab by slab."""
        self.value = value
        for sl in self.slabs:
            sigmoid_into(z[sl.s], sl.p)


# A slab kernel (entropy, faces) adds w N dL/dP into its slab of the
# accumulator, with w its weight over the objective's reference weight, and
# returns its unweighted value summed over that slab, not yet divided by N,
# or 0.0 when ws.value is False.  The entropy kernel writes its slab instead
# of adding; the anchor, added after the chain multiply, works the same way
# in logit space.  A term kernel (gravity, inflation) takes its sums from the
# full P once per call and returns its value (None when not needed) and a
# function ``add(g, s)`` that adds w N dL/dP into the slab g = ws.grad[s].
SlabAdd = Callable[[np.ndarray, slice], None]
Kernel = Callable[..., tuple[float | None, SlabAdd]]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # einsum's own loop rather than BLAS ddot: single-threaded, and its
    # summation order does not depend on the BLAS thread count
    return float(np.einsum("i,i->", x.ravel(), y.ravel()))


def _entropy(ws: _Workspace, sl: _Slab, z: np.ndarray, w: float) -> float:
    # H = mean(P softplus(-z) + (1-P) softplus(z)), the binary entropy
    # written in the logits (-ln P = softplus(-z), -ln(1-P) = softplus(z));
    # dH/dP = -z / N.  With softplus(x) = max(x, 0) + softplus(-|x|) the value
    # is a sum of three non-negative fields: softplus(-|z|) + P max(-z, 0) +
    # (1-P) max(z, 0).  The softplus field is summed before its buffer takes
    # 1-P.
    value = 0.0
    if ws.value:
        sp, relu = sl.a, sl.b
        np.log1p(np.exp(np.negative(np.abs(z, out=sp), out=sp), out=sp), out=sp)
        value = float(sp.sum())
        q = np.subtract(1.0, sl.p, out=sp)
        value += _dot(q, np.maximum(z, 0.0, out=relu))
        value += _dot(sl.p, np.maximum(np.negative(z, out=relu), 0.0, out=relu))
    np.multiply(z, -w, out=sl.grad)
    return value


def _charbonnier_faces(ws: _Workspace, faces: Sequence[_Faces]) -> float:
    # sum over axes of w * (sqrt(d^2 + eps^2) - eps) with d the forward
    # difference (replicate boundary: final slab is zero), averaged over N;
    # zero-difference entries contribute exactly zero.  The kernel adds N dL/dP,
    # the divergence of the face field, unscaled: the objective makes this
    # term's weight its reference and puts 1/N on the chain factor.  The
    # views are built once (_face_views), so a call makes ufunc calls only.
    value = 0.0
    for f in faces:
        np.subtract(f.ahead, f.here, out=f.diff)
        for part in f.zeroed:
            part.fill(0.0)
        np.multiply(f.d, f.d, out=f.root)
        np.add(f.root, TV_EPS * TV_EPS, out=f.root)
        np.sqrt(f.root, out=f.root)
        np.divide(f.d, f.root, out=f.d)  # d now holds u
        if ws.value:
            # smoothed |d|, exactly zero where d is zero; (w * root).sum()
            # keeps the same pairwise reduction as the unweighted path, so
            # g == 1 reproduces tv bit-for-bit
            r = np.subtract(f.root_own, TV_EPS, out=f.root_own)
            value += (r if f.w_own is None else np.multiply(f.w_own, r, out=r)).sum()
        if f.w is not None:
            np.multiply(f.d, f.w, out=f.d)
        np.subtract(f.grad_own, f.d_own, out=f.grad_own)
        np.add(f.grad_next, f.d_prev, out=f.grad_next)
    return value


def _face_weights(g: np.ndarray) -> list[np.ndarray]:
    # face value between voxel k and k+1 along each axis: (g_k + g_{k+1}) / 2;
    # the final slab pairs with itself (its difference is zero anyway).  The
    # weights are returned flat, as the face loop's views take them.
    weights = []
    for axis in range(3):
        src, dst = along(axis, slice(1, None)), along(axis, slice(None, -1))
        w = g.copy()
        w[dst] = 0.5 * (g[src] + g[dst])
        weights.append(w.ravel())
    return weights


def _gravity(ws: _Workspace, w: float, spacing: Spacing) -> tuple[float, SlabAdd]:
    # V = sum_v w_v ||x_v - c||^2 with w = P / (sum P + eps) and c = sum w x;
    # the gradient is differentiated through both w and c:
    #   dV/dP_k = (||x_k - c||^2 - V - 2 (1 - sum w) c.(x_k - c)) / (sum P + eps)
    # where (1 - sum w) = eps / (sum P + eps).  Both the value and the grad
    # basis separate over axes, so everything heavy is assembled from 1D
    # per-axis pieces, with the scalars folded in, broadcast into each slab.
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

    def add(g: np.ndarray, s: slice) -> None:
        g += bx[s] + by
        g += bz

    return value, add


def _inflation(ws: _Workspace, w: float) -> tuple[float | None, SlabAdd]:
    def add(g: np.ndarray, s: slice) -> None:
        g -= w

    return (-float(ws.p.sum()) / ws.n if ws.value else None), add


def _anchor(ws: _Workspace, sl: _Slab, z: np.ndarray, lam: float) -> float:
    # a logit-space term: added after the chain multiply, with its own weight
    d = np.subtract(z, sl.z0, out=sl.a)
    value = float(np.multiply(d, d, out=sl.b).sum()) if ws.value else 0.0
    d *= 2.0 * lam / ws.n
    np.add(sl.grad, d, out=sl.grad)
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

    A call makes two sweeps over slabs of :func:`volume.slab_planes` axis-0
    planes.  Sweep 1 writes P slab by slab; gravity and inflation then take
    their sums from the full P.  Sweep 2 builds each slab's gradient, chain
    factor and anchor included.  The value's sums are added up slab by slab.

    The evaluator allocates its buffers once and reuses them: the returned
    grad is overwritten by the next call, and one evaluator must not be
    called from two threads at once.
    """
    ws = _Workspace(z0, faces)
    # The P-space kernels sum N dL/dP / ref into one accumulator, which is
    # multiplied once by the chain factor (ref / N) P(1-P).  With ref the face
    # weight, the face kernel adds its scatter without a scaling pass.
    ref = face if face != 0.0 else 1.0
    chain = ref / ws.n
    lam, kernel = term
    ent_w = ent / ref

    def evaluate(z: np.ndarray, value: bool = True):
        ws.load(z, value)
        term_value, add_term = kernel(ws, lam / ref) if lam != 0.0 else (None, None)
        ent_sum = face_sum = anc_sum = 0.0
        for sl in ws.slabs:
            zs, g = z[sl.s], sl.grad
            if ent != 0.0:
                ent_sum += _entropy(ws, sl, zs, ent_w)
            else:
                g.fill(0.0)
            if face != 0.0:
                face_sum += _charbonnier_faces(ws, sl.faces)
            if add_term is not None:
                add_term(g, sl.s)
            pq = np.subtract(1.0, sl.p, out=sl.a)
            pq *= sl.p
            pq *= chain
            g *= pq
            if anc != 0.0:
                anc_sum += _anchor(ws, sl, zs, anc)
        if not value:
            return None, ws.grad
        total = 0.0
        for weight, v in ((ent, ent_sum / ws.n), (face, face_sum / ws.n), (lam, term_value),
                          (anc, anc_sum / ws.n)):
            if weight != 0.0:
                total += weight * v
        return total, ws.grad

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


def edge_map(channels: Sequence[Volume]) -> Volume:
    """Edge-stopping map in (0, 1]: ~1 in homogeneous tissue, ~0 at image edges.

    Per channel: Gaussian-smooth at EDGE_SIGMA_MM, take the spacing-scaled
    central-difference gradient magnitude, normalize by its 99th percentile,
    then g_c = 1 / (1 + EDGE_ALPHA * m^2).  The map is the voxelwise minimum
    over channels, so an edge in any channel acts as a barrier.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("edge_map needs at least one image channel")
    for ch in channels[1:]:
        require_same_grid(ch, channels[0], "image channels")
    spacing = channels[0].spacing
    sigma_vox = [EDGE_SIGMA_MM / s for s in spacing]
    g = None
    for ch in channels:
        # the smoothed image is freed before the percentile copies the
        # magnitude, and g_c is built in the differences' scratch grid
        norm, g_c = _gradient_magnitude(_gaussian_nearest(ch.data, sigma_vox), spacing)
        p99 = float(np.percentile(norm, 99.0))
        if p99 > 0.0:
            norm /= p99
        else:
            norm.fill(0.0)
        np.multiply(norm, EDGE_ALPHA, out=g_c)
        g_c *= norm
        g_c += 1.0
        np.divide(1.0, g_c, out=g_c)
        g = g_c if g is None else np.minimum(g, g_c, out=g)
    return Volume(g, spacing)


# Bytes of padded lines per pass of the Gaussian's tap loop, so the padded
# chunk, its scratch and the output chunk stay in cache: of 64 KiB to 1 MiB,
# 256 KiB was fastest at 36x28x28 to 64^3 on a 2-core Xeon (2 MiB L2 per core).
GAUSS_CHUNK_BYTES = 256 * 1024


def _gaussian_nearest(x: np.ndarray, sigmas: Sequence[float]) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(x, sigmas, mode="nearest")`` (truncate
    4), bit for bit, in numpy; ``x`` uncopied when no sigma exceeds 1e-15.

    It is scipy's computation: axis by axis, a kernel of radius
    r = int(4 sigma + 0.5) normalised by its sum, and per output voxel
    scipy's symmetric-kernel loop, c w_0 + sum over k = r..1 of
    (left_k + right_k) w_k on edge-replicated lines, all in float64.  The tap
    loop runs over chunks of :data:`GAUSS_CHUNK_BYTES` of padded lines."""
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
        per_chunk = max(1, GAUSS_CHUNK_BYTES // (8 * (n + 2 * r)))
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
        # the views hold this axis's input, and the chunk buffers are this
        # axis's: the next axis allocates its output without them
        del src, dst, s, d, p, t, pad, tmp
    return out


def _gradient_magnitude(arr: np.ndarray, spacing: Spacing) -> tuple[np.ndarray, np.ndarray]:
    # the magnitude of the spacing-scaled central differences (one-sided at
    # the ends), and the scratch grid that each axis's squares went through
    out, d = np.zeros_like(arr), np.empty_like(arr)
    for axis, s in enumerate(spacing):
        n = arr.shape[axis]
        if n == 1:
            continue
        np.subtract(arr[along(axis, slice(2, None))], arr[along(axis, slice(None, -2))],
                    out=d[along(axis, slice(1, -1))])
        first, second = along(axis, slice(0, 1)), along(axis, slice(1, 2))
        np.subtract(arr[second], arr[first], out=d[first])
        last, prior = along(axis, slice(n - 1, n)), along(axis, slice(n - 2, n - 1))
        np.subtract(arr[last], arr[prior], out=d[last])
        d /= 2.0 * s
        d *= d
        out += d
    return np.sqrt(out, out=out), d
