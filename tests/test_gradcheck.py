"""The gradient audit: it fails on seeded gradient bugs, and each of its
one-hot hypothesis objectives is the public single-term function."""

import numpy as np
import pytest

from segtta import gradcheck, losses
from segtta.losses import CompactWeights
from segtta.volume import Volume

FACE_TERMS = {"tv", "geodesic", "compact", "diffuse"}


def correct_scatter(axis, f):
    np.subtract(f.grad_own, f.d_own, out=f.grad_own)
    np.add(f.grad_next, f.d_prev, out=f.grad_next)


def flip_axis_1(axis, f):
    # the sign of axis 1's face flux, in the gradient only
    if axis != 1:
        return correct_scatter(axis, f)
    np.add(f.grad_own, f.d_own, out=f.grad_own)
    np.subtract(f.grad_next, f.d_prev, out=f.grad_next)


def drop_axis_0_halo(axis, f):
    # the u of the plane below an axis-0 slab never reaches the slab
    halo = f.d.size - f.d_own.size if axis == 0 else 0
    np.subtract(f.grad_own, f.d_own, out=f.grad_own)
    np.add(f.grad_next[halo:], f.d_prev[halo:], out=f.grad_next[halo:])


def faces_kernel(scatter):
    """A copy of ``losses._charbonnier_faces`` whose adjoint is ``scatter(axis, f)``."""
    def kernel(ws, faces):
        value = 0.0
        for axis, f in enumerate(faces):
            np.subtract(f.ahead, f.here, out=f.diff)
            for part in f.zeroed:
                part.fill(0.0)
            np.multiply(f.d, f.d, out=f.root)
            np.add(f.root, losses.TV_EPS * losses.TV_EPS, out=f.root)
            np.sqrt(f.root, out=f.root)
            np.divide(f.d, f.root, out=f.d)
            if ws.value:
                r = np.subtract(f.root_own, losses.TV_EPS, out=f.root_own)
                value += (r if f.w_own is None else np.multiply(f.w_own, r, out=r)).sum()
            if f.w is not None:
                np.multiply(f.d, f.w, out=f.d)
            scatter(axis, f)
        return value
    return kernel


def failing_terms(results):
    return {term for term, res in results.items() if res.max_rel_err >= gradcheck.TOLERANCE}


def test_the_kernel_copy_is_faithful(monkeypatch, use_slabs):
    use_slabs((5, 4, 3), 1)
    expected = gradcheck.check_all(volumes=3, dims=(5, 4, 3))
    monkeypatch.setattr(losses, "_charbonnier_faces", faces_kernel(correct_scatter))
    assert gradcheck.check_all(volumes=3, dims=(5, 4, 3)) == expected


def test_a_flipped_face_flux_fails_every_face_term(monkeypatch):
    monkeypatch.setattr(losses, "_charbonnier_faces", faces_kernel(flip_axis_1))
    assert failing_terms(gradcheck.check_all(volumes=3)) == FACE_TERMS


def test_a_dropped_halo_plane_fails_across_slab_edges_only(monkeypatch, use_slabs):
    monkeypatch.setattr(losses, "_charbonnier_faces", faces_kernel(drop_axis_0_halo))
    assert failing_terms(gradcheck.check_all(volumes=3, dims=(5, 4, 3))) == set()
    assert use_slabs((5, 4, 3), 1) == 1
    assert failing_terms(gradcheck.check_all(volumes=3, dims=(5, 4, 3))) == FACE_TERMS


def test_a_nan_in_the_gradient_fails(monkeypatch):
    inflation = losses._inflation

    def nan_at_one_voxel(ws, w):
        value, add = inflation(ws, w)

        def add_nan(g, s):
            add(g, s)
            g.flat[0] = np.nan
        return value, add_nan

    monkeypatch.setattr(losses, "_inflation", nan_at_one_voxel)
    results = gradcheck.check_all(volumes=1)
    assert failing_terms(results) == {"inflation", "diffuse"}
    assert results["inflation"].max_rel_err == np.inf


PUBLIC_TERMS = {
    "entropy": lambda z, z0, g: losses.entropy_term(z),
    "tv": lambda z, z0, g: losses.tv_term(z),
    "gravity": lambda z, z0, g: losses.gravity_term(z),
    "geodesic": lambda z, z0, g: losses.geodesic_term(z, g),
    "inflation": lambda z, z0, g: losses.inflation_term(z),
    "anchor": lambda z, z0, g: losses.anchor_term(z, z0),
}


@pytest.mark.parametrize("planes", [None, 1], ids=["one-slab", "one-plane-slabs"])
@pytest.mark.parametrize("dims", [(4, 4, 4), (5, 4, 3), (5, 1, 3)])
@pytest.mark.parametrize("term", sorted(PUBLIC_TERMS))
def test_one_hot_objective_is_the_public_term(use_slabs, term, dims, planes):
    use_slabs(dims, planes)
    rng = np.random.default_rng(7)
    z, z0 = rng.normal(size=dims), rng.normal(size=dims)
    g = rng.uniform(0.01, 1.0, size=dims)
    weights = gradcheck.AUDITS[term]
    if isinstance(weights, CompactWeights):
        f = losses.compact_objective(z0, gradcheck.SPACING, weights)
    else:
        f = losses.diffuse_objective(z0, g, weights)
    value, grad = f(z)
    public = PUBLIC_TERMS[term](*(Volume(a, gradcheck.SPACING) for a in (z, z0, g)))
    assert value == public.value
    assert grad.tobytes() == public.grad_z.data.tobytes()


def test_the_composites_are_audited_at_their_defaults():
    assert gradcheck.AUDITS["compact"] == losses.CompactWeights()
    assert gradcheck.AUDITS["diffuse"] == losses.DiffuseWeights()
