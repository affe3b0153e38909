"""Every loss term, both objectives and the axis-sliced primitives on
grids with singleton axes and anisotropic spacing."""

import numpy as np
import pytest

from segtta import losses
from segtta.metrics import surface_voxels
from segtta.volume import Mask, Volume

SPACING = (0.7, 1.3, 2.1)
ODD_DIMS = [(1, 1, 1), (5, 1, 7), (2, 3, 1)]


def rand(seed, dims, low=None, high=None):
    rng = np.random.default_rng(seed)
    arr = rng.normal(scale=2.0, size=dims) if low is None else rng.uniform(low, high, size=dims)
    return Volume(arr, SPACING)


def term_results(dims):
    z, z0, g = rand(0, dims), rand(1, dims), rand(2, dims, 0.05, 1.0)
    return {
        "entropy": losses.entropy_term(z),
        "tv": losses.tv_term(z),
        "gravity": losses.gravity_term(z),
        "geodesic": losses.geodesic_term(z, g),
        "inflation": losses.inflation_term(z),
        "anchor": losses.anchor_term(z, z0),
        "compact": objective_result(losses.compact_objective(z0.data, SPACING, losses.CompactWeights()), z),
        "diffuse": objective_result(losses.diffuse_objective(z0.data, g.data, losses.DiffuseWeights()), z),
    }


def objective_result(objective, z):
    value, grad = objective(z.data)
    return losses.LossTermResult(value, z.with_data(grad))


@pytest.mark.parametrize("dims", ODD_DIMS)
class TestOddGrids:
    def test_every_term_is_finite_on_the_input_grid(self, dims):
        for name, r in term_results(dims).items():
            assert np.isfinite(r.value), name
            assert r.grad_z.dims == dims and r.grad_z.spacing == SPACING, name
            assert np.isfinite(r.grad_z.data).all(), name

    def test_geodesic_with_unit_map_is_tv_bitwise(self, dims):
        z = rand(3, dims)
        tv = losses.tv_term(z)
        geo = losses.geodesic_term(z, Volume(np.ones(dims), SPACING))
        assert geo.value == tv.value
        assert geo.grad_z.data.tobytes() == tv.grad_z.data.tobytes()

    def test_edge_map_is_in_unit_interval_on_the_input_grid(self, dims):
        g = losses.edge_map([rand(4, dims), rand(5, dims)])
        assert g.dims == dims and g.spacing == SPACING
        assert np.all((g.data > 0.0) & (g.data <= 1.0))

    def test_every_voxel_lies_on_the_border(self, dims):
        # each grid has a singleton axis, so every foreground voxel is surface
        fg = rand(6, dims).data > 0.0
        fg.flat[0] = True
        surface = surface_voxels(Mask(fg, SPACING))
        assert surface.shape == dims
        assert np.array_equal(surface, fg)
