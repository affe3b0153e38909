import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter  # reference oracle for the numpy Gaussian

import oracles
from segtta import gradcheck, losses, phantom
from segtta.volume import Volume, sigmoid

SPACING = (1.0, 1.3, 0.8)


def vol(arr, spacing=SPACING):
    return Volume(np.asarray(arr, dtype=np.float64), spacing)


def rand_vol(seed, dims=(4, 4, 4), scale=1.0, spacing=SPACING):
    rng = np.random.default_rng(seed)
    return vol(rng.normal(scale=scale, size=dims), spacing)


def rand_gmap(seed, dims=(4, 4, 4), spacing=SPACING):
    rng = np.random.default_rng(seed)
    return vol(rng.uniform(0.05, 1.0, size=dims), spacing)


def fd_gradient(f, z, step=1e-5):
    """Independent central-difference oracle over a scalar function of z."""
    grad = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zp.flat[i] += step
        zm = z.copy()
        zm.flat[i] -= step
        grad.flat[i] = (f(zp) - f(zm)) / (2 * step)
    return grad


def kink_mask(p, cutoff=1e-4):
    bad = np.zeros(p.shape, dtype=bool)
    for axis in range(3):
        hi = [slice(None)] * 3
        lo = [slice(None)] * 3
        hi[axis], lo[axis] = slice(1, None), slice(None, -1)
        small = np.abs(p[tuple(hi)] - p[tuple(lo)]) < cutoff
        bad[tuple(lo)] |= small
        bad[tuple(hi)] |= small
    return bad


def assert_grad_matches(term_fn, z, rel_tol=1e-3, exclude_kinks=False):
    res = term_fn(z)
    numeric = fd_gradient(lambda arr: term_fn(z.with_data(arr)).value, z.data)
    analytic = res.grad_z.data
    err = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8
    )
    if exclude_kinks:
        err = err[~kink_mask(sigmoid(z).data)]
    assert err.size > 0
    assert err.max() < rel_tol


class TestEntropy:
    def test_max_at_half(self):
        res = losses.entropy_term(vol(np.zeros((3, 3, 3))))
        assert res.value == pytest.approx(math.log(2), abs=1e-12)
        assert np.all(res.grad_z.data == 0.0)

    def test_saturated_is_near_zero(self):
        res = losses.entropy_term(vol(np.full((3, 3, 3), 20.0)))
        assert abs(res.value) < 1e-6

    def test_range(self):
        for seed in range(5):
            v = rand_vol(seed, scale=5.0)
            assert 0.0 <= losses.entropy_term(v).value <= math.log(2)

    def test_gradient_vs_finite_differences(self):
        assert_grad_matches(losses.entropy_term, rand_vol(11), rel_tol=1e-4)


class TestTotalVariation:
    def test_constant_is_zero(self):
        res = losses.tv_term(vol(np.full((3, 3, 3), 1.7)))
        assert res.value == 0.0
        assert np.all(res.grad_z.data == 0.0)

    def test_two_voxel_hand_value(self):
        p = np.array([0.2, 0.8]).reshape(2, 1, 1)
        z = vol(np.log(p / (1.0 - p)))
        res = losses.tv_term(z)
        assert res.value == pytest.approx(0.6 / 2, abs=1e-5)

    def test_gradient_vs_finite_differences(self):
        assert_grad_matches(losses.tv_term, rand_vol(7), exclude_kinks=True)


class TestGravity:
    def test_point_mass_is_zero(self):
        arr = np.full((5, 5, 5), -20.0)
        arr[2, 2, 2] = 20.0
        assert losses.gravity_term(vol(arr)).value == pytest.approx(0.0, abs=1e-5)

    def test_two_equal_voxels_two_mm_apart(self):
        z = vol(np.zeros((2, 1, 1)), spacing=(2.0, 1.0, 1.0))
        assert losses.gravity_term(z).value == pytest.approx(1.0, rel=1e-6)

    def test_gradient_vs_finite_differences(self):
        assert_grad_matches(losses.gravity_term, rand_vol(3))


class TestEdgeMap:
    def test_constant_image_is_all_ones(self):
        g = losses.edge_map([vol(np.full((6, 6, 6), 3.0))])
        assert np.all(g.data == 1.0)

    def test_step_edge_is_a_barrier(self):
        arr = np.full((16, 8, 8), 0.0)
        arr[8:] = 1.0
        g = losses.edge_map([vol(arr, spacing=(1, 1, 1))])
        assert g.data[7:9].max() < 0.2   # edge slabs gated
        assert g.data[0].min() > 0.9     # far away untouched
        assert np.all((g.data > 0.0) & (g.data <= 1.0))

    def test_min_over_channels(self):
        flat = vol(np.full((16, 8, 8), 2.0), spacing=(1, 1, 1))
        arr = np.full((16, 8, 8), 0.0)
        arr[8:] = 1.0
        edged = vol(arr, spacing=(1, 1, 1))
        g_min = losses.edge_map([flat, edged])
        g_edge = losses.edge_map([edged])
        assert np.array_equal(g_min.data, g_edge.data)

    def test_needs_a_channel(self):
        with pytest.raises(ValueError, match="channel"):
            losses.edge_map([])

    @given(dims=st.tuples(*[st.integers(1, 12)] * 3),
           spacing=st.tuples(*[st.floats(0.1, 3.0)] * 3),
           sigma_mm=st.sampled_from([0.0, 1e-3, 0.3, 1.0, 5.0]),
           order=st.sampled_from("CF"),
           chunk_bytes=st.sampled_from([8, 512, losses.GAUSS_CHUNK_BYTES]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_gaussian_is_scipys_bit_for_bit(self, dims, spacing, sigma_mm, order, chunk_bytes, seed):
        # the radius exceeds the axis on small grids with large sigmas, a
        # 1e-3 mm sigma is a one-tap kernel, and sigma 0 skips the axis; small
        # chunks split the lines of every axis over several passes
        x = np.asarray(np.random.default_rng(seed).normal(scale=50.0, size=dims), order=order)
        sigmas = [sigma_mm / s for s in spacing]
        expected = gaussian_filter(x, sigmas, mode="nearest")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(losses, "GAUSS_CHUNK_BYTES", chunk_bytes)
            got = losses._gaussian_nearest(x, sigmas)
        assert got.shape == expected.shape and got.dtype == np.float64
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_gaussian_holds_two_grids_and_its_chunk_buffers(self):
        # each axis's input is let go before the next axis allocates its
        # output, so three smoothed axes never hold three grids at once
        x = np.random.default_rng(2).normal(size=(64, 64, 64))
        tracemalloc.start()
        try:
            got = losses._gaussian_nearest(x, [1.0, 0.5, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == x.shape
        assert peak < 2 * x.nbytes + 2 * losses.GAUSS_CHUNK_BYTES + 256 * 1024

    @pytest.mark.parametrize("dims, spacing, channels, constant", [
        ((9, 8, 7), SPACING, 1, False),
        ((1, 6, 5), SPACING, 1, False),        # singleton axes
        ((6, 1, 1), (1.0, 1.0, 1.0), 1, False),
        ((1, 1, 1), SPACING, 1, False),
        ((2, 5, 2), SPACING, 1, False),        # axes of 2
        ((2, 2, 2), (0.5, 2.0, 1.0), 2, False),
        ((10, 7, 6), (0.7, 1.0, 1.4), 2, False),  # two channels
        ((11, 9, 8), SPACING, 3, False),
        ((6, 6, 6), SPACING, 1, True),         # constant image: p99 = 0
        ((6, 5, 4), SPACING, 2, True),
    ])
    # (EDGE_SIGMA_MM, EDGE_ALPHA): the constants, then no smoothing at another alpha
    @pytest.mark.parametrize("cfg", [(losses.EDGE_SIGMA_MM, losses.EDGE_ALPHA), (0.0, 3.0)])
    def test_matches_the_full_temporary_oracle(self, dims, spacing, channels, constant, cfg,
                                               monkeypatch):
        rng = np.random.default_rng(sum(dims) + channels)
        image = [vol(np.full(dims, 2.5 + c) if constant else rng.normal(scale=30.0, size=dims),
                     spacing) for c in range(channels)]
        monkeypatch.setattr(losses, "EDGE_SIGMA_MM", cfg[0])
        monkeypatch.setattr(losses, "EDGE_ALPHA", cfg[1])
        got = losses.edge_map(image)
        expected = oracles.edge_map(image, *cfg)
        assert got.data.shape == dims and got.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name, value", [("EDGE_SIGMA_MM", 2.0), ("EDGE_ALPHA", 20.0)])
    def test_each_constant_is_read_at_call_time(self, name, value, monkeypatch):
        arr = np.zeros((12, 8, 8))
        arr[6:] = 1.0
        image = [vol(arr)]
        base = losses.edge_map(image).data
        monkeypatch.setattr(losses, name, value)
        got = losses.edge_map(image).data
        params = dict(sigma_mm=losses.EDGE_SIGMA_MM, alpha=losses.EDGE_ALPHA)
        assert got.tobytes() == oracles.edge_map(image, **params).tobytes()
        assert not np.array_equal(got, base)

    def test_a_bright_voxel_over_a_zero_percentile_is_ignored(self, monkeypatch):
        # p99 = 0 while one voxel has a nonzero gradient: norm is all zero
        arr = np.zeros((10, 10, 10))
        arr[5, 5, 5] = 1.0
        monkeypatch.setattr(losses, "EDGE_SIGMA_MM", 0.0)
        got = losses.edge_map([vol(arr, (1, 1, 1))])
        assert np.all(got.data == 1.0)
        assert got.data.tobytes() == oracles.edge_map([vol(arr, (1, 1, 1))], 0.0, 10.0).tobytes()

    def test_64_cube_phantom_matches_the_scipy_filter(self, monkeypatch):
        # the refine_64 benchmark case: the edge map keeps every bit of the
        # one smoothed with scipy.ndimage.gaussian_filter
        image = phantom.generate(
            phantom.scenario_spec("under_segmented_matched", 11, dims=(64, 64, 64))).case.image
        got = losses.edge_map(image)
        monkeypatch.setattr(losses, "_gaussian_nearest",
                            lambda x, sigmas: gaussian_filter(x, sigmas, mode="nearest"))
        assert got.data.tobytes() == losses.edge_map(image).data.tobytes()


class TestGeodesic:
    def test_all_ones_equals_tv_bitwise(self):
        z = rand_vol(5)
        g = vol(np.ones(z.dims))
        geo = losses.geodesic_term(z, g)
        tv = losses.tv_term(z)
        assert geo.value == tv.value
        assert np.array_equal(geo.grad_z.data, tv.grad_z.data)

    def test_fully_gated(self):
        z = rand_vol(6)
        g = vol(np.zeros(z.dims))
        res = losses.geodesic_term(z, g)
        assert res.value == 0.0
        assert np.all(res.grad_z.data == 0.0)

    def test_dims_mismatch(self):
        z = rand_vol(1)
        g = vol(np.ones((5, 4, 4)))
        with pytest.raises(ValueError, match="mismatch"):
            losses.geodesic_term(z, g)

    def test_gradient_vs_finite_differences(self):
        g = rand_gmap(8)
        assert_grad_matches(
            lambda z: losses.geodesic_term(z, g), rand_vol(9), exclude_kinks=True
        )


class TestInflation:
    def test_half(self):
        assert losses.inflation_term(vol(np.zeros((3, 3, 3)))).value == -0.5

    def test_saturated(self):
        res = losses.inflation_term(vol(np.full((3, 3, 3), 20.0)))
        assert res.value == pytest.approx(-1.0, abs=1e-8)

    def test_range(self):
        for seed in range(5):
            assert -1.0 <= losses.inflation_term(rand_vol(seed, scale=4)).value <= 0.0

    def test_gradient_vs_finite_differences(self):
        assert_grad_matches(losses.inflation_term, rand_vol(13), rel_tol=1e-6)


class TestAnchor:
    def test_identity_is_zero(self):
        z = rand_vol(2)
        res = losses.anchor_term(z, z)
        assert res.value == 0.0
        assert np.all(res.grad_z.data == 0.0)

    def test_unit_offset(self):
        z0 = rand_vol(4)
        z = z0.with_data(z0.data + 1.0)
        assert losses.anchor_term(z, z0).value == pytest.approx(1.0, abs=1e-12)

    def test_gradient_vs_finite_differences(self):
        z0 = rand_vol(15)
        assert_grad_matches(lambda z: losses.anchor_term(z, z0), rand_vol(14), rel_tol=1e-7)


def as_term(objective):
    """A Volume -> LossTermResult view of an array-level objective; the
    gradient is copied out of the objective's reused buffer."""
    def term(z):
        value, grad = objective(z.data)
        return losses.LossTermResult(value, z.with_data(grad.copy()))
    return term


def compact(z0, weights=losses.CompactWeights()):
    return as_term(losses.compact_objective(z0.data, z0.spacing, weights))


def diffuse(z0, g, weights=losses.DiffuseWeights()):
    return as_term(losses.diffuse_objective(z0.data, g.data, weights))


class TestComposites:
    def test_zero_weights_give_zero(self):
        z = rand_vol(21)
        z0 = rand_vol(22)
        g = rand_gmap(23)
        for res in (compact(z0, losses.CompactWeights(0, 0, 0, 0))(z),
                    diffuse(z0, g, losses.DiffuseWeights(0, 0, 0, 0))(z)):
            assert res.value == 0.0
            assert np.all(res.grad_z.data == 0.0)

    def test_compact_hand_value_on_uniform_cube(self):
        z = vol(np.zeros((2, 2, 2)), spacing=(1, 1, 1))
        res = compact(z)(z)
        # entropy ln 2 at weight 10; gravity = variance of the uniform 2^3
        # grid = 3/4 mm^2 at weight 50; TV and anchor vanish
        assert res.value == pytest.approx(10 * math.log(2) + 50 * 0.75, rel=1e-6)

    def test_compact_gradient_vs_finite_differences(self):
        z0 = rand_vol(31)
        assert_grad_matches(compact(z0), rand_vol(30), exclude_kinks=True)

    def test_diffuse_gradient_vs_finite_differences(self):
        z0 = rand_vol(41)
        g = rand_gmap(42)
        assert_grad_matches(diffuse(z0, g), rand_vol(40), exclude_kinks=True)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            losses.CompactWeights(lambda_ent=-1.0)
        with pytest.raises(ValueError, match=">= 0"):
            losses.DiffuseWeights(lambda_geo=-0.5)


class TestFoldedGradient:
    """Each objective folds its terms' scalars into one accumulator and one
    chain multiply; its gradient must equal the weighted sum of the separate
    term gradients up to rounding."""

    @pytest.mark.parametrize("table", ["compact", "diffuse", "g_one"])
    @pytest.mark.parametrize("zero", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("dims, scale", [
        ((12, 10, 9), 1.0),
        ((12, 10, 9), 100.0),  # saturated: |z| up to ~400
        ((5, 1, 7), 2.0),
        ((2, 3, 1), 2.0),
        ((1, 1, 1), 2.0),
    ])
    def test_gradient_is_the_weighted_sum_of_terms(self, table, zero, dims, scale):
        z = rand_vol(90, dims=dims, scale=scale)
        z0 = rand_vol(91, dims=dims)
        g = rand_gmap(92, dims=dims) if table == "diffuse" else vol(np.ones(dims))
        if table == "compact":
            weights = [10.0, 0.5, 50.0, 50.0]
            terms = [losses.entropy_term(z), losses.tv_term(z), losses.gravity_term(z),
                     losses.anchor_term(z, z0)]
        else:
            weights = [2.0, 50.0, 5.0, 0.1]
            terms = [losses.entropy_term(z), losses.geodesic_term(z, g), losses.inflation_term(z),
                     losses.anchor_term(z, z0)]
        if zero is not None:
            weights[zero] = 0.0
        if table == "compact":
            objective = losses.compact_objective(z0.data, SPACING, losses.CompactWeights(*weights))
        else:
            g_map = None if table == "g_one" else g.data
            objective = losses.diffuse_objective(z0.data, g_map, losses.DiffuseWeights(*weights))
        value, grad = objective(z.data)
        expected = sum(lam * t.grad_z.data for lam, t in zip(weights, terms))
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max()
        assert value == pytest.approx(sum(lam * t.value for lam, t in zip(weights, terms)),
                                      rel=1e-12, abs=1e-300)


class TestObjectiveBuffers:
    """The objectives reuse their buffers from call to call; the results
    callers keep must not change under them."""

    def test_loss_result_survives_a_later_call(self):
        z0 = rand_vol(51)
        g = rand_gmap(52)
        for loss in (losses.tv_term,
                     lambda z: losses.geodesic_term(z, g),
                     lambda z: losses.anchor_term(z, z0)):
            first = loss(rand_vol(53))
            kept = first.grad_z.data.tobytes()
            loss(rand_vol(54))
            assert first.grad_z.data.tobytes() == kept

    @pytest.mark.parametrize("planes", [None, 2])
    def test_interleaved_threads_match_separate_runs(self, use_slabs, planes):
        # each objective owns its workspace, so objectives stepping on
        # several threads at once (more than there are cores) see no
        # interference: every (value, grad) equals the one computed alone
        dims, steps = (12, 10, 9), 15
        use_slabs(dims, planes)
        z0s = [rand_vol(60 + k, dims=dims).data for k in range(4)]
        g = rand_gmap(65, dims=dims).data
        zs = [rand_vol(70 + i, dims=dims, scale=3.0).data for i in range(steps)]

        def build(k):
            if k % 2 == 0:
                return losses.compact_objective(z0s[k], SPACING, losses.CompactWeights())
            return losses.diffuse_objective(z0s[k], g, losses.DiffuseWeights())

        def run(objective):
            out = []
            for z in zs:
                value, grad = objective(z)
                out.append((value, grad.tobytes()))
            return out

        alone = [run(build(k)) for k in range(4)]
        threaded = [None] * 4

        def worker(k, objective):
            threaded[k] = run(objective)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k, build(k))) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert threaded == alone


# the grids of the slab tests: 12 planes cut evenly, a ragged last slab
# (7 planes as 2 + 2 + 2 + 1 and 3 + 3 + 1), and singleton axes
SLAB_DIMS = [(12, 10, 9), (7, 5, 3), (5, 1, 7), (2, 3, 1), (9, 1, 1), (1, 4, 5)]


def table_objective(table, z0, g):
    """The objective of one weight table; "edge_zero" is diffuse on a map of
    -0.0 without inflation or anchor, where a gradient entry can reach the
    flat wrap of axes 1 and 2 at -0.0, so the wrap's signed zero shows."""
    weights = {
        "compact": losses.CompactWeights(),
        "compact_no_entropy": losses.CompactWeights(lambda_ent=0.0),  # the accumulator's fill
        "compact_no_tv": losses.CompactWeights(lambda_tv=0.0),  # ref = 1
        "diffuse": losses.DiffuseWeights(),
        "g_one": losses.DiffuseWeights(),
        "edge_zero": losses.DiffuseWeights(lambda_inf=0.0, lambda_anc=0.0),
    }[table]
    if table.startswith("compact"):
        return losses.compact_objective(z0, SPACING, weights)
    g_map = {"diffuse": g, "g_one": None, "edge_zero": np.full(z0.shape, -0.0)}[table]
    return losses.diffuse_objective(z0, g_map, weights)


def slab_fields(dims):
    """Logit fields: one with exact zeros (the entropy kernel writes -0.0
    there), one wider, one saturated with |z| up to ~400."""
    fields = []
    for seed, scale in ((82, 1.0), (83, 4.0), (84, 100.0)):
        z = rand_vol(seed, dims=dims, scale=scale).data.copy()
        if seed == 82:
            z[np.random.default_rng(85).uniform(size=dims) < 0.5] = 0.0
        fields.append(z)
    return fields


class TestGradientOnly:
    """``value=False`` skips the value-only work and must leave the gradient
    bit-identical.  So must the slab thickness, while the value's slab-by-slab
    sums move it by rounding only."""

    @pytest.mark.parametrize("planes", [1, 2, 3, None])
    @pytest.mark.parametrize("dims", SLAB_DIMS)
    @pytest.mark.parametrize("table", ["compact", "compact_no_entropy", "compact_no_tv", "diffuse",
                                       "g_one", "edge_zero"])
    def test_gradient_does_not_depend_on_value(self, use_slabs, table, dims, planes):
        z0 = rand_vol(80, dims=dims).data
        g = rand_gmap(81, dims=dims).data
        use_slabs(dims, None)
        whole = table_objective(table, z0, g)
        thickness = use_slabs(dims, planes)
        if dims == (12, 10, 9):
            assert thickness == (planes or 12)
        objective = table_objective(table, z0, g)
        for z in slab_fields(dims):
            value_whole, grad = whole(z)
            grad_whole = grad.tobytes()
            none, grad = objective(z, value=False)
            assert none is None and grad.tobytes() == grad_whole
            value, grad = objective(z)
            assert grad.tobytes() == grad_whole
            assert math.isfinite(value)
            assert value == pytest.approx(value_whole, rel=1e-13, abs=1e-300)


def test_gradcheck_across_one_plane_slabs(use_slabs):
    # with one plane per slab, every axis-0 face lies on a slab edge
    assert use_slabs((5, 4, 3), 1) == 1
    results = gradcheck.check_all(dims=(5, 4, 3))
    assert set(results) == set(gradcheck.AUDITS)
    for term, res in results.items():
        assert res.max_rel_err < gradcheck.TOLERANCE, term


class TestAxisPermutation:
    @pytest.mark.parametrize("perm", [(1, 2, 0), (2, 0, 1), (0, 2, 1)])
    def test_values_invariant_under_permutation(self, perm):
        z = rand_vol(50, dims=(3, 4, 5))
        z0 = rand_vol(51, dims=(3, 4, 5))
        g = rand_gmap(52, dims=(3, 4, 5))

        def permuted(v):
            return Volume(
                np.ascontiguousarray(v.data.transpose(perm)),
                tuple(v.spacing[i] for i in perm),
            )

        pairs = [
            (losses.entropy_term(z).value, losses.entropy_term(permuted(z)).value),
            (losses.tv_term(z).value, losses.tv_term(permuted(z)).value),
            (losses.gravity_term(z).value, losses.gravity_term(permuted(z)).value),
            (losses.inflation_term(z).value, losses.inflation_term(permuted(z)).value),
            (
                losses.anchor_term(z, z0).value,
                losses.anchor_term(permuted(z), permuted(z0)).value,
            ),
            (
                losses.geodesic_term(z, g).value,
                losses.geodesic_term(permuted(z), permuted(g)).value,
            ),
        ]
        for original, transposed in pairs:
            assert transposed == pytest.approx(original, rel=1e-12)
