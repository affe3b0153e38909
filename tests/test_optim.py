import dataclasses
import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from segtta import losses, optim, phantom
from segtta.optim import AdamState, NumericalFailure, OptimizerProtocol, adam_step, refine
from segtta.volume import Case, Volume, sigmoid, threshold


def textbook_adam(m, v, t, z, grad):
    """Out-of-place textbook Adam, on normalised moments."""
    lr, b1, b2, eps = optim.LR, optim.BETA1, optim.BETA2, optim.EPS_ADAM
    t += 1
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return m, v, t, z - lr * m_hat / (np.sqrt(v_hat) + eps)


def unnormalised_adam(m, v, t, z, grad):
    """Out-of-place Adam on unnormalised moments, the reference the in-place
    update must match bit for bit."""
    lr, b1, b2, eps = optim.LR, optim.BETA1, optim.BETA2, optim.EPS_ADAM
    t += 1
    m = b1 * m + grad
    v = b2 * v + grad * grad
    s = math.sqrt((1.0 - b2) / (1.0 - b2**t))
    k = lr * (1.0 - b1) / (1.0 - b1**t) / s
    return m, v, t, z - m / (np.sqrt(v) + eps / s) * k


def spanning_gradients(rng, shape, steps=10):
    """Gradients whose magnitudes span 1e-6 to 1e2, entry by entry."""
    return [rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape) for _ in range(steps)]


def small_case(seed=0, dims=(6, 6, 6)):
    rng = np.random.default_rng(seed)
    spacing = (0.5, 0.5, 0.5)
    img = Volume(rng.normal(size=dims), spacing)
    z0 = Volume(rng.normal(size=dims), spacing)
    return Case(image=(img,), logits0=z0, case_id=f"small-{seed}")


class TestAdamStep:
    def test_zero_gradient_is_fixed_point(self):
        z = np.ones((3, 3, 3))
        state = AdamState.fresh(z.shape)
        state2, z2 = adam_step(state, z, np.zeros_like(z))
        assert np.array_equal(z2, z)
        assert np.all(state2.m == 0.0) and np.all(state2.v == 0.0)
        assert state2.t == 1

    @pytest.mark.parametrize("c", [1e-4, 1.0, 250.0])
    def test_first_step_magnitude_is_lr(self, c):
        # bias correction makes step one equal lr * g / (|g| + eps)
        z = np.zeros((2, 2, 2))
        state = AdamState.fresh(z.shape)
        _, z2 = adam_step(state, z, np.full_like(z, c))
        assert np.all(np.abs(z2 + 0.1 * c / (abs(c) + 1e-8)) < 1e-12)

    def test_quadratic_convergence(self):
        # 100 steps of Adam at lr=0.1 on mean((z-a)^2) lands within 1e-2 of a
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, size=(4, 4, 4))
        z = np.zeros_like(a)
        state = AdamState.fresh(z.shape)
        for _ in range(100):
            state, z = adam_step(state, z, 2.0 * (z - a) / z.size)
        assert np.abs(z - a).max() < 1e-2

    def test_nonfinite_gradient_aborts_with_step_index(self):
        z = np.zeros((2, 2, 2))
        state = AdamState.fresh(z.shape)
        grad = np.zeros_like(z)
        grad[0, 0, 0] = np.nan
        with pytest.raises(NumericalFailure, match="step 1"):
            adam_step(state, z, grad)

    def test_nonfinite_gradient_in_the_last_slab_writes_nothing(self, use_slabs):
        # the finiteness check covers the whole grid before the first slab
        # is updated
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 4, 3))
        assert use_slabs(z.shape, 2) == 2
        state = AdamState.fresh(z.shape)
        for _ in range(3):
            state, z = adam_step(state, z, rng.normal(size=z.shape))
        kept = [a.tobytes() for a in (z, state.m, state.v)]
        grad = rng.normal(size=z.shape)
        grad[-1, -1, -1] = np.nan
        with pytest.raises(NumericalFailure, match="step 4"):
            adam_step(state, z, grad)
        assert state.t == 3
        assert [a.tobytes() for a in (z, state.m, state.v)] == kept

    @pytest.mark.parametrize("planes", [None, 1, 2])
    def test_in_place_update_is_bit_equal_to_textbook_reference(self, use_slabs, planes):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(5, 4, 3))
        use_slabs(z.shape, planes)
        m, v, t, z_ref = np.zeros_like(z), np.zeros_like(z), 0, z.copy()
        state = AdamState.fresh(z.shape)
        for grad in spanning_gradients(rng, z.shape):
            m, v, t, z_ref = unnormalised_adam(m, v, t, z_ref, grad)
            state, z = adam_step(state, z, grad)
            assert state.t == t
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
            assert z.tobytes() == z_ref.tobytes()

    @pytest.mark.parametrize("seed", [8, 9, 10])
    def test_update_matches_textbook_adam(self, seed):
        # the unnormalised moments are Adam in exact arithmetic; in floating
        # point the logits stay within a few ulp of textbook Adam's
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(5, 4, 3))
        m, v, t, z_ref = np.zeros_like(z), np.zeros_like(z), 0, z.copy()
        state = AdamState.fresh(z.shape)
        for grad in spanning_gradients(rng, z.shape):
            m, v, t, z_ref = textbook_adam(m, v, t, z_ref, grad)
            state, z = adam_step(state, z, grad)
            assert np.abs(z - z_ref).max() <= 2e-15

    @pytest.mark.parametrize("name, value", [("LR", 0.05), ("BETA1", 0.5), ("BETA2", 0.9),
                                             ("EPS_ADAM", 1.0)])
    def test_each_constant_is_read_at_call_time(self, name, value, monkeypatch):
        # the betas move the update only from step 2 on, so three steps run;
        # the in-place form keeps matching the reference under the patch
        shape = (4, 3, 3)
        grads = spanning_gradients(np.random.default_rng(5), shape, steps=3)

        def in_place():
            state, z = AdamState.fresh(shape), np.zeros(shape)
            for g in grads:
                state, z = adam_step(state, z, g.copy())
            return z

        def reference():
            m = v = z = np.zeros(shape)
            t = 0
            for g in grads:
                m, v, t, z = unnormalised_adam(m, v, t, z, g)
            return z

        base = in_place()
        monkeypatch.setattr(optim, name, value)
        got = in_place()
        assert got.tobytes() == reference().tobytes()
        assert not np.array_equal(got, base)

    def test_fresh_state_holds_only_the_moments_and_the_count(self):
        # the step size is optim.LR, so a state carries no protocol and
        # fresh takes a shape alone
        assert [f.name for f in dataclasses.fields(AdamState)] == ["m", "v", "t"]
        with pytest.raises(TypeError):
            AdamState.fresh((2, 2, 2), OptimizerProtocol())

    def test_second_moment_nonnegative(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 3, 3))
        state = AdamState.fresh(z.shape)
        for _ in range(10):
            state, z = adam_step(state, z, rng.normal(size=z.shape))
        assert np.all(state.v >= 0.0)


class TestRefine:
    def test_zero_steps_is_identity(self):
        case = small_case()
        trace = refine(case, "compact", protocol=OptimizerProtocol(steps=0))
        assert trace.steps == 0
        assert len(trace.loss_values) == 1
        assert np.array_equal(trace.final_z.data, case.logits0.data)

    def test_trace_length_and_finiteness(self, monkeypatch):
        monkeypatch.setattr(optim, "LOSS_EVERY", 1)
        trace = refine(small_case(), "diffuse", protocol=OptimizerProtocol(steps=25))
        assert len(trace.loss_values) == 26
        assert np.isfinite(trace.loss_values).all()

    @pytest.mark.parametrize("steps, loss_every, expected", [
        (0, 50, (0,)),
        (25, 50, (0, 25)),
        (100, 50, (0, 50, 100)),
        (120, 50, (0, 50, 100, 120)),
        (7, 3, (0, 3, 6, 7)),
        (4, 1, (0, 1, 2, 3, 4)),
    ])
    def test_loss_steps_are_sampled(self, monkeypatch, steps, loss_every, expected):
        monkeypatch.setattr(optim, "LOSS_EVERY", loss_every)
        trace = refine(small_case(), "compact", protocol=OptimizerProtocol(steps=steps))
        assert trace.loss_steps == expected
        assert len(trace.loss_values) == len(expected)
        assert trace.steps == steps

    def test_default_samples_every_50th_step(self):
        trace = refine(small_case(), "compact", protocol=OptimizerProtocol(steps=130))
        assert trace.loss_steps == (0, 50, 100, 130)

    @pytest.mark.parametrize("hypothesis", ["compact", "diffuse"])
    def test_sampled_values_equal_the_full_curve(self, monkeypatch, hypothesis):
        case = small_case(seed=4)
        proto = OptimizerProtocol(steps=120)
        sampled = refine(case, hypothesis, protocol=proto)
        monkeypatch.setattr(optim, "LOSS_EVERY", 1)
        full = refine(case, hypothesis, protocol=proto)
        assert full.loss_steps == tuple(range(121))
        assert sampled.loss_values == tuple(full.loss_values[s] for s in sampled.loss_steps)
        assert sampled.final_z.data.tobytes() == full.final_z.data.tobytes()

    def test_determinism(self):
        case = small_case(seed=9)
        proto = OptimizerProtocol(steps=40)
        t1 = refine(case, "compact", protocol=proto)
        t2 = refine(case, "compact", protocol=proto)
        assert t1.loss_values == t2.loss_values
        assert np.array_equal(t1.final_z.data, t2.final_z.data)

    def test_refine_steps_at_the_lr_constant(self, monkeypatch):
        # refine reaches optim.LR through adam_step: at zero the logits do
        # not move, and a smaller step gives a different result
        case, proto = small_case(seed=3), OptimizerProtocol(steps=5)
        base = refine(case, "diffuse", protocol=proto).final_z.data
        monkeypatch.setattr(optim, "LR", 0.0)
        assert refine(case, "diffuse", protocol=proto).final_z.data.tobytes() == case.logits0.data.tobytes()
        monkeypatch.setattr(optim, "LR", 0.05)
        half = refine(case, "diffuse", protocol=proto).final_z.data
        assert not np.array_equal(half, base)
        assert np.abs(half - case.logits0.data).max() < np.abs(base - case.logits0.data).max()

    def test_unknown_hypothesis(self):
        with pytest.raises(ValueError, match="hypothesis"):
            refine(small_case(), "inflate")

    @pytest.mark.parametrize("hypothesis, weights", [("compact", losses.CompactWeights()),
                                                     ("diffuse", losses.DiffuseWeights())])
    def test_weights_are_not_a_refine_argument(self, hypothesis, weights):
        # each hypothesis runs at its weight class's defaults only
        with pytest.raises(TypeError, match="unexpected keyword argument 'weights'"):
            refine(small_case(), hypothesis, weights=weights)

    def test_inflation_only_step_raises_mean_probability(self, monkeypatch):
        # from z = z0 = -3 the entropy pull outweighs inflation, so one step
        # at the default weights lowers the mean probability and only the
        # inflation-only weights raise it
        z = Volume(np.full((4, 4, 4), -3.0), (1, 1, 1))
        case = Case(image=(z,), logits0=z)
        p0, one_step = sigmoid(z).data.mean(), OptimizerProtocol(steps=1)
        default = refine(case, "diffuse", protocol=one_step)
        assert sigmoid(default.final_z).data.mean() < p0
        monkeypatch.setattr(losses, "DiffuseWeights", functools.partial(
            losses.DiffuseWeights, lambda_ent=0, lambda_geo=0, lambda_inf=5, lambda_anc=0))
        trace = refine(case, "diffuse", protocol=one_step)
        assert sigmoid(trace.final_z).data.mean() > p0

    def test_no_edge_map_is_an_all_ones_edge_map(self, monkeypatch):
        case = small_case(seed=2)
        proto = OptimizerProtocol(steps=15)
        unit = refine(case, "diffuse", protocol=proto, edge_map=False)
        monkeypatch.setattr(losses, "edge_map",
                            lambda image: Volume(np.ones(case.logits0.dims), case.spacing))
        ones = refine(case, "diffuse", protocol=proto)
        assert unit.final_z.data.tobytes() == ones.final_z.data.tobytes()
        assert unit.loss_values == ones.loss_values


# sha256 of final_z and of loss_values (as float64 bytes) after 60 steps on
# small_case(seed=4, dims=(7, 6, 5)).  final_z keeps its bits at every slab
# thickness; the sampled losses are summed slab by slab, so diffuse's depend
# on it.
PINNED_FINAL_Z = {
    "compact": "954e2323713bb12dc5f84cd650c6f94f7b92d914e7fd8d8c82709346fab89901",
    "diffuse": "d4a60bb511e1d1205bcdc8c994f50ef962f30c81f2ec7c4ff0f6834115c83e88",
    "diffuse_g1": "1e8bbc28b331c9d8cf961b14a77ab274507231a11bc832ec0142020bc97a85a6",
}
PINNED_LOSSES = {
    ("compact", None): "eacc1e99adfffde58b47a635595710d456e282fa81de9740eca8d0bff114a8fa",
    ("compact", 1): "eacc1e99adfffde58b47a635595710d456e282fa81de9740eca8d0bff114a8fa",
    ("compact", 2): "eacc1e99adfffde58b47a635595710d456e282fa81de9740eca8d0bff114a8fa",
    ("diffuse", None): "ee47ceba935f67d7b5d1421fe7a008b4161a3c1996accf1614d49d992aedff21",
    ("diffuse", 1): "236a28d48c967fb899daf2ae5cc6a879e78c37154049b2262761d8b6e6b594c3",
    ("diffuse", 2): "236a28d48c967fb899daf2ae5cc6a879e78c37154049b2262761d8b6e6b594c3",
    ("diffuse_g1", None): "4f40d961cbda6aed4ec1a61ea74ef14c5e478ac144a35e75f613b37023950479",
    ("diffuse_g1", 1): "85f3853e24a27c9b5dc6d8ced4a707b894ae3d4b13b969c2a588390f091e667c",
    ("diffuse_g1", 2): "241a0ab153a627b7ff82f6622f5b0f51ef5491a1430da88d49ef644c47c57489",
}


@pytest.mark.parametrize("planes", [None, 1, 2])
@pytest.mark.parametrize("name", ["compact", "diffuse", "diffuse_g1"])
def test_refinement_keeps_its_pinned_bits(use_slabs, name, planes):
    case = small_case(seed=4, dims=(7, 6, 5))
    use_slabs(case.logits0.dims, planes)
    trace = refine(case, name.removesuffix("_g1"), protocol=OptimizerProtocol(steps=60),
                   edge_map=name != "diffuse_g1")
    assert trace.loss_steps == (0, 50, 60)
    assert hashlib.sha256(trace.final_z.data.tobytes()).hexdigest() == PINNED_FINAL_Z[name]
    losses_bytes = np.array(trace.loss_values).tobytes()
    assert hashlib.sha256(losses_bytes).hexdigest() == PINNED_LOSSES[name, planes]


@pytest.mark.parametrize("hypothesis", ["compact", "diffuse"])
def test_a_refinement_holds_two_slab_buffers_and_a_step_allocates_no_grid(use_slabs, hypothesis):
    # Building the objective and the Adam state allocates P, the gradient
    # accumulator, M, V, diffuse's three face-weight grids and two scratch
    # buffers of one slab plus its halo plane, and little besides (the views
    # of each slab); a step then allocates less than one slab.
    dims = (32, 48, 48)
    planes = use_slabs(dims, 8)
    rng = np.random.default_rng(12)
    z0, g = rng.normal(size=dims), rng.uniform(0.05, 1.0, size=dims)
    grid, slab = z0.nbytes, (planes + 1) * z0[0].nbytes
    tracemalloc.start()
    try:
        if hypothesis == "compact":
            objective = losses.compact_objective(z0, (1.0, 1.3, 0.8), losses.CompactWeights())
        else:
            objective = losses.diffuse_objective(z0, g, losses.DiffuseWeights())
        state = AdamState.fresh(dims)
        held = tracemalloc.get_traced_memory()[0]
        expected = (7 if hypothesis == "diffuse" else 4) * grid + 2 * slab
        assert expected <= held < expected + slab // 2
        z = z0.copy()
        _, grad = objective(z)  # a first call fills the caches
        for value in (True, False, True):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            state, z = adam_step(state, z, grad)
            _, grad = objective(z, value=value)
            assert tracemalloc.get_traced_memory()[1] - before < slab
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def island_phantom():
    return phantom.generate(phantom.scenario_spec("noise_island", seed=31))


@pytest.fixture(scope="module")
def under_phantom():
    return phantom.generate(phantom.scenario_spec("under_segmented_matched", seed=32))


class TestRefineOnPhantoms:

    def test_compact_suppresses_the_island(self, island_phantom):
        case, gt, ann = island_phantom
        trace = refine(case, "compact")
        p_before = sigmoid(case.logits0).data[ann.island.data].mean()
        p_after = sigmoid(trace.final_z).data[ann.island.data].mean()
        assert p_after < p_before

    def test_diffuse_inflates_undersegmented_foreground(self, under_phantom):
        # the computed edge map is ~1 in the homogeneous interior, so the
        # inflation side is free to recruit the missed rim
        case, gt, ann = under_phantom
        trace = refine(case, "diffuse", protocol=OptimizerProtocol(steps=300))
        before = threshold(sigmoid(case.logits0), 0.5).count
        after = threshold(sigmoid(trace.final_z), 0.5).count
        assert after > before

    def test_loss_decreases_end_to_end(self, island_phantom, under_phantom):
        for (case, _, _), hyp in ((island_phantom, "compact"), (under_phantom, "diffuse")):
            trace = refine(case, hyp)
            assert trace.final_loss < trace.initial_loss

    @pytest.mark.parametrize("scenario", ["clean_confident", "under_segmented_matched"])
    def test_anchor_dominance_bounds_drift(self, scenario, monkeypatch):
        # noise_island halo voxels limit-cycle near 0.135 under Adam; the
        # dominance bound is asserted on fixtures without that pathology
        case, _, _ = phantom.generate(phantom.scenario_spec(scenario, seed=32))
        monkeypatch.setattr(losses, "CompactWeights", functools.partial(losses.CompactWeights, lambda_anc=1e4))
        trace = refine(case, "compact")
        drift = np.abs(trace.final_z.data - case.logits0.data).max()
        assert drift <= 0.1
