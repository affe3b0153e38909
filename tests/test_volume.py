import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta.volume import (
    Case,
    Mask,
    Volume,
    sigmoid,
    slab_planes,
    threshold,
)


def vol(arr, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(arr, dtype=np.float64), spacing)


def line(values):
    return vol(np.asarray(values, dtype=np.float64).reshape(-1, 1, 1))


class TestVolumeType:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # beside entries whose sum overflows to +inf, so -inf makes it NaN
        arr = np.full((2, 2, 2), 1e308)
        arr[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Volume(arr, (1, 1, 1))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_accepts_finite_entries_whose_sum_overflows(self, sign):
        arr = np.full((2, 2, 2), sign * 1e308)
        arr[1, 1, 1] = -sign * 1e308
        with np.errstate(over="ignore"):
            assert arr.sum() == sign * np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor does the check warn
            assert np.array_equal(Volume(arr, (1, 1, 1)).data, arr)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            Volume(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError, match="3D"):
            Volume(np.zeros((2, 2)), (1, 1, 1))

    def test_data_is_immutable(self):
        v = vol(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_mask_requires_bool(self):
        with pytest.raises(ValueError, match="boolean"):
            Mask(np.zeros((2, 2, 2)), (1, 1, 1))

    def test_case_requires_consistent_grids(self):
        img = vol(np.zeros((2, 2, 2)))
        z = vol(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            Case(image=(img,), logits0=z)

    def test_case_requires_a_channel(self):
        z = vol(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="channel"):
            Case(image=(), logits0=z)


class TestSigmoid:
    def test_zero_maps_to_half(self):
        p = sigmoid(vol(np.zeros((3, 3, 3))))
        assert np.all(p.data == 0.5)

    def test_saturation(self):
        p = sigmoid(vol(np.full((2, 2, 2), 20.0)))
        assert np.all(np.abs(p.data - 1.0) < 1e-8)

    def test_scalar_values(self):
        p = sigmoid(line([-1.0, 0.0, 1.0]))
        expected = np.array([0.26894, 0.5, 0.73106])
        assert np.allclose(p.data.ravel(), expected, atol=1e-5)

    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_logit_round_trip(self, z):
        v = vol(np.full((2, 2, 2), z))
        p = sigmoid(v).data
        back = np.log(p / (1.0 - p))
        assert np.all(np.abs(back - z) <= 1e-9)

    def test_exact_at_overflow_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = sigmoid(line([-800.0, 800.0])).data.ravel()
        assert p.tolist() == [0.0, 1.0]

    def test_monotone(self):
        zs = np.linspace(-30, 30, 100)
        p = sigmoid(line(zs)).data.ravel()
        assert np.all(np.diff(p) > 0)
        assert np.all((p > 0) & (p < 1))


class TestThreshold:
    def test_strict_at_boundary(self):
        v = vol(np.full((2, 2, 2), 0.8))
        assert threshold(v, 0.8).count == 0

    def test_just_above(self):
        v = vol(np.full((2, 2, 2), 0.81))
        assert threshold(v, 0.8).count == 8

    def test_mixed(self):
        m = threshold(line([0.79, 0.80, 0.81]), 0.8)
        assert list(m.data.ravel()) == [False, False, True]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_partition(self, seed):
        rng = np.random.default_rng(seed)
        v = vol(rng.uniform(0, 1, size=(3, 4, 5)))
        m = threshold(v, 0.5)
        assert m.count + int(np.count_nonzero(~m.data)) == v.nvox


@pytest.mark.parametrize("dims, planes", [
    ((40, 40, 40), 40),    # under 2 SLAB_VOXELS: one slab
    ((52, 40, 40), 52),
    ((64, 64, 64), 16),    # 4 slabs of SLAB_VOXELS
    ((240, 240, 155), 2),  # BraTS-sized: 136 slabs of 2 planes fit 120
    ((3, 512, 512), 1),    # a plane over SLAB_VOXELS
    ((1, 1, 1), 1),
])
def test_slab_planes(dims, planes):
    assert slab_planes(dims) == planes
