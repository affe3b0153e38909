import dataclasses
import hashlib

import numpy as np
import pytest

from segtta import fileio, phantom
from segtta.gatekeeper import gate
from segtta.phantom import (
    GeometryError,
    PhantomSpec,
     cohort,
    generate,
    mixed_cohort_specs,
    scenario_spec,
    splitmix64,
    standard_normals,
)
from segtta.volume import sigmoid, threshold


def _ints_where_integral(value):
    """``value`` with each integral float, in tuples too, as an int."""
    if isinstance(value, tuple):
        return tuple(_ints_where_integral(v) for v in value)
    return int(value) if isinstance(value, float) and value.is_integer() else value


def phantom_bytes(g) -> list[bytes]:
    """Image channels, logits, gt and annotation masks of a phantom, as bytes."""
    masks = [m for m in vars(g.annotations).values() if hasattr(m, "data")]
    return [v.data.tobytes() for v in (*g.case.image, g.case.logits0, g.gt, *masks)]


def sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# Digests of the reproducibility contract, pinned from the unchunked
# implementation of standard_normals (one full-length array per step of the
# formula in the phantom module docstring).  The counts straddle the edges of
# the 8192-deviate chunks; the seed wraps mod 2^64 and the counter is > 2^40.
# Box-Muller goes through numpy's float64 log and cos, so these digests hold
# where those give the same bits as on the x86-64 host they were taken on.
NORMALS_DIGESTS = [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, "9c1df2943ab755df301044dd23dfcd52d7b706b10a33a3a6d19aabda00346d85"),
    (8191, "3d6ebd2a61324c3d1a1d4d5db3c7326fde2e2207c3b01f37a25e293c41ba5c9e"),
    (8192, "3e84133ca47b930dfc17edc8936005c1536dd58752980f9eb22f0f95586e9db7"),
    (8193, "479114555c29355fd63c5d63df83d4eb0a483816b482cbb478519d66ba13ab66"),
    (24581, "e704668ed6eaf6fadbb6d84876e4b3cf02ed9c617b6e4042b89e882345189a05"),
]

# image (all channels, stacked), logits and gt of each scenario at seed 5
PHANTOM_DIGESTS = [
    ("clean_confident", {}, {
        "image": "e7ddb02c6a41b4f537a17a230b604212e9f69e0d472f8cf0c2c949861129a423",
        "logits": "c8773158e9c3c1b5c19e369ecaffba4374f07efb3f117948edfb9afc39bc77db",
        "gt": "548b2f1cdd1c0c2bc92d9bfd997b774b24cbf07ccd8f4592602256f62e59f437",
    }),
    ("noise_island", {}, {
        "image": "fae4c1c2ef601780ba5ba26a13f6bf323368cc113365ea4fc05814e4e51c859f",
        "logits": "379ef3ec5d27687247f4bc2b4784d114e18f675d421fe3a4d4be7e226aafbb17",
        "gt": "7a1af15b07a3ec53247aa3a7b7098db63d7007f176a791a021fa086612aa866c",
    }),
    ("under_segmented_matched", {}, {
        "image": "dee8a7f4080952981fea2983ddb93973bea16e45bc62860636f0484371962ad7",
        "logits": "e701fe73d9fd1f424e7a59ba7df5018b70f1a23214c9d71ab86bd01ec9a564d4",
        "gt": "3092969ba4045027e4adde519c1a0177bf685f4e24b16b9840df9298c727b2b4",
    }),
    ("under_segmented_mismatched", {}, {
        "image": "b1df56e0f9e03786e352545987a68a08616dedd1c6b56c24f950b3e24fb60965",
        "logits": "e701fe73d9fd1f424e7a59ba7df5018b70f1a23214c9d71ab86bd01ec9a564d4",
        "gt": "3092969ba4045027e4adde519c1a0177bf685f4e24b16b9840df9298c727b2b4",
    }),
    ("fragmented_small", {}, {
        "image": "03bcee1ec8e8e0c4d5b98c773b50ff6afacfd9248063db03b1b478b866d4d0ce",
        "logits": "1bd3d18deb38645761e41fda4f41ee1e4c298b01a190401a7d99b630da76f5f4",
        "gt": "84536dc2aef68d622f95623ccef5d41b49b9f12aa8631820253b858947d5ae58",
    }),
    ("clean_confident", {"dims": (64, 64, 64)}, {
        "image": "274c51dacb28bcbb45c93bedcde8449a8b6b4d7475a399aeff556d9a39146e1b",
        "logits": "8706b2aee2201d1d08052e779bed65d3d8a2d46413c541008c339a93a6bcd8ba",
        "gt": "591496fdde7c47e5cdb4c66d767d8fbdcbf2211d05e3b17c7442e6e1f0eadf1f",
    }),
    ("clean_confident", {"channels": 2}, {
        "image": "da7d350896043af3fa4f5a0f6d34e3315c719a8d7293013c4152087de150eb2b",
    }),
]


class TestCounterRng:
    def test_splitmix64_reference_vector(self):
        # first outputs of the published SplitMix64 stream for seed 0
        got = splitmix64(0, np.arange(3, dtype=np.uint64))
        assert got[0] == np.uint64(0xE220A8397B1DCDAF)
        assert got[1] == np.uint64(0x6E789E6AA1B965F4)
        assert got[2] == np.uint64(0x06C45D188009454F)

    def test_counter_addressability(self):
        block = splitmix64(42, np.arange(100, dtype=np.uint64))
        single = splitmix64(42, np.array([57], dtype=np.uint64))
        assert block[57] == single[0]

    def test_normals_are_deterministic_and_reasonable(self):
        a = standard_normals(7, 0, 100000)
        b = standard_normals(7, 0, 100000)
        assert np.array_equal(a, b)
        assert abs(a.mean()) < 0.02
        assert abs(a.std() - 1.0) < 0.02

    @pytest.mark.parametrize("count, digest", NORMALS_DIGESTS,
                             ids=[str(n) for n, _ in NORMALS_DIGESTS])
    def test_normals_match_pinned_digests(self, count, digest):
        got = standard_normals(2**64 - 1, 2**40 + 12345, count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert sha256(got) == digest

    def test_normals_of_a_sub_range_equal_that_slice_of_the_stream(self):
        # deviate i of a stream that starts at counter 2k is deviate k + i of
        # the stream from 0, wherever the chunk edges fall
        whole = standard_normals(9, 0, 20000)
        for k in (1, 8191, 8192, 12345):
            assert np.array_equal(standard_normals(9, 2 * k, 20000 - k), whole[k:])

    def test_distinct_seeds_decorrelate(self):
        a = standard_normals(1, 0, 10000)
        b = standard_normals(2, 0, 10000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


class TestGenerate:
    def test_bit_reproducibility(self):
        for scenario in phantom.SCENARIOS:
            g1 = generate(scenario_spec(scenario, seed=5))
            g2 = generate(scenario_spec(scenario, seed=5))
            assert np.array_equal(g1.case.logits0.data, g2.case.logits0.data)
            for c1, c2 in zip(g1.case.image, g2.case.image):
                assert np.array_equal(c1.data, c2.data)
            assert np.array_equal(g1.gt.data, g2.gt.data)

    @pytest.mark.parametrize("scenario, overrides, digests", PHANTOM_DIGESTS,
                             ids=[f"{s}{o.get('dims', '')}{'-ch2' if 'channels' in o else ''}"
                                  for s, o, _ in PHANTOM_DIGESTS])
    def test_outputs_match_pinned_digests(self, scenario, overrides, digests):
        g = generate(scenario_spec(scenario, seed=5, **overrides))
        got = {
            "image": sha256(np.stack([c.data for c in g.case.image])),
            "logits": sha256(g.case.logits0.data),
            "gt": sha256(g.gt.data),
        }
        assert {k: got[k] for k in digests} == digests

    @pytest.mark.parametrize("scenario, overrides",
                             [(s, {}) for s in phantom.SCENARIOS]
                             + [("under_segmented_matched", {"rim_logit": -1.0})])
    def test_integral_fields_given_as_ints_give_the_same_phantom(self, scenario, overrides):
        spec = scenario_spec(scenario, seed=5, **overrides)
        as_ints = dataclasses.replace(spec, **{
            f.name: _ints_where_integral(getattr(spec, f.name)) for f in dataclasses.fields(spec)})
        assert as_ints == spec and fileio.spec_to_json(as_ints) == fileio.spec_to_json(spec)
        assert phantom_bytes(generate(as_ints)) == phantom_bytes(generate(spec))

    def test_seed_changes_noise_not_geometry(self):
        g1 = generate(scenario_spec("noise_island", seed=1))
        g2 = generate(scenario_spec("noise_island", seed=2))
        assert np.array_equal(g1.gt.data, g2.gt.data)
        assert np.array_equal(g1.case.logits0.data, g2.case.logits0.data)
        assert not np.array_equal(g1.case.image[0].data, g2.case.image[0].data)

    def test_geometry_must_fit(self):
        with pytest.raises(GeometryError):
            generate(PhantomSpec("clean_confident", seed=0, dims=(16, 16, 16),
                                 radii_mm=(3.0, 1.0, 1.0)))

    def test_island_never_overlaps_tumor(self):
        spec = scenario_spec("noise_island", seed=0, island_offset_mm=(2.0, 0.0, 0.0))
        with pytest.raises(GeometryError, match="overlap"):
            generate(spec)

    def test_multichannel(self):
        g = generate(scenario_spec("clean_confident", seed=3, channels=2))
        assert len(g.case.image) == 2
        assert not np.array_equal(g.case.image[0].data, g.case.image[1].data)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            PhantomSpec("over_segmented", seed=0)


class TestScenarioGuarantees:
    def test_clean_confident_is_not_flagged(self):
        for seed in range(3):
            g = generate(scenario_spec("clean_confident", seed=seed))
            verdict = gate(sigmoid(g.case.logits0))
            assert not verdict.flagged
            assert not g.annotations.expected_flagged

    def test_noise_island_flags_and_fp_count_equals_island(self):
        g = generate(scenario_spec("noise_island", seed=11))
        verdict = gate(sigmoid(g.case.logits0))
        assert verdict.flagged and g.annotations.expected_flagged
        baseline = threshold(sigmoid(g.case.logits0), 0.5)
        fp = int(np.count_nonzero(baseline.data & ~g.gt.data))
        assert fp == g.annotations.island.count > 0
        assert g.annotations.island.data.sum() == (g.annotations.island.data & ~g.gt.data).sum()

    def test_under_segmented_flags_with_uncertain_band(self):
        for scenario in ("under_segmented_matched", "under_segmented_mismatched"):
            g = generate(scenario_spec(scenario, seed=4))
            verdict = gate(sigmoid(g.case.logits0))
            assert verdict.flagged and verdict.trigger == "high_uncertainty"
            # rim is missed tumor: inside gt, outside the baseline mask
            baseline = threshold(sigmoid(g.case.logits0), 0.5)
            rim = g.annotations.rim.data
            assert np.all(g.gt.data[rim])
            assert not np.any(baseline.data & rim)

    def test_mismatched_rim_is_shifted_in_the_image(self):
        gm = generate(scenario_spec("under_segmented_matched", seed=6))
        gx = generate(scenario_spec("under_segmented_mismatched", seed=6))
        rim = gm.annotations.rim.data
        spec = scenario_spec("under_segmented_mismatched", seed=6)
        shift = (gx.case.image[0].data[rim] - gm.case.image[0].data[rim]).mean()
        assert shift == pytest.approx(spec.rim_offset_sigma * phantom.TUMOR_STD, rel=1e-9)

    def test_fragmented_small_trips_volume_trigger(self):
        g = generate(scenario_spec("fragmented_small", seed=8))
        verdict = gate(sigmoid(g.case.logits0))
        assert verdict.flagged and verdict.trigger == "small_volume"
        assert verdict.predicted_volume_voxels < 300

    def test_annotations_match_realized_masks(self):
        g = generate(scenario_spec("noise_island", seed=2))
        z = g.case.logits0.data
        spec = scenario_spec("noise_island", seed=2)
        assert np.all(z[g.annotations.island.data] == spec.confidence_scale)
        assert np.all(z[g.annotations.uncertain.data] == phantom.UNCERTAIN_LOGIT)
        assert np.all(z[g.annotations.halo.data] == phantom.ISLAND_HALO_LOGIT)
        assert np.all(z[g.annotations.leak_band.data] == spec.leak_band_logit)


class TestCohorts:
    def test_cohort_is_elementwise_generate(self):
        specs = [scenario_spec("clean_confident", seed=s) for s in range(2)]
        got = cohort(specs)
        solo = generate(specs[1])
        assert np.array_equal(got[1].case.image[0].data, solo.case.image[0].data)

    def test_template_counts_and_seeds(self):
        specs = mixed_cohort_specs(
            [("clean_confident", 3), ("noise_island", 2)], base_seed=100
        )
        assert len(specs) == 5
        assert [s.seed for s in specs] == [100, 101, 102, 103, 104]
        assert [s.scenario for s in specs] == ["clean_confident"] * 3 + ["noise_island"] * 2

    def test_template_label_mix(self):
        specs = mixed_cohort_specs([("clean_confident", 2), ("fragmented_small", 2)])
        labels = [generate(s).annotations.expected_flagged for s in specs]
        assert labels == [False, False, True, True]
