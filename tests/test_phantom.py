import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from segtta import fileio, phantom
from segtta.gatekeeper import gate
from segtta.phantom import (
    GeometryError,
    PhantomSpec,
     cohort,
    generate,
    mixed_cohort_specs,
    scenario_spec,
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


ANNOTATION_MASKS = ("island", "halo", "leak_band", "rim", "uncertain", "beyond_shell")


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

# image (all channels, stacked), logits, gt and annotation masks at seed 5.
# Together the entries reach every branch of generate: each scenario, the
# leak band, the shell ring (edge_contrast), a second channel and a 64^3 grid.
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
        "island": "b78fab7d976363809ae01c241dcd6c3edff5518d8166a175eb54d890069037f2",
        "halo": "4d85cccd59ce8772d4b7c4d16381f5e63ef2ead9c5bce222a8819f114a104023",
        "leak_band": "2aa06390419dd4f7c00f128955800bcabaa278fa743f5ca40f72ad5178c11bf5",
        "uncertain": "c62aaa0c3a0b21549c2afdd19b04b4d54684de91ec548077132010941063fa22",
    }),
    ("under_segmented_matched", {}, {
        "image": "dee8a7f4080952981fea2983ddb93973bea16e45bc62860636f0484371962ad7",
        "logits": "e701fe73d9fd1f424e7a59ba7df5018b70f1a23214c9d71ab86bd01ec9a564d4",
        "gt": "3092969ba4045027e4adde519c1a0177bf685f4e24b16b9840df9298c727b2b4",
        "rim": "5a6e2762700d4e0813af5011cf4649ff89a92a90f377864d8cb43048de7cea5c",
        "uncertain": "514fe20cfe05e8f63e27d297822d8a555a45afc04a1a25ff58ecd8d47372daab",
    }),
    ("under_segmented_mismatched", {}, {
        "image": "b1df56e0f9e03786e352545987a68a08616dedd1c6b56c24f950b3e24fb60965",
        "logits": "e701fe73d9fd1f424e7a59ba7df5018b70f1a23214c9d71ab86bd01ec9a564d4",
        "gt": "3092969ba4045027e4adde519c1a0177bf685f4e24b16b9840df9298c727b2b4",
        "rim": "5a6e2762700d4e0813af5011cf4649ff89a92a90f377864d8cb43048de7cea5c",
        "uncertain": "514fe20cfe05e8f63e27d297822d8a555a45afc04a1a25ff58ecd8d47372daab",
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
    ("noise_island", {"edge_contrast": 0.3}, {
        "image": "723077424ae0abf06279bf77b2dfcc1b446949421909517174ab564254a38882",
        "logits": "379ef3ec5d27687247f4bc2b4784d114e18f675d421fe3a4d4be7e226aafbb17",
        "gt": "7a1af15b07a3ec53247aa3a7b7098db63d7007f176a791a021fa086612aa866c",
        "island": "b78fab7d976363809ae01c241dcd6c3edff5518d8166a175eb54d890069037f2",
        "halo": "4d85cccd59ce8772d4b7c4d16381f5e63ef2ead9c5bce222a8819f114a104023",
        "leak_band": "2aa06390419dd4f7c00f128955800bcabaa278fa743f5ca40f72ad5178c11bf5",
        "uncertain": "c62aaa0c3a0b21549c2afdd19b04b4d54684de91ec548077132010941063fa22",
        "beyond_shell": "5bedc97c493276dc176928393fc1580cf09924f150d21a7cd980c8b73fd6f48b",
    }),
    ("under_segmented_mismatched", {"dims": (64, 64, 64), "channels": 2}, {
        "image": "2d001cb9015b03509ae5ec2a6d20ae3c7c5d8db610672fc41a6d171398a9f81f",
        "logits": "511b39768594d212939f20b34a081310ed17541ef9b7a4c5d35685ce8d65cace",
        "gt": "691b9493f075701b1f4c5fb2a56de649f64beae6901483680bd3c94a233a0dc2",
        "rim": "68f4df5d6c173b796dc126795025cd09a1841abe172a148f5aaa965bcef6b782",
        "uncertain": "a1b2fad81bf8516979a841e0ba1251a1747623d665113f5dad6d152e3a466211",
    }),
]


def splitmix64_states(seed, counters):
    """SplitMix64's state before output k: seed + (k + 1) gamma mod 2^64."""
    return np.array([(seed + (k + 1) * 0x9E3779B97F4A7C15) % 2**64 for k in counters],
                    dtype=np.uint64)


class TestCounterRng:
    def test_mix_reference_vector(self):
        # first outputs of the published SplitMix64 stream for seed 0
        got = phantom._mix(splitmix64_states(0, range(3)))
        assert got.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert got.tolist() == [oracles.splitmix64(0, k) for k in range(3)]

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 2**64 - 1])
    def test_mix_matches_the_python_stream(self, seed):
        counters = [*range(50), 2**32, 2**62 + 7, 2**64 - 2]
        got = phantom._mix(splitmix64_states(seed, counters))
        assert got.tolist() == [oracles.splitmix64(seed, k) for k in counters]

    def test_counter_addressability(self):
        block = phantom._mix(splitmix64_states(42, range(100)))
        single = phantom._mix(splitmix64_states(42, [57]))
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
                                  f"{'-edge' if 'edge_contrast' in o else ''}"
                                  for s, o, _ in PHANTOM_DIGESTS])
    def test_outputs_match_pinned_digests(self, scenario, overrides, digests):
        g = generate(scenario_spec(scenario, seed=5, **overrides))
        got = {
            "image": sha256(np.stack([c.data for c in g.case.image])),
            "logits": sha256(g.case.logits0.data),
            "gt": sha256(g.gt.data),
        }
        got.update({name: sha256(getattr(g.annotations, name).data) for name in ANNOTATION_MASKS
                    if getattr(g.annotations, name) is not None})
        assert {k: got.get(k) for k in digests} == digests
        if "gt" in digests:  # a full entry: no annotation mask goes unpinned
            assert got.keys() == digests.keys()

    @pytest.mark.parametrize("scenario, overrides",
                             [(s, {}) for s in phantom.SCENARIOS]
                             + [("under_segmented_matched", {"rim_logit": -1.0})])
    def test_integral_fields_given_as_ints_give_the_same_phantom(self, scenario, overrides):
        spec = scenario_spec(scenario, seed=5, **overrides)
        as_ints = dataclasses.replace(spec, **{
            f.name: _ints_where_integral(getattr(spec, f.name)) for f in dataclasses.fields(spec)})
        assert as_ints == spec and fileio.spec_to_json(as_ints) == fileio.spec_to_json(spec)
        assert phantom_bytes(generate(as_ints)) == phantom_bytes(generate(spec))

    @pytest.mark.parametrize("scenario, dims", [
        ("noise_island", (52, 41, 40)),
        ("under_segmented_mismatched", (41, 37, 43)),
        ("fragmented_small", (33, 29, 41)),
        ("clean_confident", (40, 96, 96)),  # one axis-0 plane is more than a noise chunk
    ])
    def test_image_is_the_stream_times_std_plus_base(self, scenario, dims):
        # the full-grid formula: the x-fastest stream laid out on the grid,
        # times the tumor / background std, plus the base intensities
        spec = scenario_spec(scenario, seed=2**64 - 3, dims=dims, channels=2)
        g = generate(spec)
        ann, gt, nvox = g.annotations, g.gt.data, g.gt.data.size
        base = np.where(gt, phantom.TUMOR_MEAN, phantom.BACKGROUND_MEAN)
        if ann.rim is not None:
            base = base + np.where(ann.rim.data, spec.rim_offset_sigma * phantom.TUMOR_STD, 0.0)
        if ann.leak_band is not None:
            base = np.where(ann.leak_band.data,
                            phantom.TUMOR_MEAN + spec.leak_band_offset_sigma * phantom.TUMOR_STD, base)
        std = np.where(gt, phantom.TUMOR_STD, phantom.BACKGROUND_STD)
        for ch, image in enumerate(g.case.image):
            noise = standard_normals(spec.seed, 2 * ch * nvox, nvox).reshape(dims, order="F")
            assert image.data.flags.c_contiguous
            assert image.data.tobytes() == (noise * std + base).tobytes()

    @pytest.mark.parametrize("scenario, overrides",
                             [(s, {}) for s in phantom.SCENARIOS] + [("noise_island", {"edge_contrast": 0.3})],
                             ids=[*phantom.SCENARIOS, "noise_island-edge"])
    def test_allocates_little_besides_its_outputs(self, scenario, overrides):
        # at most a noise chunk's scratch and a few bool grids; a full float64
        # temporary at 64^3 alone is 2 MiB
        spec = scenario_spec(scenario, seed=5, dims=(64, 64, 64), **overrides)
        generate(spec)  # fills the axis-coordinate cache
        tracemalloc.start()
        try:
            g = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        masks = [m for m in vars(g.annotations).values() if hasattr(m, "data")]
        returned = sum(v.data.nbytes for v in (*g.case.image, g.case.logits0, g.gt, *masks))
        assert returned <= peak <= returned + 2.5 * 2**20

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

    @pytest.mark.parametrize("count", [-3, 2.5, 2.0, True, "2", None])
    def test_template_rejects_a_count_that_is_not_a_whole_number(self, count):
        message = f"count of scenario 'noise_island' must be an integer >= 0, got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mixed_cohort_specs([("clean_confident", 1), ("noise_island", count)])

    @pytest.mark.parametrize("count", [0, 2])
    def test_template_rejects_an_unknown_scenario_whatever_its_count(self, count):
        with pytest.raises(ValueError, match=re.escape("unknown scenario 'bogus'")):
            mixed_cohort_specs([("bogus", count), ("clean_confident", 1)])

    def test_template_takes_zero_and_numpy_counts(self):
        specs = mixed_cohort_specs([("clean_confident", 0), ("noise_island", np.int64(2))], base_seed=7)
        assert [(s.scenario, s.seed) for s in specs] == [("noise_island", 7), ("noise_island", 8)]

    def test_template_label_mix(self):
        specs = mixed_cohort_specs([("clean_confident", 2), ("fragmented_small", 2)])
        labels = [generate(s).annotations.expected_flagged for s in specs]
        assert labels == [False, False, True, True]
