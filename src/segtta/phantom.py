"""Deterministic synthetic case generator.

Each scenario isolates one failure mode the decision pipeline targets:

* ``clean_confident``        — stable prediction; the gate must skip it.
* ``noise_island``           — a high-confidence false-positive island plus an
                               interior low-confidence band that trips the
                               uncertainty trigger; compaction should remove
                               the island and keep the tumor.
* ``under_segmented_matched``    — confident prediction on an eroded tumor with a
                               missed rim whose image texture matches the core;
                               diffuse recovery should recruit the rim and the
                               selector should accept it.
* ``under_segmented_mismatched`` — same geometry, rim intensity shifted away from
                               the core distribution; the selector must refuse.
* ``fragmented_small``       — a sub-300-voxel prediction; trips the volume trigger.

Geometry is exact (ellipsoids / spheres evaluated per voxel center), so the
annotations (island / rim / band voxel sets) match the realized masks by
construction.  The only stochastic ingredient is additive Gaussian image
noise drawn from a counter-based generator, documented below and in
docs/phantoms.md, so a (spec, seed) pair is bit-reproducible.

Counter-based noise generator
-----------------------------
64-bit mixing function (SplitMix64 finalizer), all arithmetic mod 2^64::

    value(seed, k) = mix(seed + (k + 1) * 0x9E3779B97F4A7C15)
    mix(x): x ^= x >> 30; x *= 0xBF58476D1CE4E5B9
            x ^= x >> 27; x *= 0x94D049BB133111EB
            x ^= x >> 31; return x

Uniform doubles take the top 53 bits: u = (value >> 11) * 2^-53 in [0, 1),
or ((value >> 11) + 1) * 2^-53 in (0, 1].  The Gaussian deviate for voxel v
(channel c, N voxels) uses counters 2*(c*N + v) and 2*(c*N + v) + 1::

    n = sqrt(-2 ln u1) * cos(2 pi u2),  u1 in (0,1], u2 in [0,1)

where v enumerates voxels in the canonical x-fastest order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .volume import Case, Mask, Spacing, Volume, axis_coords, finite_real, require, require_dims

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 0xFFFFFFFFFFFFFFFF

SCENARIOS = (
    "clean_confident",
    "noise_island",
    "under_segmented_matched",
    "under_segmented_mismatched",
    "fragmented_small",
)


class GeometryError(ValueError):
    """The requested tumor geometry does not fit the volume with margin."""


def splitmix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Counter-addressable 64-bit stream: value(seed, k), vectorized over k."""
    x = np.uint64(seed & _U64) + (counters.astype(np.uint64) + np.uint64(1)) * _GAMMA
    return _mix(x)


def _mix(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, in place on a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


# standard_normals makes this many deviates at a time, so that its four
# scratch arrays (256 KiB) stay in cache instead of streaming full-length
# temporaries through memory
_CHUNK = 8192
# state offsets of a chunk's pairs: the first state of pair i sits i * 2 gamma
# past the first state of pair 0 (mod 2^64)
_PAIR_STEPS = np.arange(_CHUNK, dtype=np.uint64) * np.uint64(2 * int(_GAMMA) & _U64)


def standard_normals(seed: int, start_counter: int, count: int) -> np.ndarray:
    """One Gaussian deviate per counter pair via Box-Muller (cosine branch).

    Deviate i uses counters start_counter + 2i and start_counter + 2i + 1, so
    its two SplitMix64 states are c0 + 2i gamma and that plus gamma, with
    c0 = seed + (start_counter + 1) gamma (mod 2^64).  The stream is made in
    chunks of ``_CHUNK`` with the same operations in the same order as the
    formula in the module docstring, so it does not depend on the chunking."""
    out = np.empty(count)
    s1, s2 = np.empty(_CHUNK, np.uint64), np.empty(_CHUNK, np.uint64)
    u1, u2 = np.empty(_CHUNK), np.empty(_CHUNK)
    c0 = seed + (start_counter + 1) * int(_GAMMA)
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        x, y, a, b = s1[:n], s2[:n], u1[:n], u2[:n]
        np.add(_PAIR_STEPS[:n], np.uint64((c0 + lo * 2 * int(_GAMMA)) & _U64), out=x)
        np.add(x, _GAMMA, out=y)
        _mix(x)
        _mix(y)
        x >>= np.uint64(11)
        y >>= np.uint64(11)
        # u1 = (top 53 bits + 1) 2^-53 in (0, 1], u2 = top 53 bits 2^-53 in [0, 1)
        np.add(x, 1.0, out=a)
        a *= 2.0**-53
        np.log(a, out=a)
        a *= -2.0
        np.sqrt(a, out=a)
        np.multiply(y, 2.0**-53, out=b)
        b *= 2.0 * np.pi
        np.cos(b, out=b)
        np.multiply(a, b, out=out[lo:lo + n])
    return out


# how PhantomSpec.__post_init__ checks its fields: each in _TUPLE_LENGTHS as a
# tuple of that many finite reals, each in _OPTIONAL may also be None, those
# in _CHECKED_APART have checks of their own, and every other one is one
# finite real
_TUPLE_LENGTHS = {"spacing": 3, "center_mm": 3, "radii_mm": 3, "shell_scales": 2, "island_offset_mm": 3}
_OPTIONAL = ("center_mm", "background_confidence")
_CHECKED_APART = ("scenario", "seed", "channels", "dims", "fragment_offsets_mm")


def _reals(t, n: int) -> bool:
    return isinstance(t, tuple) and len(t) == n and all(map(finite_real, t))


@dataclass(frozen=True)
class PhantomSpec:
    """Full recipe for one synthetic case; every field participates in the
    bit-reproducibility contract."""

    scenario: str
    seed: int
    dims: tuple[int, int, int] = (32, 32, 32)
    spacing: Spacing = (0.25, 0.25, 0.25)
    center_mm: tuple[float, float, float] | None = None  # default: grid center
    radii_mm: tuple[float, float, float] = (3.0, 3.0, 3.0)
    channels: int = 1
    # intensity model
    tumor_mean: float = 1.0
    tumor_std: float = 0.02
    background_mean: float = 0.45
    background_std: float = 0.02
    edge_contrast: float = 0.0                 # brightness bump of the shell ring
    shell_scales: tuple[float, float] = (1.0, 1.3)  # shell spans these rho values
    # logit corruption
    confidence_scale: float = 4.0
    background_confidence: float | None = None  # default: confidence_scale
    boundary_softness_mm: float = 0.0          # 0 = hard logit step at the tumor surface
    uncertain_logit: float = 0.6               # interior low-confidence band (noise_island)
    uncertain_core_scale: float = 0.45         # that band fills rho < this
    shrink_margin_mm: float = 0.875            # under-segmentation erosion depth
    band_margin_mm: float = 0.5                # uncertain band depth inside the eroded edge
    band_logit: float = 0.5
    rim_logit: float = -0.3
    rim_offset_sigma: float = 0.0              # rim image shift in units of tumor_std
    island_offset_mm: tuple[float, float, float] = (5.4, 0.0, 0.0)
    island_radius_mm: float = 1.0
    island_halo_width_mm: float = 0.6          # moderate-logit transition ring around the island
    island_halo_logit: float = -0.5
    leak_band_width_mm: float = 0.0            # weakly-edged adjacent tissue ring outside the tumor
    leak_band_logit: float = -2.0
    leak_band_offset_sigma: float = 5.0        # its image shift in units of tumor_std
    fragment_radius_mm: float = 0.6
    fragment_offsets_mm: tuple[tuple[float, float, float], ...] = (
        (-2.0, -2.0, 0.0),
        (2.0, 1.5, 0.5),
        (0.0, 2.25, -1.5),
    )

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        for name in ("seed", "channels"):
            value = getattr(self, name)
            require(isinstance(value, int) and not isinstance(value, bool),
                    f"{name} must be an integer, got {value!r}")
        require_dims(self.dims)
        require(isinstance(self.fragment_offsets_mm, tuple)
                and all(_reals(o, 3) for o in self.fragment_offsets_mm),
                f"fragment_offsets_mm must be triples of finite numbers, got {self.fragment_offsets_mm!r}")
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in _CHECKED_APART or (value is None and name in _OPTIONAL):
                continue
            n = _TUPLE_LENGTHS.get(name)
            require(finite_real(value) if n is None else _reals(value, n),
                    f"{name} must be {'a finite number' if n is None else f'{n} finite numbers'}, "
                    f"got {value!r}")

    @property
    def center(self) -> tuple[float, float, float]:
        if self.center_mm is not None:
            return self.center_mm
        return tuple((n - 1) * s / 2.0 for n, s in zip(self.dims, self.spacing))


@dataclass(frozen=True)
class PhantomAnnotations:
    """Construction-known voxel sets and the engineered gate label."""

    scenario: str
    expected_flagged: bool
    island: Mask | None = None
    halo: Mask | None = None
    leak_band: Mask | None = None
    rim: Mask | None = None
    uncertain: Mask | None = None
    beyond_shell: Mask | None = None


class GeneratedPhantom(NamedTuple):
    case: Case
    gt: Mask
    annotations: PhantomAnnotations


# scenario-specific geometry defaults, calibrated so the fixed default loss
# weights reproduce each mechanism at desk scale (see docs/phantoms.md)
_SCENARIO_DEFAULTS: dict[str, dict] = {
    "clean_confident": dict(dims=(36, 28, 28), radii_mm=(3.8, 1.9, 1.9)),
    "noise_island": dict(
        dims=(52, 40, 40), center_mm=(5.0, 4.875, 4.875), radii_mm=(3.0, 3.0, 3.0),
        leak_band_width_mm=1.0,
    ),
    "under_segmented_matched": dict(dims=(40, 40, 40), radii_mm=(3.5, 3.5, 3.5)),
    "under_segmented_mismatched": dict(
        dims=(40, 40, 40), radii_mm=(3.5, 3.5, 3.5), rim_offset_sigma=5.0
    ),
    "fragmented_small": dict(dims=(32, 32, 32)),
}


def scenario_spec(scenario: str, seed: int, **overrides) -> PhantomSpec:
    """Tuned default spec for a scenario; keyword overrides win."""
    if scenario not in _SCENARIO_DEFAULTS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    kwargs = dict(_SCENARIO_DEFAULTS[scenario])
    kwargs.update(overrides)
    return PhantomSpec(scenario=scenario, seed=seed, **kwargs)


def _ellipsoid_rho2(axes, center, radii) -> np.ndarray:
    out = 0.0
    for a, c, r in zip(axes, center, radii):
        out = out + ((a - c) / r) ** 2
    return out


def _sphere_mask(axes, center, radius) -> np.ndarray:
    d2 = 0.0
    for a, c in zip(axes, center):
        d2 = d2 + (a - c) ** 2
    return d2 < radius * radius


def _check_fit(spec: PhantomSpec, center, radii, what: str) -> None:
    for axis, (c, r) in enumerate(zip(center, radii)):
        n, s = spec.dims[axis], spec.spacing[axis]
        if c - r < 2.0 * s or c + r > (n - 3) * s:
            raise GeometryError(
                f"{what} does not fit axis {axis} with a 2-voxel margin: "
                f"center {c} mm, radius {r} mm, extent {(n - 1) * s} mm"
            )


def generate(spec: PhantomSpec) -> GeneratedPhantom:
    """Build (case, ground truth, annotations) from the spec, bit-reproducibly."""
    dims, spacing = spec.dims, spec.spacing
    axes = axis_coords(tuple(dims), tuple(spacing))
    # floats, so that the logits are float64 even when these fields are ints
    conf = float(spec.confidence_scale)
    bg_conf = float(spec.background_confidence) if spec.background_confidence is not None else conf

    island = halo = rim = uncertain = beyond_shell = leak_band = None

    if spec.scenario == "fragmented_small":
        gt = np.zeros(dims, dtype=bool)
        for off in spec.fragment_offsets_mm:
            c = tuple(ci + oi for ci, oi in zip(spec.center, off))
            _check_fit(spec, c, (spec.fragment_radius_mm,) * 3, "fragment")
            gt |= _sphere_mask(axes, c, spec.fragment_radius_mm)
        logits = np.where(gt, conf, -bg_conf)
        rho2 = None
    else:
        _check_fit(spec, spec.center, spec.radii_mm, "tumor")
        rho2 = _ellipsoid_rho2(axes, spec.center, spec.radii_mm)
        gt = rho2 < 1.0
        if spec.boundary_softness_mm > 0.0:
            # soft ramp across the surface, like a real backbone's logit decay;
            # exact signed distance for spheres, radial approximation otherwise
            r_ref = min(spec.radii_mm)
            t = np.clip((1.0 - np.sqrt(rho2)) * r_ref / spec.boundary_softness_mm, -1.0, 1.0)
            logits = np.where(t >= 0, conf * t, bg_conf * t)
        else:
            logits = np.where(gt, conf, -bg_conf)

        if spec.scenario == "noise_island":
            uncertain = rho2 < spec.uncertain_core_scale**2
            logits[uncertain] = spec.uncertain_logit
            island_center = tuple(c + o for c, o in zip(spec.center, spec.island_offset_mm))
            halo_r = spec.island_radius_mm + spec.island_halo_width_mm
            _check_fit(spec, island_center, (halo_r,) * 3, "island (with halo)")
            island = _sphere_mask(axes, island_center, spec.island_radius_mm)
            if (island & gt).any():
                raise GeometryError("island overlaps the tumor; increase the offset")
            # real logits decay smoothly around an artifact: a sub-threshold
            # transition ring (not predicted, so it adds no false positives)
            halo = _sphere_mask(axes, island_center, halo_r) & ~island & ~gt
            logits[halo] = spec.island_halo_logit
            logits[island] = conf
        elif spec.scenario in ("under_segmented_matched", "under_segmented_mismatched"):
            inner_r = tuple(r - spec.shrink_margin_mm for r in spec.radii_mm)
            band_r = tuple(r - spec.band_margin_mm for r in inner_r)
            if min(band_r) <= 0:
                raise GeometryError("shrink and band margins consume the whole tumor")
            eroded = _ellipsoid_rho2(axes, spec.center, inner_r) < 1.0
            core = _ellipsoid_rho2(axes, spec.center, band_r) < 1.0
            rim = gt & ~eroded
            uncertain = eroded & ~core
            logits = np.where(gt, spec.rim_logit, -bg_conf)
            logits[uncertain] = spec.band_logit
            logits[core] = conf

        if spec.leak_band_width_mm > 0.0:
            # adjacent non-tumor tissue the network is only mildly negative
            # about: texture-shifted, weak inner image edge, strong outer edge;
            # at logit -2 it is above the front-mobility threshold
            # (docs/phantoms.md, fact 2), so inflation alone floods it and the
            # flood stops at the strong outer edge, where the edge map is low;
            # with g == 1 the boundary penalty erodes the band instead
            leak_outer = tuple(r + spec.leak_band_width_mm for r in spec.radii_mm)
            _check_fit(spec, spec.center, leak_outer, "leak band")
            leak_band = (_ellipsoid_rho2(axes, spec.center, leak_outer) < 1.0) & ~gt
            if island is not None:
                leak_band &= ~(island | halo)  # island structures keep their logits
            logits[leak_band] = spec.leak_band_logit

    # image: uniform tumor / background intensities, optional rim shift and
    # bright shell ring, plus per-channel counter-addressed Gaussian noise
    base = np.where(gt, spec.tumor_mean, spec.background_mean)
    if rim is not None and spec.rim_offset_sigma != 0.0:
        base = base + np.where(rim, spec.rim_offset_sigma * spec.tumor_std, 0.0)
    if leak_band is not None:
        base = np.where(leak_band,
                        spec.tumor_mean + spec.leak_band_offset_sigma * spec.tumor_std, base)
    if spec.edge_contrast != 0.0 and rho2 is not None:
        lo, hi = spec.shell_scales
        shell = (rho2 >= lo * lo) & (rho2 < hi * hi)
        base = base + np.where(shell, spec.edge_contrast, 0.0)
        beyond_shell = rho2 >= hi * hi
    std_field = np.where(gt, spec.tumor_std, spec.background_std)

    nvox = int(np.prod(dims))
    channels = []
    for ch in range(spec.channels):
        # counters follow x-fastest order; one copy to the C layout, then
        # base + std_field * noise in place, contiguous
        image = np.ascontiguousarray(
            standard_normals(spec.seed, 2 * ch * nvox, nvox).reshape(dims, order="F"))
        image *= std_field
        image += base
        channels.append(Volume(image, spacing))

    case = Case(
        image=tuple(channels),
        logits0=Volume(logits, spacing),
        case_id=f"{spec.scenario}-{spec.seed}",
    )
    as_mask = lambda arr: Mask(arr, spacing) if arr is not None else None
    ann = PhantomAnnotations(
        scenario=spec.scenario,
        expected_flagged=spec.scenario != "clean_confident",
        island=as_mask(island),
        halo=as_mask(halo),
        leak_band=as_mask(leak_band),
        rim=as_mask(rim),
        uncertain=as_mask(uncertain),
        beyond_shell=as_mask(beyond_shell),
    )
    return GeneratedPhantom(case=case, gt=Mask(gt, spacing), annotations=ann)


def cohort(specs: Iterable[PhantomSpec]) -> list[GeneratedPhantom]:
    """Deterministic order-preserving map of :func:`generate`."""
    return [generate(s) for s in specs]


def mixed_cohort_specs(counts: Sequence[tuple[str, int]], base_seed: int = 0) -> list[PhantomSpec]:
    """Expand (scenario, count) pairs into specs with seeds base_seed + i.

    Scenario blocks appear in the template's own order, so the mix is part of
    the reproducibility contract.
    """
    specs: list[PhantomSpec] = []
    i = 0
    for scenario, count in counts:
        for _ in range(int(count)):
            specs.append(scenario_spec(scenario, base_seed + i))
            i += 1
    return specs
