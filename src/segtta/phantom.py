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

import numbers
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .volume import Case, Mask, Volume, axis_coords, check_fields, require

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


def _mix(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, in place on a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


# the noise loop makes this many deviates at a time, so that its four scratch
# arrays (256 KiB) stay in cache instead of streaming full-length temporaries
# through memory
_CHUNK = 8192
# state step between consecutive deviates (mod 2^64): each takes two counters
_PAIR_STEP = np.uint64(2 * int(_GAMMA) & _U64)
# state offsets of a chunk's deviates: deviate i sits i * 2 gamma past the
# first one
_PAIR_STEPS = np.arange(_CHUNK, dtype=np.uint64) * _PAIR_STEP


def _normal_chunks(seed: int, start_counter: int, count: int, steps: np.ndarray, advance: int):
    """Yield ``(lo, deviates)`` for consecutive chunks of ``count`` deviates
    (``steps.size`` each, the last one shorter), in one scratch array that the
    next chunk overwrites.

    Deviate ``d`` of the stream uses counters start_counter + 2d and
    start_counter + 2d + 1, so its two SplitMix64 states are c0 + 2d gamma and
    that plus gamma, with c0 = seed + (start_counter + 1) gamma (mod 2^64).
    Element i of chunk j is deviate ``j * advance`` plus ``steps[i] / (2
    gamma)``: ``steps`` holds state offsets, so a chunk can list its deviates
    in any order.  Each chunk applies the same operations in the same order
    as the formula in the module docstring, so a deviate does not depend on
    the chunking."""
    size = steps.size
    s1, s2 = np.empty(size, np.uint64), np.empty(size, np.uint64)
    u1, u2 = np.empty(size), np.empty(size)
    c0 = seed + (start_counter + 1) * int(_GAMMA)
    for j, lo in enumerate(range(0, count, size)):
        n = min(size, count - lo)
        x, y, a, b = s1[:n], s2[:n], u1[:n], u2[:n]
        np.add(steps[:n], np.uint64((c0 + j * advance * 2 * int(_GAMMA)) & _U64), out=x)
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
        a *= b
        yield lo, a


def standard_normals(seed: int, start_counter: int, count: int) -> np.ndarray:
    """One Gaussian deviate per counter pair via Box-Muller (cosine branch):
    deviate i uses counters start_counter + 2i and start_counter + 2i + 1."""
    out = np.empty(count)
    for lo, n in _normal_chunks(seed, start_counter, count, _PAIR_STEPS, _CHUNK):
        out[lo:lo + n.size] = n
    return out


def _slab_steps(dims: tuple[int, int, int], planes: int) -> np.ndarray:
    """State offsets of a slab of ``planes`` axis-0 planes in C order: voxel
    (i, j, k) is deviate i + nx j + nx ny k of a volume's x-fastest stream."""
    nx, ny, nz = dims
    v = (np.arange(planes, dtype=np.uint64)[:, None, None]
         + np.uint64(nx) * np.arange(ny, dtype=np.uint64)[:, None]
         + np.uint64(nx * ny) * np.arange(nz, dtype=np.uint64))
    return (v * _PAIR_STEP).ravel()


# fixed parts of every phantom (docs/phantoms.md)
SPACING = (0.25, 0.25, 0.25)     # mm
TUMOR_MEAN = 1.0                 # image intensities
TUMOR_STD = 0.02
BACKGROUND_MEAN = 0.45
BACKGROUND_STD = 0.02
UNCERTAIN_LOGIT = 0.6            # interior low-confidence band (noise_island)
UNCERTAIN_CORE_SCALE = 0.45      # that band fills rho < this
SHRINK_MARGIN_MM = 0.875         # under-segmentation erosion depth
BAND_MARGIN_MM = 0.5             # uncertain band depth inside the eroded edge
BAND_LOGIT = 0.5
ISLAND_RADIUS_MM = 1.0
ISLAND_HALO_WIDTH_MM = 0.6       # moderate-logit transition ring around the island
ISLAND_HALO_LOGIT = -0.5
FRAGMENT_RADIUS_MM = 0.6
FRAGMENT_OFFSETS_MM = ((-2.0, -2.0, 0.0), (2.0, 1.5, 0.5), (0.0, 2.25, -1.5))


@dataclass(frozen=True)
class PhantomSpec:
    """Full recipe for one synthetic case; every field participates in the
    bit-reproducibility contract."""

    scenario: str
    seed: int
    dims: tuple[int, int, int] = (32, 32, 32)
    center_mm: tuple[float, float, float] | None = None  # default: grid center
    radii_mm: tuple[float, float, float] = (3.0, 3.0, 3.0)
    channels: int = 1
    edge_contrast: float = 0.0                 # brightness bump of the shell ring
    shell_scales: tuple[float, float] = (1.0, 1.3)  # shell spans these rho values
    # logits are +confidence_scale inside the tumor and -confidence_scale outside
    confidence_scale: float = 4.0
    rim_logit: float = -0.3
    rim_offset_sigma: float = 0.0              # rim image shift in units of TUMOR_STD
    island_offset_mm: tuple[float, float, float] = (5.4, 0.0, 0.0)
    leak_band_width_mm: float = 0.0            # weakly-edged adjacent tissue ring outside the tumor
    leak_band_logit: float = -2.0
    leak_band_offset_sigma: float = 5.0        # its image shift in units of TUMOR_STD

    def __post_init__(self):
        check_fields(self, dims=">= 1", radii_mm="> 0", channels=">= 1", confidence_scale="> 0")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")

    @property
    def center(self) -> tuple[float, float, float]:
        if self.center_mm is not None:
            return self.center_mm
        return tuple((n - 1) * s / 2.0 for n, s in zip(self.dims, SPACING))


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


def _ellipsoid_rho2(axes, center, radii, out: np.ndarray) -> np.ndarray:
    """Sum over the axes, in axis order, of ((x - c) / r)^2, into ``out``; at
    radii (1, 1, 1) the squared distance to ``center``, in mm^2."""
    t = [((a - c) / r) ** 2 for a, c, r in zip(axes, center, radii)]
    return np.add(t[0] + t[1], t[2], out=out)


def _check_fit(spec: PhantomSpec, center, radii, what: str) -> None:
    for axis, (c, r) in enumerate(zip(center, radii)):
        n, s = spec.dims[axis], SPACING[axis]
        if c - r < 2.0 * s or c + r > (n - 3) * s:
            raise GeometryError(
                f"{what} does not fit axis {axis} with a 2-voxel margin: "
                f"center {c} mm, radius {r} mm, extent {(n - 1) * s} mm"
            )


def generate(spec: PhantomSpec) -> GeneratedPhantom:
    """Build (case, ground truth, annotations) from the spec, bit-reproducibly.

    It makes no float64 grid besides its outputs: each squared distance is
    computed into the first image, which holds it until its masks are taken
    (docs/phantoms.md, "Memory")."""
    dims, conf = spec.dims, spec.confidence_scale
    axes = axis_coords(dims, SPACING)
    # the tumor's geometry is checked before any grid is allocated
    if spec.scenario == "fragmented_small":
        fragments = [tuple(ci + oi for ci, oi in zip(spec.center, off)) for off in FRAGMENT_OFFSETS_MM]
        for c in fragments:
            _check_fit(spec, c, (FRAGMENT_RADIUS_MM,) * 3, "fragment")
    else:
        _check_fit(spec, spec.center, spec.radii_mm, "tumor")
    images = [np.empty(dims) for _ in range(spec.channels)]
    scratch = images[0]

    island = halo = rim = uncertain = beyond_shell = leak_band = shell = None

    if spec.scenario == "fragmented_small":
        gt = np.zeros(dims, dtype=bool)
        for c in fragments:
            gt |= _ellipsoid_rho2(axes, c, (1.0, 1.0, 1.0), scratch) < FRAGMENT_RADIUS_MM * FRAGMENT_RADIUS_MM
        logits = np.where(gt, conf, -conf)
    else:
        # rho2 is read until the next distance grid overwrites the scratch
        rho2 = _ellipsoid_rho2(axes, spec.center, spec.radii_mm, scratch)
        gt = rho2 < 1.0
        if spec.edge_contrast != 0.0:
            # bright shell ring: rho in [lo, hi)
            lo, hi = spec.shell_scales
            shell = rho2 >= lo * lo
            beyond_shell = rho2 >= hi * hi
            np.greater(shell, beyond_shell, out=shell)

        if spec.scenario == "noise_island":
            uncertain = rho2 < UNCERTAIN_CORE_SCALE**2
            island_center = tuple(c + o for c, o in zip(spec.center, spec.island_offset_mm))
            halo_r = ISLAND_RADIUS_MM + ISLAND_HALO_WIDTH_MM
            _check_fit(spec, island_center, (halo_r,) * 3, "island (with halo)")
            d2 = _ellipsoid_rho2(axes, island_center, (1.0, 1.0, 1.0), scratch)
            island = d2 < ISLAND_RADIUS_MM * ISLAND_RADIUS_MM
            halo = d2 < halo_r * halo_r
            if np.logical_and(island, gt).any():
                raise GeometryError("island overlaps the tumor; increase the offset")
            # real logits decay smoothly around an artifact: a sub-threshold
            # transition ring (not predicted, so it adds no false positives)
            np.greater(halo, island, out=halo)
            np.greater(halo, gt, out=halo)
            logits = np.where(gt, conf, -conf)
            np.copyto(logits, UNCERTAIN_LOGIT, where=uncertain)
            np.copyto(logits, ISLAND_HALO_LOGIT, where=halo)
            np.copyto(logits, conf, where=island)
        elif spec.scenario in ("under_segmented_matched", "under_segmented_mismatched"):
            inner_r = tuple(r - SHRINK_MARGIN_MM for r in spec.radii_mm)
            band_r = tuple(r - BAND_MARGIN_MM for r in inner_r)
            if min(band_r) <= 0:
                raise GeometryError("shrink and band margins consume the whole tumor")
            eroded = _ellipsoid_rho2(axes, spec.center, inner_r, scratch) < 1.0
            rim = np.greater(gt, eroded)
            core = _ellipsoid_rho2(axes, spec.center, band_r, scratch) < 1.0
            uncertain = np.greater(eroded, core, out=eroded)
            logits = np.where(gt, spec.rim_logit, -conf)
            np.copyto(logits, BAND_LOGIT, where=uncertain)
            np.copyto(logits, conf, where=core)
            del core
        else:
            logits = np.where(gt, conf, -conf)

        if spec.leak_band_width_mm > 0.0:
            # adjacent non-tumor tissue the network is only mildly negative
            # about: texture-shifted, weak inner image edge, strong outer edge;
            # at logit -2 it is above the front-mobility threshold
            # (docs/phantoms.md, fact 2), so inflation alone floods it and the
            # flood stops at the strong outer edge, where the edge map is low;
            # with g == 1 the boundary penalty erodes the band instead
            leak_outer = tuple(r + spec.leak_band_width_mm for r in spec.radii_mm)
            _check_fit(spec, spec.center, leak_outer, "leak band")
            leak_band = _ellipsoid_rho2(axes, spec.center, leak_outer, scratch) < 1.0
            np.greater(leak_band, gt, out=leak_band)
            if island is not None:
                # island structures keep their logits
                np.greater(leak_band, island, out=leak_band)
                np.greater(leak_band, halo, out=leak_band)
            np.copyto(logits, spec.leak_band_logit, where=leak_band)

    # image: per-channel counter-addressed Gaussian noise times the tumor or
    # background std, plus a base of uniform tumor / background intensities,
    # the optional rim shift and leak band texture, and the bright shell ring.
    # The base is written region by region into the image itself; the noise
    # follows in slabs of axis-0 planes, addressed in C order, so no
    # full-grid noise, std or base array exists.
    nvox = gt.size
    planes = max(1, _CHUNK // (dims[1] * dims[2]))
    steps = _slab_steps(dims, planes)
    inside_flat = gt.reshape(-1)
    channels = []
    for ch, image in enumerate(images):
        image.fill(BACKGROUND_MEAN)
        np.copyto(image, TUMOR_MEAN, where=gt)
        if rim is not None and spec.rim_offset_sigma != 0.0:
            np.add(image, spec.rim_offset_sigma * TUMOR_STD, out=image, where=rim)
        if leak_band is not None:
            np.copyto(image, TUMOR_MEAN + spec.leak_band_offset_sigma * TUMOR_STD, where=leak_band)
        if shell is not None:
            np.add(image, spec.edge_contrast, out=image, where=shell)
        image_flat = image.reshape(-1)
        for lo, n in _normal_chunks(spec.seed, 2 * ch * nvox, nvox, steps, planes):
            inside = inside_flat[lo:lo + n.size]
            np.multiply(n, TUMOR_STD, out=n, where=inside)
            np.multiply(n, BACKGROUND_STD, out=n, where=~inside)
            image_flat[lo:lo + n.size] += n
        channels.append(Volume(image, SPACING))

    case = Case(
        image=tuple(channels),
        logits0=Volume(logits, SPACING),
        case_id=f"{spec.scenario}-{spec.seed}",
    )
    as_mask = lambda arr: Mask(arr, SPACING) if arr is not None else None
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
    return GeneratedPhantom(case=case, gt=Mask(gt, SPACING), annotations=ann)


def cohort(specs: Iterable[PhantomSpec]) -> list[GeneratedPhantom]:
    """Deterministic order-preserving map of :func:`generate`."""
    return [generate(s) for s in specs]


def mixed_cohort_specs(counts: Sequence[tuple[str, int]], base_seed: int = 0) -> list[PhantomSpec]:
    """Expand (scenario, count) pairs into specs with seeds base_seed + i.

    Scenario blocks appear in the template's own order, so the mix is part of
    the reproducibility contract.  Each scenario is one of :data:`SCENARIOS`,
    whatever its count, and each count is an integer >= 0, not a bool.
    """
    specs: list[PhantomSpec] = []
    i = 0
    for scenario, count in counts:
        require(scenario in SCENARIOS, f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
        require(isinstance(count, numbers.Integral) and not isinstance(count, bool) and count >= 0,
                f"count of scenario {scenario!r} must be an integer >= 0, got {count!r}")
        for _ in range(count):
            specs.append(scenario_spec(scenario, base_seed + i))
            i += 1
    return specs
