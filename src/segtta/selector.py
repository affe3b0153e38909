"""Unsupervised choice between the two refined hypotheses.

The compact result is the safe default.  The diffuse result is accepted only
if the voxels it recruited beyond the high-confidence core share the core's
intensity signature: the texture-consistency score

    score = exp(-0.5 * (|mu_delta - mu_core| / (gamma * (sigma_core + eps)))^2)

must exceed a strict acceptance threshold.  With multiple image channels the
minimum per-channel score is used, so any channel can veto the expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .volume import (Case, Mask, Volume, check_fields, mask_stats, require_same_grid, sigmoid,
                     threshold)


@dataclass(frozen=True)
class SelectorConfig:
    core_threshold: float = 0.8    # high-confidence core is P0 > this (strict)
    accept_threshold: float = 0.95  # diffuse accepted when score > this (strict)
    gamma: float = 1.5              # tolerance scaling on the core spread
    eps: float = 1e-6               # guard on sigma_core, in intensity units

    def __post_init__(self):
        check_fields(self, core_threshold="in [0, 1]", accept_threshold="in [0, 1]", gamma="> 0", eps="> 0")


@dataclass(frozen=True)
class SelectionResult:
    chosen: str  # compact | diffuse
    texture_score: float | None
    core_voxels: int
    delta_voxels: int
    mu_core: float | None = None
    sigma_core: float | None = None
    mu_delta: float | None = None


def expansion_region(p0: Volume, diffuse_mask: Mask,
                     core_threshold: float = 0.8) -> tuple[Mask, Mask]:
    """Split the diffuse result into the baseline core and the recruited voxels.

    core  = p0 > core_threshold
    delta = diffuse_mask minus core (the voxels added by the inflation side)
    """
    require_same_grid(p0, diffuse_mask, "baseline probabilities and diffuse mask")
    core = threshold(p0, core_threshold)
    delta = diffuse_mask.with_data(diffuse_mask.data & ~core.data)
    return core, delta


def _channel_score(ch: Volume, core: Mask, delta: Mask, gamma: float, eps: float):
    # (score, mu_core, sigma_core, mu_delta) of one channel; an empty region
    # raises EmptyRegionError
    mu_core, sigma_core, _ = mask_stats(ch, core)
    mu_delta, _, _ = mask_stats(ch, delta)
    ratio = abs(mu_delta - mu_core) / (gamma * (sigma_core + eps))
    return math.exp(-0.5 * ratio * ratio), mu_core, sigma_core, mu_delta


def select(
    case: Case,
    compact_z: Volume,
    diffuse_z: Volume,
    cfg: SelectorConfig = SelectorConfig(),
) -> SelectionResult:
    """Pick the hypothesis whose mask becomes the final output.

    The diffuse mask is its probabilities binarized at 0.5.  If the core or
    the recruited region is empty there is nothing to validate and the safe
    default wins without a score.
    """
    require_same_grid(case.logits0, compact_z, "baseline and compact logits")
    require_same_grid(case.logits0, diffuse_z, "baseline and diffuse logits")
    p0 = sigmoid(case.logits0)
    diffuse_mask = threshold(sigmoid(diffuse_z), 0.5)
    core, delta = expansion_region(p0, diffuse_mask, cfg.core_threshold)
    if core.count == 0 or delta.count == 0:
        return SelectionResult(
            chosen="compact",
            texture_score=None,
            core_voxels=core.count,
            delta_voxels=delta.count,
        )
    per_channel = [_channel_score(ch, core, delta, cfg.gamma, cfg.eps) for ch in case.image]
    score, mu_core, sigma_core, mu_delta = min(per_channel, key=lambda t: t[0])
    chosen = "diffuse" if score > cfg.accept_threshold else "compact"
    return SelectionResult(
        chosen=chosen,
        texture_score=score,
        core_voxels=core.count,
        delta_voxels=delta.count,
        mu_core=mu_core,
        sigma_core=sigma_core,
        mu_delta=mu_delta,
    )
