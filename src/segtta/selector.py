"""Unsupervised choice between the two refined hypotheses.

The compact result is the safe default.  The diffuse result is accepted only
if the voxels it recruited beyond the high-confidence core share the core's
intensity signature: the texture-consistency score

    score = exp(-0.5 * (|mu_delta - mu_core| / (GAMMA * (sigma_core + EPS)))^2)

must exceed ACCEPT_THRESHOLD, strictly.  With multiple image channels the
minimum per-channel score is used, so any channel can veto the expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .volume import Case, Volume, require_same_grid, sigmoid

CORE_THRESHOLD = 0.8     # high-confidence core is P0 > this (strict)
ACCEPT_THRESHOLD = 0.95  # diffuse accepted when score > this (strict)
GAMMA = 1.5              # tolerance scaling on the core spread
EPS = 1e-6               # guard on sigma_core, in intensity units


@dataclass(frozen=True)
class SelectionResult:
    chosen: str  # compact | diffuse
    texture_score: float | None
    core_voxels: int
    delta_voxels: int
    mu_core: float | None = None
    sigma_core: float | None = None
    mu_delta: float | None = None


def _channel_score(ch: Volume, core: np.ndarray, delta: np.ndarray):
    # (score, mu_core, sigma_core, mu_delta) of one channel over the nonempty
    # bool regions core and delta; sigma_core is the population std
    vals = ch.data[core]
    mu_core, sigma_core = float(vals.mean()), float(vals.std())
    mu_delta = float(ch.data[delta].mean())
    ratio = abs(mu_delta - mu_core) / (GAMMA * (sigma_core + EPS))
    return math.exp(-0.5 * ratio * ratio), mu_core, sigma_core, mu_delta


def select(case: Case, diffuse_z: Volume) -> SelectionResult:
    """Pick the hypothesis whose mask becomes the final output.

    Only the diffuse result is scored: the compact one is the default.  The
    diffuse mask is its probabilities binarized at 0.5.  If the core or the
    recruited region is empty there is nothing to validate and the safe
    default wins without a score.
    """
    require_same_grid(case.logits0, diffuse_z, "baseline and diffuse logits")
    core = sigmoid(case.logits0).data > CORE_THRESHOLD
    delta = sigmoid(diffuse_z).data > 0.5
    delta &= ~core
    core_voxels, delta_voxels = int(np.count_nonzero(core)), int(np.count_nonzero(delta))
    if core_voxels == 0 or delta_voxels == 0:
        return SelectionResult(
            chosen="compact",
            texture_score=None,
            core_voxels=core_voxels,
            delta_voxels=delta_voxels,
        )
    per_channel = [_channel_score(ch, core, delta) for ch in case.image]
    score, mu_core, sigma_core, mu_delta = min(per_channel, key=lambda t: t[0])
    chosen = "diffuse" if score > ACCEPT_THRESHOLD else "compact"
    return SelectionResult(
        chosen=chosen,
        texture_score=score,
        core_voxels=core_voxels,
        delta_voxels=delta_voxels,
        mu_core=mu_core,
        sigma_core=sigma_core,
        mu_delta=mu_delta,
    )
