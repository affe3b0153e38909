"""Per-case stability screen: decide whether refinement runs at all.

A case is flagged when its predicted volume is critically small or when too
much of the predicted region sits in the indeterminate probability band.
Confident cases skip adaptation entirely, which is what prevents negative
transfer on already-correct predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume, check_fields, require


@dataclass(frozen=True)
class GateThresholds:
    vol_min: int = 300        # predicted volumes below this are flagged (strict <)
    unc_lo: float = 0.3       # indeterminate band is (unc_lo, unc_hi), both strict
    unc_hi: float = 0.7
    unc_max: float = 0.05     # flagged when the band fraction exceeds this (strict >)

    def __post_init__(self):
        check_fields(self, vol_min=">= 0", unc_lo="in [0, 1]", unc_hi="in [0, 1]", unc_max="in [0, 1]")
        require(self.unc_lo < self.unc_hi,
                f"need unc_lo < unc_hi, got unc_lo={self.unc_lo!r}, unc_hi={self.unc_hi!r}")


@dataclass(frozen=True)
class GateVerdict:
    flagged: bool
    predicted_volume_voxels: int
    uncertainty_ratio: float
    trigger: str  # small_volume | high_uncertainty | both | none


def gate(p0: Volume, thresholds: GateThresholds = GateThresholds()) -> GateVerdict:
    """Assess the baseline probabilities.

    The predicted region is P0 > 0.5; the uncertainty ratio is the fraction of
    that region with unc_lo < P0 < unc_hi.  An empty prediction has ratio 0
    and is flagged through the small-volume trigger (0 < vol_min already).
    """
    arr = p0.data
    predicted = arr > 0.5
    n_pred = int(np.count_nonzero(predicted))
    if n_pred == 0:
        ratio = 0.0
    else:
        uncertain = predicted & (arr > thresholds.unc_lo) & (arr < thresholds.unc_hi)
        ratio = float(np.count_nonzero(uncertain)) / n_pred
    small = n_pred < thresholds.vol_min
    unstable = ratio > thresholds.unc_max
    trigger = {
        (True, True): "both",
        (True, False): "small_volume",
        (False, True): "high_uncertainty",
        (False, False): "none",
    }[(small, unstable)]
    return GateVerdict(
        flagged=small or unstable,
        predicted_volume_voxels=n_pred,
        uncertainty_ratio=ratio,
        trigger=trigger,
    )
