"""Per-case stability screen: decide whether refinement runs at all.

A case is flagged when its predicted volume is critically small or when too
much of the predicted region sits in the indeterminate probability band.
Confident cases skip adaptation entirely, which is what prevents negative
transfer on already-correct predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume

VOL_MIN = 300     # predicted volumes below this are flagged (strict <)
UNC_LO = 0.3      # indeterminate band is (UNC_LO, UNC_HI), both strict
UNC_HI = 0.7
UNC_MAX = 0.05    # flagged when the band fraction exceeds this (strict >)


@dataclass(frozen=True)
class GateVerdict:
    flagged: bool
    predicted_volume_voxels: int
    uncertainty_ratio: float
    trigger: str  # small_volume | high_uncertainty | both | none


def gate(p0: Volume) -> GateVerdict:
    """Assess the baseline probabilities.

    The predicted region is P0 > 0.5; the uncertainty ratio is the fraction of
    that region with UNC_LO < P0 < UNC_HI.  An empty prediction has ratio 0
    and is flagged through the small-volume trigger (0 < VOL_MIN).
    """
    arr = p0.data
    predicted = arr > 0.5
    n_pred = int(np.count_nonzero(predicted))
    if n_pred == 0:
        ratio = 0.0
    else:
        uncertain = predicted & (arr > UNC_LO) & (arr < UNC_HI)
        ratio = float(np.count_nonzero(uncertain)) / n_pred
    small = n_pred < VOL_MIN
    unstable = ratio > UNC_MAX
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
