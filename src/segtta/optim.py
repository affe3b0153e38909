"""Adam gradient descent over the logit volume, with loss-curve capture.

The protocol is deliberately rigid: fixed step count, no schedules, no early
stopping.  Two refinements with identical inputs produce bit-identical traces,
whatever the BLAS thread count: no step reduces through BLAS at full-grid
size.

The loop allocates no full-grid array per step.  The objective returns a
gradient buffer that it overwrites on its next call, and :func:`adam_step`
updates the moments and the logits in place, with that buffer as scratch.
Both work through slabs of axis-0 planes (:func:`volume.slab_planes`): a
step keeps z, P, the gradient and the two moments full-grid (and diffuse its
three face-weight grids), and the objective's two scratch arrays hold one
slab each.  Each step is one objective call and one :func:`adam_step` call.

Adam needs only the gradient, so the loss value is computed on sampled steps
alone: step 0, every :data:`LOSS_EVERY`-th step and the last step.
Sampling changes no gradient and no logit, only how many points the loss
curve holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import losses
from .volume import Case, Volume, all_finite, check_fields, slab_planes

HypothesisName = Literal["compact", "diffuse"]

#: Spacing of the sampled loss curve, in Adam steps.
LOSS_EVERY = 50

#: Adam's step size lr, moment decays beta1, beta2 and denominator guard eps.
LR = 0.1
BETA1 = 0.9
BETA2 = 0.999
EPS_ADAM = 1e-8


class NumericalFailure(RuntimeError):
    """Optimization hit a non-finite gradient; message names the step index."""


@dataclass(frozen=True)
class OptimizerProtocol:
    steps: int = 1000

    def __post_init__(self):
        check_fields(self, steps=">= 0")


@dataclass
class AdamState:
    """Unnormalised first/second moment sums (see :func:`adam_step`) and the
    step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def fresh(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


@dataclass(frozen=True)
class RefinementTrace:
    """The loss curve on the sampled steps, plus the refined logits.

    ``loss_values[i]`` is the loss after ``loss_steps[i]`` Adam steps; the
    samples are step 0, every :data:`LOSS_EVERY`-th step and the last step.
    """

    hypothesis: HypothesisName
    loss_values: tuple[float, ...]
    loss_steps: tuple[int, ...]
    final_z: Volume

    @property
    def initial_loss(self) -> float:
        return self.loss_values[0]

    @property
    def final_loss(self) -> float:
        return self.loss_values[-1]

    @property
    def steps(self) -> int:
        return self.loss_steps[-1]


def adam_step(state: AdamState, z: np.ndarray, grad: np.ndarray) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update, z' = z - lr * m_hat / (sqrt(v_hat) + eps),
    kept on unnormalised moments:

        M = beta1 M + g,  V = beta2 V + g^2,  z' = z - k_t M / (sqrt(V) + eps_t)

    with s_t = sqrt((1 - beta2) / (1 - beta2^t)), k_t = lr (1 - beta1) /
    (1 - beta1^t) / s_t and eps_t = eps / s_t, where lr, beta1, beta2 and
    eps are :data:`LR`, :data:`BETA1`, :data:`BETA2` and :data:`EPS_ADAM`.
    Since m = (1 - beta1) M and sqrt(v_hat) = s_t sqrt(V), this is Adam's
    update in exact arithmetic; the scalars take the bias correction off the
    full grid.

    The update is in place: ``state`` (moments, counter) and ``z`` are
    overwritten and returned, bit-identical to the out-of-place form of the
    formula above.  ``grad`` is consumed: each slab of it holds g^2, then
    sqrt(V) + eps_t, then the step.  It runs slab by slab over axis 0, in
    slabs of :func:`volume.slab_planes` planes.  A non-finite gradient
    anywhere raises before anything is written.
    """
    if not all_finite(grad):
        raise NumericalFailure(f"non-finite gradient at step {state.t + 1}")
    state.t += 1
    s = math.sqrt((1.0 - BETA2) / (1.0 - BETA2**state.t))
    k = LR * (1.0 - BETA1) / (1.0 - BETA1**state.t) / s
    planes = slab_planes(z.shape)
    for a in range(0, len(z), planes):
        sl = slice(a, a + planes)
        m, v, g = state.m[sl], state.v[sl], grad[sl]
        m *= BETA1
        m += g
        v *= BETA2
        v += np.multiply(g, g, out=g)
        den = np.sqrt(v, out=g)
        den += EPS_ADAM / s
        step = np.divide(m, den, out=g)
        step *= k
        z[sl] -= step
    return state, z


def refine(
    case: Case,
    hypothesis: HypothesisName,
    protocol: OptimizerProtocol = OptimizerProtocol(),
    edge_map: bool = True,
) -> RefinementTrace:
    """Run the named hypothesis loss, at its weight class's defaults, from
    z = z0 for ``protocol.steps`` updates.

    For the diffuse hypothesis the edge map is computed once from the case
    image before iteration; ``edge_map=False`` gives g identically 1 instead,
    the map of the no-edge-map ablation.  The loss value is recorded at
    step 0, every :data:`LOSS_EVERY`-th step and the last step.
    """
    z0 = case.logits0.data
    if hypothesis == "compact":
        objective = losses.compact_objective(z0, case.spacing, losses.CompactWeights())
    elif hypothesis == "diffuse":
        g = losses.edge_map(case.image).data if edge_map else None
        objective = losses.diffuse_objective(z0, g, losses.DiffuseWeights())
        del g  # only its face weights are used from here on
    else:
        raise ValueError(f"unknown hypothesis {hypothesis!r}")

    z = z0.copy()
    state = AdamState.fresh(z.shape)
    value, grad = objective(z)
    curve, sampled = [value], [0]
    for step in range(1, protocol.steps + 1):
        state, z = adam_step(state, z, grad)
        sample = step % LOSS_EVERY == 0 or step == protocol.steps
        value, grad = objective(z, value=sample)
        if sample:
            curve.append(value)
            sampled.append(step)
    return RefinementTrace(
        hypothesis=hypothesis,
        loss_values=tuple(curve),
        loss_steps=tuple(sampled),
        final_z=Volume(z, case.spacing),
    )
