"""Gated, hypothesis-conditioned test-time logit refinement for binary 3D
segmentation, with a synthetic phantom benchmark suite."""

from .gatekeeper import GateVerdict, gate
from .losses import (
    LossTermResult,
    anchor_term,
    edge_map,
    entropy_term,
    geodesic_term,
    gravity_term,
    inflation_term,
    tv_term,
)
from .metrics import (
    CohortStats,
    MetricSet,
    WilcoxonResult,
    aggregate,
    dice,
    hd95,
    precision,
    wilcoxon_holm,
)
from .optim import AdamState, NumericalFailure, OptimizerProtocol, RefinementTrace, adam_step, refine
from .phantom import GeneratedPhantom, PhantomAnnotations, PhantomSpec, cohort, generate, scenario_spec
from .pipeline import MODES, PipelineConfig, RunReport, run_case, run_cohort, run_modes
from .selector import SelectionResult, select
from .volume import (
    Case,
    Mask,
    Volume,
    sigmoid,
    threshold,
)

__version__ = "0.1.0"
