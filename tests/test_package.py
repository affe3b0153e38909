"""The package's public surface, pinned: a name added to or dropped from
``segtta/__init__.py`` must be added to or dropped from this list too."""

import inspect

import pytest

import segtta
from segtta import gatekeeper, losses, selector

PUBLIC_NAMES = [
    "AdamState", "Case", "CohortStats", "GateVerdict",
    "GeneratedPhantom", "LossTermResult", "MODES", "Mask", "MetricSet", "NumericalFailure",
    "OptimizerProtocol", "PhantomAnnotations", "PhantomSpec", "PipelineConfig",
    "RefinementTrace", "RunReport", "SelectionResult", "Volume", "WilcoxonResult", "adam_step", "aggregate", "anchor_term", "cohort", "dice",
    "edge_map", "entropy_term", "gate", "generate", "geodesic_term", "gravity_term", "hd95",
    "inflation_term", "precision", "refine", "run_case", "run_cohort", "run_modes",
    "scenario_spec", "select", "sigmoid", "threshold", "tv_term", "wilcoxon_holm",
]


def test_public_names_are_pinned():
    # submodules become package attributes as they are imported, so they are
    # not part of the pinned list
    names = sorted(name for name, value in vars(segtta).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


# The calls whose settings are the paper's fixed module constants take no
# config argument; a dropped parameter or field shows here first.
SIGNATURES = {
    "gate": ["p0"],
    "select": ["case", "diffuse_z"],
    "edge_map": ["channels"],
    "refine": ["case", "hypothesis", "protocol", "edge_map"],
    "adam_step": ["state", "z", "grad"],
    "OptimizerProtocol": ["steps"],
    "PipelineConfig": ["mode", "protocol", "parallel_hypotheses"],
}


@pytest.mark.parametrize("name", SIGNATURES)
def test_parameters_are_pinned(name):
    assert list(inspect.signature(getattr(segtta, name)).parameters) == SIGNATURES[name]


@pytest.mark.parametrize("module, name", [
    (gatekeeper, "GateThresholds"), (selector, "SelectorConfig"), (losses, "EdgeMapConfig"),
], ids=lambda x: x if isinstance(x, str) else x.__name__.rsplit(".", 1)[-1])
def test_constant_config_classes_are_gone(module, name):
    assert not hasattr(module, name)
