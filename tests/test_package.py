"""The package's public surface, pinned: a name added to or dropped from
``segtta/__init__.py`` must be added to or dropped from this list too."""

import inspect

import segtta

PUBLIC_NAMES = [
    "AdamState", "Case", "CohortStats", "CompactWeights", "DiffuseWeights", "EdgeMapConfig",
    "GateThresholds", "GateVerdict", "GeneratedPhantom", "LossTermResult", "MODES", "Mask",
    "MetricSet", "NumericalFailure", "OptimizerProtocol", "PhantomAnnotations", "PhantomSpec",
    "PipelineConfig", "RefinementTrace", "RunReport", "SelectionResult", "SelectorConfig",
    "Volume", "WilcoxonResult", "adam_step", "aggregate", "anchor_term", "cohort", "dice",
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
