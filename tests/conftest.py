"""Shared fixtures: phantom cohorts and full-protocol pipeline runs are
expensive (1000-step refinements), so they are built once per session and
shared between the behavioral tests and the acceptance criteria."""

import math

import pytest

from segtta import phantom, pipeline, volume

# 40 cases, 10 engineered-unstable -> exactly 25% flagged.  fragmented_small is
# deliberately absent here: compaction collapses sub-300-voxel predictions
# entirely (see fragmented_small in docs/phantoms.md), which is exercised
# separately.
MIXED_TEMPLATE = [
    ("clean_confident", 30),
    ("noise_island", 4),
    ("under_segmented_matched", 4),
    ("under_segmented_mismatched", 2),
]


@pytest.fixture
def use_slabs(monkeypatch):
    """``use_slabs(dims, planes)`` sets the refinement step's slab size so that a
    ``dims`` grid is cut into slabs of about ``planes`` axis-0 planes (None:
    one slab), for the objectives built after it and for every Adam step,
    which cuts its slabs on each call; it returns the thickness set."""
    def use(dims, planes):
        slabs = 1 if planes is None else -(-dims[0] // planes)
        monkeypatch.setattr(volume, "SLAB_VOXELS", math.prod(dims) // slabs)
        return volume.slab_planes(dims)
    return use


@pytest.fixture(scope="session")
def mixed_cohort():
    specs = phantom.mixed_cohort_specs(MIXED_TEMPLATE, base_seed=0)
    return phantom.cohort(specs)


def _run(cohort, *modes):
    cases = [g.case for g in cohort]
    return pipeline.run_modes(cases, modes)


@pytest.fixture(scope="session")
def mixed_reports(mixed_cohort):
    # one call, so only_compact and only_diffuse reuse full's refinements
    return _run(mixed_cohort, "full", "only_compact", "only_diffuse")


@pytest.fixture(scope="session")
def mixed_full_reports(mixed_reports):
    return mixed_reports["full"]


@pytest.fixture(scope="session")
def mixed_only_diffuse_reports(mixed_reports):
    return mixed_reports["only_diffuse"]


@pytest.fixture(scope="session")
def mixed_only_compact_reports(mixed_reports):
    return mixed_reports["only_compact"]


@pytest.fixture(scope="session")
def clean_cohort():
    specs = [phantom.scenario_spec("clean_confident", seed=200 + i) for i in range(6)]
    return phantom.cohort(specs)


@pytest.fixture(scope="session")
def clean_reports(clean_cohort):
    return _run(clean_cohort, "full", "no_gatekeeper")


@pytest.fixture(scope="session")
def clean_full_reports(clean_reports):
    return clean_reports["full"]


@pytest.fixture(scope="session")
def clean_no_gatekeeper_reports(clean_reports):
    return clean_reports["no_gatekeeper"]
