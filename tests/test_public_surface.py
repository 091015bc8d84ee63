"""The public surface: what each module exports, and what it must not.

Every ``__all__`` entry names something the module defines or re-exports,
once.  Helpers that only tests called, or that recomputed a fact another
routine owns, were removed; they must not come back under any module.
"""
import importlib
import pkgutil

import pytest

import transmaps
from transmaps.extension import ExtensionResult
from transmaps.transitivity import PipelineBudget

# importing __main__ would run the command line
MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(transmaps.__path__) if name != "__main__"
)

REMOVED = (
    "compose_pl",
    "modality",
    "_lap_slopes",
    "amplitude",
    "chain_bands",
    "bands_within",
    "chain_envelope_height",
    "sampled_diameter",
    "floor_to_grid",
    "ceil_to_grid",
    "SurjectionWitness",
    "_ChainLink",
    "_reproduces",
    "_stretch_gap",
    "_piece_range",
    "PLMap",
    "coverage_closure_full",
    "_window_edges",
    "_window_runs",
    "box_vertices",
    "reach_check",
    "_ladder_grid",
)

# exported names the benchmark harness imports
KEPT = {
    "extension": ("chain_certified",),
    "transitivity": ("min_abs_slope", "min_breakpoint_gap"),
}


def test_transmaps_is_a_regular_package():
    # a namespace package has no __file__, and zipimport cannot load one
    assert transmaps.__file__ is not None
    assert MODULES == [
        "boxmap", "cli", "corpus", "errors", "exact", "extension", "homotopy",
        "rational", "serialize", "spaces", "svg", "transitivity", "verify",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(f"transmaps.{name}")
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(exported) == len(set(exported)), sorted(
        e for e in exported if exported.count(e) > 1
    )
    missing = [e for e in exported if not hasattr(module, e)]
    assert not missing
    assert set(KEPT.get(name, ())) <= set(exported)


@pytest.mark.parametrize("name", MODULES)
def test_removed_helpers_stay_removed(name):
    module = importlib.import_module(f"transmaps.{name}")
    assert [r for r in REMOVED if hasattr(module, r)] == []
    assert not hasattr(getattr(module, "FamilyBoxBounds", None), "band")
    chain_type = getattr(module, "BoxChain", None)
    for attr in ("_vertices", "_range_on", "_los", "_layouts", "_his"):
        assert not hasattr(chain_type, attr)


def test_extension_result_keeps_no_hand_reuse_api():
    # chains are kept per boundary coordinate and the apex is built on
    # first use, so neither the split nor the stored targets come back
    for name in ("base_items", "lerp_items", "target_boxes", "apex_map"):
        assert not hasattr(ExtensionResult, name)


def test_the_default_budget_the_benchmark_harness_reads():
    # the harness runs the pipeline's stages one by one from these values
    budget = PipelineBudget()
    assert budget.refute_levels == (1, 2, 3, 4, 5, 6)
    assert (budget.refute_steps, budget.leo_max_level, budget.leo_steps) == (200, 12, 400)
