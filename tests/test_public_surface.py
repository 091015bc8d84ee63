"""The public surface: what each module exports, and what it must not.

Every ``__all__`` entry names something the module defines or re-exports,
once.  Helpers that only tests called, or that recomputed a fact another
routine owns, were removed; they must not come back under any module.
"""
import importlib
import pkgutil

import pytest

import transmaps

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
)

# exported names the benchmark harness imports
KEPT = {
    "extension": ("chain_certified",),
    "transitivity": ("min_abs_slope", "min_breakpoint_gap"),
}


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

