"""The export lists: every name in ``screenmatch.__all__`` and in each
submodule's ``__all__`` exists, and every public name of a submodule is
re-exported by the package or left out on purpose, for a listed reason."""

import importlib

import pytest

import screenmatch

SUBMODULES = ("core", "matching", "greedy", "thresholds", "pipeline", "experiments")

# submodule exports the package does not re-export, and why
LEFT_OUT = {
    "core.DIST_KINDS": "the kinds DistributionSpec accepts; it checks them itself",
    "core.DUMMY_ID_BASE": "the reserved id range; is_dummy_id is the package's test for it",
    "core.require_valid": "the entry points' raise-on-violation step; callers use validate_*",
    "greedy.Arrivals": "input of the internal pass the greedy and the pipeline share",
    "experiments.ALGORITHMS": "the algorithms ExperimentConfig accepts; it checks them itself",
    "experiments.CSV_COLUMNS": "the CLI's aggregate CSV header",
    "experiments.convergence_row": "a CLI emission helper",
    "experiments.trial_stats_row": "a CLI emission helper",
    "experiments.write_aggregates_csv": "a CLI emission helper",
    "experiments.write_records_jsonl": "a CLI emission helper",
}


def test_package_exports_exist():
    missing = [name for name in screenmatch.__all__ if not hasattr(screenmatch, name)]
    assert missing == []
    assert len(set(screenmatch.__all__)) == len(screenmatch.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_exist(name):
    mod = importlib.import_module(f"screenmatch.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_submodule_exports_are_re_exported_or_left_out_on_purpose():
    public = set(screenmatch.__all__)
    not_re_exported = set()
    for name in SUBMODULES:
        mod = importlib.import_module(f"screenmatch.{name}")
        for attr in mod.__all__:
            if attr in public:
                # the package name is the submodule's object, not a namesake
                assert getattr(screenmatch, attr) is getattr(mod, attr), f"{name}.{attr}"
            else:
                not_re_exported.add(f"{name}.{attr}")
    # no unexplained omission, and no reason left behind for a name now re-exported or gone
    assert not_re_exported == set(LEFT_OUT)
