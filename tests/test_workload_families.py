"""The benchmark's workloads name catalog families and their parameters
in `perfbench/workloads.py`, which imports nothing from the package. A
renamed family or parameter would only show up as a failed benchmark
run; these tests make it fail here instead. The module is loaded from
its file, so nothing under `perfbench/` needs to be imported as a
package or changed.
"""

import importlib.util
from pathlib import Path

import pytest

from spectral_torelli.curve_catalog import catalog_get, catalog_ids

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("family", sorted(workloads.FAMILY_PARAMETERS))
def test_workload_family_parameters_match_the_catalog(family):
    assert family in catalog_ids()
    assert workloads.FAMILY_PARAMETERS[family] == catalog_get(family).parameters


@pytest.mark.parametrize("family", workloads.SYMBOLIC_IGUSA_FAMILIES)
def test_symbolic_igusa_families_are_catalog_ids(family):
    assert family in catalog_ids()
