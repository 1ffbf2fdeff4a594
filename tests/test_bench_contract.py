"""The benchmark's view of the library, checked without a benchmark run.

``bench/spans.py`` wraps library functions by module and attribute name,
and ``bench/workloads.py`` calls the library through task fields and
public functions; a rename on either side would otherwise show only in a
full ``python3 bench/run.py``.  These tests import bench/ read-only.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402  (needs the bench path above)
import workloads  # noqa: E402


def test_every_traced_layer_resolves():
    missing = []
    for module_name, path, name, _ in spans.TARGETS:
        owner = importlib.import_module(f"tailbound.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize(
    "workload, instance",
    [
        ("figure1", "p25_t6"),
        ("bound_sweep", "cond_probs_n200"),
        # the linear cut on the 1001-point binomial, the z_nm lattice sum and
        # the 1331-point non-lattice xi merge
        ("bound_sweep", "mean_n1000"),
        ("bound_sweep", "moments_m4_n100"),
        ("bound_sweep", "variance_het_n20"),
        ("verify", "mean_n8"),
    ],
)
def test_workload_instance_matches_reference(workload, instance):
    seed = workloads.DEFAULT_SEED
    wl = workloads.WORKLOADS[workload]
    corpus = [inst for inst in wl.corpus(seed) if inst.name == instance]
    assert len(corpus) == 1
    ops = wl.run_pass(workloads.prepare(corpus), seed)
    workloads.check(ops, workloads.load_reference(workload), seed)
    assert ops and all(op.values for op in ops)
    assert [problem for op in ops for problem in op.problems] == []
