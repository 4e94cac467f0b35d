"""Each evidence side's store key covers exactly what shapes its bytes.

The fixed side repeats the representative ``fixed_runs`` times, so its
evidence must not depend on the seed or the random budget: campaigns of
every seed share it.  The random side draws ``random_runs`` inputs from
the seed, so its evidence must not depend on the fixed budget.  Checked
on every registry workload, through the recorder each configuration
builds: a key that left out a field the bytes depend on would hand one
campaign another's evidence.
"""

import pytest

from repro.cli import _workloads
from repro.core.pipeline import Owl, OwlConfig, side_inputs
from repro.store.serialize import serialize_evidence

RUNS = 8


def side_bytes(workload: str, side: str, **overrides) -> bytes:
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{"fixed_runs": RUNS, "random_runs": RUNS,
                          **overrides})
    owl = Owl(program, name=workload, config=config)
    values = side_inputs(config, side, fixed_inputs()[0], random_input)
    evidence, _stats = owl.pool.record_evidence(values)
    return serialize_evidence(evidence)


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_fixed_side_ignores_seed_and_random_budget(workload):
    assert side_bytes(workload, "fixed", seed=1) == side_bytes(
        workload, "fixed", seed=2, random_runs=RUNS + 5)


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_random_side_ignores_fixed_budget(workload):
    assert side_bytes(workload, "random", seed=3) == side_bytes(
        workload, "random", seed=3, fixed_runs=RUNS + 5)
