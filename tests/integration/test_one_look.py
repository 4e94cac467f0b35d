"""The paper's protocol is the one-look schedule of the adaptive engine.

A classic campaign records the full budget and tests once; an adaptive
campaign whose only look is the full budget must therefore report the
same bytes, on every bundled workload.
"""

import pytest

from repro.cli import _workloads
from repro.core import adaptive as sequential
from repro.core.pipeline import Owl, OwlConfig

BUDGET = 6
ONE_LOOK = dict(fixed_runs=BUDGET, random_runs=BUDGET, seed=17,
                always_analyze=True)


def report_json(workload, **overrides):
    program, fixed_inputs, random_input = _workloads()[workload]
    owl = Owl(program, name=workload,
              config=OwlConfig(**ONE_LOOK, **overrides))
    return owl.detect(fixed_inputs(),
                      random_input=random_input).report.to_json()


class TestLookSchedule:
    def test_classic_config_is_one_look_at_the_budget(self):
        schedule = sequential.look_schedule(
            OwlConfig(fixed_runs=100, random_runs=60))
        assert schedule.fixed == (100,) and schedule.random == (60,)

    def test_adaptive_config_takes_its_rounds(self):
        config = OwlConfig(fixed_runs=100, random_runs=100, adaptive=True)
        assert sequential.look_schedule(config).fixed == (16, 32, 64, 100)

    def test_full_budget_overrides_the_rounds(self):
        config = OwlConfig(fixed_runs=100, random_runs=100, adaptive=True)
        schedule = sequential.look_schedule(config, full_budget=True)
        assert schedule.num_rounds == 1
        assert schedule.fixed == schedule.random == (100,)


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_one_look_adaptive_report_equals_classic(workload):
    classic = report_json(workload)
    one_look = report_json(workload, adaptive=True,
                           adaptive_rounds=(BUDGET,))
    assert one_look == classic
