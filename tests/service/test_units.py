"""WorkUnit model: round-trip, builders, run-range arithmetic."""

from repro.service.units import (
    KIND_DECIDE, KIND_EVIDENCE, KIND_PLAN, STAGES, WorkUnit, decide_unit,
    plan_unit, round_evidence_units)

SPEC = {"workload": "dummy", "config": {"fixed_runs": 10}}


class TestRoundTrip:
    def test_dict_round_trip(self):
        unit = WorkUnit(uid="c1.evidence.fixed.0.0010-0020",
                        kind=KIND_EVIDENCE, campaign="c1", spec=SPEC,
                        params={"side": "fixed", "start": 10, "stop": 20},
                        attempts=2)
        again = WorkUnit.from_dict(unit.to_dict())
        assert again == unit

    def test_defaults(self):
        unit = WorkUnit.from_dict({"uid": "u", "kind": KIND_PLAN,
                                   "campaign": "c"})
        assert unit.spec == {} and unit.params == {} and unit.attempts == 0


class TestBuilders:
    def test_plan_unit_and_the_retired_report_kind(self):
        plan = plan_unit("c1", SPEC)
        assert plan.uid == "c1.plan" and plan.kind == KIND_PLAN
        # the plan or last decide unit writes the report: no report kind
        assert STAGES == (KIND_PLAN, KIND_EVIDENCE, KIND_DECIDE)

    def test_evidence_units_cover_all_runs_exactly(self):
        units = round_evidence_units("c1", SPEC, "fixed", 0, start=0,
                                     stop=25, unit_runs=10)
        spans = [(u.params["start"], u.params["stop"]) for u in units]
        assert spans == [(0, 10), (10, 20), (20, 25)]
        assert [u.uid for u in units] == [
            "c1.evidence.fixed.0.0000-0010", "c1.evidence.fixed.0.0010-0020",
            "c1.evidence.fixed.0.0020-0025"]
        assert all(u.kind == KIND_EVIDENCE for u in units)
        assert all(set(u.params) == {"side", "rep_index", "start", "stop"}
                   for u in units)

    def test_later_round_units_continue_at_the_round_start(self):
        units = round_evidence_units("c1", SPEC, "random", -1, start=16,
                                     stop=32, unit_runs=7)
        spans = [(u.params["start"], u.params["stop"]) for u in units]
        assert spans == [(16, 23), (23, 30), (30, 32)]
        assert units[0].uid == "c1.evidence.random.-1.0016-0023"

    def test_evidence_units_single_range_when_unit_runs_exceeds(self):
        units = round_evidence_units("c1", SPEC, "random", -1, start=0,
                                     stop=4, unit_runs=100)
        assert len(units) == 1
        assert (units[0].params["start"], units[0].params["stop"]) == (0, 4)
        assert units[0].params["rep_index"] == -1

    def test_decide_unit_names_its_look(self):
        unit = decide_unit("c1", SPEC, 0, [2])
        assert unit.uid == "c1.decide.00"
        assert unit.kind == KIND_DECIDE
        assert unit.params == {"round": 0, "rep_indices": [2]}
