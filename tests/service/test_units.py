"""WorkUnit model: round-trip, builders, chunking arithmetic."""

from repro.service.units import (
    KIND_DECIDE, KIND_EVIDENCE, KIND_PLAN, KIND_REPORT, KIND_TRACE, WorkUnit,
    decide_unit, plan_unit, report_unit, round_evidence_units, trace_units)

SPEC = {"workload": "dummy", "config": {"fixed_runs": 10}}


class TestRoundTrip:
    def test_dict_round_trip(self):
        unit = WorkUnit(uid="c1.trace.0001", kind=KIND_TRACE, campaign="c1",
                        spec=SPEC, params={"index": 1}, attempts=2)
        again = WorkUnit.from_dict(unit.to_dict())
        assert again == unit

    def test_defaults(self):
        unit = WorkUnit.from_dict({"uid": "u", "kind": KIND_PLAN,
                                   "campaign": "c"})
        assert unit.spec == {} and unit.params == {} and unit.attempts == 0


class TestBuilders:
    def test_trace_units_one_per_input(self):
        units = trace_units("c1", SPEC, 3)
        assert [u.uid for u in units] == [
            "c1.trace.0000", "c1.trace.0001", "c1.trace.0002"]
        assert all(u.kind == KIND_TRACE and u.campaign == "c1"
                   for u in units)
        assert [u.params["index"] for u in units] == [0, 1, 2]

    def test_plan_and_report_units(self):
        plan = plan_unit("c1", SPEC, 2)
        assert plan.uid == "c1.plan" and plan.kind == KIND_PLAN
        report = report_unit("c1", SPEC, 2)
        assert report.uid == "c1.report" and report.kind == KIND_REPORT

    def test_evidence_units_cover_all_runs_exactly(self):
        units = round_evidence_units("c1", SPEC, "fixed", 0, start=0,
                                     stop=25, unit_runs=10, first_chunk=0)
        spans = [(u.params["start"], u.params["stop"]) for u in units]
        assert spans == [(0, 10), (10, 20), (20, 25)]
        assert [u.params["chunk"] for u in units] == [0, 1, 2]
        assert all(u.kind == KIND_EVIDENCE for u in units)

    def test_evidence_units_single_chunk_when_unit_runs_exceeds(self):
        units = round_evidence_units("c1", SPEC, "random", -1, start=0,
                                     stop=4, unit_runs=100, first_chunk=0)
        assert len(units) == 1
        assert (units[0].params["start"], units[0].params["stop"]) == (0, 4)
        assert units[0].params["rep_index"] == -1

    def test_decide_unit_names_its_look(self):
        unit = decide_unit("c1", SPEC, 0, [2], fixed_chunks=3,
                           random_chunks=4)
        assert unit.uid == "c1.decide.00"
        assert unit.kind == KIND_DECIDE
        assert unit.params == {"round": 0, "rep_indices": [2],
                               "fixed_chunks": 3, "random_chunks": 4}
