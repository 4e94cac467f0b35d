"""The campaign engine: cached, resumable, diffable detection runs.

A *campaign* is one ``Owl.detect`` invocation bound to a
:class:`~repro.store.store.TraceStore`.  The engine gives the pipeline
three layers of reuse, coarse to fine:

* **report cache** — the exact (program, config, inputs) campaign already
  completed: return its stored report;
* **evidence cache** — a side's completed evidence, keyed by what
  shapes its bytes (the fixed side ignores the seed, so every seed
  shares it), stands in for the side at the final look; when every side
  is complete, phase 3 records nothing and re-analyses;
* **trace cache + segments** — phase-1 traces are reused per input, and
  phase-3 partial evidence is saved only as *segments*, the evidence of
  runs ``[start, stop)`` of one side under
  ``segment/<evidence-key suffix>/<start>-<stop>``: one per
  ``store_checkpoint_every`` batch of ``Owl.detect``, one per service
  evidence unit.  Readers merge, in run order, the segments of any
  writer and partition that chain on from the runs they hold, so a
  killed campaign resumes; completing a side deletes its segments.

Bit-identity contract: whenever a store is attached, the evidence handed
to the analyzer is always the store's **canonical round-tripped form**
(serialise → deserialise), for cold and warm runs alike.  Canonical bytes
are what make "warm re-run ≡ cold run" an equality of report JSON, not an
approximation — see :mod:`repro.store.serialize` — and ``Evidence.merge``
is associative, so every partition into segments folds to those bytes.

``diff_reports`` closes the paper's detect → patch → re-audit loop: two
reports (two program versions) are joined on code location
``(leak type, kernel, block, instr)`` — *not* on kernel identity, whose
call-stack digest legitimately shifts when source lines move — and every
leak is classified as introduced, fixed, or persisting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.evidence import Evidence
from repro.core.report import Leak, LeakageReport
from repro.errors import ConfigError, StoreError
from repro.resilience import events as resilience_events
from repro.store.fingerprint import (
    analysis_fingerprint,
    evidence_fingerprint,
    fingerprint_inputs,
    fingerprint_value,
    trace_fingerprint,
)
from repro.store.serialize import serialize_evidence
from repro.store.store import TraceStore
from repro.tracing.recorder import ProgramTrace

SIDE_FIXED = "fixed"
SIDE_RANDOM = "random"

#: Campaign status values recorded in the manifest.
STATUS_IN_PROGRESS = "in_progress"
STATUS_COMPLETE = "complete"


def _jsonable_config(config) -> Dict:
    """OwlConfig as a JSON-safe dict (for ``owl resume`` reconstruction)."""
    return dataclasses.asdict(config)


class Campaign:
    """Store-backed context for one named program + configuration."""

    def __init__(self, store: TraceStore, name: str, config,
                 device_config=None) -> None:
        self.store = store
        self.name = name
        self.config = config
        self.device_config = device_config
        self.trace_fp = trace_fingerprint(config, device_config)
        #: per side: the fixed side's ignores the seed and the random
        #: budget, so campaigns of any seed share it
        self.evidence_fps = {
            side: evidence_fingerprint(config, device_config, side=side)
            for side in (SIDE_FIXED, SIDE_RANDOM)}
        self.analysis_fp = analysis_fingerprint(config, device_config)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def input_fingerprint(self, value) -> str:
        return fingerprint_value(value)

    def inputs_fingerprint(self, input_fps: Sequence[str]) -> str:
        return fingerprint_inputs(input_fps)

    def trace_key(self, input_fp: str) -> str:
        return f"trace/{self.name}/{self.trace_fp}/{input_fp}"

    def evidence_key(self, side: str, rep_fp: Optional[str] = None) -> str:
        if side == SIDE_RANDOM:
            # the random side depends only on (seed, runs), never on which
            # representative is being analysed: all representatives share it
            return f"evidence/{self.name}/{self.evidence_fps[side]}/random"
        return (f"evidence/{self.name}/{self.evidence_fps[side]}/fixed/"
                f"{rep_fp}")

    def segment_prefix(self, evidence_key: str) -> str:
        return "segment/" + evidence_key[len("evidence/"):] + "/"

    def segment_key(self, evidence_key: str, start: int, stop: int) -> str:
        return f"{self.segment_prefix(evidence_key)}{start}-{stop}"

    def report_key(self, inputs_fp: str) -> str:
        return f"report/{self.name}/{self.analysis_fp}/{inputs_fp}"

    def campaign_key(self, inputs_fp: str) -> str:
        return f"campaign/{self.name}/{self.analysis_fp}/{inputs_fp}"

    # ------------------------------------------------------------------
    # self-healing loads
    # ------------------------------------------------------------------

    def _healing_load(self, loader, key: str):
        """Load through *loader*, quarantining damage instead of failing.

        Stored artifacts are a cache: when one fails its integrity check
        (bit rot, a truncated write, an injected ``blob_corruption``) the
        right response is to isolate the blob, record the degradation and
        report a miss — the pipeline then re-records the lost artifact
        exactly as if it had never been stored.
        """
        try:
            return loader(key)
        except StoreError as error:
            dropped = self.store.quarantine(key)
            resilience_events.record_degradation(
                resilience_events.STORE_QUARANTINE, "store", str(error),
                key=key, dropped=len(dropped))
            return None

    # ------------------------------------------------------------------
    # phase 1: trace cache
    # ------------------------------------------------------------------

    def load_trace(self, input_fp: str) -> Optional[ProgramTrace]:
        return self._healing_load(self.store.get_trace,
                                  self.trace_key(input_fp))

    def save_trace(self, input_fp: str, trace: ProgramTrace) -> None:
        self.store.put_trace(
            self.trace_key(input_fp), trace,
            meta={"workload": self.name, "config": self.trace_fp,
                  "input": input_fp, "signature": trace.signature()})

    # ------------------------------------------------------------------
    # phase 3: evidence cache + segments
    # ------------------------------------------------------------------

    def load_evidence(self, key: str) -> Optional[Evidence]:
        return self._healing_load(self.store.get_evidence, key)

    def save_evidence(self, key: str, evidence: Evidence,
                      side: str) -> bytes:
        """Persist a completed side and delete its segments; returns the
        stored payload, which ``deserialize_evidence`` turns into the
        side's canonical form for a caller that analyses on."""
        payload = serialize_evidence(evidence)
        with self.store.batch():
            self.store.put_bytes(
                key, "evidence", payload,
                meta=dict(self._side_meta(side), runs=evidence.num_runs))
            self.drop_segments(key)
        return payload

    def drop_segments(self, evidence_key: str) -> None:
        """Delete a completed side's segments: its own, those the interim
        looks of a campaign sharing the side recorded, and any a writer
        racing the completion stored afterwards."""
        with self.store.batch():
            for key in self.store.keys_under(self.segment_prefix(evidence_key)):
                self.store.delete(key)

    def save_segment(self, evidence_key: str, start: int, stop: int,
                     partial: Evidence, side: str) -> None:
        """Persist the partial evidence of runs ``[start, stop)`` (at
        once, so the caller may then let ``Evidence.merge`` consume it)."""
        self.store.put_evidence(
            self.segment_key(evidence_key, start, stop), partial,
            kind="segment",
            meta=dict(self._side_meta(side), start=start, stop=stop))

    def _side_meta(self, side: str) -> Dict:
        """Meta of a side's entries: its own fingerprint, and the seed
        only where the side's bytes depend on it."""
        meta = {"workload": self.name, "config": self.evidence_fps[side],
                "side": side}
        if side == SIDE_RANDOM:
            meta["seed"] = self.config.seed
        return meta

    def extend_from_segments(self, evidence_key: str,
                             evidence: Optional[Evidence], done: int,
                             stop: int) -> Tuple[Optional[Evidence], int]:
        """Merge onto *evidence* (the side's first *done* runs) the stored
        segments, of any partition, that chain on in run order furthest
        toward run *stop*; returns it and its run count.  One manifest
        pass lists them; a damaged one is quarantined and ends the chain."""
        prefix = self.segment_prefix(evidence_key)
        chains: Dict[int, List[Tuple[int, int]]] = {done: []}  # by end run
        for first, last in sorted(
                tuple(map(int, key[len(prefix):].split("-")))
                for key in self.store.keys_under(prefix)):
            if first in chains and first < last <= stop \
                    and last not in chains:
                chains[last] = chains[first] + [(first, last)]
        for first, last in chains[max(chains)]:
            partial = self._healing_load(self.store.get_evidence,
                                         self.segment_key(evidence_key,
                                                          first, last))
            if partial is None:
                break
            evidence = partial if evidence is None else evidence.merge(partial)
            done = last
        return evidence, done

    # ------------------------------------------------------------------
    # reports + campaign status
    # ------------------------------------------------------------------

    def load_report(self, inputs_fp: str) -> Optional[LeakageReport]:
        return self._healing_load(self.store.get_report,
                                  self.report_key(inputs_fp))

    def save_report(self, inputs_fp: str, report: LeakageReport,
                    stats=None) -> None:
        meta = {"workload": self.name, "config": self.analysis_fp,
                "seed": self.config.seed, "inputs": inputs_fp}
        if stats is not None:
            meta["stats"] = {
                "trace_count": stats.trace_count,
                "trace_bytes_total": stats.trace_bytes_total,
                "trace_seconds_total": stats.trace_seconds_total,
                "trace_wall_seconds": stats.trace_wall_seconds,
                "evidence_seconds": stats.evidence_seconds,
                "test_seconds": stats.test_seconds,
                "total_seconds": stats.total_seconds,
                "cached_traces": stats.cached_traces,
                "cached_runs": stats.cached_runs,
                "workers": stats.workers,
            }
        self.store.put_report(self.report_key(inputs_fp), report, meta=meta)

    def mark_started(self, inputs_fp: str) -> None:
        key = self.campaign_key(inputs_fp)
        existing = self.store.get(key)
        if existing is not None and existing.meta.get(
                "status") == STATUS_COMPLETE:
            return
        self.store.put_json(
            key, "campaign",
            {"workload": self.name, "inputs": inputs_fp,
             "config": _jsonable_config(self.config)},
            meta={"workload": self.name, "status": STATUS_IN_PROGRESS,
                  "seed": self.config.seed, "inputs": inputs_fp})

    def mark_complete(self, inputs_fp: str) -> None:
        key = self.campaign_key(inputs_fp)
        self.store.put_json(
            key, "campaign",
            {"workload": self.name, "inputs": inputs_fp,
             "config": _jsonable_config(self.config)},
            meta={"workload": self.name, "status": STATUS_COMPLETE,
                  "seed": self.config.seed, "inputs": inputs_fp,
                  "report": self.report_key(inputs_fp)})


def incomplete_campaigns(store: TraceStore) -> List:
    """Campaign entries still marked in-progress (for ``owl resume``)."""
    return [entry for entry in store.entries(kind="campaign")
            if entry.meta.get("status") != STATUS_COMPLETE]


def drop_retired_partials(store: TraceStore) -> int:
    """Delete the ``checkpoint``-kind entries (whole-side snapshots and
    service chunk blobs, which no campaign reads); returns how many."""
    retired = store.entries(kind="checkpoint")
    with store.batch():
        for entry in retired:
            store.delete(entry.key)
    return len(retired)


# ----------------------------------------------------------------------
# cross-version regression diffs
# ----------------------------------------------------------------------

#: A leak's code location: the join key across program versions.
LocationKey = Tuple[str, str, str, int]


def _location_index(report: LeakageReport) -> Dict[LocationKey, Leak]:
    """Most-significant leak per (type, kernel, block, instr) location."""
    index: Dict[LocationKey, Leak] = {}
    for leak in report.leaks:
        key = (leak.leak_type.value,) + leak.location
        current = index.get(key)
        if current is None or leak.p_value < current.p_value:
            index[key] = leak
    return index


@dataclass
class RegressionDiff:
    """Classification of every leak across two reports (A = before patch,
    B = after): did the patch fix it, leave it, or make things worse?"""

    baseline_name: str
    candidate_name: str
    introduced: List[Leak] = field(default_factory=list)
    fixed: List[Leak] = field(default_factory=list)
    persisting: List[Tuple[Leak, Leak]] = field(default_factory=list)

    @property
    def is_regression(self) -> bool:
        return bool(self.introduced)

    @property
    def is_clean_fix(self) -> bool:
        return bool(self.fixed) and not self.introduced and not self.persisting

    def counts(self) -> Dict[str, int]:
        return {"introduced": len(self.introduced), "fixed": len(self.fixed),
                "persisting": len(self.persisting)}

    def to_dict(self) -> Dict:
        def leak_row(leak: Leak) -> Dict:
            return {"leak_type": leak.leak_type.value,
                    "kernel_name": leak.kernel_name, "block": leak.block,
                    "instr": leak.instr, "p_value": leak.p_value}

        return {
            "baseline": self.baseline_name,
            "candidate": self.candidate_name,
            "counts": self.counts(),
            "introduced": [leak_row(leak) for leak in self.introduced],
            "fixed": [leak_row(leak) for leak in self.fixed],
            "persisting": [{"before": leak_row(a), "after": leak_row(b)}
                           for a, b in self.persisting],
        }

    def render(self) -> str:
        lines = [
            f"Leakage regression diff: {self.baseline_name} -> "
            f"{self.candidate_name}",
            f"  introduced: {len(self.introduced)}, "
            f"fixed: {len(self.fixed)}, persisting: {len(self.persisting)}",
        ]
        for leak in self.introduced:
            lines.append("  [introduced] " + leak.render())
        for before, after in self.persisting:
            lines.append("  [persisting] " + after.render())
        for leak in self.fixed:
            lines.append("  [fixed]      " + leak.render())
        if not self.introduced and not self.persisting:
            lines.append("  candidate is leak-free at every baseline "
                         "location" if self.fixed else
                         "  both versions are leak-free")
        return "\n".join(lines)


def diff_reports(baseline: LeakageReport,
                 candidate: LeakageReport) -> RegressionDiff:
    """Classify each leak location as introduced / fixed / persisting.

    Both reports must come from the same analyzer: diffing a KS baseline
    against an MI candidate would classify every MI-only finding as
    "introduced" (and vice versa), which is a detector difference, not a
    code regression — use ``analyzer="both"``'s cross-validation section
    to compare detectors.
    """
    if baseline.analyzer != candidate.analyzer:
        raise ConfigError(
            f"cannot diff reports from different analyzers: baseline "
            f"{baseline.program_name!r} used {baseline.analyzer!r}, "
            f"candidate {candidate.program_name!r} used "
            f"{candidate.analyzer!r}")
    before = _location_index(baseline)
    after = _location_index(candidate)
    diff = RegressionDiff(baseline_name=baseline.program_name,
                          candidate_name=candidate.program_name)
    for key in sorted(before):
        if key in after:
            diff.persisting.append((before[key], after[key]))
        else:
            diff.fixed.append(before[key])
    for key in sorted(after):
        if key not in before:
            diff.introduced.append(after[key])
    return diff
