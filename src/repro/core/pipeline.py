"""The Owl pipeline: trace recording → duplicates removing → leakage analysis.

:class:`Owl` wires the full §IV-C workflow around a *program under test*
(any callable ``program(rt, value)`` driving a
:class:`~repro.host.runtime.CudaRuntime`):

1. **trace recording** — each user-provided input is executed once under
   full host+device instrumentation;
2. **duplicates removing** — inputs with identical traces are grouped; a
   single class means no potential leakage and the pipeline stops early;
3. **leakage analysis** — the program is re-executed ``fixed_runs`` times
   with a fixed representative input and ``random_runs`` times with fresh
   random inputs; the two evidence sets are compared feature-by-feature
   with the KS test to locate kernel / control-flow / data-flow leaks while
   cancelling input-independent nondeterminism.

Phase 3 has one engine, ``Owl._phase3``: every evidence side advances to
the replica boundaries of a look schedule
(:func:`repro.core.adaptive.look_schedule`) and each look is analysed.
The paper's protocol is the one-look schedule at the full budget;
``OwlConfig(adaptive=True)`` adds interim looks that may stop early.

The pipeline also collects the cost metrics reported in Table IV (per-trace
size and time, evidence and test times, peak RAM).

Passing ``store=`` to :meth:`Owl.detect` attaches a persistent
:class:`~repro.store.store.TraceStore`: phase-1 traces are cached per
(program, device config, input), phase-3 evidence is saved in run-range
segments of ``OwlConfig.store_checkpoint_every`` runs (an interrupted
campaign resumes from them), completed evidence and reports are reused
outright, and a warm re-run is bit-identical to the cold run that
populated the store (see :mod:`repro.store.campaign`).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import profiling
from repro.analysis import analysis_modes, cross_validate, make_analyzer, \
    run_analyzers
from repro.core import adaptive as sequential
from repro.core.adaptive import AdaptiveSummary
from repro.core.evidence import Evidence
from repro.core.filtering import FilterResult, filter_traces
from repro.core.kstest import DEFAULT_CONFIDENCE
from repro.core.leakage import LeakageConfig
from repro.core.parallel import ChunkStats, TraceRecordingPool, resolve_workers
from repro.core.report import LeakageReport
from repro.errors import CampaignError, ConfigError
from repro.gpusim.device import DeviceConfig
from repro.resilience.events import DegradationEvent, collecting_degradations
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.tracing.recorder import Program, ProgramTrace

#: Produces a fresh random secret input from a seeded generator.
RandomInputFn = Callable[[np.random.Generator], object]

#: Retired OwlConfig fields that stored configs may still name:
#: ``columnar`` chose the per-event memory path, which devices no longer
#: emit; ``replica_batch`` chose per-run recording (``cohort=False`` now
#: selects the whole per-run reference recorder); ``vectorized`` chose
#: the scalar KS and MI tests, which the analysis no longer dispatches.
_RETIRED_FIELDS = frozenset({"columnar", "replica_batch", "vectorized"})


@dataclass(frozen=True)
class OwlConfig:
    """Pipeline configuration (§VIII-A defaults: 100 runs, α = 0.95)."""

    fixed_runs: int = 100
    random_runs: int = 100
    confidence: float = DEFAULT_CONFIDENCE
    sample_size_cap: Optional[int] = None
    test: str = "ks"
    #: which leakage detector decides findings: "ks" (the paper's
    #: differential KS test), "mi" (MicroWalk-style mutual information,
    #: see repro.analysis.mi), or "both" (one shared evidence pass feeding
    #: both detectors plus a KS-vs-MI cross-validation section)
    analyzer: str = "ks"
    #: entropy bias correction for the MI detector: "miller_madow"
    #: (default), "jackknife", "shrinkage", or "none"
    mi_bias_correction: str = "miller_madow"
    #: minimum bias-corrected MI (bits) the MI detector requires on top of
    #: G-test significance before flagging a feature; 0 disables the floor
    mi_min_bits: float = 0.0
    #: attacker spatial resolution in bytes (1 = noise-free byte-level
    #: attacker per the paper's threat model; 64 models a cache-line probe)
    offset_granularity: int = 1
    #: estimate each leak's strength in bits per observation
    quantify: bool = False
    #: feature sampling: "pooled" (the paper's histograms) or "per_run"
    #: (strict mode; retains per-run graphs in the evidence)
    sampling: str = "pooled"
    analyze_all_representatives: bool = False
    dedup_by_location: bool = True
    measure_memory: bool = False
    #: run phase 3 even when filtering finds a single input class (useful
    #: when the user inputs may under-cover the input space, and for
    #: benchmarking the full protocol on leak-free programs)
    always_analyze: bool = False
    seed: int = 2024
    #: trace-recording worker processes: a positive int or "auto" (one per
    #: core).  Run inputs are drawn in the parent and dispatched as
    #: contiguous chunks, so any worker count produces bit-identical
    #: evidence and reports (see repro.core.parallel).
    workers: Union[int, str] = 1
    #: execute every warp of a kernel launch in one NumPy pass over a
    #: ``(num_warps, 32)`` lane grid (the warp-cohort engine), and record
    #: each chunk of a side's runs as one replica batch whose compatible
    #: launches run as extra rows of that grid (repro.tracing.replica).
    #: ``cohort=False`` selects the whole reference recorder: the
    #: per-warp execution loop, one run at a time.  Reports are
    #: byte-identical either way; excluded from store fingerprints, like
    #: ``workers``.
    cohort: bool = True
    #: collapse consecutive equal-input runs into a single recording
    #: (O(1) work for the whole fixed side).  Only sound when
    #: the program is a pure function of ``(rt, value)``: a program that
    #: draws its own per-run randomness (input-independent nondeterminism,
    #: which the kernel-leakage test is designed to cancel) yields
    #: distinct traces for equal inputs, so this stays opt-in.  Excluded
    #: from store fingerprints.
    replica_dedup: bool = False
    #: with a store attached, persist each side's phase-3 evidence as one
    #: run-range segment per this-many recorded runs; an interrupted
    #: campaign resumes from its segments.  Purely an I/O cadence knob —
    #: excluded from store fingerprints, like ``workers``.
    store_checkpoint_every: int = 25
    #: how worker faults are survived (None = the RetryPolicy defaults);
    #: accepts a RetryPolicy or its dict form from a campaign manifest.
    #: Purely operational — excluded from store fingerprints.
    retry: Optional[RetryPolicy] = None
    #: deterministic fault injection for resilience testing (see
    #: repro.resilience.faults); accepts a FaultPlan, a spec string such as
    #: ``"worker_crash:chunk=1"``, or the manifest dict form.  Excluded
    #: from store fingerprints — an injected run is bit-identical.
    fault_plan: Optional[FaultPlan] = None
    #: runaway-kernel guard for the cohort engine: maximum basic-block
    #: steps one cohort attempt may record before the launch degrades to
    #: the per-warp reference engine (None = unbounded)
    cohort_step_budget: Optional[int] = None
    #: group-sequential adaptive replica scheduling (repro.core.adaptive):
    #: record replicas in growing rounds and stop a campaign early once
    #: every per-location test is confidently flagged or confidently
    #: clean under an O'Brien–Fleming-style alpha-spending rule.
    #: Near-threshold locations force the full budget, so the flagged
    #: leak set matches the full-budget run's; the replica counts (and
    #: hence report byte content) legitimately differ.  Requires the
    #: batched deferred tests (``test="ks"``).
    #: Fingerprints as analysis scope: adaptive and classic campaigns
    #: share traces and evidence but cache reports separately.
    adaptive: bool = False
    #: look schedule: None (16 → 32 → 64 → … → budget), an int count of
    #: geometric looks, or an explicit sequence of replica boundaries on
    #: the larger evidence side (the budget is always the final look)
    adaptive_rounds: Union[int, Sequence[int], None] = None
    #: alpha-spending exponent rho in ``z / t**rho``: 0.5 is the classic
    #: O'Brien–Fleming boundary; larger spends even less alpha early
    adaptive_alpha_spend: float = 0.5

    def __post_init__(self) -> None:
        """Reject invalid knobs at construction with one-line messages."""
        if self.test not in ("ks", "welch"):
            raise ConfigError(
                f"unknown distribution test {self.test!r}; valid choices: "
                f"'ks', 'welch'")
        if self.sampling not in ("pooled", "per_run"):
            raise ConfigError(
                f"unknown sampling mode {self.sampling!r}; valid choices: "
                f"'pooled', 'per_run'")
        if self.analyzer not in ("ks", "mi", "both"):
            raise ConfigError(
                f"unknown analyzer {self.analyzer!r}; valid choices: "
                f"'ks', 'mi', 'both'")
        if self.mi_bias_correction not in ("none", "miller_madow",
                                           "jackknife", "shrinkage"):
            raise ConfigError(
                f"unknown MI bias correction {self.mi_bias_correction!r}; "
                f"valid choices: 'none', 'miller_madow', 'jackknife', "
                f"'shrinkage'")
        if not isinstance(self.mi_min_bits, (int, float)) \
                or isinstance(self.mi_min_bits, bool) or self.mi_min_bits < 0:
            raise ConfigError(
                f"mi_min_bits must be a non-negative number, got "
                f"{self.mi_min_bits!r}")
        for name in ("fixed_runs", "random_runs", "offset_granularity",
                     "store_checkpoint_every"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ConfigError(
                    f"{name} must be a positive int, got {value!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(
                f"confidence must be strictly between 0 and 1, got "
                f"{self.confidence!r}")
        if self.sample_size_cap is not None and self.sample_size_cap < 1:
            raise ConfigError(
                f"sample_size_cap must be a positive int or None, got "
                f"{self.sample_size_cap!r}")
        if not isinstance(self.replica_dedup, bool):
            raise ConfigError(
                f"replica_dedup must be a bool, got {self.replica_dedup!r}")
        if (self.cohort_step_budget is not None
                and self.cohort_step_budget < 1):
            raise ConfigError(
                f"cohort_step_budget must be a positive int or None, got "
                f"{self.cohort_step_budget!r}")
        if not isinstance(self.adaptive, bool):
            raise ConfigError(
                f"adaptive must be a bool, got {self.adaptive!r}")
        object.__setattr__(
            self, "adaptive_rounds",
            sequential.validate_adaptive_rounds(self.adaptive_rounds))
        if not isinstance(self.adaptive_alpha_spend, (int, float)) \
                or isinstance(self.adaptive_alpha_spend, bool) \
                or not 0.0 < self.adaptive_alpha_spend <= 4.0:
            raise ConfigError(
                f"adaptive_alpha_spend must be a number in (0, 4], got "
                f"{self.adaptive_alpha_spend!r}")
        if self.adaptive and self.test != "ks":
            raise ConfigError(
                "adaptive early stopping needs the per-location p-values "
                "of the batched deferred tests; it requires test='ks'")
        resolve_workers(self.workers)  # raises ConfigError on bad specs
        # campaign manifests round-trip these nested configs through
        # dataclasses.asdict; coerce the dict (or spec-string) forms back
        if self.retry is not None and not isinstance(self.retry,
                                                     RetryPolicy):
            if not isinstance(self.retry, dict):
                raise ConfigError(
                    f"retry must be a RetryPolicy or its dict form, got "
                    f"{type(self.retry).__name__!r}")
            object.__setattr__(self, "retry", RetryPolicy(**self.retry))
        if self.fault_plan is not None:
            object.__setattr__(self, "fault_plan",
                               FaultPlan.coerce(self.fault_plan))

    @classmethod
    def from_stored(cls, fields: Dict) -> "OwlConfig":
        """Rebuild a config from the ``dataclasses.asdict`` form that
        campaign manifests and service queue specs keep on disk.

        Dicts written before a field was retired still carry it; those
        keys are dropped here so stored campaigns resume.  A fresh
        ``OwlConfig(**fields)`` still rejects them.
        """
        return cls(**{key: value for key, value in fields.items()
                      if key not in _RETIRED_FIELDS})

    def device_config(self, base: Optional[DeviceConfig] = None
                      ) -> DeviceConfig:
        """*base* (default ``DeviceConfig()``) under this config's
        ``cohort_step_budget``: the device a campaign simulates."""
        base = base or DeviceConfig()
        if self.cohort_step_budget is None:
            return base
        return replace(base, cohort_step_budget=self.cohort_step_budget)

    def leakage_config(self) -> LeakageConfig:
        return LeakageConfig(confidence=self.confidence,
                             sample_size_cap=self.sample_size_cap,
                             test=self.test,
                             offset_granularity=self.offset_granularity,
                             quantify=self.quantify,
                             sampling=self.sampling,
                             mi_bias_correction=self.mi_bias_correction,
                             mi_min_bits=self.mi_min_bits)


def side_inputs(config: OwlConfig, side: str, representative: object = None,
                random_input: Optional[RandomInputFn] = None) -> List[object]:
    """One evidence side's full run-input sequence: the representative
    ``fixed_runs`` times, or ``random_runs`` draws from one generator
    seeded with ``config.seed`` — the same in every process."""
    if side == "fixed":
        return [representative] * config.fixed_runs
    rng = np.random.default_rng(config.seed)
    return [random_input(rng) for _ in range(config.random_runs)]


@dataclass
class PhaseStats:
    """Cost accounting for one detection run (Table IV columns).

    Two timing views of trace recording are kept because they diverge
    under the worker pool:

    * ``trace_seconds_total`` sums each run's individual recording cost
      (CPU time of the ``record`` call, wherever it executed) — with
      ``workers > 1`` these overlap and the sum legitimately *exceeds*
      wall clock; ``avg_trace_seconds`` therefore still means per-trace
      cost, matching the paper's per-trace column;
    * ``trace_wall_seconds`` is the wall clock the pipeline actually spent
      in the recording phases (including pool overhead and, in phase 3,
      the interleaved streaming evidence fold) — this is what speeds up
      with workers and is bounded by ``total_seconds``.
    """

    trace_count: int = 0
    trace_bytes_total: int = 0
    trace_seconds_total: float = 0.0
    trace_wall_seconds: float = 0.0
    evidence_seconds: float = 0.0
    test_seconds: float = 0.0
    total_seconds: float = 0.0
    peak_ram_bytes: int = 0
    workers: int = 1
    #: store reuse accounting (0 without a store): phase-1 traces loaded
    #: from cache instead of recorded, and phase-3 runs skipped because
    #: their evidence (a completed side or segments) was already persisted
    cached_traces: int = 0
    cached_runs: int = 0
    #: the final report itself came straight from the store
    report_cache_hit: bool = False
    #: replica-batching counters (fused ones 0 with ``cohort=False``):
    #: runs served by deduplicating equal inputs, fused cohort groups
    #: executed, launches retired from fused groups, those of them that
    #: reused another member's execution, and launches that fell back to
    #: the per-run engine
    replica_dedup_runs: int = 0
    replica_fused_groups: int = 0
    replica_fused_launches: int = 0
    replica_reused_launches: int = 0
    replica_fallback_launches: int = 0
    #: structured record of every fault this run survived (worker retries,
    #: pool → serial, cohort → warp, columnar → object, quarantined blobs);
    #: empty on a fault-free run — degraded runs stay bit-identical, this
    #: is the only externally visible difference
    degradations: List[DegradationEvent] = field(default_factory=list)

    @property
    def avg_trace_bytes(self) -> float:
        return self.trace_bytes_total / self.trace_count if self.trace_count else 0.0

    @property
    def avg_trace_seconds(self) -> float:
        return (self.trace_seconds_total / self.trace_count
                if self.trace_count else 0.0)

    @property
    def recording_parallelism(self) -> float:
        """Achieved overlap: summed per-trace cost over recording wall."""
        return (self.trace_seconds_total / self.trace_wall_seconds
                if self.trace_wall_seconds else 0.0)

    def absorb_chunk(self, chunk: ChunkStats, wall_seconds: float) -> None:
        """Fold one recorded batch's accounting into this run's totals."""
        self.trace_count += chunk.trace_count
        self.trace_bytes_total += chunk.trace_bytes_total
        self.trace_seconds_total += chunk.trace_seconds_total
        self.evidence_seconds += chunk.evidence_seconds
        self.trace_wall_seconds += wall_seconds
        self.replica_dedup_runs += chunk.replica_dedup_runs
        self.replica_fused_groups += chunk.replica_fused_groups
        self.replica_fused_launches += chunk.replica_fused_launches
        self.replica_reused_launches += chunk.replica_reused_launches
        self.replica_fallback_launches += chunk.replica_fallback_launches
        self.degradations.extend(chunk.degradations)


@dataclass
class OwlResult:
    """Everything one :meth:`Owl.detect` call produced."""

    program_name: str
    filter_result: FilterResult
    report: LeakageReport
    per_representative: List[LeakageReport] = field(default_factory=list)
    stats: PhaseStats = field(default_factory=PhaseStats)
    #: the adaptive scheduler's stopping story — per-side budgets vs
    #: replicas actually recorded, and every interim look's decision
    #: (None on classic runs and on runs that never reached phase 3)
    adaptive: Optional[AdaptiveSummary] = None

    @property
    def leak_free_by_filtering(self) -> bool:
        """True when phase 2 already proved all inputs trace-identical."""
        return not self.filter_result.shows_potential_leakage

    @property
    def degradations(self) -> List[DegradationEvent]:
        """Every fault this run survived (see ``PhaseStats.degradations``)."""
        return self.stats.degradations

    @property
    def degraded(self) -> bool:
        """True when any fallback fired during this run."""
        return bool(self.stats.degradations)


@dataclass
class _EvidenceSide:
    """Mutable per-side state of the phase-3 look loop.

    One per representative's fixed side plus one for the shared random
    side; ``done`` is the replica prefix already folded into
    ``evidence``.  ``complete`` marks a side whose full-budget evidence
    the store held when phase 3 began, and ``stored`` is that evidence
    once loaded: it stands in for recording at the final look only.
    """

    side: str
    key: Optional[str]
    values: List[object]
    evidence: Optional[Evidence] = None
    done: int = 0
    complete: bool = False
    stored: Optional[Evidence] = None

    @property
    def total(self) -> int:
        return len(self.values)


class Owl:
    """Differential side-channel leakage detector for (simulated) CUDA apps."""

    def __init__(self, program: Program, name: str = "program",
                 device_config: Optional[DeviceConfig] = None,
                 config: Optional[OwlConfig] = None) -> None:
        self.program = program
        self.name = name
        self.config = config or OwlConfig()
        self.device_config = self.config.device_config(device_config)
        self.pool = TraceRecordingPool(program,
                                       device_config=self.device_config,
                                       workers=self.config.workers,
                                       cohort=self.config.cohort,
                                       replica_dedup=self.config.replica_dedup,
                                       retry=self.config.retry,
                                       fault_plan=self.config.fault_plan,
                                       seed=self.config.seed)
        # one detector per mode ("both" expands to ks + mi), all sharing
        # one LeakageConfig so the evidence fold is detector-independent
        self.analyzers = tuple(
            make_analyzer(mode, self.config.leakage_config())
            for mode in analysis_modes(self.config.analyzer))
        self.analyzer = self.analyzers[0]

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def record_traces(self, inputs: Sequence[object],
                      stats: Optional[PhaseStats] = None,
                      campaign=None) -> List[ProgramTrace]:
        """Phase 1: one instrumented execution per input.

        With a campaign attached, inputs whose traces are already in the
        store are loaded instead of re-recorded (cache hits land in
        ``stats.cached_traces``); only the misses are executed, and their
        traces are persisted for the next run.
        """
        if campaign is None:
            started = time.perf_counter()
            traces, chunk = self.pool.record_traces(inputs)
            if stats is not None:
                stats.absorb_chunk(chunk, time.perf_counter() - started)
            return traces
        fps = [campaign.input_fingerprint(value) for value in inputs]
        traces: List[Optional[ProgramTrace]] = [
            campaign.load_trace(fp) for fp in fps]
        missing = [index for index, trace in enumerate(traces)
                   if trace is None]
        if missing:
            started = time.perf_counter()
            recorded, chunk = self.pool.record_traces(
                [inputs[index] for index in missing])
            wall = time.perf_counter() - started
            if stats is not None:
                stats.absorb_chunk(chunk, wall)
            # one batched manifest append for the whole phase, not one
            # full-manifest rewrite per recorded trace
            with campaign.store.batch():
                for index, trace in zip(missing, recorded):
                    campaign.save_trace(fps[index], trace)
                    traces[index] = trace
        if stats is not None:
            stats.cached_traces += len(inputs) - len(missing)
        return traces  # type: ignore[return-value]

    def _plan(self, inputs: Sequence[object], stats: PhaseStats, campaign,
              reuse_report: bool, started: float):
        """Phases 1 and 2, and the decisions that can end a campaign there.

        Records the traces (a store's cached ones load instead), filters
        them and, with a store, marks the campaign started.  Returns
        ``(result, inputs_fp, rep_indices)``: ``result.report`` is set
        when the campaign ended here — on a stored report (with
        ``reuse_report``), or on one input class without
        ``always_analyze``, whose empty report is saved — and otherwise
        ``rep_indices`` name phase 3's representatives, one per class or
        the first only.  ``inputs_fp`` keys the campaign in a store.
        """
        traces = self.record_traces(inputs, stats=stats, campaign=campaign)
        filter_started = time.perf_counter()
        result = OwlResult(program_name=self.name, report=None, stats=stats,
                           filter_result=filter_traces(inputs, traces))
        prof = profiling.profiler()
        if prof is not None:
            prof.add("analysis_filter", time.perf_counter() - filter_started)
        inputs_fp = None
        if campaign is not None:
            inputs_fp = campaign.inputs_fingerprint(
                [campaign.input_fingerprint(value) for value in inputs])
            campaign.mark_started(inputs_fp)
            if reuse_report:
                result.report = campaign.load_report(inputs_fp)
                if result.report is not None:
                    stats.report_cache_hit = True
                    stats.total_seconds = time.perf_counter() - started
                    campaign.mark_complete(inputs_fp)
                    return result, inputs_fp, []
        filtered = result.filter_result
        if filtered.shows_potential_leakage or self.config.always_analyze:
            indices = [cls.representative_index for cls in filtered.classes]
            return result, inputs_fp, (
                indices if self.config.analyze_all_representatives
                else indices[:1])
        result.report = LeakageReport(program_name=self.name,
                                      confidence=self.config.confidence,
                                      analyzer=self.config.analyzer)
        self._complete(result.report, stats, campaign, inputs_fp, started)
        return result, inputs_fp, []

    def _phase3(self, representatives: Sequence[object],
                random_input: RandomInputFn, stats: PhaseStats, campaign,
                look: Optional[int] = None):
        """Phase 3: record the evidence sides look by look, analyse each look.

        One engine runs every campaign.  All representatives' fixed sides
        and the shared random side advance together to each replica
        boundary of :func:`repro.core.adaptive.look_schedule`: the
        paper's protocol is one look at the full budget, analysed by
        :func:`~repro.analysis.run_analyzers`; an adaptive campaign looks
        after every round through :func:`repro.core.adaptive.evaluate_round`
        and stops once every submitted test is decided for every
        representative and every detector.  Run inputs are all drawn
        here, in the parent, from one seeded generator — the same draw
        order regardless of worker count or batching.

        With a campaign attached, a store holding every side complete
        switches the campaign to the one-look schedule (outcome
        ``cached-evidence``): the replicas are already paid for.
        Otherwise a completed side stands in for recording only at the
        final look; every interim look reaches its boundaries through
        stored segments and recording, exactly as a cold run does, so a
        shared fixed side never changes where an adaptive campaign
        stops.  A resumed run likewise re-analyses every look of its own
        schedule, whatever schedule left the segments.  The segments
        interim looks wrote for a completed side go when the campaign
        ends.

        ``look`` runs only that look of the schedule, every side reaching
        it from the store's segments: one service decide unit.  A look
        past a one-look ``cached-evidence`` schedule is that schedule's
        final look.

        Returns ``(rep_reports, summary)`` with ``rep_reports[i]`` the
        per-analyzer reports of representative ``i`` at the last look
        (None when a single ``look`` ran and the campaign goes on), and
        ``summary`` the stopping story of an adaptive campaign (None for
        a classic one).
        """
        config = self.config
        sides = [_EvidenceSide(
            side="fixed", values=side_inputs(config, "fixed", rep),
            key=(campaign.evidence_key(
                "fixed", campaign.input_fingerprint(rep))
                 if campaign is not None else None))
            for rep in representatives]
        random_side = _EvidenceSide(
            side="random",
            values=side_inputs(config, "random", random_input=random_input),
            key=(campaign.evidence_key("random")
                 if campaign is not None else None))
        sides.append(random_side)
        cached = campaign is not None and self._resume_sides(sides, campaign)
        schedule = sequential.look_schedule(config, full_budget=cached)
        looks = (range(schedule.num_rounds) if look is None
                 else [min(look, schedule.num_rounds - 1)])

        rep_reports = []
        decisions = []
        for round_index in looks:
            final = round_index == schedule.num_rounds - 1
            for side in sides:
                self._record_side(side, schedule.boundary(side.side,
                                                          round_index),
                                  stats, campaign, final)
            test_started = time.perf_counter()
            if schedule.num_rounds == 1:
                rep_reports = [run_analyzers(
                    self.analyzers, side.evidence, random_side.evidence,
                    program_name=self.name) for side in sides[:-1]]
            else:
                rep_reports, decision = sequential.evaluate_round(
                    self.analyzers, [side.evidence for side in sides[:-1]],
                    random_side.evidence, program_name=self.name,
                    alpha=1.0 - config.confidence,
                    rho=config.adaptive_alpha_spend, schedule=schedule,
                    round_index=round_index)
                decision.analysis_seconds = time.perf_counter() - test_started
                decisions.append(decision)
            stats.test_seconds += time.perf_counter() - test_started
            if decisions and decisions[-1].stop:
                break
        if decisions and not decisions[-1].stop:
            rep_reports = None  # one interim look ran: the campaign goes on
        elif campaign is not None:
            for side in sides:
                if side.complete:
                    campaign.drop_segments(side.key)
        if not config.adaptive:
            return rep_reports, None
        summary = AdaptiveSummary(
            fixed_budget=config.fixed_runs, random_budget=config.random_runs,
            fixed_recorded=sides[0].done, random_recorded=random_side.done,
            rounds=decisions)
        if cached:
            summary.outcome = sequential.OUTCOME_CACHED
        elif (summary.fixed_recorded < config.fixed_runs
              or summary.random_recorded < config.random_runs):
            summary.outcome = sequential.OUTCOME_EARLY_STOP
        return rep_reports, summary

    def _resume_sides(self, sides: Sequence[_EvidenceSide],
                      campaign) -> bool:
        """Mark the sides the store holds complete; True when every side
        loads complete, which gives the campaign the one-look schedule.

        Only then does the schedule depend on the loads, so only then are
        they made here; otherwise a completed side loads at the final
        look.  A load that fails its integrity check quarantines the blob
        and leaves the side to be recorded like a cold run's.
        """
        for side in sides:
            side.complete = side.key in campaign.store
        if not all(side.complete for side in sides):
            return False
        for side in sides:
            self._load_side(side, campaign)
        return all(side.complete for side in sides)

    def _load_side(self, side: _EvidenceSide, campaign) -> None:
        """Load a completed side's evidence into ``side.stored`` (the
        store's canonical form, which makes warm runs bit-identical to
        cold ones), or clear ``side.complete`` if it did not load."""
        evidence = campaign.load_evidence(side.key)
        if evidence is not None and evidence.num_runs != side.total:
            raise CampaignError(
                f"store evidence {side.key!r} holds {evidence.num_runs} "
                f"runs but the configuration asks for {side.total} — "
                f"fingerprint collision or tampered manifest")
        side.stored = evidence
        side.complete = evidence is not None

    def _record_side(self, side: _EvidenceSide, target: int,
                     stats: PhaseStats, campaign, final: bool) -> None:
        """Advance one evidence side to a look's boundary, resumably.

        Without a store the side's slice is one pool call, so replica
        batching fuses the whole slice.  With a store the side first
        merges its stored segments toward the boundary, then records the
        rest in ``store_checkpoint_every`` batches, each saved as a
        segment (a crash anywhere resumes mid-look), and leaves
        ``side.evidence`` in the store's canonical round-tripped form, so
        cold and resumed looks analyse identical evidence.  Only the
        final look completes a side (``save_evidence``), or puts a
        completed side's stored evidence in its place; an early stop
        leaves the side as segments up to its stopping boundary.
        """
        if final and side.complete:
            if side.stored is None:
                self._load_side(side, campaign)
            if side.complete:
                stats.cached_runs += side.total - side.done
                side.evidence, side.done = side.stored, side.total
                return
        keep_per_run = self.config.sampling == "per_run"
        held, batch_size = side.done, target
        if campaign is not None:
            batch_size = self.config.store_checkpoint_every
            side.evidence, side.done = campaign.extend_from_segments(
                side.key, side.evidence, side.done, target)
            stats.cached_runs += side.done - held
        while side.done < target:
            start = side.done
            batch = side.values[start:min(start + batch_size, target)]
            started = time.perf_counter()
            partial, chunk = self.pool.record_evidence(
                batch, keep_per_run=keep_per_run)
            stats.absorb_chunk(chunk, time.perf_counter() - started)
            side.done += len(batch)
            if campaign is not None \
                    and not (final and side.done == side.total):
                campaign.save_segment(side.key, start, side.done, partial,
                                      side.side)
            side.evidence = (partial if side.evidence is None
                             else side.evidence.merge(partial))
        if campaign is None:
            return
        from repro.store.serialize import (
            deserialize_evidence, serialize_evidence)
        if final:
            payload = campaign.save_evidence(side.key, side.evidence,
                                             side.side)
        elif side.done > held:
            payload = serialize_evidence(side.evidence)
        else:
            return
        side.evidence = deserialize_evidence(payload)

    def _finish(self, rep_reports, adaptive_summary: Optional[AdaptiveSummary],
                stats: PhaseStats, campaign, inputs_fp: Optional[str],
                started: float):
        """Merge the last look's reports into the campaign's report, then
        complete the campaign; returns ``(report, per_representative)``.

        Each detector mode merges (and dedups) its representatives'
        reports exactly as a single-analyzer run would, so the KS
        component of a "both" run stays byte-identical to an
        ``analyzer="ks"`` run by construction.  An adaptive run's counts
        are the replicas it actually analysed, so an early-stopped report
        says what it tested.
        """
        per_rep: List[LeakageReport] = []
        per_mode: List[List[LeakageReport]] = [[] for _ in self.analyzers]
        for reports in rep_reports:
            for mode_reports, report in zip(per_mode, reports):
                mode_reports.append(report)
            per_rep.append(reports[0] if len(reports) == 1
                           else cross_validate(*reports))
        num_fixed_runs = (adaptive_summary.fixed_recorded
                          if adaptive_summary is not None
                          else self.config.fixed_runs)
        num_random_runs = (adaptive_summary.random_recorded
                           if adaptive_summary is not None
                           else self.config.random_runs)
        merged_by_mode: List[LeakageReport] = []
        for detector, mode_reports in zip(self.analyzers, per_mode):
            merged = LeakageReport(program_name=self.name,
                                   num_fixed_runs=num_fixed_runs,
                                   num_random_runs=num_random_runs,
                                   confidence=self.config.confidence,
                                   analyzer=detector.mode)
            for report in mode_reports:
                merged.extend(report.leaks)
            if self.config.dedup_by_location:
                merged = merged.dedup_by_location()
                merged.num_fixed_runs = num_fixed_runs
                merged.num_random_runs = num_random_runs
            merged_by_mode.append(merged)
        merged = (merged_by_mode[0] if len(merged_by_mode) == 1
                  else cross_validate(*merged_by_mode))
        self._complete(merged, stats, campaign, inputs_fp, started)
        return merged, per_rep

    def _complete(self, report: LeakageReport, stats: PhaseStats, campaign,
                  inputs_fp: Optional[str], started: float) -> None:
        """Time the detection and, with a store, save its report and mark
        the campaign complete in one manifest batch."""
        stats.total_seconds = time.perf_counter() - started
        if campaign is not None:
            with campaign.store.batch():
                campaign.save_report(inputs_fp, report, stats=stats)
                campaign.mark_complete(inputs_fp)

    # ------------------------------------------------------------------
    # full pipeline
    # ------------------------------------------------------------------

    def detect(self, inputs: Sequence[object], *,
               random_input: RandomInputFn, store=None,
               reuse_report: bool = True) -> OwlResult:
        """Run all three phases and return the located leaks.

        ``store`` (a :class:`~repro.store.store.TraceStore` or a path to
        create/open one) turns the call into a campaign: phase-1 traces
        are cached per input, phase-3 evidence is saved and reused,
        and — with ``reuse_report=True`` — an already-completed campaign
        returns its stored report outright.  A warm run is bit-identical
        to the cold run that filled the store.  Distinct programs sharing
        one store must use distinct ``name``s: the store cannot see
        through the program callable, so the name *is* the version label.
        """
        campaign = self._campaign(store)
        stats = PhaseStats(workers=resolve_workers(self.config.workers))
        tracking_memory = False
        if self.config.measure_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            tracking_memory = True
        # one detection-wide collector: the nested per-batch collectors in
        # the recording pool propagate their events here on exit, and
        # store-quarantine events recorded between batches land directly,
        # so the final assignment below sees each survived fault exactly
        # once, in order
        collector = collecting_degradations()
        degradation_log = collector.__enter__()
        started = time.perf_counter()
        try:
            result, inputs_fp, rep_indices = self._plan(
                inputs, stats, campaign, reuse_report, started)
            if result.report is None:
                rep_reports, result.adaptive = self._phase3(
                    [inputs[index] for index in rep_indices], random_input,
                    stats, campaign)
                result.report, result.per_representative = self._finish(
                    rep_reports, result.adaptive, stats, campaign, inputs_fp,
                    started)
            return result
        finally:
            collector.__exit__(None, None, None)
            stats.degradations[:] = degradation_log.events
            if tracking_memory:
                _current, peak = tracemalloc.get_traced_memory()
                stats.peak_ram_bytes = peak
                tracemalloc.stop()

    def _campaign(self, store):
        """Normalise ``detect``'s store argument into a Campaign (or None).

        Imported lazily so the store subsystem stays an optional layer on
        top of the core pipeline.
        """
        if store is None:
            return None
        from repro.store.campaign import Campaign
        from repro.store.store import TraceStore
        if not isinstance(store, TraceStore):
            store = TraceStore(store)
        return Campaign(store, self.name, self.config, self.device_config)
