"""Leakage tests (§VII-C): kernel, device control-flow, device data-flow.

Given the fixed-input and random-input evidence, the analyzer decides per
feature whether the two sides follow the same distribution:

* **kernel leakage** — per aligned invocation slot, the per-run presence
  samples are compared (unaligned slots, present on one side only, are
  immediate kernel leaks); an input-independent nondeterministic launch is
  present in similar fractions of both sides and passes;
* **device control-flow leakage** — per basic block, the flattened
  control-flow transition matrix (eq. 8) of the fixed evidence is tested
  against the random side's; blocks executed on only one side are direct
  control-flow leaks;
* **device data-flow leakage** — per (block visit, memory instruction), the
  address-offset histograms ``H_addr`` are tested; instruction slots that
  exist on only one side are *reclassified as control flow* per the paper
  (the difference stems from differing visit counts, which the transition
  matrices already capture) and skipped here.

The analysis walks the aligned evidence **once**: the traversal folds every
feature's histogram pair and hands it to a :class:`_TestSink`, which defers
it into a single batched test call covering the whole A-DCFG — one NumPy
pass over every kernel/control-flow/data-flow feature.  Only the Welch
ablation, which has no batched form, tests each feature on the spot; the
leak emission order is the same either way.  The scalar
:func:`~repro.core.kstest.ks_test` and
:func:`~repro.core.kstest.ks_test_weighted` stay public as the batched
pass's oracles.

The statistical test itself is pluggable: :class:`LeakageAnalyzer` is the
KS detector, and subclasses (the mutual-information detector in
:mod:`repro.analysis.mi`) swap the per-feature test and the leak's
statistical fields via the detector hooks while reusing the traversal
unchanged.  A deferred sink is *replayable* — ``finish(analyzer)`` can run
several detectors over one recorded fold, which is how
``OwlConfig(analyzer="both")`` shares a single evidence pass.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import profiling
from repro.adcfg.graph import ADCFG
from repro.core.evidence import AlignedSlotPair, Evidence, align_evidence
from repro.core.kstest import (
    DEFAULT_CONFIDENCE,
    DistributionTestError,
    TestResult,
    ks_test_batch,
    welch_t_test,
    welch_t_test_weighted,
)
from repro.core.quantify import leakage_bits_per_observation
from repro.core.report import Leak, LeakType, LeakageReport
from repro.core.transition import transition_matrix
from repro.errors import ConfigError


@dataclass(frozen=True)
class LeakageConfig:
    """Tuning knobs for the leakage tests.

    ``test`` selects the distribution test: ``"ks"`` (the paper's choice) or
    ``"welch"`` (the prior-work baseline, exposed for the ablation bench).

    ``offset_granularity`` models the attacker's spatial resolution: data-flow
    offsets are floored to multiples of it before testing.  1 byte is the
    paper's noise-free NoC-level attacker; 64 models a cache-line attacker;
    coarser values weaken the attacker until in-table lookups vanish.

    ``quantify`` additionally estimates each leak's strength in bits per
    observation (Jensen–Shannon mutual information of the two feature
    histograms, see :mod:`repro.core.quantify`).
    """

    confidence: float = DEFAULT_CONFIDENCE
    sample_size_cap: Optional[int] = None
    test: str = "ks"
    offset_granularity: int = 1
    quantify: bool = False
    #: "pooled" (the paper's histograms) or "per_run" (strict mode: one
    #: feature sample per run — requires evidence built with
    #: ``keep_per_run=True``; immune to correlated-lane over-dispersion)
    sampling: str = "pooled"
    #: entropy bias correction for the MI detector
    #: (:mod:`repro.analysis.mi`): "miller_madow" (default), "jackknife",
    #: "shrinkage", or "none" (raw plug-in estimate)
    mi_bias_correction: str = "miller_madow"
    #: minimum bias-corrected MI (bits) for the MI detector to flag a
    #: feature on top of G-test significance; 0 disables the floor
    mi_min_bits: float = 0.0

    def __post_init__(self) -> None:
        if self.test not in ("ks", "welch"):
            raise ConfigError(
                f"unknown distribution test {self.test!r}; valid choices: 'ks', 'welch'")
        if self.offset_granularity < 1:
            raise ConfigError("offset_granularity must be >= 1 byte")
        if self.sampling not in ("pooled", "per_run"):
            raise ConfigError(
                f"unknown sampling mode {self.sampling!r}; valid choices: 'pooled', 'per_run'")
        if self.mi_bias_correction not in ("none", "miller_madow",
                                           "jackknife", "shrinkage"):
            raise ConfigError(
                f"unknown MI bias correction {self.mi_bias_correction!r}; "
                "valid choices: 'none', 'miller_madow', 'jackknife', "
                "'shrinkage'")
        if self.mi_min_bits < 0:
            raise ConfigError("mi_min_bits must be >= 0")


#: One submitted feature test: ``("plain", x, y)`` with raw sample lists,
#: or ``("weighted", hist_x, hist_y, order)`` with weighted histograms.
_Request = Tuple
#: Turns a group's test results (None where degenerate) into its leaks,
#: filling statistical fields via the given analyzer's hooks.
_Resolver = Callable[["LeakageAnalyzer", List[Optional[TestResult]]],
                     List[Leak]]


class _TestSink:
    """Single-traversal test dispatch for the leakage analysis.

    The traversal emits definite leaks directly and submits *groups* — a
    list of feature requests plus a resolver turning their results into
    leaks.  Deferred mode (every KS and MI analysis) accumulates every
    request across the whole traversal and evaluates them in one batched
    test call (:meth:`LeakageAnalyzer._batch_test`) before running the
    resolvers in traversal order; inline mode (the Welch ablation, which
    has no batched test) tests and resolves each group on the spot
    through :meth:`LeakageAnalyzer._plain_test` and
    :meth:`LeakageAnalyzer._categorical_test`.  The leak emission order
    is identical on both paths because groups resolve in submission
    order either way.

    A deferred sink records analyzer-*independent* emissions (the
    statistical fields come from the analyzer hooks at finish time), so
    ``finish(analyzer)`` may be called once per detector to replay the
    same fold under several tests.
    """

    def __init__(self, analyzer: "LeakageAnalyzer", defer: bool) -> None:
        self._analyzer = analyzer
        self._defer = defer
        self._requests: List[_Request] = []
        # ordered emissions: ("definite", leak_fields) for test-free leaks,
        # or ("group", start, count, resolve) for a submitted test group
        self._emissions: List[Tuple] = []
        self._leaks: List[Leak] = []

    def definite(self, **fields) -> None:
        """Emit a definite leak (no test needed).

        ``fields`` carry the location (leak type, kernel, block, instr) and
        detail; the statistical fields are filled per analyzer via
        :meth:`LeakageAnalyzer._definite_fields`.
        """
        if self._defer:
            self._emissions.append(("definite", fields))
        else:
            self._leaks.append(
                Leak(**fields, **self._analyzer._definite_fields()))

    def plain(self, x: List[float], y: List[float],
              resolve: Callable[["LeakageAnalyzer", Optional[TestResult]],
                                List[Leak]]) -> None:
        """Submit one plain-sample test."""
        self.group([("plain", x, y)],
                   lambda analyzer, results: resolve(analyzer, results[0]))

    def weighted(self, hist_x: Dict, hist_y: Dict,
                 resolve: Callable[["LeakageAnalyzer", Optional[TestResult]],
                                   List[Leak]],
                 order: Optional[Dict] = None) -> None:
        """Submit one weighted-histogram test."""
        self.group([("weighted", hist_x, hist_y, order)],
                   lambda analyzer, results: resolve(analyzer, results[0]))

    def group(self, requests: List[_Request], resolve: _Resolver) -> None:
        """Submit a group of tests whose results resolve together."""
        if self._defer:
            start = len(self._requests)
            for request in requests:
                if request[0] == "plain":
                    # a weighted ECDF over a sample's value counts is the
                    # sample's ECDF: statistic and sizes are unchanged
                    self._requests.append(
                        (Counter(request[1]), Counter(request[2])))
                else:
                    self._requests.append(
                        (request[1], request[2], request[3]))
            self._emissions.append(("group", start, len(requests), resolve))
        else:
            self._leaks.extend(
                resolve(self._analyzer, [self._run(r) for r in requests]))

    def _run(self, request: _Request) -> Optional[TestResult]:
        if request[0] == "plain":
            try:
                return self._analyzer._plain_test(request[1], request[2])
            except DistributionTestError:
                return None
        return self._analyzer._categorical_test(request[1], request[2],
                                                order=request[3])

    def finish(self, analyzer: Optional["LeakageAnalyzer"] = None,
               results: Optional[List[Optional[TestResult]]] = None
               ) -> List[Leak]:
        """Evaluate the recorded requests and return all leaks in order.

        Deferred sinks are replayable: each call runs *analyzer*'s batched
        test over the whole request list and resolves the emissions with
        its field hooks, so several detectors can share one traversal
        (inline sinks are single-analyzer; passing a different one there
        is a programming error).  Callers that already ran the batched
        test — the adaptive scheduler needs the raw per-location results
        for its stopping decision — pass them via *results* so the batch
        isn't computed twice.
        """
        if analyzer is None:
            analyzer = self._analyzer
        if not self._defer:
            assert analyzer is self._analyzer, \
                "inline sinks already tested under their own analyzer"
            assert results is None, "inline sinks carry no batch results"
            return self._leaks
        if results is None:
            results = analyzer._batch_test(self._requests)
        elif len(results) != len(self._requests):
            raise ValueError(
                f"batch results for {len(results)} requests passed to a "
                f"sink holding {len(self._requests)}")
        leaks: List[Leak] = []
        for emission in self._emissions:
            if emission[0] == "definite":
                leaks.append(Leak(**emission[1],
                                  **analyzer._definite_fields()))
            else:
                _kind, start, count, resolve = emission
                leaks.extend(resolve(analyzer, results[start:start + count]))
        return leaks


class LeakageAnalyzer:
    """Runs the three leakage tests over a fixed/random evidence pair.

    This class is the KS detector; the traversal is detector-agnostic and
    subclasses swap the statistical test by overriding the hooks ``mode``,
    ``batch_phase``, :meth:`_defer`, :meth:`_batch_test`,
    :meth:`_definite_fields` and :meth:`_flagged_fields` — see
    :class:`repro.analysis.mi.MIAnalyzer`.  An inline analysis
    (:meth:`_defer` false: the Welch ablation) tests each feature through
    :meth:`_plain_test` and :meth:`_categorical_test` instead.
    """

    #: analyzer name recorded in report metadata
    mode = "ks"
    #: profiling sub-phase charged for the batched test pass
    batch_phase = "analysis_ks"

    def __init__(self, config: Optional[LeakageConfig] = None) -> None:
        self.config = config or LeakageConfig()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def analyze(self, fixed: Evidence, random: Evidence,
                program_name: str = "program") -> LeakageReport:
        prof = profiling.profiler()
        started = time.perf_counter()
        pairs = align_evidence(fixed, random)
        if prof is not None:
            prof.add("analysis_align", time.perf_counter() - started)
        return self.analyze_pairs(pairs, program_name=program_name,
                                  num_fixed_runs=fixed.num_runs,
                                  num_random_runs=random.num_runs)

    def analyze_pairs(self, pairs: List[AlignedSlotPair], *,
                      program_name: str = "program",
                      num_fixed_runs: int = 0,
                      num_random_runs: int = 0) -> LeakageReport:
        """Run the tests over pre-aligned slot pairs.

        Split out from :meth:`analyze` so ``analyzer="both"`` can align
        once and hand the same pairs to each detector.
        """
        prof = profiling.profiler()
        report = self.new_report(program_name, num_fixed_runs,
                                 num_random_runs)
        sink = _TestSink(self, self._defer())
        started = time.perf_counter()
        self._fold_pairs(pairs, sink)
        if prof is not None:
            prof.add("analysis_fold", time.perf_counter() - started)
        started = time.perf_counter()
        report.extend(sink.finish())
        if prof is not None:
            prof.add(self.batch_phase, time.perf_counter() - started)
        return report

    def new_report(self, program_name: str, num_fixed_runs: int,
                   num_random_runs: int) -> LeakageReport:
        """An empty report carrying this detector's metadata."""
        return LeakageReport(program_name=program_name,
                             num_fixed_runs=num_fixed_runs,
                             num_random_runs=num_random_runs,
                             confidence=self.config.confidence,
                             analyzer=self.mode)

    def _fold_pairs(self, pairs: List[AlignedSlotPair],
                    sink: _TestSink) -> None:
        """The single evidence traversal feeding every feature to *sink*."""
        for pair in pairs:
            self._kernel_test(pair, sink)
            if pair.aligned:
                self._device_tests(pair, sink)

    def _defer(self) -> bool:
        """Whether this detector's tests batch into one vectorized pass
        (every test but the Welch ablation)."""
        return self.config.test == "ks"

    # ------------------------------------------------------------------
    # kernel leakage
    # ------------------------------------------------------------------

    def _kernel_test(self, pair: AlignedSlotPair, sink: _TestSink) -> None:
        if not pair.aligned:
            slot = pair.fixed if pair.fixed is not None else pair.random
            assert slot is not None
            side = "fixed" if pair.fixed is not None else "random"
            sink.definite(
                leak_type=LeakType.KERNEL, kernel_identity=slot.identity,
                kernel_name=slot.kernel_name,
                detail=f"invocation only under {side} inputs")
            return
        fixed_slot, random_slot = pair.fixed, pair.random
        assert fixed_slot is not None and random_slot is not None
        samples_fixed = [1.0 if p else 0.0 for p in fixed_slot.per_run_present]
        samples_random = [1.0 if p else 0.0 for p in random_slot.per_run_present]
        if samples_fixed == samples_random:
            return

        def resolve(analyzer: "LeakageAnalyzer",
                    result: Optional[TestResult]) -> List[Leak]:
            if result is None or not result.rejected:
                return []
            return [Leak(
                leak_type=LeakType.KERNEL,
                kernel_identity=fixed_slot.identity,
                kernel_name=fixed_slot.kernel_name,
                detail=(f"invocation in {fixed_slot.total_count}/"
                        f"{len(fixed_slot.per_run_present)} fixed vs "
                        f"{random_slot.total_count}/"
                        f"{len(random_slot.per_run_present)} random runs"),
                **analyzer._flagged_fields(
                    result, fixed_slot.presence_histogram(),
                    random_slot.presence_histogram()))]

        sink.plain(samples_fixed, samples_random, resolve)

    # ------------------------------------------------------------------
    # device leakage
    # ------------------------------------------------------------------

    def _device_tests(self, pair: AlignedSlotPair, sink: _TestSink) -> None:
        assert pair.fixed is not None and pair.random is not None
        if self.config.sampling == "per_run":
            if (pair.fixed.per_run_graphs is None
                    or pair.random.per_run_graphs is None):
                raise ConfigError(
                    "per_run sampling requires evidence built with "
                    "keep_per_run=True")
            self._per_run_device_tests(pair, sink)
            return
        fixed_graph = pair.fixed.adcfg
        random_graph = pair.random.adcfg
        self._control_flow_tests(pair.identity, fixed_graph, random_graph,
                                 sink)
        self._data_flow_tests(pair.identity, fixed_graph, random_graph, sink)

    def _control_flow_tests(self, identity: str, fixed_graph: ADCFG,
                            random_graph: ADCFG, sink: _TestSink) -> None:
        labels = sorted(set(fixed_graph.nodes) | set(random_graph.nodes))
        for label in labels:
            in_fixed = label in fixed_graph.nodes
            in_random = label in random_graph.nodes
            if in_fixed != in_random:
                side = "fixed" if in_fixed else "random"
                sink.definite(
                    leak_type=LeakType.DEVICE_CONTROL_FLOW,
                    kernel_identity=identity,
                    kernel_name=fixed_graph.kernel_name,
                    block=label,
                    detail=f"basic block executed only under {side} inputs")
                continue
            hist_fixed = transition_matrix(fixed_graph, label).histogram()
            hist_random = transition_matrix(random_graph, label).histogram()
            if hist_fixed == hist_random:
                continue

            def resolve(analyzer: "LeakageAnalyzer",
                        result: Optional[TestResult], label=label,
                        hist_fixed=hist_fixed,
                        hist_random=hist_random) -> List[Leak]:
                if result is None or not result.rejected:
                    return []
                return [Leak(
                    leak_type=LeakType.DEVICE_CONTROL_FLOW,
                    kernel_identity=identity,
                    kernel_name=fixed_graph.kernel_name,
                    block=label,
                    detail="control-flow transition matrix deviates",
                    **analyzer._flagged_fields(result, hist_fixed,
                                               hist_random))]

            sink.weighted(hist_fixed, hist_random, resolve)

    def _data_flow_tests(self, identity: str, fixed_graph: ADCFG,
                         random_graph: ADCFG, sink: _TestSink) -> None:
        common_labels = sorted(set(fixed_graph.nodes) & set(random_graph.nodes))
        for label in common_labels:
            fixed_node = fixed_graph.nodes[label]
            random_node = random_graph.nodes[label]
            fixed_slots = {(v, i): r for v, i, r in fixed_node.iter_instructions()}
            random_slots = {(v, i): r
                            for v, i, r in random_node.iter_instructions()}
            # slots on one side only are control-flow differences (already
            # visible to the transition-matrix test): skip them here
            tests: List[Tuple[Tuple[int, int], Dict, Dict]] = []
            for key in sorted(set(fixed_slots) & set(random_slots)):
                record_fixed = self._coarsen(fixed_slots[key].counts)
                record_random = self._coarsen(random_slots[key].counts)
                if record_fixed == record_random:
                    continue
                tests.append((key, record_fixed, record_random))
            if not tests:
                continue

            def resolve(analyzer: "LeakageAnalyzer",
                        results: List[Optional[TestResult]], label=label,
                        tests=tests) -> List[Leak]:
                # group results per instruction across visits; report the
                # most significant failing visit per instruction
                worst: Dict[int, Tuple[TestResult, int]] = {}
                fields_of: Dict[int, Dict[str, float]] = {}
                for (key, record_fixed, record_random), result in zip(tests,
                                                                      results):
                    if result is None or not result.rejected:
                        continue
                    visit, instr = key
                    current = worst.get(instr)
                    if current is None or result.p_value < current[0].p_value:
                        worst[instr] = (result, visit)
                        fields_of[instr] = analyzer._flagged_fields(
                            result, record_fixed, record_random)
                return [Leak(
                    leak_type=LeakType.DEVICE_DATA_FLOW,
                    kernel_identity=identity,
                    kernel_name=fixed_graph.kernel_name,
                    block=label, instr=instr,
                    detail=(f"address histogram deviates "
                            f"(e.g. visit {worst[instr][1]})"),
                    **fields_of[instr])
                    for instr in sorted(worst)]

            sink.group([("weighted", record_fixed, record_random, None)
                        for _key, record_fixed, record_random in tests],
                       resolve)

    # ------------------------------------------------------------------
    # strict per-run sampling mode
    # ------------------------------------------------------------------

    def _per_run_device_tests(self, pair: AlignedSlotPair,
                              sink: _TestSink) -> None:
        """Device tests where each run contributes one sample per feature.

        For every feature coordinate (a transition type for control flow, a
        normalised address for data flow) the per-run counts form the two
        KS samples (n = m = runs).  Correlated lanes inflate a run's count
        but not the *number of samples*, so the test stays calibrated under
        run-level randomness — the trade-off is O(runs) retained graphs.
        """
        assert pair.fixed is not None and pair.random is not None
        identity = pair.identity
        fixed_graphs = [g for g in pair.fixed.per_run_graphs or []
                        if g is not None]
        random_graphs = [g for g in pair.random.per_run_graphs or []
                         if g is not None]
        if not fixed_graphs or not random_graphs:
            return
        kernel_name = fixed_graphs[0].kernel_name

        fixed_labels = set().union(*(set(g.nodes) for g in fixed_graphs))
        random_labels = set().union(*(set(g.nodes) for g in random_graphs))
        for label in sorted(fixed_labels | random_labels):
            in_fixed = label in fixed_labels
            in_random = label in random_labels
            if in_fixed != in_random:
                side = "fixed" if in_fixed else "random"
                sink.definite(
                    leak_type=LeakType.DEVICE_CONTROL_FLOW,
                    kernel_identity=identity, kernel_name=kernel_name,
                    block=label,
                    detail=f"basic block executed only under {side} inputs")
                continue
            self._per_run_cf_test(identity, kernel_name, label,
                                  fixed_graphs, random_graphs, sink)
            self._per_run_df_test(identity, kernel_name, label,
                                  fixed_graphs, random_graphs, sink)

    @staticmethod
    def _per_run_cf_samples(graphs, label):
        histograms = []
        for graph in graphs:
            if label in graph.nodes:
                histograms.append(transition_matrix(graph, label).histogram())
            else:
                histograms.append({})
        return histograms

    def _per_run_cf_test(self, identity, kernel_name, label,
                         fixed_graphs, random_graphs,
                         sink: _TestSink) -> None:
        fixed_hists = self._per_run_cf_samples(fixed_graphs, label)
        random_hists = self._per_run_cf_samples(random_graphs, label)
        keys = set()
        for hist in fixed_hists + random_hists:
            keys.update(hist)
        tests: List[Tuple[List[float], List[float]]] = []
        for key in sorted(keys):
            x = [float(hist.get(key, 0)) for hist in fixed_hists]
            y = [float(hist.get(key, 0)) for hist in random_hists]
            if x == y:
                continue
            tests.append((x, y))
        if not tests:
            return

        def resolve(analyzer: "LeakageAnalyzer",
                    results: List[Optional[TestResult]]) -> List[Leak]:
            worst: Optional[TestResult] = None
            for result in results:
                if result is None:
                    continue
                if result.rejected and (worst is None
                                        or result.p_value < worst.p_value):
                    worst = result
            if worst is None:
                return []
            return [Leak(
                leak_type=LeakType.DEVICE_CONTROL_FLOW,
                kernel_identity=identity, kernel_name=kernel_name,
                block=label,
                detail="per-run transition counts deviate",
                **analyzer._flagged_fields(worst, _pool(fixed_hists),
                                           _pool(random_hists)))]

        sink.group([("plain", x, y) for x, y in tests], resolve)

    def _per_run_df_test(self, identity, kernel_name, label,
                         fixed_graphs, random_graphs,
                         sink: _TestSink) -> None:
        def slot_maps(graphs):
            per_run = []
            for graph in graphs:
                node = graph.nodes.get(label)
                slots = {}
                if node is not None:
                    for visit, instr, record in node.iter_instructions():
                        slots[(visit, instr)] = self._coarsen(record.counts)
                per_run.append(slots)
            return per_run

        fixed_runs = slot_maps(fixed_graphs)
        random_runs = slot_maps(random_graphs)
        common_slots = (set().union(*(set(r) for r in fixed_runs))
                        & set().union(*(set(r) for r in random_runs)))
        tests_per_slot: List[Tuple[Tuple[int, int], List[Tuple]]] = []
        for slot_key in sorted(common_slots):
            addresses = set()
            for run in fixed_runs + random_runs:
                addresses.update(run.get(slot_key, {}))
            slot_tests = []
            for address in sorted(addresses):
                x = [float(run.get(slot_key, {}).get(address, 0))
                     for run in fixed_runs]
                y = [float(run.get(slot_key, {}).get(address, 0))
                     for run in random_runs]
                if x == y:
                    continue
                slot_tests.append((x, y))
            if slot_tests:
                tests_per_slot.append((slot_key, slot_tests))
        if not tests_per_slot:
            return

        def resolve(analyzer: "LeakageAnalyzer",
                    results: List[Optional[TestResult]]) -> List[Leak]:
            worst: Dict[int, Tuple[TestResult, int]] = {}
            fields_of: Dict[int, Dict[str, float]] = {}
            position = 0
            for slot_key, slot_tests in tests_per_slot:
                slot_worst: Optional[TestResult] = None
                for _ in slot_tests:
                    result = results[position]
                    position += 1
                    if result is None:
                        continue
                    if result.rejected and (
                            slot_worst is None
                            or result.p_value < slot_worst.p_value):
                        slot_worst = result
                if slot_worst is None:
                    continue
                visit, instr = slot_key
                current = worst.get(instr)
                if current is None or slot_worst.p_value < current[0].p_value:
                    worst[instr] = (slot_worst, visit)
                    fields_of[instr] = analyzer._flagged_fields(
                        slot_worst,
                        _pool([run.get(slot_key, {}) for run in fixed_runs]),
                        _pool([run.get(slot_key, {}) for run in random_runs]))
            return [Leak(
                leak_type=LeakType.DEVICE_DATA_FLOW, kernel_identity=identity,
                kernel_name=kernel_name, block=label, instr=instr,
                detail=f"per-run address counts deviate (e.g. visit {visit})",
                **fields_of[instr])
                for instr, (result, visit) in sorted(worst.items())]

        sink.group([("plain", x, y)
                    for _slot_key, slot_tests in tests_per_slot
                    for x, y in slot_tests], resolve)

    # ------------------------------------------------------------------
    # attacker model and quantification helpers
    # ------------------------------------------------------------------

    def _coarsen(self, counts: Dict) -> Dict:
        """Floor data-flow offsets to the attacker's spatial granularity."""
        granularity = self.config.offset_granularity
        if granularity == 1:
            return counts
        coarsened: Dict = {}
        for (alloc_label, offset), count in counts.items():
            key = (alloc_label, (offset // granularity) * granularity)
            coarsened[key] = coarsened.get(key, 0) + count
        return coarsened

    def _bits(self, hist_fixed: Dict, hist_random: Dict) -> float:
        """JSD bits for a flagged feature (0 unless quantify is enabled)."""
        if not self.config.quantify:
            return 0.0
        return leakage_bits_per_observation(hist_fixed, hist_random)

    # ------------------------------------------------------------------
    # detector hooks (overridden by repro.analysis.mi.MIAnalyzer)
    # ------------------------------------------------------------------

    def _definite_fields(self) -> Dict[str, float]:
        """Statistical leak fields for a definite (no-test) finding."""
        return {"p_value": 0.0, "statistic": 1.0,
                "bits": 1.0 if self.config.quantify else 0.0}

    def _flagged_fields(self, result: TestResult, hist_fixed: Dict,
                        hist_random: Dict) -> Dict[str, float]:
        """Statistical leak fields for a feature flagged by *result*."""
        return {"p_value": result.p_value, "statistic": result.statistic,
                "bits": self._bits(hist_fixed, hist_random)}

    def _batch_test(self, requests: List[_Request]) -> list:
        """One vectorized pass over all deferred requests."""
        return ks_test_batch(requests, confidence=self.config.confidence,
                             sample_size_cap=self.config.sample_size_cap)

    # ------------------------------------------------------------------
    # inline test dispatch (the Welch ablation)
    # ------------------------------------------------------------------

    def _plain_test(self, x: List[float], y: List[float]) -> TestResult:
        return welch_t_test(x, y, confidence=self.config.confidence)

    def _categorical_test(self, hist_x: Dict, hist_y: Dict,
                          order: Optional[Dict] = None
                          ) -> Optional[TestResult]:
        try:
            return welch_t_test_weighted(
                _numeric_keys(hist_x), _numeric_keys(hist_y),
                confidence=self.config.confidence)
        except DistributionTestError:
            return None


def _pool(histograms) -> Dict:
    """Sum a list of histograms (for quantification in per-run mode)."""
    pooled: Dict = {}
    for hist in histograms:
        for key, count in hist.items():
            pooled[key] = pooled.get(key, 0) + count
    return pooled


def _numeric_keys(hist: Dict) -> Dict[float, int]:
    """Project arbitrary histogram keys to numbers for Welch's t-test.

    Tuple keys (alloc label, offset) keep only the offset; categorical
    transition keys fall back to a stable enumeration — the information
    loss is the point of the ablation.
    """
    out: Dict[float, int] = {}
    enumeration: Dict[object, int] = {}
    for key, count in hist.items():
        if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], int):
            value = float(key[1])
        elif isinstance(key, (int, float)):
            value = float(key)
        else:
            value = float(enumeration.setdefault(key, len(enumeration)))
        out[value] = out.get(value, 0) + count
    return out
