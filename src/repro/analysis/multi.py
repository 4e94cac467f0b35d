"""Multi-detector orchestration for ``OwlConfig(analyzer=...)``.

``analyzer="both"`` must not double the analysis cost: the evidence is
aligned once, the feature fold runs once, and the recorded deferred sink
is replayed under each detector's batched test
(:meth:`~repro.core.leakage._TestSink.finish` with an explicit analyzer).
Replaying guarantees the KS component of a ``both`` run is *identical* —
same requests, same ``ks_test_batch`` call, same emission order — to a
plain ``analyzer="ks"`` run over the same evidence, which the test suite
asserts byte-for-byte.  When a detector cannot defer (the KS detector
under the Welch ablation, which has no batched test), each detector
traverses the pairs itself instead.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from repro import profiling
from repro.analysis.mi.analyzer import MIAnalyzer
from repro.core.evidence import Evidence, align_evidence
from repro.core.leakage import LeakageAnalyzer, LeakageConfig, _TestSink
from repro.core.report import LeakageReport
from repro.errors import ConfigError

#: Detector registry: analyzer mode -> LeakageAnalyzer subclass.
ANALYZERS = {
    "ks": LeakageAnalyzer,
    "mi": MIAnalyzer,
}


def analysis_modes(analyzer: str) -> Tuple[str, ...]:
    """The detector modes an ``OwlConfig.analyzer`` value expands to."""
    if analyzer == "both":
        return ("ks", "mi")
    return (analyzer,)


def make_analyzer(mode: str, config: LeakageConfig) -> LeakageAnalyzer:
    """Construct one detector; ``mode`` is "ks" or "mi" (not "both")."""
    try:
        analyzer_class = ANALYZERS[mode]
    except KeyError:
        raise ConfigError(
            f"unknown analyzer {mode!r}; valid choices: 'ks', 'mi', 'both'")
    return analyzer_class(config)


def run_analyzers(analyzers: Sequence[LeakageAnalyzer], fixed: Evidence,
                  random: Evidence,
                  program_name: str = "program") -> List[LeakageReport]:
    """Run several detectors over ONE aligned evidence pass.

    Returns one report per analyzer, in order.  All analyzers must share
    one :class:`~repro.core.leakage.LeakageConfig` (the pipeline builds
    them that way), so the fold — which depends only on the config — is
    detector-independent and can be recorded once.
    """
    if len(analyzers) > 1 and all(a._defer() for a in analyzers):
        reports, _results = deferred_analysis(analyzers, fixed, random,
                                              program_name)
        return reports
    prof = profiling.profiler()
    started = time.perf_counter()
    pairs = align_evidence(fixed, random)
    if prof is not None:
        prof.add("analysis_align", time.perf_counter() - started)
    metadata = dict(program_name=program_name,
                    num_fixed_runs=fixed.num_runs,
                    num_random_runs=random.num_runs)
    return [analyzer.analyze_pairs(pairs, **metadata)
            for analyzer in analyzers]


def deferred_analysis(
        analyzers: Sequence[LeakageAnalyzer], fixed: Evidence,
        random: Evidence, program_name: str = "program"
) -> Tuple[List[LeakageReport], List[List]]:
    """One aligned/folded pass, plus every analyzer's raw batch results.

    Same single-traversal machinery as the deferred branch of
    :func:`run_analyzers`, but the batched test runs exactly once per
    analyzer and its full result list — every submitted per-location
    test, not just the flagged subset the report keeps — is returned
    alongside the reports.  The adaptive scheduler's group-sequential
    decisions consume those raw p-values (``raw_results[i][j]`` is
    analyzer *i*'s :class:`~repro.core.kstest.TestResult` — or ``None``
    for a degenerate feature — for submitted test *j*).

    Every analyzer must be able to defer (``_defer()`` true); the
    pipeline guarantees that by rejecting ``adaptive=True`` configs
    whose analyzers cannot.
    """
    for analyzer in analyzers:
        if not analyzer._defer():
            raise ConfigError(
                f"analyzer {analyzer.mode!r} cannot defer its tests "
                f"(the non-ks test ablation); the shared-fold deferred "
                f"pass requires batched testing")
    prof = profiling.profiler()
    started = time.perf_counter()
    pairs = align_evidence(fixed, random)
    if prof is not None:
        prof.add("analysis_align", time.perf_counter() - started)
    metadata = dict(program_name=program_name,
                    num_fixed_runs=fixed.num_runs,
                    num_random_runs=random.num_runs)
    lead = analyzers[0]
    sink = _TestSink(lead, defer=True)
    started = time.perf_counter()
    lead._fold_pairs(pairs, sink)
    if prof is not None:
        prof.add("analysis_fold", time.perf_counter() - started)
    reports = []
    raw_results = []
    for analyzer in analyzers:
        report = analyzer.new_report(**metadata)
        started = time.perf_counter()
        results = analyzer._batch_test(sink._requests)
        report.extend(sink.finish(analyzer, results=results))
        if prof is not None:
            prof.add(analyzer.batch_phase, time.perf_counter() - started)
        reports.append(report)
        raw_results.append(results)
    return reports, raw_results
