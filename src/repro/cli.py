"""``owl``: run the Owl pipeline on a bundled workload from the shell.

Two invocation styles are supported.  The original flat form runs one
detection and exits::

    owl-detect aes --fixed-runs 40 --random-runs 40
    owl-detect nvjpeg-encode --confidence 0.99
    owl-detect --list

The subcommand form adds persistent campaigns on top of the same
options::

    owl run aes --store ./owl-store          # cached + resumable
    owl resume --store ./owl-store           # finish interrupted campaigns
    owl diff baseline.json candidate.json    # cross-version regression diff
    owl ls --store ./owl-store               # inspect stored artifacts
    owl gc --store ./owl-store               # drop unreferenced blobs
    owl verify --store ./owl-store           # integrity check (migrates
                                             # a pre-sharding store once)

as well as the multi-tenant detection service (every service verb takes
one ``--connect URL`` — ``unix:///path`` or ``http://host:port``; both
carry the service's HTTP/JSON protocol)::

    owl serve --store ./owl-store --workers 4    # scheduler + worker fleet
    owl serve --store ./owl-store --connect http://0.0.0.0:8750 \
        --token secret=alice --quota alice=max_inflight:4
    owl submit aes --connect unix://./owl-store/service/owl.sock --wait
    owl status --connect http://127.0.0.1:8750
    owl results c0001 --connect http://127.0.0.1:8750 --watch
    owl worker --queue /mnt/shared/service --store /mnt/shared/store

Exit codes are uniform across the service verbs: 0 success, 1 campaign
failure (or leaks found, or results not ready), 2 configuration/usage
errors, 3 the service is unreachable or rejected the credentials/quota.

``owl run WORKLOAD`` without ``--store`` behaves exactly like the flat
form, and the flat form keeps working unchanged — existing scripts never
see the subcommands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import profiling
from repro.core import Owl, OwlConfig

#: First CLI token that selects the subcommand form instead of the flat one.
SUBCOMMANDS = ("run", "resume", "diff", "ls", "gc", "verify",
               "serve", "submit", "status", "results", "worker")

#: Uniform service-verb exit codes (see the module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_UNAVAILABLE = 3


def _workloads() -> Dict[str, Tuple[Callable, Callable, Callable]]:
    """name → (program, fixed-inputs factory, random-input fn).

    Canonical table lives in :mod:`repro.apps.registry` (shared with the
    detection service); this alias keeps the CLI's historical import site.
    """
    from repro.apps.registry import workloads
    return workloads()


def _add_campaign_options(parser: argparse.ArgumentParser) -> None:
    """The analysis options of one campaign, shared by the flat form,
    ``owl run`` and ``owl submit`` (see :func:`_campaign_fields`)."""
    parser.add_argument("--fixed-runs", type=int, default=40,
                        help="fixed-input executions (paper: 100)")
    parser.add_argument("--random-runs", type=int, default=40,
                        help="random-input executions (paper: 100)")
    parser.add_argument("--confidence", type=float, default=0.95,
                        help="KS confidence level (paper: 0.95)")
    parser.add_argument("--test", choices=("ks", "welch"), default="ks",
                        help="distribution test to apply")
    parser.add_argument("--analyzer", choices=("ks", "mi", "both"),
                        default="ks",
                        help="leakage detector: the differential KS test, "
                             "MicroWalk-style mutual information (bits "
                             "leaked per location), or both over one "
                             "shared evidence pass with a KS-vs-MI "
                             "cross-validation section")
    parser.add_argument("--mi-bias",
                        choices=("none", "miller_madow", "jackknife",
                                 "shrinkage"),
                        default="miller_madow",
                        help="entropy bias correction for the MI detector")
    parser.add_argument("--mi-min-bits", type=float, default=0.0,
                        metavar="BITS",
                        help="minimum bias-corrected MI (bits) the MI "
                             "detector requires before flagging a feature")
    parser.add_argument("--adaptive", action="store_true",
                        help="group-sequential replica scheduling: record "
                             "replicas in growing rounds, test after each "
                             "under an O'Brien-Fleming-style alpha-spending "
                             "rule, and stop early once every location is "
                             "confidently flagged or clean (the run budgets "
                             "become caps; the flagged leak set matches the "
                             "full-budget run)")
    parser.add_argument("--adaptive-rounds", metavar="N|B1,B2,...",
                        default=None,
                        help="adaptive look schedule: an int (number of "
                             "geometrically spaced looks) or explicit "
                             "comma-separated replica boundaries, e.g. "
                             "'16,32,64' (default: double from 16 to the "
                             "budget)")
    parser.add_argument("--adaptive-alpha-spend", type=float, default=0.5,
                        metavar="RHO",
                        help="alpha-spending exponent: interim looks test "
                             "at z(1-a/2)/t**RHO; larger RHO spends less "
                             "alpha early (default: 0.5)")
    parser.add_argument("--seed", type=int, default=2024,
                        help="seed for the random-input generator")
    parser.add_argument("--all-representatives", action="store_true",
                        help="analyze every input class, not just the first")
    parser.add_argument("--granularity", type=int, default=1,
                        metavar="BYTES",
                        help="attacker spatial resolution in bytes "
                             "(1 = byte-level probe, 64 = cache line)")
    parser.add_argument("--quantify", action="store_true",
                        help="estimate each leak's strength in bits per "
                             "observation")


def _add_detect_options(parser: argparse.ArgumentParser) -> None:
    """The detection options shared by the flat form and ``owl run``:
    the campaign options plus those of a local run."""
    _add_campaign_options(parser)
    parser.add_argument("--workers", default="1", metavar="N|auto",
                        help="trace-recording worker processes: a positive "
                             "int or 'auto' for one per CPU core; any value "
                             "yields bit-identical reports (default: 1)")
    parser.add_argument("--no-cohort", action="store_true",
                        help="record with the reference recorder: one run "
                             "at a time on the per-warp execution loop, "
                             "instead of (the default) the warp-cohort "
                             "engine running all warps of a launch, and "
                             "the launches of a batch of runs, in one "
                             "NumPy pass; both produce identical reports")
    parser.add_argument("--replica-dedup", action="store_true",
                        help="record each group of equal inputs once and "
                             "reuse the trace for the whole group; only "
                             "sound for programs that are pure functions "
                             "of their input (no per-run randomness), so "
                             "it is opt-in")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    parser.add_argument("--save-report", metavar="PATH", default=None,
                        help="also write the JSON report to PATH "
                             "(parent directories are created)")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="write a per-phase timing breakdown (kernel "
                             "execute / event emit / A-DCFG fold / "
                             "analysis) as JSON to PATH; phases inside "
                             "worker processes are not captured, so use "
                             "--workers 1 for a complete breakdown")
    parser.add_argument("--inject", metavar="FAULTS", action="append",
                        default=None,
                        help="deterministically inject faults to exercise "
                             "the degradation ladder, e.g. "
                             "'worker_crash:chunk=1,cohort_violation' "
                             "(repeatable; see repro.resilience.faults). "
                             "Reports stay bit-identical to a fault-free "
                             "run")
    parser.add_argument("--degradation-log", metavar="PATH", default=None,
                        help="write every degradation event the run "
                             "survived (worker retries, cohort→warp, "
                             "quarantined blobs, ...) as JSON lines to "
                             "PATH")
    parser.add_argument("--retry", metavar="KEY=VALUE", action="append",
                        default=None,
                        help="override a worker RetryPolicy field, e.g. "
                             "--retry max_attempts=5 --retry "
                             "chunk_timeout=30 (see "
                             "repro.resilience.RetryPolicy)")


def build_parser() -> argparse.ArgumentParser:
    """The original flat ``owl-detect`` parser (kept for compatibility)."""
    parser = argparse.ArgumentParser(
        prog="owl-detect",
        description="Owl side-channel leakage detection on bundled workloads")
    parser.add_argument("workload", nargs="?",
                        help="workload name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available workloads and exit")
    _add_detect_options(parser)
    return parser


def build_subcommand_parser() -> argparse.ArgumentParser:
    """The ``owl`` subcommand parser (run / resume / diff / ls / gc)."""
    parser = argparse.ArgumentParser(
        prog="owl",
        description="Owl side-channel leakage detection with persistent "
                    "campaign stores")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run detection on a workload, optionally store-backed")
    run.add_argument("workload", help="workload name (see 'owl run --list')")
    run.add_argument("--list", action="store_true",
                     help="list available workloads and exit")
    run.add_argument("--store", metavar="DIR", default=None,
                     help="campaign store directory: cache traces, "
                          "save evidence segments, persist the report")
    run.add_argument("--no-reuse-report", action="store_true",
                     help="re-analyse even when the store already holds "
                          "this campaign's report (caches still apply)")
    _add_detect_options(run)

    resume = commands.add_parser(
        "resume", help="finish every interrupted campaign in a store")
    resume.add_argument("--store", metavar="DIR", required=True,
                        help="campaign store directory")
    resume.add_argument("--json", action="store_true",
                        help="emit each finished report as JSON")

    diff = commands.add_parser(
        "diff", help="cross-version leakage regression diff of two reports")
    diff.add_argument("baseline",
                      help="report JSON file, or a workload name with "
                           "--store (its most recent stored report)")
    diff.add_argument("candidate", help="same, for the patched version")
    diff.add_argument("--store", metavar="DIR", default=None,
                      help="resolve bare names against this store")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff as JSON")

    ls = commands.add_parser("ls", help="list a store's artifacts")
    ls.add_argument("--store", metavar="DIR", required=True,
                    help="campaign store directory")
    ls.add_argument("--kind", default=None,
                    choices=("trace", "evidence", "segment", "report",
                             "campaign"),
                    help="only list entries of this kind")

    gc = commands.add_parser(
        "gc", help="drop blobs no manifest entry references")
    gc.add_argument("--store", metavar="DIR", required=True,
                    help="campaign store directory")
    gc.add_argument("--dry-run", action="store_true",
                    help="only report what would be collected "
                         "(blob digests and sizes); delete nothing")

    verify = commands.add_parser(
        "verify", help="integrity-check a store's artifacts (first "
                       "migrating a pre-sharding flat store, once, and "
                       "deleting retired checkpoint entries)")
    verify.add_argument("--store", metavar="DIR", required=True,
                        help="campaign store directory")
    verify.add_argument("--repair", action="store_true",
                        help="quarantine damaged blobs (moved to "
                             "quarantine/, manifest entries dropped) so "
                             "the next campaign run re-records the loss")

    serve = commands.add_parser(
        "serve", help="run the multi-tenant detection service")
    serve.add_argument("--store", metavar="DIR", required=True,
                       help="shared campaign store the fleet writes to")
    serve.add_argument("--queue", metavar="DIR", default=None,
                       help="job queue directory "
                            "(default: <store>/service)")
    _add_service_connection(serve, for_serve=True)
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes to spawn (0 executes every "
                            "unit in the scheduler process; reports are "
                            "bit-identical at any count)")
    serve.add_argument("--unit-runs", type=int, default=25,
                       help="phase-3 runs per evidence work unit")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       help="silence window after which a worker's leased "
                            "units are re-queued")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="fleet dispatches per unit before it degrades "
                            "to in-scheduler execution")
    serve.add_argument("--restart-budget", type=int, default=8,
                       help="worker restarts before the fleet stops "
                            "replacing dead processes; once it has no "
                            "worker left the scheduler runs the units")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="schedule duplicate submissions separately "
                            "instead of attaching them to the in-flight "
                            "identical campaign")
    serve.add_argument("--die-after", type=int, default=None,
                       metavar="N",
                       help="fault injection: each initially spawned "
                            "worker exits right after claiming its Nth "
                            "unit (replacements run fault-free)")
    serve.add_argument("--recover", action="store_true",
                       help="resume campaigns persisted in the queue by a "
                            "previous scheduler (completed units are not "
                            "re-run)")
    serve.add_argument("--token", metavar="TOKEN=TENANT", action="append",
                       default=None,
                       help="accept this bearer token as this tenant "
                            "(repeatable); with any --token the service "
                            "rejects unauthenticated requests")
    serve.add_argument("--quota", metavar="TENANT=SPEC", action="append",
                       default=None,
                       help="admission quota for one tenant, e.g. "
                            "'alice=max_inflight:4,max_campaigns:2,"
                            "weight:2' (repeatable)")
    serve.add_argument("--default-quota", metavar="SPEC", default=None,
                       help="quota for tenants without an explicit "
                            "--quota entry")
    serve.add_argument("--admission-window", type=int, default=None,
                       metavar="N",
                       help="fleet-wide cap on queued units; backlogged "
                            "tenants interleave by weighted fair stride")
    serve.add_argument("--external-workers", action="store_true",
                       help="workers attach from other hosts (owl worker "
                            "against the shared queue/store); the "
                            "scheduler process executes nothing itself")

    submit = commands.add_parser(
        "submit", help="submit a workload to a running service")
    submit.add_argument("workload", help="workload name (see 'owl run "
                                         "--list')")
    _add_service_connection(submit)
    _add_campaign_options(submit)
    submit.add_argument("--wait", action="store_true",
                        help="block until the campaign completes and print "
                             "its report (exit 1 if it found leaks)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds")
    submit.add_argument("--json", action="store_true",
                        help="emit the report (with --wait) or the "
                             "campaign id as JSON")

    status = commands.add_parser(
        "status", help="show a running service's campaigns and fleet")
    status.add_argument("campaign", nargs="?", default=None,
                        help="only this campaign id")
    _add_service_connection(status)
    status.add_argument("--json", action="store_true")

    results = commands.add_parser(
        "results", help="fetch a completed campaign's report")
    results.add_argument("campaign", help="campaign id from 'owl submit'")
    _add_service_connection(results)
    results.add_argument("--json", action="store_true",
                         help="emit the raw report JSON")
    results.add_argument("--watch", action="store_true",
                         help="hold a stream open: print each stage "
                              "transition as it happens, then the final "
                              "report (reconnects automatically if the "
                              "stream drops)")

    worker = commands.add_parser(
        "worker", help="join a service fleet from this host")
    worker.add_argument("--queue", metavar="DIR", required=True,
                        help="the service's job queue directory (shared "
                             "filesystem for multi-host fleets)")
    worker.add_argument("--store", metavar="DIR", required=True,
                        help="the service's shared campaign store")
    worker.add_argument("--worker-id", default=None,
                        help="unique worker name "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--poll", type=float, default=0.05,
                        help="idle poll cadence in seconds")
    worker.add_argument("--lease-seconds", type=float, default=30.0,
                        help="the serving scheduler's lease window; held "
                             "claims heartbeat at a quarter of this")
    worker.add_argument("--die-after", type=int, default=None, metavar="N",
                        help="fault injection: exit after the Nth claim")

    return parser


def _add_service_connection(parser: argparse.ArgumentParser,
                            for_serve: bool = False) -> None:
    """``--connect URL`` (plus client credentials), shared by the verbs."""
    parser.add_argument("--connect", metavar="URL", default=None,
                        help="service endpoint as a URL: unix:///path or "
                             "http://host:port "
                             + ("(default: unix socket at "
                                "<queue>/owl.sock)" if for_serve
                                else "(must match what owl serve "
                                     "listens on)"))
    if not for_serve:
        parser.add_argument("--token", default=None,
                            help="bearer token for an authenticated "
                                 "service")
        parser.add_argument("--tenant", default=None,
                            help="tenant name to bill on an *open* "
                                 "service (authenticated services derive "
                                 "it from the token)")


def _resolve_workers(parser: argparse.ArgumentParser, value: str):
    if value == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        parser.error(f"--workers takes a positive int or 'auto', "
                     f"got {value!r}")
    return workers


def _parse_adaptive_rounds(parser: argparse.ArgumentParser, value):
    """``--adaptive-rounds``: an int or comma-separated boundaries."""
    if value is None:
        return None
    text = str(value).strip()
    try:
        if "," in text:
            return tuple(int(part) for part in text.split(",") if part.strip())
        return int(text)
    except ValueError:
        parser.error(f"--adaptive-rounds takes an int or comma-separated "
                     f"replica boundaries, got {value!r}")


def _campaign_fields(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> Dict:
    """The analysis fields of :func:`_add_campaign_options`' values — the
    one field map ``owl run`` and ``owl submit`` both configure from."""
    return dict(
        fixed_runs=args.fixed_runs, random_runs=args.random_runs,
        confidence=args.confidence, test=args.test, seed=args.seed,
        analyzer=args.analyzer, mi_bias_correction=args.mi_bias,
        mi_min_bits=args.mi_min_bits,
        adaptive=args.adaptive,
        adaptive_rounds=_parse_adaptive_rounds(parser, args.adaptive_rounds),
        adaptive_alpha_spend=args.adaptive_alpha_spend,
        offset_granularity=args.granularity, quantify=args.quantify,
        analyze_all_representatives=args.all_representatives)


def _config_from_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> OwlConfig:
    fault_plan = None
    if getattr(args, "inject", None):
        from repro.resilience import FaultError, FaultPlan
        try:
            fault_plan = FaultPlan.parse(args.inject)
        except FaultError as error:
            parser.error(f"--inject: {error}")
    retry = None
    if getattr(args, "retry", None):
        from repro.errors import ConfigError
        from repro.resilience import RetryPolicy
        from repro.resilience.faults import _parse_scalar
        fields = {}
        for item in args.retry:
            key, sep, raw = item.partition("=")
            if not sep:
                parser.error(f"--retry: {item!r} is not key=value")
            fields[key.strip()] = _parse_scalar(raw.strip())
        try:
            retry = RetryPolicy(**fields)
        except (ConfigError, TypeError) as error:
            parser.error(f"--retry: {error}")
    return OwlConfig(
        **_campaign_fields(parser, args),
        workers=_resolve_workers(parser, args.workers),
        cohort=not args.no_cohort,
        replica_dedup=args.replica_dedup,
        retry=retry, fault_plan=fault_plan)


def _write_report(path: str, report) -> bool:
    """Write the report JSON to *path*; False (after a one-line error
    message) when the destination is unwritable."""
    target = Path(path)
    try:
        if str(target.parent) not in ("", "."):
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"owl: cannot write report to {path}: {reason}",
              file=sys.stderr)
        return False
    return True


def _profile_payload(profiler, result, workload: str) -> dict:
    """Assemble the ``--profile`` JSON: hook-timed device phases plus the
    analysis phases the pipeline already accounts in PhaseStats."""
    stats = result.stats
    emit = profiler.get("event_emit")
    fold = profiler.get("adcfg_fold")
    payload = {
        "workload": workload,
        "phases_seconds": {
            "kernel_execute": profiler.get("kernel_execute"),
            # _emit dispatch includes the fold when delivery is eager;
            # report transport and folding separately
            "event_emit": max(0.0, emit - fold),
            "adcfg_fold": fold,
            "analysis": stats.test_seconds,
            "evidence_fold": stats.evidence_seconds,
            # analysis sub-phases: signature filtering, evidence alignment,
            # histogram folding, and the batched KS resolution
            "analysis_filter": profiler.get("analysis_filter"),
            "analysis_align": profiler.get("analysis_align"),
            "analysis_fold": profiler.get("analysis_fold"),
            "analysis_ks": profiler.get("analysis_ks"),
            "analysis_mi": profiler.get("analysis_mi"),
            # store layer (0 without --store): trace/evidence codecs and
            # the blob reads and writes under them
            "store_encode": profiler.get("store_encode"),
            "store_decode": profiler.get("store_decode"),
            "blob_write": profiler.get("blob_write"),
            "blob_read": profiler.get("blob_read"),
        },
        "phase_counts": dict(profiler.counts),
        "replica_batching": {
            "dedup_runs": stats.replica_dedup_runs,
            "fused_groups": stats.replica_fused_groups,
            "fused_launches": stats.replica_fused_launches,
            "reused_launches": stats.replica_reused_launches,
            "fallback_launches": stats.replica_fallback_launches,
        },
        "total_seconds": stats.total_seconds,
        "trace_count": stats.trace_count,
        "workers": stats.workers,
    }
    if result.adaptive is not None:
        payload["adaptive"] = result.adaptive.to_dict()
    return payload


def _write_profile(path: str, payload: dict) -> bool:
    """Write the profile JSON to *path*; False (after a one-line error
    message) when the destination is unwritable."""
    target = Path(path)
    try:
        if str(target.parent) not in ("", "."):
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"owl: cannot write profile to {path}: {reason}",
              file=sys.stderr)
        return False
    return True


def _emit_result(args: argparse.Namespace, workload: str, result) -> int:
    if args.save_report and not _write_report(args.save_report,
                                              result.report):
        return 2
    if args.json:
        print(result.report.to_json())
        return 1 if result.report.has_leaks else 0
    if result.leak_free_by_filtering and not result.report.has_leaks:
        print(f"{workload}: all inputs produced identical traces — "
              "no potential leakage (add more diverse inputs to widen "
              "coverage)")
        return 0
    print(result.report.render())
    return 1 if result.report.has_leaks else 0


def _write_degradation_log(path: str, events) -> bool:
    """Write degradation events as JSON lines; False when unwritable."""
    target = Path(path)
    try:
        if str(target.parent) not in ("", "."):
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.to_dict(), sort_keys=True))
                handle.write("\n")
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"owl: cannot write degradation log to {path}: {reason}",
              file=sys.stderr)
        return False
    return True


def _run_workload(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  store=None, reuse_report: bool = True) -> int:
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; see --list")
    program, fixed_inputs, random_input = workloads[args.workload]
    config = _config_from_args(parser, args)
    if store is not None and config.fault_plan is not None:
        # store-directed faults damage blobs up front; the campaign's
        # self-healing loads then quarantine and re-record them
        from repro.resilience.faults import inject_blob_corruption
        corrupted = inject_blob_corruption(store, config.fault_plan)
        if corrupted and not args.json:
            print(f"[inject] corrupted {len(corrupted)} stored blob(s)")
    owl = Owl(program, name=args.workload, config=config)
    profiler = profiling.enable() if args.profile else None
    try:
        result = owl.detect(inputs=fixed_inputs(), random_input=random_input,
                            store=store, reuse_report=reuse_report)
    finally:
        if profiler is not None:
            profiling.disable()
    if profiler is not None and not _write_profile(
            args.profile,
            _profile_payload(profiler, result, args.workload)):
        return 2
    if args.degradation_log is not None and not _write_degradation_log(
            args.degradation_log, result.degradations):
        return 2
    if result.degradations and not args.json:
        kinds: Dict[str, int] = {}
        for event in result.degradations:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        summary = ", ".join(f"{count}x {kind}"
                            for kind, count in sorted(kinds.items()))
        print(f"[resilience] survived {len(result.degradations)} "
              f"degradation(s): {summary}")
    if result.adaptive is not None and not args.json:
        summary = result.adaptive
        print(f"[adaptive] {summary.outcome} after "
              f"{summary.rounds_executed} round(s): recorded "
              f"{summary.fixed_recorded}/{summary.fixed_budget} fixed + "
              f"{summary.random_recorded}/{summary.random_budget} random "
              f"replicas ({summary.replicas_saved} saved)")
    if store is not None and not args.json:
        stats = result.stats
        if stats.report_cache_hit:
            print(f"[store] report cache hit for {args.workload}")
        elif stats.cached_traces or stats.cached_runs:
            print(f"[store] reused {stats.cached_traces} traces, "
                  f"{stats.cached_runs} evidence runs")
    return _emit_result(args, args.workload, result)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _open_store(root, *, create: bool = False):
    """Open the store at *root*, or print why not and return None.

    Every ``--store`` verb exits :data:`EXIT_CONFIG` on None, so an
    unreadable manifest or an old store's migrate hint reads as one
    line rather than a traceback.
    """
    from repro.store import StoreError, TraceStore
    try:
        return TraceStore(root, create=create)
    except StoreError as error:
        print(f"owl: {error}", file=sys.stderr)
        return None


def _cmd_run(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(_workloads()):
            print(name)
        return 0
    store = None
    if args.store is not None:
        store = _open_store(args.store, create=True)
        if store is None:
            return EXIT_CONFIG
    return _run_workload(parser, args, store=store,
                         reuse_report=not args.no_reuse_report)


def _cmd_resume(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    from repro.store import incomplete_campaigns
    store = _open_store(args.store)
    if store is None:
        return EXIT_CONFIG
    pending = incomplete_campaigns(store)
    if not pending:
        print(f"{args.store}: no interrupted campaigns")
        return 0
    workloads = _workloads()
    exit_code = 0
    for entry in pending:
        body = store.get_json(entry.key)
        name = body.get("workload") if isinstance(body, dict) else None
        if name not in workloads:
            print(f"owl: skipping {entry.key}: unknown workload {name!r}",
                  file=sys.stderr)
            exit_code = max(exit_code, 2)
            continue
        program, fixed_inputs, random_input = workloads[name]
        config = OwlConfig.from_stored(body["config"])
        if config.fault_plan is not None:
            # an interrupted *injected* campaign must not re-crash on
            # resume: the stored artifacts are sound (bit-identity holds
            # under faults), so finish the remainder fault-free
            import dataclasses
            config = dataclasses.replace(config, fault_plan=None)
        owl = Owl(program, name=name, config=config)
        result = owl.detect(inputs=fixed_inputs(),
                            random_input=random_input, store=store)
        stats = result.stats
        print(f"resumed {name}: reused {stats.cached_traces} traces, "
              f"{stats.cached_runs} evidence runs")
        if args.json:
            print(result.report.to_json())
        else:
            print(result.report.render())
        if result.report.has_leaks:
            exit_code = max(exit_code, 1)
    return exit_code


def _load_report_for_diff(parser: argparse.ArgumentParser, ref: str, store):
    from repro.core.report import LeakageReport
    if os.path.exists(ref):
        try:
            return LeakageReport.from_json(
                Path(ref).read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as error:
            parser.error(f"cannot load report {ref!r}: {error}")
    if store is None:
        parser.error(f"{ref!r} is not a report file (pass --store to "
                     f"resolve workload names)")
    entries = [entry for entry in store.entries(kind="report")
               if entry.meta.get("workload") == ref]
    if not entries:
        parser.error(f"store holds no report for workload {ref!r}")
    latest = max(entries, key=lambda entry: entry.created_at)
    return store.get_report(latest.key)


def _cmd_diff(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    import json as json_module

    from repro.errors import ConfigError
    from repro.store import diff_reports
    store = None
    if args.store is not None:
        store = _open_store(args.store)
        if store is None:
            return EXIT_CONFIG
    baseline = _load_report_for_diff(parser, args.baseline, store)
    candidate = _load_report_for_diff(parser, args.candidate, store)
    try:
        diff = diff_reports(baseline, candidate)
    except ConfigError as error:
        print(f"owl: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json_module.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.render())
    return 1 if diff.is_regression else 0


def _cmd_ls(parser: argparse.ArgumentParser,
            args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return EXIT_CONFIG
    entries = store.entries(kind=args.kind)
    for entry in entries:
        print(f"{entry.kind:<10} {entry.size:>10}  {entry.key}")
    kinds: Dict[str, int] = {}
    for entry in entries:
        kinds[entry.kind] = kinds.get(entry.kind, 0) + 1
    summary = ", ".join(f"{count} {kind}"
                        for kind, count in sorted(kinds.items()))
    print(f"{len(entries)} entries ({summary})" if entries else "0 entries")
    return 0


def _cmd_gc(parser: argparse.ArgumentParser,
            args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return EXIT_CONFIG
    result = store.gc(dry_run=args.dry_run)
    if args.dry_run:
        for digest, size in result["candidates"]:
            print(f"would remove {size:>10}  {digest}")
        print(f"dry run: would remove {len(result['candidates'])} "
              f"unreferenced blobs ({result['reclaimed_bytes']} bytes), "
              f"keep {result['kept']}")
        return 0
    print(f"removed {result['removed']} unreferenced blobs "
          f"({result['reclaimed_bytes']} bytes), kept {result['kept']}")
    return 0


def _cmd_verify(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    from repro.store.blobs import migrate_flat
    # stores written before blob sharding open only once migrated
    migrated = migrate_flat(args.store)
    if migrated:
        print(f"migrated {migrated} flat blob(s) to the sharded layout")
    store = _open_store(args.store)
    if store is None:
        return EXIT_CONFIG
    from repro.store.campaign import drop_retired_partials
    retired = drop_retired_partials(store)
    if retired:
        print(f"deleted {retired} retired checkpoint "
              f"entr{'y' if retired == 1 else 'ies'}")
    bad = store.verify(repair=args.repair)
    if not bad:
        print(f"{args.store}: all {len(store)} entries verified")
        return 0
    for key in bad:
        print(f"corrupt: {key}")
    if args.repair:
        print(f"quarantined {len(bad)} damaged entr"
              f"{'y' if len(bad) == 1 else 'ies'}; the next campaign run "
              f"re-records the loss")
        return 0
    print(f"{len(bad)} corrupt entries (re-run with --repair to "
          f"quarantine them)")
    return 1


# ----------------------------------------------------------------------
# detection service verbs
# ----------------------------------------------------------------------

def _service_address(parser: argparse.ArgumentParser,
                     args: argparse.Namespace,
                     queue_dir: Optional[Path] = None):
    from repro.errors import ConfigError
    from repro.service.address import parse_connect
    if args.connect is None:
        if queue_dir is None:
            parser.error("pass --connect URL to reach the service")
        return ("unix", str(queue_dir / "owl.sock"))
    try:
        return parse_connect(args.connect)
    except ConfigError as error:
        parser.error(str(error))


def _service_client(parser: argparse.ArgumentParser,
                    args: argparse.Namespace):
    from repro.service.client import ServiceClient
    address = _service_address(parser, args)
    return ServiceClient(address, token=getattr(args, "token", None),
                         tenant=getattr(args, "tenant", None))


def _service_error_exit(error: BaseException) -> int:
    """Map a service-layer exception to the uniform exit codes."""
    from repro.errors import (
        AuthError, ConfigError, QuotaError, ServiceConnectionError)
    print(f"owl: {error}", file=sys.stderr)
    if isinstance(error, (AuthError, QuotaError, ServiceConnectionError)):
        return EXIT_UNAVAILABLE
    if isinstance(error, ConfigError):
        return EXIT_CONFIG
    if isinstance(error, OSError):
        return EXIT_UNAVAILABLE
    return EXIT_CONFIG


def _parse_serve_tokens(parser: argparse.ArgumentParser,
                        items) -> Optional[Dict[str, str]]:
    if not items:
        return None
    tokens: Dict[str, str] = {}
    for item in items:
        token, sep, tenant = str(item).partition("=")
        if not sep or not token or not tenant:
            parser.error(f"--token takes TOKEN=TENANT, got {item!r}")
        tokens[token] = tenant
    return tokens


def _parse_serve_quotas(parser: argparse.ArgumentParser, args):
    from repro.errors import ConfigError
    from repro.service import TenantQuota
    quotas = None
    if args.quota:
        quotas = {}
        for item in args.quota:
            tenant, sep, spec = str(item).partition("=")
            if not sep or not tenant:
                parser.error(f"--quota takes TENANT=SPEC, got {item!r}")
            try:
                quotas[tenant] = TenantQuota.parse(spec)
            except ConfigError as error:
                parser.error(f"--quota {tenant}: {error}")
    default_quota = None
    if args.default_quota is not None:
        try:
            default_quota = TenantQuota.parse(args.default_quota)
        except ConfigError as error:
            parser.error(f"--default-quota: {error}")
    return quotas, default_quota


def _cmd_serve(parser: argparse.ArgumentParser,
               args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.service import CampaignScheduler, ServiceConfig, WorkerFleet
    from repro.service.server import serve_forever
    from repro.store import StoreError

    queue_dir = Path(args.queue if args.queue is not None
                     else Path(args.store) / "service")
    tokens = _parse_serve_tokens(parser, args.token)
    quotas, default_quota = _parse_serve_quotas(parser, args)
    try:
        service_config = ServiceConfig(
            workers=args.workers, unit_runs=args.unit_runs,
            lease_seconds=args.lease_seconds,
            max_attempts=args.max_attempts,
            restart_budget=args.restart_budget,
            coalesce=not args.no_coalesce, die_after=args.die_after,
            quotas=quotas, default_quota=default_quota,
            admission_window=args.admission_window,
            external_workers=args.external_workers)
    except ConfigError as error:
        parser.error(str(error))
    address = _service_address(parser, args, queue_dir=queue_dir)
    fleet = None
    if service_config.workers > 0 and not service_config.external_workers:
        fleet = WorkerFleet(queue_dir, args.store,
                            workers=service_config.workers,
                            poll_seconds=service_config.poll_seconds,
                            lease_seconds=service_config.lease_seconds,
                            die_after=service_config.die_after,
                            restart_budget=service_config.restart_budget)
    try:
        scheduler = CampaignScheduler(args.store, queue_dir,
                                      config=service_config, fleet=fleet)
    except StoreError as error:
        print(f"owl: {error}", file=sys.stderr)
        return EXIT_CONFIG
    scheduler.queue.clear_stop()
    if args.recover:
        recovered = scheduler.recover()
        if recovered:
            print(f"recovered {len(recovered)} campaign(s): "
                  + ", ".join(recovered))
    if fleet is not None:
        fleet.start()
    from repro.service.address import format_address
    workers_note = ("external" if service_config.external_workers
                    else str(service_config.workers))
    auth_note = " auth=token" if tokens else ""
    print(f"owl service: store={args.store} queue={queue_dir} "
          f"workers={workers_note}{auth_note} listening on "
          f"{format_address(address)}", flush=True)
    try:
        serve_forever(scheduler, address,
                      tick_seconds=service_config.poll_seconds,
                      tokens=tokens)
    except KeyboardInterrupt:
        pass
    finally:
        if fleet is not None or service_config.external_workers:
            scheduler.queue.request_stop()
        if fleet is not None:
            fleet.stop()
    return 0


def _cmd_worker(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    from repro.service.worker import default_worker_id, worker_loop
    from repro.store import StoreError
    worker_id = args.worker_id or default_worker_id()
    print(f"owl worker {worker_id}: queue={args.queue} "
          f"store={args.store}", flush=True)
    try:
        executed = worker_loop(args.queue, args.store, worker_id,
                               poll_seconds=args.poll,
                               lease_seconds=args.lease_seconds,
                               die_after=args.die_after)
    except KeyboardInterrupt:
        return 0
    except StoreError as error:  # units' errors are failed, not raised
        print(f"owl: {error}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"owl worker {worker_id}: executed {executed} unit(s), "
          f"stop requested")
    return 0


def _emit_campaign_results(args: argparse.Namespace, results) -> int:
    """Print a terminal campaign's report; returns the exit code."""
    from repro.core.report import LeakageReport
    if results.stage == "failed":
        print(f"owl: campaign {results.campaign} failed: {results.error}",
              file=sys.stderr)
        return EXIT_FAILURE
    if results.stage != "complete":
        print(f"campaign {results.campaign} is still in stage "
              f"{results.stage!r}")
        return EXIT_FAILURE
    if results.report_json is None:
        print(f"owl: campaign {results.campaign} completed but its "
              f"report is missing from the store", file=sys.stderr)
        return EXIT_CONFIG
    if args.json:
        print(results.report_json)
    else:
        print(LeakageReport.from_json(results.report_json).render())
    return EXIT_FAILURE if results.has_leaks else EXIT_OK


def _cmd_submit(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    from repro.errors import CampaignError

    client = _service_client(parser, args)
    try:
        receipt = client.submit(args.workload,
                                config=_campaign_fields(parser, args))
        if not args.wait:
            print(json.dumps({"campaign": receipt.campaign,
                              "tenant": receipt.tenant})
                  if args.json
                  else f"submitted {args.workload} as campaign "
                       f"{receipt.campaign} (tenant {receipt.tenant})")
            return EXIT_OK
        client.wait_for(receipt.campaign, timeout=args.timeout)
        results = client.results(receipt.campaign)
    except (OSError, CampaignError) as error:
        return _service_error_exit(error)
    return _emit_campaign_results(args, results)


def _cmd_status(parser: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    import dataclasses

    from repro.errors import CampaignError

    client = _service_client(parser, args)
    try:
        if args.campaign is not None:
            row = client.status(args.campaign)
            rows = {row.campaign: row}
            overview = None
        else:
            overview = client.overview()
            rows = overview.campaigns
    except (OSError, CampaignError) as error:
        return _service_error_exit(error)
    if args.json:
        payload = {cid: dataclasses.asdict(row)
                   for cid, row in rows.items()}
        if overview is not None:
            payload = {"campaigns": payload,
                       "fleet": (dataclasses.asdict(overview.fleet)
                                 if overview.fleet is not None else {}),
                       "tenants": {name: dataclasses.asdict(tenant)
                                   for name, tenant
                                   in overview.tenants.items()}}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    for cid in sorted(rows):
        row = rows[cid]
        extra = ""
        if row.coalesced_into:
            extra = f" (coalesced into {row.coalesced_into})"
        if row.error:
            extra += f" error: {row.error}"
        print(f"{cid}  {row.workload:<14} {row.stage:<10} "
              f"tenant={row.tenant} pending={row.pending_units} "
              f"backlog={row.backlog_units} "
              f"degradations={row.degradations}{extra}")
    if overview is not None:
        if overview.fleet is not None:
            fleet = overview.fleet
            print(f"fleet: {len(fleet.live_workers)} live workers, "
                  f"{fleet.spawned} spawned, {fleet.restarts} restarts")
        for name in sorted(overview.tenants):
            tenant = overview.tenants[name]
            print(f"tenant {name}: {tenant.active_campaigns} active, "
                  f"{tenant.inflight_units} in flight, "
                  f"{tenant.backlog_units} backlogged "
                  f"(weight {tenant.weight:g})")
        print(f"{len(rows)} campaign(s)")
    return EXIT_OK


def _watch_campaign(args: argparse.Namespace, client) -> int:
    """``owl results --watch``: stream transitions, then the report.

    A dropped stream (service restart, network blip) reconnects and
    re-synchronises off the first event of the new stream; only
    *repeated* failures give up with the connection exit code.
    """
    import time as time_module

    from repro.errors import ServiceConnectionError
    attempts_left = 5
    while True:
        try:
            for event in client.watch(args.campaign):
                if event.terminal:
                    if not args.json:
                        print(f"{event.campaign}  {event.event}")
                    if event.results is None:
                        print(f"owl: terminal event for {event.campaign} "
                              f"carried no results", file=sys.stderr)
                        return EXIT_CONFIG
                    return _emit_campaign_results(args, event.results)
                if not args.json:
                    print(f"{event.campaign}  {event.stage:<10} "
                          f"pending={event.pending_units} "
                          f"backlog={event.backlog_units}", flush=True)
            # stream ended with no terminal event: treat as a drop
            raise ServiceConnectionError(
                f"watch stream for campaign {args.campaign} ended early")
        except ServiceConnectionError as error:
            attempts_left -= 1
            if attempts_left <= 0:
                return _service_error_exit(error)
            if not args.json:
                print(f"owl: watch stream dropped ({error}); "
                      f"reconnecting", file=sys.stderr)
            time_module.sleep(0.2)


def _cmd_results(parser: argparse.ArgumentParser,
                 args: argparse.Namespace) -> int:
    from repro.errors import CampaignError

    client = _service_client(parser, args)
    try:
        if args.watch:
            return _watch_campaign(args, client)
        results = client.results(args.campaign)
    except (OSError, CampaignError) as error:
        return _service_error_exit(error)
    return _emit_campaign_results(args, results)


_COMMANDS = {"run": _cmd_run, "resume": _cmd_resume, "diff": _cmd_diff,
             "ls": _cmd_ls, "gc": _cmd_gc, "verify": _cmd_verify,
             "serve": _cmd_serve, "submit": _cmd_submit,
             "status": _cmd_status, "results": _cmd_results,
             "worker": _cmd_worker}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    if argv and argv[0] in SUBCOMMANDS:
        parser = build_subcommand_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](parser, args)

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or not args.workload:
        for name in sorted(_workloads()):
            print(name)
        return 0
    return _run_workload(parser, args)


if __name__ == "__main__":
    sys.exit(main())
