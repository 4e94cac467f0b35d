"""Per-layer metrics of a traced run, from merged spans and the outcome.

Times and counts are per operation (one campaign or warm re-analysis):
the sum of a layer's self times over the run divided by the operations
attempted.  Service latencies are percentiles over individual calls.
Layers with no calls on a workload read 0.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Dict, List, Tuple

from owlbench import spans

Metric = Tuple[float, str]

UNIT_KINDS = ("trace", "plan", "evidence", "fold", "decide", "report")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over an untraced one on this host."""
    tracer = spans.Tracer()

    def noop():
        return None

    started = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        tracer.record("calibration", noop, (), {})
    return max(0.0, (time.perf_counter() - started - bare) / calls)


def layer_metrics(found: spans.SpanSet, outcome, per_span: float
                  ) -> Dict[str, Metric]:
    ops = max(1, outcome.attempted)
    own = found.self_seconds
    metrics: Dict[str, Metric] = {}

    def per_op(name: str, value: float, unit: str) -> None:
        metrics[name] = (value / ops, unit)

    # tracing: counters from the outermost recording call only
    outer = [span["attrs"] for span in found.named("tracing.record")
             if span["parent"] != "tracing.record"]
    fused = sum(attrs.get("fused", 0) for attrs in outer)
    fallback = sum(attrs.get("fallback", 0) for attrs in outer)
    per_op("tracing.record_s", own("tracing.record"), "s/op")
    per_op("tracing.replicas", sum(a.get("replicas", 0) for a in outer),
           "count/op")
    per_op("tracing.trace_bytes", sum(a.get("bytes", 0) for a in outer),
           "B/op")
    metrics["tracing.fused_frac"] = (
        fused / (fused + fallback) if fused + fallback else 0.0, "ratio")

    per_op("adcfg.fold_s", own("adcfg.fold"), "s/op")
    per_op("adcfg.fold_calls", len(found.named("adcfg.fold")), "count/op")

    per_op("core.phase_s", own("core.phase"), "s/op")
    per_op("core.pool_s", own("core.pool"), "s/op")
    per_op("core.evidence_fold_s", own("core.evidence_fold"), "s/op")
    per_op("core.filter_s", own("core.filter"), "s/op")
    per_op("core.look_s", own("core.look"), "s/op")
    per_op("core.looks", len(found.named("core.look")), "count/op")

    per_op("analysis.align_s", own("analysis.align"), "s/op")
    for detector in ("ks", "mi"):
        name = f"analysis.{detector}"
        per_op(f"{name}_s", own(name), "s/op")
        per_op(f"{name}_requests",
               sum(span["attrs"].get("requests", 0)
                   for span in found.named(name)), "count/op")
    per_op("analysis.other_s", own("analysis.run"), "s/op")

    for layer in ("open", "refresh", "lock_wait", "read", "write", "decode",
                  "encode"):
        per_op(f"store.{layer}_s", own(f"store.{layer}"), "s/op")
    for layer, name in (("read", "bytes_read"), ("write", "bytes_written")):
        per_op(f"store.{name}",
               sum(span["attrs"].get("bytes", 0)
                   for span in found.named(f"store.{layer}")), "B/op")

    metrics.update(_service_metrics(found, outcome, ops))

    metrics["e2e.campaign_s.p50"] = (percentile(outcome.latencies, 0.5), "s")
    metrics["e2e.lane_s"] = (found.lane_seconds / ops, "s/op")
    lane = found.lane_seconds or 1.0
    metrics["e2e.unattributed_frac"] = (found.unattributed_seconds / lane,
                                        "ratio")
    metrics["trace.overhead_frac"] = (per_span * len(found.spans) / lane,
                                      "ratio")
    return metrics


def _service_metrics(found: spans.SpanSet, outcome, ops: int
                     ) -> Dict[str, Metric]:
    metrics: Dict[str, Metric] = {}
    own = found.self_seconds

    handled = found.named("service.http")
    metrics["service.http_ms.p50"] = (
        1e3 * percentile([s["end"] - s["start"] for s in handled], 0.5),
        "ms")
    metrics["service.http_ms.p99"] = (
        1e3 * percentile([s["end"] - s["start"] for s in handled], 0.99),
        "ms")
    metrics["service.transport_ms.p50"] = (
        1e3 * percentile(_transport(found.named("service.client"), handled),
                         0.5), "ms")
    status = found.durations("service.client", op="status")
    metrics["service.status_ms.p50"] = (1e3 * percentile(status, 0.5), "ms")
    metrics["service.status_ms.p99"] = (1e3 * percentile(status, 0.99),
                                        "ms")

    metrics["service.tick_s"] = (own("service.tick") / ops, "s/op")
    metrics["service.ticks"] = (len(found.named("service.tick")) / ops,
                                "count/op")
    polls = [span for span in found.named("service.poll", role="server")
             if span["parent"] != "service.enqueue"]
    hits = [span for span in polls if span["attrs"].get("hit")]
    metrics["service.poll_hit_frac"] = (
        len(hits) / len(polls) if polls else 0.0, "ratio")

    claims = [span for span in found.named("service.claim")
              if "won" in span["attrs"]]
    won = [span for span in claims if span["attrs"]["won"]]
    metrics["service.queue_wait_s.p50"] = (
        percentile(_queue_waits(won, outcome), 0.5), "s")
    metrics["service.claim_misses"] = (
        (len(claims) - len(won)) / ops, "count/op")
    metrics["service.claim_s"] = (own("service.claim") / ops, "s/op")
    for kind in UNIT_KINDS:
        metrics[f"service.unit_s.{kind}.p50"] = (
            percentile(found.durations("service.unit", kind=kind), 0.5), "s")
    metrics["service.materialize_s"] = (own("service.materialize") / ops,
                                        "s/op")
    metrics["service.result_write_s"] = (
        own("service.result_write") / ops, "s/op")
    metrics["service.harvest_lag_s.p50"] = (
        percentile(_harvest_lags(found.named("service.result_write"), hits),
                   0.5), "s")

    counts = {"enqueued": 0, "requeued": 0, "coalesced": 0}
    for event in outcome.journal:
        if event.get("event") in counts:
            counts[event["event"]] += 1
    metrics["service.units"] = (counts["enqueued"] / ops, "count/op")
    metrics["service.requeues"] = (counts["requeued"] / ops, "count/op")
    metrics["service.coalesced"] = (counts["coalesced"] / ops, "count/op")

    busy = []
    for dump in outcome.dumps:
        if dump["role"] != "worker":
            continue
        lane = next((lane for lane in found.lanes
                     if lane.pid == dump["pid"]), None)
        if lane is None or not lane.seconds:
            continue
        idle = sum(span["end"] - span["start"]
                   for span in found.named("service.idle", role="worker")
                   if span["pid"] == dump["pid"])
        busy.append(1.0 - idle / lane.seconds)
    metrics["service.worker_busy_frac"] = (
        statistics.fmean(busy) if busy else 0.0, "ratio")
    return metrics


def _transport(calls: List[Dict], handled: List[Dict]) -> List[float]:
    """Client round trip minus the server's handling of that request."""
    by_key: Dict[tuple, List[Dict]] = {}
    for span in handled:
        key = (span["attrs"].get("op"), span["attrs"].get("campaign"))
        by_key.setdefault(key, []).append(span)
    for group in by_key.values():
        group.sort(key=lambda span: span["start"])
    gaps = []
    for call in calls:
        group = by_key.get((call["attrs"].get("op"),
                            call["attrs"].get("campaign")), [])
        at = bisect.bisect_left([span["start"] for span in group],
                                call["start"])
        if at < len(group) and group[at]["end"] <= call["end"]:
            gaps.append((call["end"] - call["start"])
                        - (group[at]["end"] - group[at]["start"]))
    return gaps


def _queue_waits(won: List[Dict], outcome) -> List[float]:
    """Journal ``enqueued``/``requeued`` time to a winning claim's start."""
    offered: Dict[str, float] = {}
    for event in outcome.journal:
        if event.get("event") in ("enqueued", "requeued") \
                and "unit" in event:
            offered[event["unit"]] = event["ts"]
    offsets = {dump["pid"]: dump["wall_minus_mono"]
               for dump in outcome.dumps}
    waits = []
    for span in won:
        uid = span["attrs"]["uid"]
        if uid in offered and span["pid"] in offsets:
            claimed = span["start"] + offsets[span["pid"]]
            waits.append(max(0.0, claimed - offered[uid]))
    return waits


def _harvest_lags(writes: List[Dict], hits: List[Dict]) -> List[float]:
    """Result written by a worker to the server's first non-None read."""
    first_seen: Dict[str, float] = {}
    for span in hits:
        uid = span["attrs"]["uid"]
        first_seen[uid] = min(first_seen.get(uid, span["start"]),
                              span["start"])
    return [first_seen[span["attrs"]["uid"]] - span["end"]
            for span in writes if span["attrs"]["uid"] in first_seen]
