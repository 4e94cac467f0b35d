"""Countermeasure verification (§IX): patch, re-audit, measure the cost.

The paper's countermeasure section surveys hiding secret-dependent access
patterns (masked/bitsliced lookups, GPU scatter-gather) and its related
work warns that randomisation-based defences (oblivious RAM) turn
deterministic detectors into false-positive machines.  This bench runs the
full patch-and-re-audit loop on a table-lookup workload:

* the naive lookup must be flagged;
* each §IX defence must come back clean under its intended attacker model;
* the randomised (rotated-table) defence must fool naive trace differencing
  but not Owl;
* the defences' overheads (traced memory accesses per run) are measured.
"""

from __future__ import annotations

import numpy as np
import pytest

from _bench_utils import bench_runs, emit_table
from repro.core import Owl, OwlConfig
from repro.countermeasures import RotatedTable, masked_lookup, striped_lookup
from repro.gpusim import Device, kernel
from repro.gpusim.events import MemoryBatchEvent
from repro.host import CudaRuntime
from repro.tracing import TraceRecorder

TABLE = np.arange(100, 164, dtype=np.int64)
STRIPE = 8


@kernel()
def naive_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    k.store(out, tid, k.load(table, k.load(data, tid) % 64))


@kernel()
def masked_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    k.store(out, tid, masked_lookup(k, table, k.load(data, tid) % 64))


@kernel()
def striped_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    k.store(out, tid, striped_lookup(k, table, k.load(data, tid) % 64,
                                     stripe_width=STRIPE))


def plain_program(kern):
    def program(rt, secret):
        table = rt.cudaMalloc(64, label="table")
        rt.cudaMemcpyHtoD(table, TABLE)
        data = rt.cudaMalloc(32, label="data")
        rt.cudaMemcpyHtoD(data, np.full(32, secret))
        out = rt.cudaMalloc(32, label="out")
        rt.cuLaunchKernel(kern, 1, 32, table, data, out)
    return program


#: seeded rotation stream: random per run, reproducible across bench runs
_ROTATION_RNG = np.random.default_rng(1337)


def rotated_program(rt, secret):
    table = RotatedTable(rt, TABLE, label="table", rng=_ROTATION_RNG)

    @kernel()
    def rotated_kernel(k, data, out):
        k.block("entry")
        tid = k.global_tid()
        k.store(out, tid, table.lookup(k, k.load(data, tid) % 64))

    data = rt.cudaMalloc(32, label="data")
    rt.cudaMemcpyHtoD(data, np.full(32, secret))
    out = rt.cudaMalloc(32, label="out")
    rt.cuLaunchKernel(rotated_kernel, 1, 32, data, out)


def accesses_per_run(program):
    device = Device()
    counter = {"n": 0}
    device.subscribe(lambda e: counter.__setitem__(
        "n", counter["n"] + e.num_instructions)
        if isinstance(e, MemoryBatchEvent) else None)
    program(CudaRuntime(device), 3)
    return counter["n"]


def audit_all(runs):
    random_secret = lambda rng: int(rng.integers(0, 64))
    workloads = {
        "naive lookup": (plain_program(naive_kernel), {}, [3, 60]),
        "masked sweep": (plain_program(masked_kernel), {}, [3, 60]),
        "scatter-gather @ stripe res.": (
            plain_program(striped_kernel),
            {"offset_granularity": STRIPE * 8}, [3, 60]),
        "rotated table (ORAM-ish)": (
            rotated_program, {"sample_size_cap": runs}, [3, 60]),
    }
    results = {}
    for name, (program, extra, inputs) in workloads.items():
        config = OwlConfig(fixed_runs=runs, random_runs=runs, **extra)
        owl = Owl(program, name=name, config=config)
        result = owl.detect(inputs=inputs, random_input=random_secret)
        results[name] = (result, accesses_per_run(program))
    recorder = TraceRecorder()
    # repeated same-input runs: with per-run random rotations, some pair of
    # traces differs (any single pair could collide at 1/64), so a naive
    # trace differ reports a leak
    same_input_traces = [recorder.record(rotated_program, 3)
                         for _ in range(4)]
    naive_diff_flags_rotated = any(
        a != b for a, b in zip(same_input_traces, same_input_traces[1:]))
    return results, naive_diff_flags_rotated


def test_countermeasures(benchmark):
    runs = bench_runs()
    results, naive_diff_flags_rotated = benchmark.pedantic(
        audit_all, args=(runs,), rounds=1, iterations=1)

    rows = []
    for name, (result, accesses) in results.items():
        counts = result.report.counts()
        verdict = "LEAKS" if result.report.has_leaks else "clean"
        rows.append((name, verdict, counts["data_flow"], accesses,
                     f"{accesses / results['naive lookup'][1]:.1f}x"))
    rows.append(("rotated vs naive trace diff",
                 "falsely LEAKS" if naive_diff_flags_rotated else "clean",
                 "-", "-", "-"))
    emit_table("countermeasures",
               "Countermeasure audit: verdicts and traced-access overhead",
               ["Defence", "Owl verdict", "DF leaks", "accesses/run",
                "overhead"], rows)

    assert results["naive lookup"][0].report.has_leaks
    assert not results["masked sweep"][0].report.has_leaks
    assert not results["scatter-gather @ stripe res."][0].report.has_leaks
    assert not results["rotated table (ORAM-ish)"][0].report.has_leaks
    # the §III point: naive differencing is fooled by randomisation
    assert naive_diff_flags_rotated

    # cost ordering: masked sweep is the most expensive, scatter-gather
    # sits between it and the naive lookup
    naive_cost = results["naive lookup"][1]
    masked_cost = results["masked sweep"][1]
    striped_cost = results["scatter-gather @ stripe res."][1]
    assert masked_cost > striped_cost > naive_cost
