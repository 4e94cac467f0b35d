"""Property tests: cohort ≡ per-warp on randomised toy kernels.

Hypothesis draws a kernel shape — grid size, (possibly partial) block
size, per-block loop trip counts, a lane-divergence threshold and a small
program of memory/sync/vote operations — plus a device schedule, and the
property asserts the cohort engine's event stream, memory state and trace
signature are byte-identical to the per-warp reference loop.

The toy kernels follow the engine's equivalence envelope (DESIGN.md §10),
which is ordinary race-free CUDA: plain stores hit thread-disjoint cells,
cross-warp accumulation goes through (commutative) atomics, and loads may
alias anything because their results never feed back into state.  A
kernel where two warps race plain stores on one address is undefined on
real hardware, and the two engines may serialise such a race differently.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, DeviceConfig, kernel
from repro.gpusim.events import MemoryBatchEvent
from repro.gpusim.warp import WARP_SIZE
from tests.oracle import expand

#: Large enough that every thread owns a private cell (max 4 blocks × 96
#: threads); stores stay thread-disjoint, the race-free CUDA discipline.
DATA_SIZE = 512
ACC_SIZE = 8

OPS = ["store", "load", "atomic", "sync", "branch", "vote"]

op_st = st.tuples(st.sampled_from(OPS), st.integers(0, 5))

kernel_spec_st = st.fixed_dictionaries({
    "grid": st.integers(1, 4),
    "block": st.integers(8, 96),
    "trip_a": st.integers(0, 3),
    "trip_b": st.integers(0, 3),
    "trip_m": st.integers(1, 4),
    "threshold": st.integers(0, WARP_SIZE),
    "ops": st.lists(op_st, min_size=1, max_size=5),
})

device_spec_st = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "shuffle": st.booleans(),
})


def build_kernel(spec):
    threshold = spec["threshold"]
    trip_a, trip_b, trip_m = spec["trip_a"], spec["trip_b"], spec["trip_m"]
    ops = spec["ops"]

    @kernel()
    def toy(k, data, acc):
        k.block("entry")
        tid = k.global_tid()
        trips = k.uniform(
            (k.block_id * trip_a + trip_b) % trip_m + 1 + k.lane * 0)
        for i in k.range_("loop", trips):
            for op, p in ops:
                if op == "store":
                    k.store(data, tid, tid * (p + 1) + i)
                elif op == "load":
                    k.load(data, (tid + p * (i + 1)) % DATA_SIZE)
                elif op == "atomic":
                    k.atomic_add(acc, (k.lane + p) % ACC_SIZE, i + 1)
                elif op == "sync":
                    k.syncthreads()
                elif op == "branch":
                    for _ in k.branch(k.lane < threshold).then("taken"):
                        k.store(data, tid, i + p)
                else:  # vote — may disagree across warps and force a split
                    if k.any(tid % (p + 2) == 0):
                        k.block("anytrue")
                        k.load(data, tid % DATA_SIZE)

    return toy


def run(spec, device_spec, cohort):
    config = DeviceConfig(seed=device_spec["seed"],
                          shuffle_schedule=device_spec["shuffle"])
    device = Device(config, cohort=cohort)
    events = []
    device.subscribe(events.append)
    data = device.alloc(DATA_SIZE, label="data")
    acc = device.alloc(ACC_SIZE, label="acc")
    device.launch(build_kernel(spec), spec["grid"], spec["block"], data, acc)
    return events, data.data.copy(), acc.data.copy()


@settings(max_examples=40, deadline=None)
@given(spec=kernel_spec_st, device_spec=device_spec_st)
def test_cohort_matches_per_warp_events_and_memory(spec, device_spec):
    ref_events, ref_data, ref_acc = run(spec, device_spec, cohort=False)
    coh_events, coh_data, coh_acc = run(spec, device_spec, cohort=True)
    assert expand(coh_events) == expand(ref_events)
    assert (coh_data == ref_data).all()
    assert (coh_acc == ref_acc).all()


@settings(max_examples=20, deadline=None)
@given(spec=kernel_spec_st, device_spec=device_spec_st)
def test_cohort_matches_per_warp_batch_arrays(spec, device_spec):
    """Both engines build each warp's batch the same way: the same label
    table and the same arrays, not only the same expansion."""
    def batches(cohort):
        events, _data, _acc = run(spec, device_spec, cohort)
        return [e for e in events if isinstance(e, MemoryBatchEvent)]

    reference, cohort = batches(cohort=False), batches(cohort=True)
    assert len(cohort) == len(reference)
    for got, want in zip(cohort, reference):
        assert (got.block_id, got.warp_id, got.labels) == (
            want.block_id, want.warp_id, want.labels)
        for field in ("label_ids", "visits", "instrs", "spaces",
                      "is_stores", "addresses", "extents"):
            assert getattr(got, field).dtype == getattr(want, field).dtype
            assert np.array_equal(getattr(got, field),
                                  getattr(want, field)), field


@settings(max_examples=15, deadline=None)
@given(spec=kernel_spec_st, seed=st.integers(0, 2 ** 16))
def test_signature_identical_under_shuffle_and_aslr(spec, seed):
    from repro.tracing.recorder import TraceRecorder

    toy = build_kernel(spec)

    def program(rt, value):
        data = rt.cudaMalloc(DATA_SIZE, label="data")
        seeded = np.zeros(DATA_SIZE, dtype=np.int64)
        seeded[0] = value
        rt.cudaMemcpyHtoD(data, seeded)
        acc = rt.cudaMalloc(ACC_SIZE, label="acc")
        rt.cuLaunchKernel(toy, spec["grid"], spec["block"], data, acc)

    config = DeviceConfig(seed=seed, shuffle_schedule=True, aslr=True)
    reference = TraceRecorder(device_config=config, cohort=False).record(
        program, 3)
    cohorted = TraceRecorder(device_config=config, cohort=True).record(
        program, 3)
    assert cohorted.signature() == reference.signature()
    assert cohorted == reference
