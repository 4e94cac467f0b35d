"""The full developer loop: detect → locate → patch → re-audit.

Owl's purpose is "assisting developers to identify and patch side-channel
vulnerabilities" (the paper's opening sentence).  This example walks that
loop on a lookup-table kernel:

1. Owl flags the secret-indexed load and renders the control-flow graph
   with the leaking block highlighted (DOT output a developer can render);
2. the kernel is patched with each §IX countermeasure from
   :mod:`repro.countermeasures`;
3. the patched versions are re-audited, including under a realistic
   cache-line attacker model (``offset_granularity=64``), and the overhead
   of each fix is measured;
4. the audits run through a persistent campaign store and the regression
   diff classifies every leak across versions — the same machinery as
   ``owl run --store`` / ``owl diff``.

Run:  python examples/patch_workflow.py
"""

import tempfile

import numpy as np

from repro import Owl, OwlConfig, kernel
from repro.adcfg.export import to_dot
from repro.countermeasures import masked_lookup, striped_lookup
from repro.gpusim import Device
from repro.gpusim.events import MemoryBatchEvent
from repro.host import CudaRuntime
from repro.store import TraceStore, diff_reports
from repro.tracing import TraceRecorder

TABLE = np.arange(500, 564, dtype=np.int64)


@kernel()
def vulnerable_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.block("lookup")
    k.store(out, tid, k.load(table, secret % 64))


@kernel()
def masked_patch(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.block("lookup")
    k.store(out, tid, masked_lookup(k, table, secret % 64))


@kernel()
def striped_patch(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.block("lookup")
    k.store(out, tid, striped_lookup(k, table, secret % 64, stripe_width=8))


def make_program(kern):
    def program(rt, secret):
        table = rt.cudaMalloc(64, label="table")
        rt.cudaMemcpyHtoD(table, TABLE)
        data = rt.cudaMalloc(32, label="data")
        rt.cudaMemcpyHtoD(data, np.full(32, secret))
        out = rt.cudaMalloc(32, label="out")
        rt.cuLaunchKernel(kern, 1, 32, table, data, out)
    return program


def accesses(program):
    device = Device()
    count = [0]
    device.subscribe(lambda e: count.__setitem__(
        0, count[0] + e.num_instructions)
        if isinstance(e, MemoryBatchEvent) else None)
    program(CudaRuntime(device), 3)
    return count[0]


def audit(name, program, granularity=1, store=None):
    config = OwlConfig(fixed_runs=30, random_runs=30, quantify=True,
                       offset_granularity=granularity)
    owl = Owl(program, name=name, config=config)
    return owl.detect(inputs=[3, 60],
                      random_input=lambda rng: int(rng.integers(0, 64)),
                      store=store)


def main():
    store = TraceStore(tempfile.mkdtemp(prefix="owl-store-"))

    print("== Step 1: detect and locate ==\n")
    vulnerable = make_program(vulnerable_kernel)
    result = audit("vulnerable", vulnerable, store=store)
    for leak in result.report.leaks:
        print("  " + leak.render())

    leaking_blocks = {leak.block for leak in result.report.leaks}
    graph = TraceRecorder().record(vulnerable, 3).invocations[0].adcfg
    dot = to_dot(graph, leaking_blocks=leaking_blocks)
    print("\nControl-flow graph with the leak highlighted "
          "(render with `dot -Tpng`):\n")
    print("\n".join("  " + line for line in dot.splitlines()))

    print("\n== Step 2+3: patch and re-audit ==\n")
    baseline_cost = accesses(vulnerable)
    patched_reports = {}
    for name, kern, granularity, model in (
            ("masked sweep", masked_patch, 1, "byte-level attacker"),
            ("scatter-gather", striped_patch, 64, "cache-line attacker")):
        program = make_program(kern)
        patched = audit(name, program, granularity=granularity, store=store)
        patched_reports[name] = patched.report
        verdict = ("clean" if not patched.report.has_leaks
                   else f"{len(patched.report.leaks)} leaks")
        cost = accesses(program)
        print(f"  {name:16s} under a {model:20s}: {verdict}  "
              f"({cost / baseline_cost:.1f}x memory traffic)")

    print("\nThe masked sweep is airtight at any attacker resolution; "
          "scatter-gather trades 7x less overhead for a documented "
          "residual (index mod 8) that only a byte-level probe can see.")

    print("\n== Step 4: regression diff across versions ==\n")
    # every audit above was persisted in the campaign store; the diff is
    # what `owl diff vulnerable "masked sweep" --store DIR` computes
    diff = diff_reports(result.report, patched_reports["masked sweep"])
    print("\n".join("  " + line for line in diff.render().splitlines()))
    assert diff.is_clean_fix, "masked sweep should fix every leak"
    print(f"\nStore now holds {len(store)} artifacts under {store.root} — "
          "a warm `owl run --store` re-run reuses all of them.")


if __name__ == "__main__":
    main()
