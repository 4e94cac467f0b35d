"""Countermeasure primitives: correctness and their observable behaviour."""

import numpy as np
import pytest

from repro.countermeasures import (
    RotatedTable,
    masked_lookup,
    striped_lookup,
    striped_table_layout,
)
from repro.core import Owl, OwlConfig
from repro.gpusim import Device, kernel
from repro.gpusim.events import MemoryBatchEvent
from repro.host import CudaRuntime
from repro.tracing import TraceRecorder

TABLE = np.arange(100, 164, dtype=np.int64)  # 64 entries, values 100..163
CONFIG = OwlConfig(fixed_runs=25, random_runs=25)

#: seeded stream for the rotated-table defence: the defence is *random per
#: run* but the test must be reproducible — an unseeded stream makes the
#: statistical verdict flake at the test's own ~5%-per-feature FP rate
_ROTATION_RNG = np.random.default_rng(20240625)


# --- a leaky baseline and the three patched kernels --------------------------

@kernel()
def naive_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.store(out, tid, k.load(table, secret % 64))


@kernel()
def masked_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.store(out, tid, masked_lookup(k, table, secret % 64))


@kernel()
def striped_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.store(out, tid, striped_lookup(k, table, secret % 64, stripe_width=8))


def make_program(kern, rotated=False):
    def program(rt, secret):
        data = rt.cudaMalloc(32, label="data")
        rt.cudaMemcpyHtoD(data, np.full(32, secret))
        out = rt.cudaMalloc(32, label="out")
        if rotated:
            table = RotatedTable(rt, TABLE, label="table",
                                 rng=_ROTATION_RNG)

            @kernel()
            def rotated_kernel(k, data, out):
                k.block("entry")
                tid = k.global_tid()
                value = table.lookup(k, k.load(data, tid) % 64)
                k.store(out, tid, value)

            rt.cuLaunchKernel(rotated_kernel, 1, 32, data, out)
        else:
            table_buf = rt.cudaMalloc(64, label="table")
            rt.cudaMemcpyHtoD(table_buf, TABLE)
            rt.cuLaunchKernel(kern, 1, 32, table_buf, data, out)
        return rt.cudaMemcpyDtoH(out)

    return program


def run(program, secret):
    return program(CudaRuntime(Device()), secret)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("secret", [0, 7, 63, 200])
    def test_all_variants_compute_the_same_lookup(self, secret):
        expected = TABLE[secret % 64]
        for rotated, kern in ((False, naive_kernel), (False, masked_kernel),
                              (False, striped_kernel), (True, None)):
            out = run(make_program(kern, rotated=rotated), secret)
            assert (out == expected).all(), (rotated, kern)

    def test_striped_layout_validation(self):
        with pytest.raises(ValueError):
            striped_table_layout(np.arange(10), stripe_width=4)
        assert (striped_table_layout(TABLE, 8) == TABLE).all()

    def test_striped_lookup_width_validation(self):
        rt = CudaRuntime(Device())
        table = rt.cudaMalloc(10, label="t")
        from repro.gpusim.context import WarpContext
        from repro.gpusim.kernel import LaunchConfig
        ctx = WarpContext(LaunchConfig.create(1, 32), 0, 0,
                          emit=lambda e: None, shared_alloc=None)
        ctx.block("b")
        with pytest.raises(ValueError):
            striped_lookup(ctx, table, 0, stripe_width=4)


class TestAccessPatterns:
    @staticmethod
    def table_addresses(program, secret):
        device = Device()
        addresses = []
        rt = CudaRuntime(device)

        def listen(event):
            if isinstance(event, MemoryBatchEvent):
                addresses.extend(tuple(item.addresses)
                                 for item in event.iter_events())

        device.subscribe(listen)
        program(rt, secret)
        return addresses

    def test_masked_sweep_is_input_independent(self):
        program = make_program(masked_kernel)
        assert (self.table_addresses(program, 3)
                == self.table_addresses(program, 59))

    def test_striped_pattern_leaks_only_intra_stripe_offset(self):
        program = make_program(striped_kernel)
        # secrets 3 and 11 share offset (mod 8): identical addresses
        assert (self.table_addresses(program, 3)
                == self.table_addresses(program, 11))
        # secrets 3 and 4 differ in offset: different addresses
        assert (self.table_addresses(program, 3)
                != self.table_addresses(program, 4))


class TestOwlVerdicts:
    def random_secret(self, rng):
        return int(rng.integers(0, 64))

    def test_naive_lookup_leaks(self):
        result = Owl(make_program(naive_kernel), name="naive",
                     config=CONFIG).detect(
            inputs=[3, 59], random_input=self.random_secret)
        assert result.report.data_flow_leaks

    def test_masked_lookup_clean(self):
        result = Owl(make_program(masked_kernel), name="masked",
                     config=CONFIG).detect(
            inputs=[3, 59], random_input=self.random_secret)
        assert result.leak_free_by_filtering

    def test_striped_lookup_clean_at_stripe_granularity(self):
        # probes 3 and 60 differ in their intra-stripe offsets (3 vs 4), so
        # their raw traces differ and the full analysis runs
        config = OwlConfig(fixed_runs=25, random_runs=25,
                           offset_granularity=8 * 8)  # 8 entries x 8 bytes
        result = Owl(make_program(striped_kernel), name="striped",
                     config=config).detect(
            inputs=[3, 60], random_input=self.random_secret)
        assert not result.report.data_flow_leaks

    def test_striped_lookup_still_leaks_at_byte_granularity(self):
        """The documented residual leakage: index mod stripe_width."""
        result = Owl(make_program(striped_kernel), name="striped",
                     config=CONFIG).detect(
            inputs=[3, 60], random_input=self.random_secret)
        assert result.report.data_flow_leaks

    def test_striped_probes_with_equal_offsets_are_trace_identical(self):
        """3 and 59 share index mod 8 = 3: filtering proves equality —
        exactly what the scheme promises for the hidden high bits."""
        result = Owl(make_program(striped_kernel), name="striped",
                     config=CONFIG).detect(
            inputs=[3, 59], random_input=self.random_secret)
        assert result.leak_free_by_filtering

    def test_rotated_table_not_a_false_positive(self):
        """The §III oblivious-RAM scenario: randomised addresses fool a
        deterministic differ but not Owl's distribution test.

        All 32 lanes of a run share one secret and one rotation, so pooled
        access counts are 32x-correlated; ``sample_size_cap`` (the knob for
        exactly this effect, see DESIGN.md §6) keeps the test calibrated.
        """
        program = make_program(None, rotated=True)
        recorder = TraceRecorder()
        assert recorder.record(program, 3) != recorder.record(program, 3)

        config = OwlConfig(fixed_runs=25, random_runs=25,
                           sample_size_cap=25)
        result = Owl(program, name="rotated", config=config).detect(
            inputs=[3, 59], random_input=self.random_secret)
        assert not result.report.has_leaks

    def test_sample_size_cap_keeps_real_leaks_detectable(self):
        """The cap must not blunt genuine leakage: the naive lookup's
        near-disjoint histograms stay significant at 25 samples."""
        config = OwlConfig(fixed_runs=25, random_runs=25,
                           sample_size_cap=25)
        result = Owl(make_program(naive_kernel), name="naive",
                     config=config).detect(
            inputs=[3, 59], random_input=self.random_secret)
        assert result.report.data_flow_leaks
