"""The full Owl pipeline: phases, early exit, stats, reports."""

import dataclasses

import numpy as np
import pytest

from repro.core import Owl, OwlConfig
from repro.core.leakage import LeakageConfig
from repro.core.report import Leak, LeakType, LeakageReport
from repro.gpusim import kernel

TABLE = 64


@kernel()
def df_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.store(out, tid, k.load(table, secret % TABLE))
    k.block("exit")


def df_program(rt, secret):
    table = rt.cudaMalloc(TABLE, label="table")
    rt.cudaMemcpyHtoD(table, np.arange(TABLE))
    data = rt.cudaMalloc(32, label="data")
    rt.cudaMemcpyHtoD(data, np.full(32, secret))
    out = rt.cudaMalloc(32, label="out")
    rt.cuLaunchKernel(df_kernel, 1, 32, table, data, out)


@kernel()
def clean_kernel(k, data, out):
    k.block("entry")
    tid = k.global_tid()
    k.store(out, tid, k.load(data, tid) + 1)


def clean_program(rt, secret):
    data = rt.cudaMalloc(32, label="data")
    rt.cudaMemcpyHtoD(data, np.full(32, secret))
    out = rt.cudaMalloc(32, label="out")
    rt.cuLaunchKernel(clean_kernel, 1, 32, data, out)


def random_secret(rng):
    return int(rng.integers(0, TABLE))


SMALL = OwlConfig(fixed_runs=25, random_runs=25)


class TestRetiredFields:
    @pytest.mark.parametrize("field", ["columnar", "replica_batch",
                                       "vectorized"])
    def test_new_config_naming_a_retired_field_is_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            OwlConfig(**{field: False})

    def test_leakage_config_has_no_scalar_switch(self):
        with pytest.raises(TypeError, match="vectorized"):
            LeakageConfig(vectorized=False)

    def test_stored_config_drops_retired_fields(self):
        stored = {**dataclasses.asdict(SMALL), "columnar": True,
                  "replica_batch": False, "vectorized": False}
        assert OwlConfig.from_stored(stored) == SMALL


class TestPipeline:
    def test_leaky_program_end_to_end(self):
        owl = Owl(df_program, name="df", config=SMALL)
        result = owl.detect(inputs=[3, 9], random_input=random_secret)
        assert result.filter_result.num_classes == 2
        assert not result.leak_free_by_filtering
        assert result.report.data_flow_leaks
        assert result.report.program_name == "df"

    def test_clean_program_short_circuits_at_filtering(self):
        owl = Owl(clean_program, name="clean", config=SMALL)
        result = owl.detect(inputs=[3, 9, 40], random_input=random_secret)
        assert result.leak_free_by_filtering
        assert not result.report.has_leaks
        # phase 3 never ran: only the three phase-1 traces were recorded
        assert result.stats.trace_count == 3

    def test_stats_populated(self):
        owl = Owl(df_program, config=SMALL)
        result = owl.detect(inputs=[3, 9], random_input=random_secret)
        stats = result.stats
        assert stats.trace_count == 2 + 25 + 25
        assert stats.avg_trace_bytes > 0
        assert stats.avg_trace_seconds > 0
        assert stats.total_seconds >= stats.trace_seconds_total

    def test_memory_measurement(self):
        config = OwlConfig(fixed_runs=5, random_runs=5, measure_memory=True)
        result = Owl(df_program, config=config).detect(
            inputs=[3, 9], random_input=random_secret)
        assert result.stats.peak_ram_bytes > 0

    def test_all_representatives_mode(self):
        config = OwlConfig(fixed_runs=10, random_runs=10,
                           analyze_all_representatives=True)
        result = Owl(df_program, config=config).detect(
            inputs=[3, 9, 17], random_input=random_secret)
        assert len(result.per_representative) == 3

    def test_single_representative_default(self):
        result = Owl(df_program, config=SMALL).detect(
            inputs=[3, 9, 17], random_input=random_secret)
        assert len(result.per_representative) == 1

    def test_seed_reproducibility(self):
        def run():
            return Owl(df_program, config=SMALL).detect(
                inputs=[3, 9], random_input=random_secret)

        first, second = run(), run()
        assert ([l.location for l in first.report.leaks]
                == [l.location for l in second.report.leaks])


class TestReportRendering:
    def test_render_mentions_counts(self):
        report = LeakageReport(program_name="p", num_fixed_runs=10,
                               num_random_runs=10)
        report.add(Leak(leak_type=LeakType.DEVICE_DATA_FLOW,
                        kernel_identity="k@1", kernel_name="k",
                        block="entry", instr=2, p_value=0.001,
                        statistic=0.5))
        text = report.render()
        assert "data-flow leaks: 1" in text
        assert "block=entry" in text
        assert "instr=2" in text

    def test_dedup_keeps_most_significant(self):
        report = LeakageReport(program_name="p")
        for p_value in (0.04, 0.001, 0.02):
            report.add(Leak(leak_type=LeakType.DEVICE_DATA_FLOW,
                            kernel_identity="k@1", kernel_name="k",
                            block="entry", instr=0, p_value=p_value,
                            statistic=1.0))
        deduped = report.dedup_by_location()
        assert len(deduped.leaks) == 1
        assert deduped.leaks[0].p_value == 0.001

    def test_dedup_separates_leak_types(self):
        report = LeakageReport(program_name="p")
        for leak_type in (LeakType.DEVICE_DATA_FLOW,
                          LeakType.DEVICE_CONTROL_FLOW):
            report.add(Leak(leak_type=leak_type, kernel_identity="k@1",
                            kernel_name="k", block="entry", instr=-1,
                            p_value=0.01, statistic=1.0))
        assert len(report.dedup_by_location().leaks) == 2
