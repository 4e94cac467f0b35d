"""The MI detector on synthetic programs with planted ground truth.

Mirrors the KS suite in ``tests/core/test_leakage.py``: the MI analyzer
consumes the same evidence, so the planted data-flow and control-flow
leaks must surface with positive ``mi_bits`` and ``analyzer="mi"``
metadata, and the batched pass must agree with the scalar ``mi_test``
oracle (``tests/oracle.py``).
"""

import numpy as np
import pytest

from repro.analysis.mi import MIAnalyzer
from repro.core.evidence import Evidence
from repro.core.leakage import LeakageAnalyzer, LeakageConfig
from repro.core.report import LeakType
from repro.gpusim import kernel
from repro.tracing import TraceRecorder
from tests.oracle import ScalarMI

TABLE_SIZE = 64


@kernel()
def planted_kernel(k, table, data, noise, out, mode):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)                      # instr 0: benign
    if mode == "df":
        value = k.load(table, secret % TABLE_SIZE)  # instr 1: leaky
    else:
        value = k.load(table, tid % TABLE_SIZE)     # instr 1: benign
    k.load(noise, tid % 8)                          # instr 2: noisy values
    if mode == "cf":
        br = k.branch(secret % 2 == 0)
        for _ in br.then("even"):
            k.store(out, tid, value)
        for _ in br.otherwise("odd"):
            k.store(out, tid, value + 1)
    else:
        k.store(out, tid, value)
    k.block("exit")


def make_program(mode, launch_extra_kernel_for=None):
    @kernel()
    def extra_kernel(k):
        k.block("entry")

    def program(rt, secret):
        rng = np.random.default_rng()  # true nondeterminism
        table = rt.cudaMalloc(TABLE_SIZE, label="table")
        rt.cudaMemcpyHtoD(table, np.arange(TABLE_SIZE))
        data = rt.cudaMalloc(32, label="data")
        rt.cudaMemcpyHtoD(data, np.full(32, secret))
        noise = rt.cudaMalloc(8, label="noise")
        rt.cudaMemcpyHtoD(noise, rng.integers(0, 100, 8))
        out = rt.cudaMalloc(32, label="out")
        rt.cuLaunchKernel(planted_kernel, 1, 32, table, data, noise, out,
                          mode)
        if launch_extra_kernel_for is not None \
                and launch_extra_kernel_for(secret):
            rt.cuLaunchKernel(extra_kernel, 1, 32)

    return program


def evidences(program, fixed_value, runs=40, seed=0):
    recorder = TraceRecorder()
    rng = np.random.default_rng(seed)
    fixed = Evidence.from_traces(
        recorder.record(program, fixed_value) for _ in range(runs))
    random = Evidence.from_traces(
        recorder.record(program, int(rng.integers(0, TABLE_SIZE)))
        for _ in range(runs))
    return fixed, random


@pytest.fixture(scope="module")
def analyzer():
    return MIAnalyzer()


class TestDataFlowLeak:
    def test_detects_secret_indexed_load(self, analyzer):
        fixed, random = evidences(make_program("df"), fixed_value=3)
        report = analyzer.analyze(fixed, random)
        leaks = report.of_type(LeakType.DEVICE_DATA_FLOW)
        assert any(leak.instr == 1 for leak in leaks)
        assert report.analyzer == "mi"

    def test_leaks_carry_positive_mi_bits(self, analyzer):
        fixed, random = evidences(make_program("df"), fixed_value=3)
        report = analyzer.analyze(fixed, random)
        for leak in report.of_type(LeakType.DEVICE_DATA_FLOW):
            assert 0.0 < leak.mi_bits <= 1.0

    def test_benign_and_noisy_instructions_pass(self, analyzer):
        fixed, random = evidences(make_program("df"), fixed_value=3)
        report = analyzer.analyze(fixed, random)
        flagged = {leak.instr
                   for leak in report.of_type(LeakType.DEVICE_DATA_FLOW)}
        assert 0 not in flagged  # benign tid-indexed load
        assert 2 not in flagged  # nondeterministic values, fixed addresses

    def test_clean_program_no_leaks(self, analyzer):
        fixed, random = evidences(make_program("clean"), fixed_value=3)
        report = analyzer.analyze(fixed, random)
        assert not report.has_leaks


class TestControlFlowLeak:
    def test_detects_secret_branch(self, analyzer):
        fixed, random = evidences(make_program("cf"), fixed_value=2)
        report = analyzer.analyze(fixed, random)
        assert report.of_type(LeakType.DEVICE_CONTROL_FLOW)


class TestKernelLeak:
    def test_secret_dependent_launch_is_definite_one_bit(self, analyzer):
        """A kernel launched for only one side is a perfect binary
        distinguisher: the definite leak carries the 1-bit ceiling.
        The fixed secret lies outside the random draw range, so no
        random run can ever launch the extra kernel."""
        program = make_program(
            "clean", launch_extra_kernel_for=lambda s: s >= TABLE_SIZE)
        fixed, random = evidences(program, fixed_value=TABLE_SIZE)
        report = analyzer.analyze(fixed, random)
        kernel_leaks = report.of_type(LeakType.KERNEL)
        assert kernel_leaks
        assert all(leak.mi_bits == 1.0 for leak in kernel_leaks)

    def test_statistical_launch_imbalance_carries_measured_bits(self,
                                                                analyzer):
        """When one random run does launch the kernel, the finding is
        statistical and the bits reflect the measured imbalance."""
        program = make_program("clean",
                               launch_extra_kernel_for=lambda s: s == 0)
        fixed, random = evidences(program, fixed_value=0)
        report = analyzer.analyze(fixed, random)
        kernel_leaks = report.of_type(LeakType.KERNEL)
        assert kernel_leaks
        assert all(0.0 < leak.mi_bits < 1.0 for leak in kernel_leaks)


class TestConfig:
    def test_scalar_fallback_matches_vectorized(self):
        """The batched MI pass equals the scalar ``mi_test`` oracle
        testing each feature inline."""
        fixed, random = evidences(make_program("df"), fixed_value=3)
        batched = MIAnalyzer(LeakageConfig()).analyze(fixed, random)
        scalar = ScalarMI(LeakageConfig()).analyze(fixed, random)
        assert batched.leaks
        assert scalar.to_json() == batched.to_json()

    def test_min_bits_floor_filters_leaks(self):
        fixed, random = evidences(make_program("df"), fixed_value=3)
        open_report = MIAnalyzer(LeakageConfig(mi_min_bits=0.0)) \
            .analyze(fixed, random)
        floored = MIAnalyzer(LeakageConfig(mi_min_bits=2.0)) \
            .analyze(fixed, random)
        # 2 bits is above the binary-side ceiling: only definite leaks
        # (exact 1.0 is still < 2.0) and nothing statistical can pass
        assert len(floored.of_type(LeakType.DEVICE_DATA_FLOW)) \
            < len(open_report.of_type(LeakType.DEVICE_DATA_FLOW))

    def test_invalid_correction_rejected(self):
        with pytest.raises(Exception) as excinfo:
            LeakageConfig(mi_bias_correction="bogus")
        message = str(excinfo.value)
        assert "bias correction" in message and "'bogus'" in message

    def test_all_corrections_flag_the_planted_leak(self):
        fixed, random = evidences(make_program("df"), fixed_value=3)
        for correction in ("none", "miller_madow", "jackknife",
                           "shrinkage"):
            config = LeakageConfig(mi_bias_correction=correction)
            report = MIAnalyzer(config).analyze(fixed, random)
            flagged = {leak.instr for leak in
                       report.of_type(LeakType.DEVICE_DATA_FLOW)}
            assert 1 in flagged, correction


class TestAgainstKS:
    def test_mi_flags_every_planted_leak_ks_flags(self):
        """On the planted programs the detectors must agree on ground
        truth (the Table-3 sweep lives in the benchmark suite)."""
        for mode, fixed_value in (("df", 3), ("cf", 2)):
            fixed, random = evidences(make_program(mode), fixed_value)
            ks_locations = {(leak.leak_type,) + leak.location
                            for leak in LeakageAnalyzer()
                            .analyze(fixed, random).leaks}
            mi_locations = {(leak.leak_type,) + leak.location
                            for leak in MIAnalyzer()
                            .analyze(fixed, random).leaks}
            assert ks_locations <= mi_locations
