"""eBPF programs, verifier checks, and cost bounds."""

import numpy as np
import pytest

from repro.ebpf import (
    ExecutionEnvironment,
    MAX_INSTRUCTIONS,
    OpKind,
    VerifierError,
    XdpAction,
    XdpProgram,
    build_base,
    build_ts,
    build_ts_d_rb,
    build_ts_ow,
    build_ts_rb,
    build_ts_ts,
    paper_variants,
    verify,
)
from tests.hoststack.reference_sampler import execute_ns


class TestVariants:
    def test_six_variants_in_paper_order(self):
        names = [program.name for program in paper_variants()]
        assert names == ["Base", "TS", "TS-TS", "TS-RB", "TS-OW", "TS-D-RB"]

    def test_timestamp_counts(self):
        assert build_base().count(OpKind.HELPER_KTIME) == 0
        assert build_ts().count(OpKind.HELPER_KTIME) == 1
        assert build_ts_ts().count(OpKind.HELPER_KTIME) == 2
        assert build_ts_d_rb().count(OpKind.HELPER_KTIME) == 2

    def test_ringbuf_usage(self):
        assert not build_base().uses_ringbuf
        assert not build_ts_ow().uses_ringbuf
        assert build_ts_rb().uses_ringbuf
        assert build_ts_d_rb().uses_ringbuf

    def test_all_variants_are_reflectors(self):
        assert all(p.action is XdpAction.XDP_TX for p in paper_variants())

    def test_all_variants_verify(self):
        for program in paper_variants():
            bound = verify(program)
            assert bound.expected_ns > 0
            assert bound.deviation_ns > 0

    def test_static_cost_ordering_matches_structure(self):
        costs = {p.name: verify(p).expected_ns for p in paper_variants()}
        assert costs["Base"] < costs["TS"] < costs["TS-TS"]
        assert costs["TS-RB"] > costs["TS-TS"]
        assert costs["TS-D-RB"] > costs["TS-RB"]

    def test_upper_bound_exceeds_expectation(self):
        bound = verify(build_base())
        assert bound.upper_bound_ns() > bound.expected_ns


class TestVerifier:
    def test_empty_program_rejected(self):
        with pytest.raises(VerifierError):
            verify(XdpProgram(name="empty"))

    def test_missing_return_rejected(self):
        program = XdpProgram(name="no-ret").add(OpKind.ALU)
        with pytest.raises(VerifierError):
            verify(program)

    def test_double_return_rejected(self):
        program = (
            XdpProgram(name="two-ret")
            .add(OpKind.RETURN)
            .add(OpKind.RETURN)
        )
        with pytest.raises(VerifierError):
            verify(program)

    def test_packet_access_without_bounds_check_rejected(self):
        program = (
            XdpProgram(name="unchecked")
            .add(OpKind.PKT_READ)
            .add(OpKind.RETURN)
        )
        with pytest.raises(VerifierError) as exc:
            verify(program)
        assert "bounds check" in str(exc.value)

    def test_oversized_program_rejected(self):
        program = XdpProgram(name="huge")
        for _ in range(MAX_INSTRUCTIONS + 1):
            program.add(OpKind.ALU)
        with pytest.raises(VerifierError):
            verify(program)

    def test_bounds_check_enables_packet_access(self):
        program = (
            XdpProgram(name="checked")
            .add(OpKind.BRANCH)
            .add(OpKind.PKT_READ)
            .add(OpKind.RETURN)
        )
        verify(program)  # should not raise


class TestExecution:
    """Per-invocation cost, drawn through the scalar reference sampler."""

    def sample(self, program, environment, count, seed):
        rng = np.random.default_rng(seed)
        return [execute_ns(program, environment, rng) for _ in range(count)]

    def test_sampled_cost_near_static_expectation(self):
        program = build_ts_ts()
        bound = verify(program)
        samples = self.sample(program, ExecutionEnvironment(), 2000, seed=0)
        assert abs(np.mean(samples) - bound.expected_ns) < 0.25 * bound.expected_ns

    def test_contention_scale_grows_with_flows(self):
        single = ExecutionEnvironment(active_flows=1)
        many = ExecutionEnvironment(active_flows=25)
        assert many.contention_scale() > single.contention_scale() == 1.0

    def test_flow_count_widens_execution_distribution(self):
        program = build_base()
        single = self.sample(program, ExecutionEnvironment(active_flows=1), 1500, seed=1)
        many = self.sample(program, ExecutionEnvironment(active_flows=25), 1500, seed=1)
        assert np.std(many) > np.std(single)

    def test_ringbuf_execution_dominates(self):
        environment = ExecutionEnvironment()
        base = np.median(self.sample(build_base(), environment, 500, seed=2))
        ringbuf = np.median(self.sample(build_ts_rb(), environment, 500, seed=2))
        assert ringbuf > base + 3_000
