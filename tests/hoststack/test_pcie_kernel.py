"""PCIe, kernel-noise and cache-contention models.

The distribution checks draw through the scalar component samplers of
:mod:`tests.hoststack.reference_sampler`, which
``test_residence_oracle.py`` pins bit for bit to ``XdpHostModel``.
"""

import numpy as np
import pytest

from repro.hoststack import (
    CacheContentionModel,
    PREEMPT_RT_ISOLATED,
    PREEMPT_RT_SHARED,
    PcieModel,
    STOCK_KERNEL,
)
from tests.hoststack.reference_sampler import cache_ns, kernel_ns, pcie_ns


class TestPcie:
    def test_fixed_costs_dominate_small_packets(self):
        # The paper's (and Neugebauer et al.'s) point: for a 64 B frame the
        # size-independent PCIe costs are >90% of the transfer latency.
        model = PcieModel()
        assert model.fixed_fraction(64) > 0.9

    def test_fixed_fraction_falls_for_large_transfers(self):
        model = PcieModel()
        assert model.fixed_fraction(64) > model.fixed_fraction(1500)

    def test_dma_scales_linearly(self):
        model = PcieModel()
        assert model.dma_ns(2000) == pytest.approx(2 * model.dma_ns(1000))

    def test_latency_includes_fixed_floor(self):
        model = PcieModel(noise_std_ns=0.0, iotlb_miss_probability=0.0)
        rng = np.random.default_rng(0)
        assert pcie_ns(model, model.rx_fixed_ns, 64, rng) >= model.rx_fixed_ns
        assert pcie_ns(model, model.tx_fixed_ns, 64, rng) >= model.tx_fixed_ns

    def test_iotlb_misses_add_rare_penalty(self):
        model = PcieModel(
            noise_std_ns=0.0, iotlb_miss_probability=0.5,
            iotlb_miss_penalty_ns=10_000.0,
        )
        rng = np.random.default_rng(1)
        samples = [pcie_ns(model, model.rx_fixed_ns, 64, rng) for _ in range(400)]
        fast = min(samples)
        assert max(samples) >= fast + 10_000
        penalized = sum(1 for s in samples if s > fast + 5_000)
        assert 120 < penalized < 280  # about half

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PcieModel().dma_ns(-1)


class TestKernelNoise:
    def test_noise_is_nonnegative(self):
        rng = np.random.default_rng(0)
        for model in (PREEMPT_RT_ISOLATED, PREEMPT_RT_SHARED, STOCK_KERNEL):
            assert all(kernel_ns(model, rng) >= 0 for _ in range(500))

    def test_kernel_ordering_rt_isolated_quietest(self):
        def p999(model, seed):
            rng = np.random.default_rng(seed)
            return np.percentile(
                [kernel_ns(model, rng) for _ in range(20000)], 99.9
            )

        isolated = p999(PREEMPT_RT_ISOLATED, 1)
        shared = p999(PREEMPT_RT_SHARED, 1)
        stock = p999(STOCK_KERNEL, 1)
        assert isolated < shared < stock

    def test_stock_kernel_not_hard_realtime(self):
        # Section 2.1: stock kernels show long unpredictable stalls.
        rng = np.random.default_rng(2)
        worst = max(kernel_ns(STOCK_KERNEL, rng) for _ in range(50000))
        assert worst > 20_000  # tens of microseconds


class TestCacheContention:
    def test_single_flow_pays_nothing(self):
        model = CacheContentionModel()
        rng = np.random.default_rng(0)
        assert model.extra_mean_ns(1) == 0.0
        assert cache_ns(model, 1, rng) == 0.0

    def test_penalty_grows_with_flows(self):
        model = CacheContentionModel()
        assert model.extra_mean_ns(25) > model.extra_mean_ns(2) > 0

    def test_penalty_saturates(self):
        model = CacheContentionModel(saturation_flows=10)
        assert model.extra_mean_ns(11) == model.extra_mean_ns(1000)

    def test_variance_grows_with_flows(self):
        model = CacheContentionModel()
        rng = np.random.default_rng(3)
        few = np.std([cache_ns(model, 2, rng) for _ in range(3000)])
        many = np.std([cache_ns(model, 25, rng) for _ in range(3000)])
        assert many > few
