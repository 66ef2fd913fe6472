"""Property-based tests for TSN primitives."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.tsn import (
    ALL_PCPS,
    ArrivalCurve,
    GateControlEntry,
    GateControlList,
    ServiceCurve,
    delay_bound_s,
    protected_window_gcl,
)

pcpsets = st.sets(st.integers(0, 7), max_size=8).map(frozenset)


@given(
    st.lists(
        st.tuples(st.integers(1, 10_000), pcpsets),
        min_size=1,
        max_size=10,
    ),
    st.integers(0, 100_000),
)
def test_gcl_state_is_periodic(entries, probe):
    gcl = GateControlList(
        entries=[GateControlEntry(d, pcps) for d, pcps in entries]
    )
    cycle = gcl.cycle_time_ns
    base_state = gcl.state_at(probe)
    for k in (1, 3, 7):
        assert gcl.state_at(probe + k * cycle) == base_state


@given(
    st.lists(
        st.tuples(st.integers(1, 10_000), pcpsets),
        min_size=1,
        max_size=10,
    ),
    st.integers(0, 100_000),
    st.integers(0, 7),
)
def test_gate_open_until_consistent_with_state(entries, probe, pcp):
    gcl = GateControlList(
        entries=[GateControlEntry(d, pcps) for d, pcps in entries]
    )
    open_pcps, _ = gcl.state_at(probe)
    open_for = gcl.gate_open_until(probe, pcp)
    if pcp in open_pcps:
        assert open_for > 0
        assert open_for <= gcl.cycle_time_ns
    else:
        assert open_for == 0


@given(
    st.integers(1_000, 1_000_000),
    st.integers(1, 999),
    st.integers(0, 7),
)
def test_protected_window_partitions_the_cycle(cycle_scale, window_ppm, pcp):
    cycle = cycle_scale
    window = max(1, cycle * window_ppm // 1000)
    assume(window < cycle)
    gcl = protected_window_gcl(cycle, window, rt_pcps=frozenset({6, 7}))
    # At every instant exactly one of (RT open) xor (BE open) holds.
    for probe in range(0, cycle, max(1, cycle // 17)):
        open_pcps, _ = gcl.state_at(probe)
        assert open_pcps in (frozenset({6, 7}), ALL_PCPS - frozenset({6, 7}))


@given(
    st.floats(0, 1e6), st.floats(0, 1e8),
    st.floats(1e8, 1e10), st.floats(0, 1e-3),
)
def test_delay_bound_monotonic_in_burst_and_latency(
    burst, rate, service_rate, latency
):
    assume(rate <= service_rate)
    alpha_small = ArrivalCurve(burst, rate)
    alpha_big = ArrivalCurve(burst + 1000, rate)
    beta = ServiceCurve(service_rate, latency)
    beta_slow = ServiceCurve(service_rate, latency + 1e-6)
    assert delay_bound_s(alpha_big, beta) >= delay_bound_s(alpha_small, beta)
    assert delay_bound_s(alpha_small, beta_slow) >= delay_bound_s(
        alpha_small, beta
    )


@given(
    st.floats(1, 1e5), st.floats(0, 1e7),
    st.lists(
        st.tuples(st.floats(1e8, 1e10), st.floats(0, 1e-4)),
        min_size=2, max_size=6,
    ),
)
@settings(deadline=None)
def test_concatenated_bound_never_worse_than_sum(burst, rate, hops):
    from repro.tsn import path_delay_bound_s

    assume(all(rate <= r for r, _ in hops))
    alpha = ArrivalCurve(burst, rate)
    curves = [ServiceCurve(r, t) for r, t in hops]
    concatenated = path_delay_bound_s(alpha, curves)
    per_hop_sum = sum(delay_bound_s(alpha, c) for c in curves)
    assert concatenated <= per_hop_sum + 1e-12
