"""``XdpHostModel.residence_ns`` against the scalar reference sampler.

The model draws a frame's normals in batches; the reference draws them one
call at a time.  Both read the ``reflector/exec`` stream, so the golden
figures only hold if they agree on every sample bit for bit and leave the
generator in the same state.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf import DEFAULT_COSTS, OpCost, OpKind, build_base, paper_variants
from repro.hoststack import (
    PREEMPT_RT_ISOLATED,
    PREEMPT_RT_SHARED,
    STOCK_KERNEL,
    XdpHostModel,
)
from tests.hoststack.reference_sampler import ReferenceXdpHostModel

#: Every op spikes often, so runs of normals break after each op and the
#: spike draws run on most frames.
SPIKY_COSTS = {
    kind: dataclasses.replace(
        cost, spike_probability=0.3, spike_min_ns=100.0, spike_max_ns=5_000.0
    )
    for kind, cost in DEFAULT_COSTS.items()
}

KERNELS = (PREEMPT_RT_ISOLATED, PREEMPT_RT_SHARED, STOCK_KERNEL)


def twin_models(program, kernel, flows, seed):
    model = XdpHostModel(
        program=program,
        rng=np.random.default_rng(seed),
        kernel=kernel,
        active_flows=flows,
    )
    reference = ReferenceXdpHostModel(
        program=program,
        rng=np.random.default_rng(seed),
        kernel=kernel,
        active_flows=flows,
    )
    return model, reference


def draws(sampler, frame_bytes, count):
    return [sampler.residence_ns(frame_bytes).hex() for _ in range(count)]


@settings(deadline=None, max_examples=60)
@given(
    variant=st.integers(0, 5),
    spiky=st.booleans(),
    flows=st.integers(1, 100),
    frame_bytes=st.integers(64, 1522),
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from(KERNELS),
)
def test_batched_draws_match_scalar_reference(
    variant, spiky, flows, frame_bytes, seed, kernel
):
    program = paper_variants()[variant]
    if spiky:
        program = dataclasses.replace(program, cost_table=dict(SPIKY_COSTS))
    model, reference = twin_models(program, kernel, flows, seed)
    assert draws(model, frame_bytes, 300) == draws(reference, frame_bytes, 300)
    assert model.rng.bit_generator.state == reference.rng.bit_generator.state


def test_spike_and_preemption_branches_are_exercised():
    # A kernel that always preempts and a spiky program: every branch of
    # the plan draws on every frame, and the streams still agree.
    always = dataclasses.replace(STOCK_KERNEL, preemption_probability=1.0)
    program = dataclasses.replace(build_base(), cost_table=dict(SPIKY_COSTS))
    model, reference = twin_models(program, always, flows=7, seed=3)
    assert draws(model, 64, 200) == draws(reference, 64, 200)
    assert model.rng.bit_generator.state == reference.rng.bit_generator.state


def test_spiky_final_op_still_batches_the_tail():
    # A spiky final op leaves an empty op run before the tx-side normals.
    spiky_return = OpCost(
        mean_ns=2.0, std_ns=0.5, spike_probability=0.5,
        spike_min_ns=10.0, spike_max_ns=20.0,
    )
    program = dataclasses.replace(
        build_base(), cost_table={**DEFAULT_COSTS, OpKind.RETURN: spiky_return}
    )
    model, reference = twin_models(program, STOCK_KERNEL, flows=1, seed=11)
    assert draws(model, 64, 200) == draws(reference, 64, 200)
    assert model.rng.bit_generator.state == reference.rng.bit_generator.state


def test_set_active_flows_rebuilds_the_plan():
    model = XdpHostModel(program=build_base(), rng=np.random.default_rng(5))
    draws(model, 64, 50)
    reference_rng = np.random.default_rng()
    reference_rng.bit_generator.state = model.rng.bit_generator.state
    model.set_active_flows(25)
    reference = ReferenceXdpHostModel(
        program=build_base(), rng=reference_rng, active_flows=25
    )
    assert draws(model, 64, 200) == draws(reference, 64, 200)
    assert model.rng.bit_generator.state == reference_rng.bit_generator.state
