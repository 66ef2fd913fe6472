"""Property-based determinism tests, driven by stdlib ``random.Random``.

Every test here runs N randomized trials.  The *case generators* are
seeded ``random.Random`` instances — no extra dependency, and a failing
trial prints its generator seed so the exact case replays with
``random.Random(seed)``.  The properties are the determinism contracts
the rest of the repo builds on:

- the simulator fires events in a total order — ``(time, priority,
  insertion sequence)`` — for *any* interleaving of schedule/step/cancel,
  and so does the reference loop over
  :class:`tests.simcore.reference_loop.EventQueue` it is compared against;
- :class:`repro.simcore.rng.RandomStreams` streams are independent: the
  draws of one stream never depend on which other streams exist or when
  they draw;
- a chaos campaign is a pure function of ``(scenario, seed)``: two runs
  are bit-identical, for any scenario, seed and parameter combination.
"""

import random

import pytest

from repro.chaos import SCENARIOS, get_scenario, run_campaign
from repro.simcore import Simulator
from repro.simcore.rng import RandomStreams
from tests.simcore.reference_loop import ReferenceSimulator

#: Trials per property.  Each failure message carries the trial seed.
TRIALS = 20

#: The simulator and the reference loop satisfy the same ordering contract.
ENGINES = [Simulator, ReferenceSimulator]


def trial_seeds(start):
    """Per-trial generator seeds, derived from a fixed base."""
    return [start + trial for trial in range(TRIALS)]


# -- total event ordering ---------------------------------------------------


def random_ops(rng, size=120):
    """A random schedule/step/cancel interleaving, as replayable pure data.

    A schedule op carries a delay from the current instant, so a script
    stays valid however far earlier steps moved the clock.
    """
    ops = []
    live = 0
    for tag in range(size):
        choice = rng.random()
        if choice < 0.6 or live == 0:
            ops.append(("push", rng.randrange(1000), rng.choice(
                (-10, 0, 0, 0, 10)), tag))
            live += 1
        elif choice < 0.8:
            # Cancel a random earlier push (cancelling twice is fine).
            pushes = [op for op in ops if op[0] == "push"]
            ops.append(("cancel", rng.choice(pushes)[3]))
        else:
            ops.append(("pop",))
            live -= 1
    return ops


def apply_ops(ops, engine):
    """Run an op sequence; return the tags in firing order (``None`` for a
    step that found nothing to fire)."""
    sim = engine()
    events = {}
    fired = []
    for op in ops:
        if op[0] == "push":
            _, delay, priority, tag = op
            events[tag] = sim.schedule(
                fired.append, tag, after=delay, priority=priority
            )
        elif op[0] == "cancel":
            events[op[1]].cancel()
        elif not sim.step():
            fired.append(None)
    sim.run()
    return fired


class TestEventQueueOrdering:
    @pytest.mark.parametrize("seed", trial_seeds(1000))
    def test_identical_op_sequences_pop_identically(self, seed):
        ops = random_ops(random.Random(seed))
        assert apply_ops(ops, Simulator) == apply_ops(
            ops, ReferenceSimulator
        ), f"trial seed {seed}"

    @pytest.mark.parametrize("engine", ENGINES, ids=["heap", "reference"])
    @pytest.mark.parametrize("seed", trial_seeds(2000))
    def test_drain_order_is_the_documented_total_order(self, seed, engine):
        rng = random.Random(seed)
        sim = engine()
        pushed = []
        drained = []
        for tag in range(100):
            time = rng.randrange(50)  # dense times force tie-breaks
            priority = rng.choice((-10, 0, 10))
            event = sim.schedule(drained.append, tag, at=time, priority=priority)
            pushed.append(((time, priority, event.sequence), tag))
        expected = [tag for _, tag in sorted(pushed)]
        sim.run()
        assert drained == expected, f"trial seed {seed}"

    @pytest.mark.parametrize("engine", ENGINES, ids=["heap", "reference"])
    @pytest.mark.parametrize("seed", trial_seeds(3000))
    def test_cancellation_never_reorders_survivors(self, seed, engine):
        rng = random.Random(seed)
        ops = random_ops(rng)
        baseline = apply_ops(ops, engine)
        # Cancelling an event that was never popped must not change the
        # relative order of the surviving pops.
        cancellable = [op[3] for op in ops if op[0] == "push"]
        victim = rng.choice(cancellable)
        mutated = ops + [("cancel", victim)]
        survivors = [
            tag for tag in apply_ops(mutated, engine) if tag != victim
        ]
        expected = [tag for tag in baseline if tag != victim]
        assert survivors == expected, f"trial seed {seed}"


# -- RandomStreams independence ----------------------------------------------


def random_name(rng):
    parts = rng.sample(
        ["link", "plc", "chaos", "net", "cell", "jitter", "faults"],
        k=rng.randrange(1, 4),
    )
    return "/".join(parts) + f"/{rng.randrange(100)}"


class TestRandomStreamsIndependence:
    @pytest.mark.parametrize("seed", trial_seeds(4000))
    def test_same_seed_and_name_reproduce_draws(self, seed):
        rng = random.Random(seed)
        root = rng.randrange(1 << 32)
        name = random_name(rng)
        first = RandomStreams(seed=root).stream(name).random(8).tolist()
        second = RandomStreams(seed=root).stream(name).random(8).tolist()
        assert first == second, f"trial seed {seed}"

    @pytest.mark.parametrize("seed", trial_seeds(5000))
    def test_draws_survive_arbitrary_sibling_interleaving(self, seed):
        # The load-bearing property: creating and drawing from *any* other
        # streams, in any order, never perturbs a stream's own sequence.
        rng = random.Random(seed)
        root = rng.randrange(1 << 32)
        name = random_name(rng)

        quiet = RandomStreams(seed=root)
        baseline = quiet.stream(name).random(16).tolist()

        noisy = RandomStreams(seed=root)
        observed = []
        for _ in range(16):
            for _ in range(rng.randrange(3)):
                noisy.stream(random_name(rng)).random(rng.randrange(1, 5))
            observed.append(float(noisy.stream(name).random()))
        assert observed == baseline, f"trial seed {seed}"

    @pytest.mark.parametrize("seed", trial_seeds(6000))
    def test_distinct_names_give_distinct_sequences(self, seed):
        rng = random.Random(seed)
        root = rng.randrange(1 << 32)
        streams = RandomStreams(seed=root)
        first, second = random_name(rng), random_name(rng)
        if first == second:
            second += "/other"
        draws_a = streams.stream(first).random(8).tolist()
        draws_b = streams.stream(second).random(8).tolist()
        assert draws_a != draws_b, f"trial seed {seed}"

    @pytest.mark.parametrize("seed", trial_seeds(7000))
    def test_forked_registries_are_reproducible(self, seed):
        rng = random.Random(seed)
        root = rng.randrange(1 << 32)
        name = random_name(rng)
        fork_a = RandomStreams(seed=root).fork("child")
        fork_b = RandomStreams(seed=root).fork("child")
        assert (
            fork_a.stream(name).random(4).tolist()
            == fork_b.stream(name).random(4).tolist()
        ), f"trial seed {seed}"


# -- Chaos campaigns are pure functions of (scenario, seed) ------------------


def random_campaign_case(rng):
    return dict(
        name=rng.choice(sorted(SCENARIOS)),
        seed=rng.randrange(1 << 16),
        cells=rng.randrange(1, 5),
        mtbf_scale=rng.choice([0.5, 1.0, 2.0]),
        mttr_scale=rng.choice([0.5, 1.0, 2.0]),
    )


class TestCampaignBitIdentity:
    @pytest.mark.parametrize("seed", trial_seeds(8000)[:8])
    def test_two_runs_are_bit_identical(self, seed):
        case = random_campaign_case(random.Random(seed))
        scenario = get_scenario(
            case["name"], cells=case["cells"],
            mtbf_scale=case["mtbf_scale"], mttr_scale=case["mttr_scale"],
            horizon_s=300.0,
        )
        first = run_campaign(scenario, seed=case["seed"])
        second = run_campaign(scenario, seed=case["seed"])
        assert first == second, (
            f"trial seed {seed}, case {case}"
        )
