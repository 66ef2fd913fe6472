"""The scheduling API: ``sim.schedule(fn[, arg], *, after/at/priority)``.

``schedule`` is the one scheduling entry point.  Its optional positional
``arg`` makes the event call ``fn(arg)``, so hot paths schedule a bound
method without a per-event closure.  The pre-redesign positional forms
``schedule(delay, fn)`` and ``schedule_at(time, fn)`` are gone.  The
one-argument tests run on the simulator's heap and on the reference loop
over ``EventQueue`` the property tests compare it against.
"""

import gc
import weakref

import pytest

from repro.simcore import (
    MS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    SimulationError,
    Simulator,
    US,
)
from tests.simcore.reference_loop import ReferenceSimulator


class TestKeywordApi:
    def test_after_schedules_relative_to_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(lambda: fired.append(sim.now), after=5 * US)
        sim.run()
        assert fired == [5 * US]

    def test_at_schedules_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule(lambda: fired.append(sim.now), at=2 * MS)
        sim.run()
        assert fired == [2 * MS]

    def test_no_time_argument_fires_at_current_instant(self):
        sim = Simulator()
        fired = []
        sim.schedule(lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]

    def test_after_and_at_are_mutually_exclusive(self):
        sim = Simulator()
        with pytest.raises(TypeError, match="either 'after' or 'at'"):
            sim.schedule(lambda: None, after=1, at=2)

    def test_negative_after_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(lambda: None, after=-1)

    def test_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(lambda: None, after=10 * US)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(lambda: None, at=5 * US)

    def test_priority_breaks_same_instant_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(lambda: order.append("low"), after=1 * US, priority=PRIORITY_LOW)
        sim.schedule(lambda: order.append("normal"), after=1 * US)
        sim.schedule(lambda: order.append("high"), after=1 * US, priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal", "low"]

    def test_returned_event_supports_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(lambda: fired.append("no"), after=1 * US)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_new_form_does_not_warn(self, recwarn):
        sim = Simulator()
        sim.schedule(lambda: None, after=1 * US)
        sim.schedule(lambda: None, at=2 * US)
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestRemovedShims:
    def test_positional_delay_form_raises(self):
        sim = Simulator()
        with pytest.raises(TypeError, match="after=delay"):
            sim.schedule(3 * US, lambda: None)
        assert sim.stats.events_scheduled == 0

    def test_schedule_at_is_gone(self):
        assert not hasattr(Simulator, "schedule_at")

    def test_callback_keyword_is_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule(callback=lambda: None, after=1)


ENGINES = {"heap": Simulator, "reference": ReferenceSimulator}


@pytest.mark.parametrize("engine", ENGINES)
class TestOneArgument:
    def test_argument_is_delivered(self, engine):
        sim = ENGINES[engine]()
        fired = []
        sim.schedule(fired.append, "a", after=2 * US)
        sim.schedule(fired.append, "b", at=1 * US)
        sim.schedule(lambda: fired.append("none"), after=1 * US)
        sim.run()
        assert fired == ["b", "none", "a"]

    def test_none_is_a_real_argument(self, engine):
        sim = ENGINES[engine]()
        fired = []
        sim.schedule(fired.append, None)
        sim.run()
        assert fired == [None]

    def test_cancel_still_works(self, engine):
        sim = ENGINES[engine]()
        fired = []
        handle = sim.schedule(fired.append, "no", after=1 * US)
        sim.schedule(fired.append, "yes", after=1 * US)
        handle.cancel()
        sim.run()
        assert fired == ["yes"]
        assert sim.stats.events_executed == 1

    def test_fired_event_drops_its_argument(self, engine):
        class Payload:
            pass

        sim = ENGINES[engine]()
        payload = Payload()
        ref = weakref.ref(payload)
        for delay in (1, 1, 2):  # a shared instant and a single one
            sim.schedule(lambda _: None, payload, after=delay)
        del payload
        sim.run()
        gc.collect()
        assert ref() is None

    def test_step_passes_the_argument(self, engine):
        sim = ENGINES[engine]()
        fired = []
        sim.schedule(fired.append, 7, after=1)
        assert sim.step()
        assert fired == [7]
