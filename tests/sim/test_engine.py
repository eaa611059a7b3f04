"""Tests for the generic DES engine behind the replay oracle."""

import pytest

from repro.core import SimulationError
from repro.sim.events import Event, EventType
from tests.sim.oracles import Engine


class TestEngine:
    def test_dispatch_by_type(self):
        engine = Engine()
        seen = []
        engine.on(EventType.GPU_CHECK, lambda e: seen.append(("check", e.payload)))
        engine.on(EventType.JOB_ARRIVAL, lambda e: seen.append(("arrive", e.payload)))
        engine.at(1.0, EventType.JOB_ARRIVAL, "j")
        engine.at(0.5, EventType.GPU_CHECK, "g")
        assert engine.run() == 2
        assert seen == [("check", "g"), ("arrive", "j")]

    def test_handler_can_push_followups(self):
        engine = Engine()
        ticks = []

        def tick(event: Event) -> None:
            ticks.append(event.time)
            if event.time < 3.0:
                engine.at(event.time + 1.0, EventType.GPU_CHECK)

        engine.on(EventType.GPU_CHECK, tick)
        engine.at(0.0, EventType.GPU_CHECK)
        engine.run()
        assert ticks == [0.0, 1.0, 2.0, 3.0]

    def test_now_advances(self):
        engine = Engine()
        times = []
        engine.on(EventType.GPU_CHECK, lambda e: times.append(engine.now))
        engine.at(2.5, EventType.GPU_CHECK)
        engine.run()
        assert times == [2.5]

    def test_missing_handler_raises(self):
        engine = Engine()
        engine.at(0.0, EventType.GPU_CHECK)
        with pytest.raises(SimulationError):
            engine.run()

    def test_double_registration_rejected(self):
        engine = Engine()
        engine.on(EventType.GPU_CHECK, lambda e: None)
        with pytest.raises(SimulationError):
            engine.on(EventType.GPU_CHECK, lambda e: None)

    def test_event_budget_catches_livelock(self):
        engine = Engine()

        def forever(event: Event) -> None:
            engine.at(event.time + 1.0, EventType.GPU_CHECK)

        engine.on(EventType.GPU_CHECK, forever)
        engine.at(0.0, EventType.GPU_CHECK)
        with pytest.raises(SimulationError):
            engine.run(max_events=50)

    def test_processed_accumulates_across_runs(self):
        engine = Engine()
        engine.on(EventType.GPU_CHECK, lambda e: None)
        engine.at(0.0, EventType.GPU_CHECK)
        engine.run()
        engine.at(1.0, EventType.GPU_CHECK)
        assert engine.run() == 2
