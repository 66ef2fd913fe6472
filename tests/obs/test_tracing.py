"""Span tracing and Chrome trace-event export."""

import json

from repro.obs import NULL_TRACER, SIM_TRACK, Tracer

#: Fields the Chrome trace-event format requires on every event.
REQUIRED_FIELDS = ("ph", "ts", "name", "pid", "tid")


def user_events(tracer):
    """Events minus the 'M' metadata records the tracer emits at init."""
    return [e for e in tracer.events if e["ph"] != "M"]


class TestSpans:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("phase", figure="fig5"):
            pass
        (event,) = user_events(tracer)
        assert event["ph"] == "X"
        assert event["name"] == "phase"
        assert event["dur"] >= 0
        assert event["args"]["figure"] == "fig5"

    def test_span_set_attaches_attributes(self):
        tracer = Tracer()
        with tracer.span("phase") as span:
            span.set(rows=60)
        (event,) = user_events(tracer)
        assert event["args"]["rows"] == 60

    def test_span_records_error_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("phase"):
                raise KeyError("boom")
        except KeyError:
            pass
        (event,) = user_events(tracer)
        assert event["args"]["error"] == "KeyError"

    def test_spans_nest_and_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e["name"] for e in user_events(tracer)]
        assert names == ["inner", "outer"]  # inner closes first

    def test_instant_event(self):
        tracer = Tracer()
        tracer.instant("tick", message="hello")
        (event,) = user_events(tracer)
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["args"]["message"] == "hello"


class TestSimTrack:
    def test_sim_span_maps_ns_to_track_us(self):
        tracer = Tracer()
        tracer.sim_span("window", start_ns=1_500_000, end_ns=3_500_000)
        (event,) = user_events(tracer)
        assert event["tid"] == SIM_TRACK
        assert event["ts"] == 1_500.0
        assert event["dur"] == 2_000.0
        assert event["args"]["start_ns"] == 1_500_000

    def test_sim_track_is_named(self):
        tracer = Tracer()
        metas = [e for e in tracer.events if e["ph"] == "M"]
        named = {e["tid"]: e["args"]["name"] for e in metas}
        assert named[SIM_TRACK] == "simulated-time"


class TestExport:
    def test_chrome_schema_fields(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.instant("b")
        tracer.sim_span("c", 0, 1000)
        target = tmp_path / "trace.json"
        count = tracer.write_chrome(target)
        payload = json.loads(target.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == count
        for event in events:
            for field in REQUIRED_FIELDS:
                assert field in event, f"{field} missing from {event}"
            if event["ph"] == "X":
                assert event["dur"] >= 0


class TestNullTracer:
    def test_everything_is_a_noop(self):
        with NULL_TRACER.span("phase", k=1) as span:
            span.set(x=2)
        NULL_TRACER.instant("tick")
        NULL_TRACER.sim_span("w", 0, 10)
        NULL_TRACER.add_complete("c", 0, 1)
        assert len(NULL_TRACER) == 0
