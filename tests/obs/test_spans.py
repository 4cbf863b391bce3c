"""Module-level hooks: levels, spans, events, snapshots."""

import pytest

from repro import obs


class TestLevels:
    def test_off_by_default(self):
        assert obs.level() == "off"
        assert not obs.enabled()

    def test_enable_disable(self):
        obs.enable()
        assert obs.level() == "metrics"
        assert obs.enabled()
        obs.enable("trace")
        assert obs.level() == "trace"
        obs.disable()
        assert obs.level() == "off"

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            obs.configure("loud")


class TestHooksOff:
    def test_hooks_are_noops_when_off(self):
        obs.count("distgnn.epochs")
        obs.gauge("cluster.memory_peak_bytes", 5.0, machine=0)
        obs.observe("distgnn.epoch_seconds", 1.0)
        obs.event("phase", "forward")
        with obs.span("anything"):
            pass
        assert len(obs.get_registry()) == 0

    def test_null_span_is_shared(self):
        assert obs.span("a") is obs.span("b")


class TestHooksOn:
    def test_count_and_observe(self):
        obs.enable()
        obs.count("distgnn.epochs", 2)
        obs.observe("distgnn.epoch_seconds", 0.5)
        names = [e["name"] for e in obs.snapshot()]
        assert "distgnn.epochs" in names
        assert "distgnn.epoch_seconds" in names

    def test_span_observes_timer(self):
        obs.enable()
        with obs.span("my-block"):
            pass
        entry = next(
            e for e in obs.snapshot() if e["name"] == "obs.span_seconds"
        )
        assert entry["labels"] == {"span": "my-block"}
        assert entry["count"] == 1

    def test_events_only_at_trace_level(self):
        sink = obs.MemorySink()
        obs.configure("metrics", sink)
        obs.event("mark", "checkpoint")
        assert sink.events == []
        obs.configure("trace", sink)
        obs.event("mark", "checkpoint", epoch=3)
        assert sink.events[0]["kind"] == "mark"
        assert sink.events[0]["epoch"] == 3

    def test_span_emits_trace_events(self):
        sink = obs.MemorySink()
        obs.configure("trace", sink)
        with obs.span("gather", machine=1):
            pass
        kinds = [e["kind"] for e in sink.events]
        assert kinds == ["span-begin", "span-end"]
        assert sink.events[0]["machine"] == 1

    def test_reset_clears_registry_and_epoch(self):
        obs.enable()
        obs.count("distgnn.epochs")
        obs.reset()
        assert len(obs.get_registry()) == 0
        # reset keeps the level: collection continues
        assert obs.enabled()

