"""Alert rules: validation, evaluation, serialization, abort plumbing."""

import json

import pytest

from repro.obs.live import (
    AlertRule,
    RuleSet,
    SweepAborted,
    record_totals,
    severity_at_least,
)


def rule(**overrides):
    base = dict(
        name="r", kind="threshold", metric="cluster.lost_messages",
        op=">", value=0.0, severity="warning",
    )
    base.update(overrides)
    return AlertRule(**base)


class TestValidation:
    def test_unknown_metric_rejected_at_construction(self):
        with pytest.raises(KeyError):
            rule(metric="cluster.no_such_metric")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rule(kind="median")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            rule(severity="fatal")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            rule(op="==")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            rule(name="")

    def test_ratio_requires_denominator(self):
        with pytest.raises(ValueError):
            rule(kind="ratio")

    def test_ratio_denominator_must_be_catalog_name(self):
        with pytest.raises(KeyError):
            rule(kind="ratio", denominator="nope.nope")

    def test_denominator_rejected_on_threshold(self):
        with pytest.raises(ValueError):
            rule(denominator="cluster.bytes_sent")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            AlertRule.from_dict({
                "name": "r", "kind": "threshold",
                "metric": "cluster.lost_messages", "theshold": 3,
            })

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RuleSet.from_dict({
                "rules": [rule().to_dict(), rule().to_dict()],
            })

    def test_rules_key_must_be_list(self):
        with pytest.raises(ValueError):
            RuleSet.from_dict({"rules": {"name": "r"}})


class TestEvaluate:
    def test_threshold_fires(self):
        finding = rule(value=1.0).evaluate(
            {"cluster.lost_messages": 2.0}, "OR/hdrf/k=4"
        )
        assert finding is not None
        assert finding.kind == "alert:threshold"
        assert finding.severity == "warning"
        assert finding.context["rule"] == "r"
        assert finding.value == 2.0

    def test_threshold_below_value_silent(self):
        assert rule(value=5.0).evaluate(
            {"cluster.lost_messages": 2.0}, "s"
        ) is None

    def test_threshold_missing_metric_skipped(self):
        assert rule().evaluate({"cluster.bytes_sent": 1.0}, "s") is None

    def test_ratio_fires_on_quotient(self):
        r = rule(
            kind="ratio", metric="cluster.phase_seconds",
            denominator="distgnn.epoch_seconds", value=3.0,
        )
        totals = {
            "cluster.phase_seconds": 10.0,
            "distgnn.epoch_seconds": 2.0,
        }
        finding = r.evaluate(totals, "s")
        assert finding is not None
        assert finding.value == 5.0

    def test_ratio_zero_denominator_skipped(self):
        r = rule(
            kind="ratio", metric="cluster.phase_seconds",
            denominator="distgnn.epoch_seconds", value=0.0,
        )
        assert r.evaluate({"cluster.phase_seconds": 10.0}, "s") is None
        assert r.evaluate(
            {
                "cluster.phase_seconds": 10.0,
                "distgnn.epoch_seconds": 0.0,
            },
            "s",
        ) is None

    def test_absence_fires_on_missing_or_zero(self):
        r = rule(kind="absence", metric="cluster.bytes_sent")
        assert r.evaluate({}, "s") is not None
        assert r.evaluate({"cluster.bytes_sent": 0.0}, "s") is not None
        assert r.evaluate({"cluster.bytes_sent": 1.0}, "s") is None

    def test_custom_message_included(self):
        finding = rule(message="boom").evaluate(
            {"cluster.lost_messages": 1.0}, "s"
        )
        assert "boom" in finding.message
        assert "'r'" in finding.message


class TestSerialization:
    def test_round_trip(self):
        original = rule(
            kind="ratio", metric="cluster.phase_seconds",
            denominator="distgnn.epoch_seconds", value=2.5,
            severity="critical", message="m",
        )
        assert AlertRule.from_dict(original.to_dict()) == original

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [rule().to_dict()]}))
        loaded = RuleSet.load(str(path))
        assert len(loaded.rules) == 1
        assert loaded.rules[0] == rule()

    def test_example_rules_file_is_valid(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "..",
            "examples", "alert_rules.json",
        )
        ruleset = RuleSet.load(path)
        assert {r.kind for r in ruleset.rules} == {
            "threshold", "ratio", "absence",
        }


class TestRecordTotals:
    def test_distgnn_record_mapping(self, tiny_or):
        from repro.experiments import TrainingParams, run_distgnn

        record = run_distgnn(tiny_or, "hdrf", 2, TrainingParams(), seed=0)
        totals = record_totals(record)
        assert totals["cluster.bytes_sent"] == record.network_bytes
        assert totals["cluster.phase_seconds"] == record.makespan_seconds
        assert totals["distgnn.epoch_seconds"] == record.epoch_seconds
        assert "distgnn.replayed_epochs" in totals
        assert "distdgl.degraded_steps" not in totals

    @pytest.mark.parametrize("engine", ["distgnn", "distdgl"])
    @pytest.mark.parametrize("shimmed", [False, True])
    def test_keys_are_catalog_names(
        self, tiny_or, tiny_or_split, engine, shimmed
    ):
        """Every total is addressable by a rule (rules validate their
        metric against the catalog at load), for both record types and
        for the watch monitor's event shim."""
        from repro.experiments import ENGINES, TrainingParams
        from repro.obs.catalog import metric_names
        from repro.obs.live.bus import record_event_fields
        from repro.obs.live.watch import _RecordShim

        extra = {"split": tiny_or_split} if engine == "distdgl" else {}
        record = ENGINES[engine].run(
            tiny_or, "random", 2, TrainingParams(), **extra
        )
        assert record.engine == engine
        if shimmed:
            record = _RecordShim(record_event_fields(record, engine))
            assert record.engine == engine
        assert set(record_totals(record)) <= set(metric_names())

    def test_obs_metrics_win_over_record_fields(self):
        class Shim:
            engine = "distgnn"
            graph = "OR"
            partitioner = "hdrf"
            num_machines = 2
            epoch_seconds = 1.0
            makespan_seconds = 2.0
            network_bytes = 10.0
            lost_messages = 1
            obs_metrics = {
                "bytes_sent_total": 99.0,
                "lost_messages_total": 7,
                "memory_peak_bytes_max": 123.0,
            }

        totals = record_totals(Shim())
        assert totals["cluster.bytes_sent"] == 99.0
        assert totals["cluster.lost_messages"] == 7.0
        assert totals["cluster.memory_peak_bytes"] == 123.0

    def test_ruleset_evaluate_records_subjects(self):
        class Shim:
            engine = "distgnn"
            graph = "OR"
            partitioner = "hdrf"
            num_machines = 4
            epoch_seconds = 1.0
            makespan_seconds = 2.0
            network_bytes = 10.0
            lost_messages = 3
            obs_metrics = None

        ruleset = RuleSet((rule(severity="critical"),))
        findings = ruleset.evaluate_records([Shim()])
        assert len(findings) == 1
        assert findings[0].subject == "OR/hdrf/k=4"


class TestAbort:
    def test_severity_ordering(self):
        assert severity_at_least("critical", "warning")
        assert severity_at_least("warning", "warning")
        assert not severity_at_least("info", "warning")

    def test_sweep_aborted_names_fired_rules(self):
        f1 = rule(name="first", severity="critical").evaluate(
            {"cluster.lost_messages": 1.0}, "s"
        )
        f2 = rule(name="second", severity="critical").evaluate(
            {"cluster.lost_messages": 2.0}, "s"
        )
        error = SweepAborted([f1, f2])
        assert "first" in str(error)
        assert "second" in str(error)
        assert error.findings == [f1, f2]
