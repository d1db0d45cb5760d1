"""CircuitBreaker: state machine, epoch cooldown, telemetry, pickling."""

import pickle

import pytest

from repro.obs import telemetry
from repro.resilience import CircuitBreaker


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"failure_threshold": 0},
            {"cooldown_epochs": 0},
            {"probe_successes": 0},
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
        ],
    )
    def test_bad_params(self, kw):
        with pytest.raises(ValueError):
            CircuitBreaker(**kw)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        b = CircuitBreaker()
        assert b.state == "closed"
        assert b.rank == 0
        assert b.allow(0)

    def test_opens_after_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3)
        assert b.record(epoch=1, failed=True) is None
        assert b.record(epoch=2, failed=True) is None
        assert b.record(epoch=3, failed=True) == "open"
        assert b.state == "open"
        assert b.opens == 1
        assert not b.allow(4)

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record(epoch=1, failed=True)
        b.record(epoch=2, failed=False)
        assert b.record(epoch=3, failed=True) is None
        assert b.state == "closed"

    def test_deadline_breach_counts_as_failure(self):
        b = CircuitBreaker(failure_threshold=1, deadline_s=0.1)
        assert b.record(epoch=1, duration_s=0.2) == "open"

    def test_no_deadline_means_duration_ignored(self):
        b = CircuitBreaker(failure_threshold=1, deadline_s=None)
        assert b.record(epoch=1, duration_s=100.0) is None
        assert b.state == "closed"

    def test_cooldown_then_half_open(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_epochs=3)
        b.record(epoch=10, failed=True)
        assert not b.allow(11)
        assert not b.allow(12)
        assert b.allow(13)  # 13 - 10 >= 3 -> half-open probe
        assert b.state == "half_open"
        assert b.rank == 1

    def test_probe_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_epochs=1)
        b.record(epoch=1, failed=True)
        assert b.allow(2)
        assert b.record(epoch=2, failed=False) == "close"
        assert b.state == "closed"
        assert b.closes == 1

    def test_probe_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_epochs=2)
        b.record(epoch=1, failed=True)
        assert b.allow(3)
        assert b.record(epoch=3, failed=True) == "open"
        assert b.opened_epoch == 3
        assert not b.allow(4)  # cooldown restarted from the re-open

    def test_multiple_probes_required(self):
        b = CircuitBreaker(
            failure_threshold=1, cooldown_epochs=1, probe_successes=2
        )
        b.record(epoch=1, failed=True)
        assert b.allow(2)
        assert b.record(epoch=2, failed=False) is None
        assert b.state == "half_open"
        assert b.record(epoch=3, failed=False) == "close"


class TestTelemetryAndState:
    def test_transition_counters(self):
        telemetry.enable()
        b = CircuitBreaker(failure_threshold=1, cooldown_epochs=1)
        b.record(epoch=1, failed=True)
        b.allow(2)
        b.record(epoch=2, failed=False)
        counters = telemetry.report()["counters"]
        assert counters["breaker.opens"] == 1
        assert counters["breaker.half_opens"] == 1
        assert counters["breaker.closes"] == 1

    def test_pickle_round_trip(self):
        b = CircuitBreaker(failure_threshold=2, cooldown_epochs=4)
        b.record(epoch=1, failed=True)
        clone = pickle.loads(pickle.dumps(b))
        assert clone.failures == 1
        assert clone.state == "closed"
        assert clone.cooldown_epochs == 4
