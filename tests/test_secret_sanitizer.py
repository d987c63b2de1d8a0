"""Tests for the runtime secret-taint sanitizer (``repro.crypto.secret``).

The sanitizer is the guard on secret flow: under ``DMW_SANITIZE=1`` bids
are wrapped in :class:`Secret`, every rendering path raises
:class:`SecretLeakError`, and the only door out is :func:`declassify`,
which records an auditable event.  The end-to-end tests run the full
protocol in sanitized mode, honest and under every deviation family, and
check the audit lists only the paper-sanctioned reveals (y*, winner,
y**, winner claims).
"""

import json

import pytest

from repro.analysis.faithfulness import honest_factory, run_with_agents
from repro.core.deviant import standard_deviations
from repro.core.protocol import run_dmw
from repro.crypto.secret import (
    SANITIZE_ENV_VAR,
    DeclassificationEvent,
    Secret,
    SecretLeakError,
    clear_declassification_audit,
    declassification_audit,
    declassify,
    local_value,
    sanitize_enabled,
    secret_json_default,
    tag_secret,
)


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    clear_declassification_audit()
    yield
    clear_declassification_audit()


class TestModeGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        assert not sanitize_enabled()
        assert tag_secret(7, label="bid") == 7
        assert not isinstance(tag_secret(7), Secret)

    def test_enabled_wraps(self, sanitized):
        assert sanitize_enabled()
        wrapped = tag_secret(7, label="bid")
        assert isinstance(wrapped, Secret)

    def test_declassify_passthrough_when_disabled(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        clear_declassification_audit()
        assert declassify(9, reason="test") == 9
        assert declassification_audit() == ()


class TestLeakBarriers:
    def test_str_raises(self, sanitized):
        with pytest.raises(SecretLeakError):
            str(Secret(5, "bid"))

    def test_format_raises(self, sanitized):
        with pytest.raises(SecretLeakError):
            "{}".format(Secret(5, "bid"))

    def test_fstring_raises(self, sanitized):
        secret = Secret(5, "bid")
        with pytest.raises(SecretLeakError):
            f"{secret}"

    def test_percent_d_raises(self, sanitized):
        with pytest.raises(SecretLeakError):
            "%d" % Secret(5, "bid")

    def test_int_coercion_raises(self, sanitized):
        with pytest.raises(SecretLeakError):
            int(Secret(5, "bid"))

    def test_json_dumps_raises_leak_error(self, sanitized):
        with pytest.raises(SecretLeakError):
            json.dumps({"bid": Secret(5, "bid")},
                       default=secret_json_default)

    def test_json_default_still_rejects_other_types(self):
        with pytest.raises(TypeError):
            json.dumps({"x": object()}, default=secret_json_default)

    def test_repr_is_safe_and_redacted(self, sanitized):
        rendered = repr(Secret(5, "bid[agent=0]"))
        assert "5" not in rendered
        assert "bid[agent=0]" in rendered


class TestTaintedArithmetic:
    def test_arithmetic_stays_tainted(self, sanitized):
        secret = Secret(5, "bid")
        assert isinstance(secret + 1, Secret)
        assert isinstance(2 * secret, Secret)
        assert isinstance(secret - Secret(2, "bid"), Secret)
        assert isinstance(secret % 3, Secret)
        assert local_value(secret + 1) == 6

    def test_comparisons_reveal_only_one_bit(self, sanitized):
        assert Secret(3, "bid") < Secret(5, "bid")
        assert Secret(3, "bid") < 5
        assert Secret(5, "bid") == 5
        assert Secret(5, "bid") != 4


class TestDeclassify:
    def test_declassify_unwraps_and_audits(self, sanitized):
        value = declassify(Secret(5, "y*"), reason="minimum bid reveal")
        assert value == 5
        events = declassification_audit()
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, DeclassificationEvent)
        assert event.label == "y*"
        assert event.reason == "minimum bid reveal"
        assert event.value == 5
        assert event.sequence == 0

    def test_local_value_does_not_audit(self, sanitized):
        assert local_value(Secret(5, "bid")) == 5
        assert declassification_audit() == ()

    def test_label_override(self, sanitized):
        declassify(Secret(5, "bid"), reason="r", label="winner_bid")
        assert declassification_audit()[0].label == "winner_bid"


#: The reveal channels the paper sanctions (Phase III).
SANCTIONED_LABELS = {"y*", "winner", "y**", "winner_bid"}


class TestSanitizedProtocolRun:
    def test_full_run_audits_only_sanctioned_reveals(self, sanitized,
                                                     problem53):
        outcome = run_dmw(problem53)
        assert outcome.completed, outcome.abort
        events = declassification_audit()
        assert events, "a sanitized run must record its reveals"
        labels = {event.label for event in events}
        assert labels <= SANCTIONED_LABELS
        assert {"y*", "winner", "y**"} <= labels
        for event in events:
            assert "sanctioned reveal" in event.reason

    def test_sanitized_and_plain_runs_agree(self, monkeypatch, problem53):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        clear_declassification_audit()
        sanitized_outcome = run_dmw(problem53)
        clear_declassification_audit()
        monkeypatch.delenv(SANITIZE_ENV_VAR)
        plain_outcome = run_dmw(problem53)
        assert sanitized_outcome.schedule == plain_outcome.schedule
        assert list(sanitized_outcome.payments) == \
            list(plain_outcome.payments)


class TestSanitizedDeviationSweep:
    """Deviant runs reach the complaint, exclusion and abort paths that
    an honest run never takes; a bid printed, logged or dumped on one of
    them must raise there too."""

    @pytest.mark.parametrize("strategy", sorted(standard_deviations()))
    def test_deviant_run_reveals_only_sanctioned_values(
            self, sanitized, params5, problem53, strategy):
        factories = [honest_factory] * problem53.num_agents
        factories[2] = standard_deviations()[strategy]
        run_with_agents(params5, factories, problem53, seed=0)
        labels = {event.label for event in declassification_audit()}
        assert labels <= SANCTIONED_LABELS
