"""Strict environment-knob parsing tests.

Every ``REPRO_*`` tuning variable funnels through ``repro.utils.env``,
so a malformed value must raise :class:`ConfigurationError` naming the
variable and the offending string — never crash deep in numpy or be
silently clamped.
"""

import pytest

from repro.errors import ConfigurationError
from repro.utils.env import env_choice, env_int

VAR = "REPRO_TEST_KNOB"


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_int(VAR, 7) == 7

    def test_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv(VAR, "   ")
        assert env_int(VAR, 7) == 7

    def test_parses_value(self, monkeypatch):
        monkeypatch.setenv(VAR, " 42 ")
        assert env_int(VAR, 7) == 42

    def test_malformed_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv(VAR, "many")
        with pytest.raises(ConfigurationError, match=rf"{VAR}.*'many'"):
            env_int(VAR, 7)

    def test_float_string_rejected(self, monkeypatch):
        monkeypatch.setenv(VAR, "3.5")
        with pytest.raises(ConfigurationError, match="3.5"):
            env_int(VAR, 7)

    def test_below_minimum_rejected_not_clamped(self, monkeypatch):
        monkeypatch.setenv(VAR, "0")
        with pytest.raises(ConfigurationError, match=">= 1"):
            env_int(VAR, 7, minimum=1)

    def test_minimum_is_inclusive(self, monkeypatch):
        monkeypatch.setenv(VAR, "1")
        assert env_int(VAR, 7, minimum=1) == 1


class TestEnvChoice:
    CHOICES = ("serial", "batched", "auto")

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert env_choice(VAR, None, self.CHOICES) is None
        assert env_choice(VAR, "auto", self.CHOICES) == "auto"

    def test_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv(VAR, "   ")
        assert env_choice(VAR, "auto", self.CHOICES) == "auto"

    def test_normalizes_case_and_whitespace(self, monkeypatch):
        monkeypatch.setenv(VAR, "  Batched ")
        assert env_choice(VAR, None, self.CHOICES) == "batched"

    def test_invalid_names_variable_and_choices(self, monkeypatch):
        monkeypatch.setenv(VAR, "gpu")
        with pytest.raises(ConfigurationError, match=rf"{VAR}.*serial.*'gpu'"):
            env_choice(VAR, None, self.CHOICES)


class TestEngineKnobsAreStrict:
    """The engine's own knobs route through the strict parser."""

    def test_workers_malformed(self, monkeypatch):
        from repro.engine.runner import WORKERS_ENV_VAR, default_max_workers

        monkeypatch.setenv(WORKERS_ENV_VAR, "4.5")
        with pytest.raises(ConfigurationError, match="4.5"):
            default_max_workers()

    def test_backend_typo_names_variable_and_choices(self, monkeypatch):
        from repro.engine.runner import BACKEND_ENV_VAR, default_backend

        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(
            ConfigurationError, match=r"REPRO_SWEEP_BACKEND.*auto.*'gpu'"
        ):
            default_backend()
