"""Tests for the validation helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_at_least,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckers:
    def test_positive_accepts(self):
        assert check_positive("x", 0.5) == 0.5

    def test_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", 0.0)

    def test_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_non_negative_rejects(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -1)

    def test_probability_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.01)

    def test_at_least(self):
        assert check_at_least("n", 3, 3) == 3
        with pytest.raises(ConfigurationError):
            check_at_least("n", 2, 3)

    def test_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="my_param"):
            check_positive("my_param", -5)
