"""Tests for the algorithm registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.granularity import GranularityBuilder
from repro.core.randomized import RandomJoinBuilder
from repro.core.registry import available_algorithms, make_builder


class TestRegistry:
    def test_all_paper_algorithms_present(self):
        names = available_algorithms()
        for expected in ("ltf", "stf", "mctf", "rj", "co-rj", "gran-ltf"):
            assert expected in names

    def test_make_builder_types(self):
        assert isinstance(make_builder("rj"), RandomJoinBuilder)
        assert isinstance(make_builder("co-rj"), CorrelatedRandomJoinBuilder)
        assert isinstance(make_builder("gran-ltf"), GranularityBuilder)

    def test_case_insensitive(self):
        assert make_builder("LTF").name == "ltf"

    def test_kwargs_forwarded(self):
        builder = make_builder("gran-ltf", granularity=7)
        assert builder.granularity == 7

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            make_builder("quantum-join")

    def test_builders_have_matching_names(self):
        for name in ("ltf", "stf", "mctf", "rj", "co-rj"):
            assert make_builder(name).name == name
