"""Tests for the seeded RNG streams."""

from __future__ import annotations

import pytest

from repro.util.rng import RngStream, derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "alpha") == derive_seed(42, "alpha")

    def test_label_changes_seed(self):
        assert derive_seed(42, "alpha") != derive_seed(42, "beta")

    def test_parent_changes_seed(self):
        assert derive_seed(1, "alpha") != derive_seed(2, "alpha")

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(7, "x") < 2**64


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(5)
        b = RngStream(5)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seed_differs(self):
        assert RngStream(5).random() != RngStream(6).random()

    def test_spawn_is_independent_of_parent_consumption(self):
        a = RngStream(5)
        a_child = a.spawn("child")
        b = RngStream(5)
        for _ in range(100):
            b.random()  # consuming the parent must not affect the child
        b_child = b.spawn("child")
        assert a_child.random() == b_child.random()

    def test_spawn_labels_differ(self):
        root = RngStream(5)
        assert root.spawn("x").random() != root.spawn("y").random()

    def test_spawn_label_path(self):
        child = RngStream(5, label="root").spawn("x")
        assert child.label == "root/x"

    def test_randint_bounds(self):
        stream = RngStream(9)
        values = [stream.randint(3, 7) for _ in range(200)]
        assert min(values) >= 3
        assert max(values) <= 7
        assert set(values) == {3, 4, 5, 6, 7}

    def test_random_words_are_the_next_getrandbits(self):
        """Two little-endian uint32 words per ``random()`` value, the
        stream advanced by exactly those (the conversion back to floats
        is pinned in ``tests/core/test_backend.py``)."""
        words = RngStream(9).random_words(3)
        assert len(words) == 3 * 8
        assert int.from_bytes(words, "little") == RngStream(9)._random.getrandbits(192)
        assert RngStream(9).random_words(0) == b""
        advanced, reference = RngStream(9), RngStream(9)
        advanced.random_words(3)
        for _ in range(3):
            reference.random()
        assert advanced.random() == reference.random()

    def test_uniform_bounds(self):
        stream = RngStream(9)
        values = [stream.uniform(-1.0, 2.0) for _ in range(200)]
        assert all(-1.0 <= v <= 2.0 for v in values)

    def test_choice_member(self):
        stream = RngStream(9)
        pool = ["a", "b", "c"]
        assert all(stream.choice(pool) in pool for _ in range(50))

    def test_sample_distinct(self):
        stream = RngStream(9)
        picked = stream.sample(list(range(20)), 5)
        assert len(picked) == 5
        assert len(set(picked)) == 5

    def test_shuffle_in_place_is_permutation(self):
        stream = RngStream(9)
        items = list(range(30))
        stream.shuffle(items)
        assert sorted(items) == list(range(30))

    def test_shuffled_leaves_input_untouched(self):
        stream = RngStream(9)
        items = list(range(30))
        out = stream.shuffled(items)
        assert items == list(range(30))
        assert sorted(out) == items

    def test_weighted_choice_respects_zero_weight(self):
        stream = RngStream(9)
        for _ in range(100):
            assert stream.weighted_choice(["a", "b"], [1.0, 0.0]) == "a"

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            RngStream(9).weighted_choice(["a"], [1.0, 2.0])
