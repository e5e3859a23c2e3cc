import numpy as np
import pytest

from lwf.rng import RngStream


def test_identical_streams_reproduce_bytes():
    a = RngStream(123, 7).generator().bytes(8_000_000)
    b = RngStream(123, 7).generator().bytes(8_000_000)
    assert a == b


def test_distinct_streams_differ():
    a = RngStream(123, 7).generator().random(1000)
    b = RngStream(123, 8).generator().random(1000)
    c = RngStream(124, 7).generator().random(1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_is_deterministic_and_order_sensitive():
    s = RngStream(99)
    assert s.derive(1, 2) == s.derive(1, 2)
    assert s.derive(1, 2) != s.derive(2, 1)
    assert s.derive(1).derive(2) == s.derive(1, 2)


def test_derived_streams_are_independent_of_sibling_consumption():
    s = RngStream(5)
    first = s.derive(0).generator().random(10)
    # consuming another stream does not move this one
    s.derive(1).generator().random(10_000)
    again = s.derive(0).generator().random(10)
    assert np.array_equal(first, again)


def test_a_seed_outside_the_key_range_is_refused_and_a_stream_id_is_masked():
    for seed in (-1, 2**63):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*63\)"):
            RngStream(seed)
    assert RngStream(2**63 - 1).seed == 2**63 - 1
    assert RngStream(0, -1).stream == 2**64 - 1
