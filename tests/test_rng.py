import numpy as np
import pytest

from ttga.rng import SeededRng, mix64


def test_same_identity_same_sequence():
    a = SeededRng(42, 9).normal((100,))
    b = SeededRng(42, 9).normal((100,))
    assert np.array_equal(a, b)


def test_streams_are_independent_of_consumption_order():
    # consuming stream 1 must not change what stream 2 yields
    first = SeededRng(5, 1)
    first.normal((1000,))
    after = SeededRng(5, 2).normal((16,))
    fresh = SeededRng(5, 2).normal((16,))
    assert np.array_equal(after, fresh)


def test_distinct_streams_differ():
    a = SeededRng(5, 1).normal((64,))
    b = SeededRng(5, 2).normal((64,))
    assert not np.array_equal(a, b)


def test_derive_is_deterministic_and_collision_free_locally():
    base = SeededRng(3, 7)
    ids = {base.derive(i).stream_id for i in range(1000)}
    assert len(ids) == 1000
    assert base.derive(4).stream_id == SeededRng(3, 7).derive(4).stream_id


def test_mix64_range():
    assert 0 <= mix64(2**64 - 1, 2**64 - 1) < 2**64


def test_seed_bounds():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(0, 2**64)


def test_uniform_bounds():
    v = SeededRng(1).uniform(0.5, 1.5, (1000,))
    assert v.min() >= 0.5 and v.max() < 1.5


@pytest.mark.xfail(strict=True, reason=(
    "known defect, FOUND in CHANGES.md: SeededRng passes key=[seed, stream_id] and "
    "numpy reads it as float64 once an id is past 2**63, so ids differing in their "
    "low bits share a stream; the mend changes every output byte"))
@pytest.mark.parametrize("a, b", [
    ((2**60, 2**63 + 5), (2**60 + 1, 2**63 + 5)),
    ((7, 2**63 + 5), (7, 2**63 + 6)),
])
def test_ids_past_2_63_give_distinct_streams(a, b):
    assert not np.array_equal(SeededRng(*a).normal((16,)), SeededRng(*b).normal((16,)))
