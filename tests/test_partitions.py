"""Tests for partitions and the index-set correspondence."""

import random

import pytest

from sdpdeg.checks import Partition, enumerate_partitions, index_set_of, lambda_of
from sdpdeg.schur import as_index_set, psi


def test_normalization_and_basic_accessors():
    p = Partition([3, 2, 2, 0, 0])
    assert p.parts == (3, 2, 2)
    assert p.weight == 7
    assert p.length == 3
    assert len(p) == 3
    assert list(p) == [3, 2, 2]
    assert p[0] == 3 and p[5] == 0
    assert p.pad(5) == (3, 2, 2, 0, 0)
    with pytest.raises(ValueError):
        p.pad(2)


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    with pytest.raises(TypeError):
        Partition([2.7, 1.2])
    with pytest.raises(TypeError):
        Partition([True])


def test_equality_ignores_trailing_zeros():
    assert Partition([2, 0]) == Partition([2])
    assert hash(Partition([2, 0])) == hash(Partition([2]))
    assert str(Partition([2, 1])) == "(2,1)"
    assert str(Partition()) == "()"


def test_index_set_validation():
    assert as_index_set((0, 2, 5)) == (0, 2, 5)
    with pytest.raises(ValueError):
        as_index_set((2, 2))
    with pytest.raises(ValueError):
        as_index_set((3, 1))
    with pytest.raises(ValueError):
        as_index_set((-1, 0))
    with pytest.raises(TypeError):
        as_index_set([0.5, 2.9])
    with pytest.raises(TypeError):
        as_index_set([True, 2])
    with pytest.raises(TypeError):
        psi([0.5, 2.9])


def test_lambda_of_examples():
    assert lambda_of((0, 1, 2)) == Partition()
    assert lambda_of((1, 2)) == Partition([1, 1])
    assert lambda_of((0, 3)) == Partition([2])


def test_index_set_of_examples():
    assert index_set_of(Partition([1, 1]), 2) == (1, 2)
    assert index_set_of(Partition(), 3) == (0, 1, 2)
    assert index_set_of(Partition([2]), 2) == (0, 3)
    with pytest.raises(ValueError):
        index_set_of(Partition([1, 1, 1]), 2)


def test_round_trips():
    rng = random.Random(3)
    for _ in range(50):
        r = rng.randint(1, 5)
        indices = tuple(sorted(rng.sample(range(12), r)))
        assert index_set_of(lambda_of(indices), r) == indices
    for _ in range(50):
        r = rng.randint(1, 5)
        lam = Partition(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, r))), reverse=True))
        assert lambda_of(index_set_of(lam, r)) == lam


def test_lambda_weight_identity():
    rng = random.Random(9)
    for _ in range(40):
        r = rng.randint(1, 5)
        indices = tuple(sorted(rng.sample(range(15), r)))
        assert lambda_of(indices).weight == sum(indices) - r * (r - 1) // 2


def test_enumerate_examples():
    assert enumerate_partitions(0, 3) == [Partition()]
    assert enumerate_partitions(2, 2) == [Partition([2]), Partition([1, 1])]


def test_enumerate_order_is_descending_lex():
    got = enumerate_partitions(4, 4)
    assert got == [
        Partition([4]),
        Partition([3, 1]),
        Partition([2, 2]),
        Partition([2, 1, 1]),
        Partition([1, 1, 1, 1]),
    ]


def _count_partitions(d, max_len):
    # independent oracle: standard bounded-length recurrence
    if d == 0:
        return 1
    if max_len == 0:
        return 0
    return sum(
        _count_partitions_first(d, max_len, first) for first in range(1, d + 1)
    )


def _count_partitions_first(d, max_len, first):
    if first > d:
        return 0
    if first == d:
        return 1
    if max_len == 1:
        return 0
    return sum(
        _count_partitions_first(d - first, max_len - 1, nxt)
        for nxt in range(1, first + 1)
    )


def test_enumeration_counts():
    for d in range(8):
        for max_len in range(1, 6):
            got = enumerate_partitions(d, max_len)
            assert len(got) == _count_partitions(d, max_len), (d, max_len)
            assert len(set(got)) == len(got)
            assert all(p.weight == d and p.length <= max_len for p in got)
