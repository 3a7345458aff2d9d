"""Tests for the seeded, splittable RNG."""

import pytest

from repro.util.rng import SeededRng, derive_seed


def test_same_seed_same_stream():
    a = SeededRng(123)
    b = SeededRng(123)
    assert [a.randint(0, 10**9) for _ in range(10)] == [
        b.randint(0, 10**9) for _ in range(10)
    ]


def test_children_are_independent_of_sibling_consumption():
    # Consuming one child's stream must not perturb another child.
    root1 = SeededRng(9)
    child_a1 = root1.child("a")
    _ = [child_a1.random() for _ in range(100)]
    child_b1 = root1.child("b")
    seq1 = [child_b1.randint(0, 10**9) for _ in range(5)]

    root2 = SeededRng(9)
    child_b2 = root2.child("b")
    seq2 = [child_b2.randint(0, 10**9) for _ in range(5)]
    assert seq1 == seq2


def test_distinct_labels_give_distinct_streams():
    root = SeededRng(1)
    a = root.child("x")
    b = root.child("y")
    assert [a.randint(0, 10**9) for _ in range(4)] != [
        b.randint(0, 10**9) for _ in range(4)
    ]


def test_split_stream_independent_of_parent_draw_order():
    # A split child's stream depends only on (parent seed, label) —
    # draws made on the parent before or after the split, or on other
    # splits, must not perturb it.
    root1 = SeededRng(21)
    _ = [root1.random() for _ in range(50)]
    _ = root1.split("noise").randbytes(64)
    floods1 = root1.split("floods")
    seq1 = [floods1.randint(0, 10**9) for _ in range(5)]

    floods2 = SeededRng(21).split("floods")
    seq2 = [floods2.randint(0, 10**9) for _ in range(5)]
    assert seq1 == seq2


def test_split_matches_child_derivation():
    assert SeededRng(8).split("x").randbytes(16) == SeededRng(8).child(
        "x"
    ).randbytes(16)


def test_split_rejects_label_reuse():
    root = SeededRng(5)
    root.split("floods")
    with pytest.raises(ValueError, match="already split"):
        root.split("floods")
    # child() keeps its permissive contract, and other labels are fine
    root.child("floods")
    root.split("scans")


def test_derive_seed_stable():
    assert derive_seed(5, "foo") == derive_seed(5, "foo")
    assert derive_seed(5, "foo") != derive_seed(5, "bar")
    assert derive_seed(5, "foo") != derive_seed(6, "foo")


def test_randbytes_length_and_determinism():
    rng = SeededRng(7)
    data = rng.randbytes(16)
    assert len(data) == 16
    assert SeededRng(7).randbytes(16) == data
    assert SeededRng(7).randbytes(0) == b""


def test_weighted_index_distribution():
    rng = SeededRng(11)
    counts = [0, 0, 0]
    for _ in range(3000):
        counts[rng.weighted_index([1, 2, 7])] += 1
    assert counts[2] > counts[1] > counts[0]
    assert abs(counts[2] / 3000 - 0.7) < 0.05


def test_weighted_index_rejects_nonpositive_total():
    rng = SeededRng(11)
    with pytest.raises(ValueError):
        rng.weighted_index([0, 0])
