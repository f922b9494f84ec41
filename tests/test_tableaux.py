from math import factorial

import pytest
from hypothesis import given, strategies as st

from boolprod.tableaux import (
    conjugate,
    dominance_leq,
    format_partition,
    kostka,
    num_syt,
    parse_partition,
    partitions_up_to,
    staircase,
    subpartitions,
)
from oracles import brute_partitions, is_standard, smallest_ascent, ssyt_count, syt_list


@st.composite
def partition_strategy(draw, max_size=10):
    size = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = size
    cap = size
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


def test_partitions_up_to_known_values():
    assert partitions_up_to(0, 3) == [()]
    assert partitions_up_to(3, 2) == [(3,), (2, 1)]
    assert partitions_up_to(4, 4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_up_to_matches_brute_force():
    for d in range(7):
        for max_parts in range(5):
            listed = partitions_up_to(d, max_parts)
            assert set(listed) == brute_partitions(d, max_parts)
            assert listed == sorted(listed, reverse=True)


def test_partitions_order_refines_dominance():
    for d in range(2, 8):
        items = partitions_up_to(d, d)
        for i, la in enumerate(items):
            for mu in items[i + 1 :]:
                # listed later and comparable means dominated
                if dominance_leq(mu, la) and dominance_leq(la, mu):
                    assert la == mu
                assert not (dominance_leq(la, mu) and la != mu)


def test_conjugate_known_values():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_involution_up_to_12():
    for d in range(13):
        for la in partitions_up_to(d, d):
            assert conjugate(conjugate(la)) == la


def test_dominance_known_values():
    assert dominance_leq((1, 1, 1), (3,))
    assert not dominance_leq((3,), (1, 1, 1))
    assert dominance_leq((2, 2), (3, 1))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1, 1, 1))


def test_staircase():
    assert staircase(0) == ()
    assert staircase(3) == (3, 2, 1)


def test_subpartitions_of_box():
    assert subpartitions((1, 1)) == [(1, 1), (1,), ()]
    assert len(subpartitions((2, 2))) == 6
    assert len(subpartitions((2, 1))) == 5


def test_kostka_known_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2,), (1, 1)) == 1
    assert kostka((3, 2), (3, 2)) == 1
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))


def test_kostka_matches_enumeration():
    for d in range(1, 7):
        for la in partitions_up_to(d, d):
            for mu in partitions_up_to(d, d):
                assert kostka(la, mu) == ssyt_count(la, mu), (la, mu)


def test_kostka_composition_content_invariant():
    # content may be any composition; value depends only on its multiset
    assert kostka((2, 1), (1, 0, 2)) == kostka((2, 1), (2, 1, 0)) == kostka((2, 1), (2, 1))
    assert kostka((2, 2), (1, 2, 1)) == kostka((2, 2), (2, 1, 1))
    assert kostka((2, 1), (0, 1, 1, 1)) == 2


def test_kostka_unitriangular():
    for d in range(1, 8):
        for la in partitions_up_to(d, d):
            assert kostka(la, la) == 1
            for mu in partitions_up_to(d, d):
                if not dominance_leq(mu, la):
                    assert kostka(la, mu) == 0


def test_syt_list_known_counts():
    assert len(syt_list((1, 1))) == 1
    assert len(syt_list((2, 1))) == 2
    assert len(syt_list((2, 2))) == 2
    for t in syt_list((3, 2)):
        assert is_standard(t)


def test_syt_count_three_ways():
    for d in range(1, 9):
        for la in partitions_up_to(d, d):
            listed = len(syt_list(la))
            assert listed == num_syt(la)
            assert listed == kostka(la, (1,) * d)


def test_sum_of_squares_is_factorial():
    for d in range(1, 9):
        assert sum(num_syt(la) ** 2 for la in partitions_up_to(d, d)) == factorial(d)


def test_num_syt_known_values():
    assert num_syt((5,)) == 1
    assert num_syt((2, 1)) == 2
    assert num_syt((2, 2)) == 2


def test_smallest_ascent_known_values():
    column = ((1,), (2,), (3,), (4,))
    assert smallest_ascent(column) == 4
    row = ((1, 2, 3),)
    assert smallest_ascent(row) == 1
    hook = ((1, 3), (2,))
    assert smallest_ascent(hook) == 2
    other = ((1, 2), (3,))
    assert smallest_ascent(other) == 1


def test_smallest_ascent_is_the_run_up_the_first_column():
    # 1 sits at (0, 0), so i + 1 above i puts it at (i, 0): the smallest
    # ascent is the length of the run 1, 2, ..., r up the first column
    for d in range(1, 9):
        for la in partitions_up_to(d, d):
            for t in syt_list(la):
                run = 1
                while run < len(t) and t[run][0] == run + 1:
                    run += 1
                assert smallest_ascent(t) == run, t


def test_smallest_ascent_rejects_non_standard():
    with pytest.raises(ValueError):
        smallest_ascent(((1, 1), (2,)))
    with pytest.raises(ValueError):
        smallest_ascent(((1, 3), (4,)))


def test_partition_text_round_trip():
    assert parse_partition("3,2,2,1") == (3, 2, 2, 1)
    assert parse_partition("-") == ()
    assert format_partition((3, 2, 2, 1)) == "3,2,2,1"
    assert format_partition(()) == "-"
    with pytest.raises(ValueError):
        parse_partition("2,3")
    with pytest.raises(ValueError):
        parse_partition("1,x")


@given(partition_strategy())
def test_conjugate_involution_property(la):
    assert conjugate(conjugate(la)) == la


@given(partition_strategy())
def test_conjugate_preserves_size(la):
    assert sum(conjugate(la)) == sum(la)


@given(partition_strategy(max_size=8))
def test_format_parse_round_trip(la):
    assert parse_partition(format_partition(la)) == la


@given(partition_strategy(max_size=7))
def test_subpartitions_contain_extremes(la):
    subs = subpartitions(la)
    assert () in subs
    assert la in subs
    assert len(set(subs)) == len(subs)
