"""Word utilities and the two monomial order modes.

compare_words ranks by total degree first and then left-to-right by the
letter precedence, so with x > y the word xy beats yx. The local and
global modes share that comparison; they differ only in which end of a
polynomial's support leading_key selects.
"""

import random

import pytest

from potalg.words import MonomialOrder, all_words, rotations


def words_up_to(cap):
    return [w for d in range(cap + 1) for w in all_words(d)]


def rank_tuple(order, w):
    """Letter ranks of w, 0 for the preferred letter."""
    return tuple(order.precedence.index(c) for c in w)


def compare_words(u, v, order):
    """Total order on words: degree first, then left-to-right lex by
    precedence. Returns -1, 0, or 1 for u < v, u = v, u > v.

    Higher degree compares greater; within a degree the lex-greater word
    (earlier letters higher in precedence) compares greater. The order is
    multiplicative within a fixed degree.
    """
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    ku, kv = order.sort_key(u), order.sort_key(v)
    if ku == kv:
        return 0
    # smaller key = earlier precedence letters = greater word
    return 1 if ku < kv else -1


def order_from_json(doc):
    return MonomialOrder(doc.get("precedence", "xy"), doc.get("mode", "local"))


def test_rotations_keep_duplicates():
    assert rotations("xxy") == ["xxy", "xyx", "yxx"]
    assert rotations("xx") == ["xx", "xx"]
    assert rotations("") == []


def test_all_words_in_precedence_order():
    assert all_words(2) == ["xx", "xy", "yx", "yy"]
    assert all_words(2, "yx") == ["yy", "yx", "xy", "xx"]


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("xz")
    with pytest.raises(ValueError):
        MonomialOrder(mode="weird")


def test_compare_degree_first_then_lex():
    o = MonomialOrder()
    assert compare_words("x", "yy", o) == -1
    assert compare_words("yy", "x", o) == 1
    assert compare_words("xy", "yx", o) == 1
    assert compare_words("xyx", "xyx", o) == 0
    # flipping the precedence flips same-degree comparisons
    assert compare_words("xy", "yx", MonomialOrder("yx")) == -1


def _magnitude_key(w, order):
    return (len(w), tuple(-r for r in rank_tuple(order, w)))


def test_compare_is_a_total_order():
    rng = random.Random(20260815)
    pool = words_up_to(5)
    for order in (MonomialOrder(), MonomialOrder("yx")):
        for _ in range(400):
            u, v = rng.choice(pool), rng.choice(pool)
            ku, kv = _magnitude_key(u, order), _magnitude_key(v, order)
            expect = (ku > kv) - (ku < kv)
            assert compare_words(u, v, order) == expect
            assert compare_words(v, u, order) == -expect


def test_compare_is_multiplicative():
    rng = random.Random(4)
    o = MonomialOrder()
    pool = words_up_to(4)
    for _ in range(300):
        u, v, w = (rng.choice(pool) for _ in range(3))
        c = compare_words(u, v, o)
        assert compare_words(w + u, w + v, o) == c
        assert compare_words(u + w, v + w, o) == c


def test_sort_key_orders_degree_up_lex_down():
    o = MonomialOrder()
    got = sorted(["yy", "x", "xy", "", "yx", "y", "xx"], key=o.sort_key)
    assert got == ["", "x", "y", "xx", "xy", "yx", "yy"]


def test_leading_key_selects_by_mode():
    loc = MonomialOrder()
    glo = MonomialOrder(mode="global")
    support = ["xy", "yyy"]
    # local: lowest degree wins; global: highest degree wins
    assert min(support, key=loc.leading_key) == "xy"
    assert min(support, key=glo.leading_key) == "yyy"
    # within a degree both prefer the lex-greater word
    assert min(["yx", "xy"], key=loc.leading_key) == "xy"
    assert min(["yx", "xy"], key=glo.leading_key) == "xy"


def test_string_keys_agree_with_rank_tuples():
    pool = words_up_to(5)
    for prec in ("xy", "yx"):
        for mode in ("local", "global"):
            o = MonomialOrder(prec, mode)
            sign = 1 if mode == "local" else -1
            assert sorted(pool, key=o.leading_key) == sorted(
                pool, key=lambda w: (sign * len(w), rank_tuple(o, w)))
            assert sorted(pool, key=o.sort_key) == sorted(
                pool, key=lambda w: (len(w), rank_tuple(o, w)))


def test_order_round_trips_through_json():
    for order in (MonomialOrder(), MonomialOrder("yx", "global")):
        doc = order.to_json()
        back = order_from_json(doc)
        assert back == order
        assert hash(back) == hash(order)
    assert MonomialOrder() != MonomialOrder(mode="global")


@pytest.mark.parametrize("precedence", ["xy", "yx"])
@pytest.mark.parametrize("mode", ["local", "global"])
def test_int_keys_sort_as_tuple_reference(precedence, mode):
    """The int leading_key, which also keys the reduction heap, orders
    every word up to length 10 as the tuple (+-|w|, w relabelled so that
    the preceding letter is "x") does, and gives distinct words distinct
    keys; sort_key orders them as (|w|, relabelled w)."""
    order = MonomialOrder(precedence, mode)
    swap = str.maketrans(precedence, "xy")
    sign = 1 if mode == "local" else -1
    words = words_up_to(10)
    random.Random(precedence + mode).shuffle(words)
    assert sorted(words, key=order.leading_key) == sorted(
        words, key=lambda w: (sign * len(w), w.translate(swap)))
    assert sorted(words, key=order.sort_key) == sorted(
        words, key=lambda w: (len(w), w.translate(swap)))
    assert len({order.leading_key(w) for w in words}) == len(words)
