"""Sequence arithmetic: canonical form, pairing, norms, rational strings."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from c0cert.seqspace import (
    ONES,
    ZERO,
    NonSummable,
    Seq,
    difference_terms,
    l1_norm,
    pairing,
    pairing_numerator,
    rat,
    sup_norm,
    terms,
    terms_str,
    total_sum,
    unit,
)

from strategies import eventually_constants, rationals, summables


# Entry lists kept as plain Fractions, for the per-entry reference computations.
raw_prefixes = st.lists(rationals, max_size=8)


def padded(raw: list, tail: Fraction, n: int) -> list:
    """The first n entries of (raw..., tail, tail, ...) as plain Fractions."""
    return (list(raw) + [tail] * n)[:n]


def first_entries(s: Seq, n: int) -> list:
    return [s.entry(i) for i in range(1, n + 1)]


def oracle_pairing(x: Seq, y: Seq) -> Fraction:
    """Brute-force pairing over the joint prefix window.

    Exact whenever at least one tail is zero, since every later product
    vanishes.
    """
    n = max(len(x.prefix), len(y.prefix))
    return sum((x.entry(i) * y.entry(i) for i in range(1, n + 1)), Fraction(0))


# --- canonical form ---------------------------------------------------------


def test_canonicalize_absorbs_trailing_duplicates():
    assert Seq([1, 2, 2], 2) == Seq((Fraction(1),), Fraction(2))


def test_canonicalize_zero():
    assert Seq([], 0) == ZERO


def test_canonicalize_negative_tail():
    assert Seq([0, -1, -1], -1) == Seq((Fraction(0),), Fraction(-1))


@given(eventually_constants(), st.integers(min_value=0, max_value=3))
def test_appending_tail_copies_is_identity(s, k):
    assert Seq(s.prefix + (s.tail,) * k, s.tail) == s


@given(st.lists(rationals, max_size=8), rationals)
def test_canonicalization_preserves_entries(raw, tail):
    s = Seq(tuple(raw), tail)
    for i in range(1, len(raw) + 4):
        expected = raw[i - 1] if i <= len(raw) else tail
        assert s.entry(i) == expected


def is_canonical(s: Seq) -> bool:
    return (
        all(type(v) is int for v in (*s.num, s.tnum, s.den))
        and s.den > 0
        and gcd(s.den, s.tnum, *s.num) == 1
        and (not s.num or s.num[-1] != s.tnum)
    )


@given(eventually_constants(), eventually_constants(), rationals, summables())
def test_canonical_form_invariant(a, b, c, y):
    """Every construction path lands in the one canonical integer form."""
    results = [a, b, a + b, a - b, -a, c * a, a * c]
    results += [Seq(a.prefix + (a.tail,), a.tail), Seq._of([2 * v for v in y.num], 0, 2 * y.den)]
    for s in results:
        assert is_canonical(s)
    # equal sequences are equal objects with equal hashes, however built
    rebuilt = Seq(a.prefix, a.tail)
    assert rebuilt == a and hash(rebuilt) == hash(a)


def test_integer_numerator_construction():
    s = Seq(["1/3", "2/3", 0])
    assert (s.num, s.tnum, s.den) == ((1, 2), 0, 3)
    assert s.prefix == (Fraction(1, 3), Fraction(2, 3)) and s.tail == 0
    assert Seq((Fraction(1, 2), "1/3"), 1) == Seq._of([3, 2], 6, 6)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)
def test_trusted_constructor_matches_boundary_constructor(num, tnum, den, g, k):
    """Seq._of and Seq(prefix, tail) agree, with trailing tail copies and a common factor g."""
    raw = [g * v for v in num] + [g * tnum] * k
    trusted = Seq._of(list(raw), g * tnum, g * den)
    public = Seq(tuple(Fraction(v, g * den) for v in raw), Fraction(g * tnum, g * den))
    assert trusted == public and hash(trusted) == hash(public)
    assert is_canonical(trusted) and is_canonical(public)


def test_trusted_constructor_examples():
    s = Seq._of([6, 4, 2, 2], 2, 4)
    assert (s.num, s.tnum, s.den) == ((3, 2), 1, 2)
    zero = Seq._of([0, 0, 0], 0, 12)
    assert (zero.num, zero.tnum, zero.den) == ((), 0, 1) and zero == ZERO
    assert Seq._of([], 0, 1) == Seq()


@given(eventually_constants())
def test_negation_keeps_the_canonical_form(s):
    n = -s
    assert gcd(n.den, n.tnum, *n.num) == 1
    assert not n.num or n.num[-1] != n.tnum
    assert is_canonical(n)
    assert n == Seq(tuple(-v for v in s.prefix), -s.tail) and -n == s


def test_entry_rejects_nonpositive_index():
    with pytest.raises(IndexError):
        ZERO.entry(0)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        Seq((0.5,))


@pytest.mark.parametrize("value", [True, False, None, [1], (1, 2)])
def test_rat_rejects_non_rationals(value):
    with pytest.raises(TypeError):
        rat(value)


@pytest.mark.parametrize(
    "text",
    ["0.5", "1e1", "1E1", "", " 1", "1 ", "+1", "1/-2", "1/2/3", "1_000", "\u0663", "inf", "nan"],
)
def test_rat_rejects_strings_outside_the_wire_format(text):
    with pytest.raises(ValueError):
        rat(text)


def test_rat_accepts_the_wire_format():
    assert rat("7") == 7
    assert rat("-3/6") == Fraction(-1, 2)
    assert rat("0/5") == 0
    assert rat(-4) == -4
    assert rat(Fraction(2, 3)) == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


# --- one parser: terms, with Fraction as the oracle ---------------------------

# Every value the wire format admits: an int, a "p/q" or "p" string (leading
# zeros and a "-" included) and a Fraction.
parsed_values = st.one_of(
    st.integers(),
    st.from_regex(r"-?[0-9]{1,40}(/0*[1-9][0-9]{0,40})?", fullmatch=True),
    st.fractions(),
)


@given(parsed_values)
@example("-0/007")
@example("0012")
def test_terms_and_rat_agree_with_fraction(value):
    expected = Fraction(value)
    assert terms(value) == (expected.numerator, expected.denominator)
    assert rat(value) == expected and type(rat(value)) is Fraction


# What ``rat`` refused before ``terms`` parsed for it, with the exception
# type it raised: the malformed strings with ValueError, q = 0 with
# ZeroDivisionError, an integer past the int/str digit limit with ValueError,
# and what is not an int, a string or a Fraction with TypeError.
REFUSED = [
    ("0.5", ValueError),
    ("1e1", ValueError),
    ("+1", ValueError),
    (" 1", ValueError),
    ("1/-2", ValueError),
    ("\u0661", ValueError),
    ("", ValueError),
    ("1/0", ZeroDivisionError),
    ("1" * 5000, ValueError),
    (True, TypeError),
    (0.5, TypeError),
    ([1, 3], TypeError),
]


@pytest.mark.parametrize("value, error", REFUSED, ids=[repr(value)[:12] for value, _ in REFUSED])
def test_terms_and_rat_agree_on_what_they_refuse(value, error):
    for parse in (terms, rat):
        with pytest.raises(error) as refused:
            parse(value)
        assert type(refused.value) is error


def test_terms_reads_a_pair_in_lowest_terms():
    assert terms((2, -4)) == (-1, 2)
    assert terms((0, -7)) == (0, 1)
    assert terms((3, 1)) == (3, 1)
    with pytest.raises(ZeroDivisionError):
        terms((1, 0))
    for pair in ((1, 2, 3), (1.0, 2), (True, 1), (1,)):
        with pytest.raises(TypeError):
            terms(pair)


# --- linear structure -------------------------------------------------------


def test_add_example():
    a = Seq((Fraction(0),), Fraction(1))  # (0, 1, 1, ...)
    total = a + ONES
    assert total == Seq((Fraction(1),), Fraction(2))
    assert [total.entry(i) for i in range(1, 5)] == [1, 2, 2, 2]


@given(raw_prefixes, rationals, raw_prefixes, rationals, rationals)
# b's prefix is the shorter one and its tail differs from a's: each is padded with its own
@example([Fraction(1)], Fraction(0), [], Fraction(1), Fraction(1))
def test_linear_ops_match_per_entry_reference(ra, ta, rb, tb, c):
    """+, -, negation and scaling agree with entrywise Fraction arithmetic."""
    a, b = Seq(tuple(ra), ta), Seq(tuple(rb), tb)
    n = max(len(ra), len(rb)) + 2
    ea, eb = padded(ra, ta, n), padded(rb, tb, n)
    assert first_entries(a + b, n) == [p + q for p, q in zip(ea, eb)]
    assert first_entries(a - b, n) == [p - q for p, q in zip(ea, eb)]
    assert first_entries(-a, n) == [-p for p in ea]
    assert first_entries(c * a, n) == first_entries(a * c, n) == [c * p for p in ea]


@given(eventually_constants(), eventually_constants())
def test_add_tail_law(a, b):
    assert (a + b).tail == a.tail + b.tail


@given(rationals, eventually_constants())
def test_scale_tail_law(c, a):
    assert (c * a).tail == c * a.tail


@given(eventually_constants())
def test_scale_by_zero(a):
    assert 0 * a == ZERO


def test_scale_minus_one_ones():
    assert -1 * ONES == Seq((), Fraction(-1))


@given(eventually_constants(), eventually_constants(), eventually_constants())
def test_add_associative_commutative(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


# --- pairing ----------------------------------------------------------------


def test_pairing_examples():
    u1 = Seq([-1, 1])
    v1 = Seq([1, 1])
    assert pairing(ONES, u1) == 0
    assert pairing(v1, unit(1)) == 1
    with pytest.raises(NonSummable):
        pairing(ONES, ONES)


@given(raw_prefixes, rationals, raw_prefixes)
def test_pairing_and_sums_match_per_entry_reference(rx, tx, ry):
    x, y = Seq(tuple(rx), tx), Seq(tuple(ry))
    ex = padded(rx, tx, len(ry))
    expected = sum((p * q for p, q in zip(ex, ry)), Fraction(0))
    assert pairing(x, y) == pairing(y, x) == expected
    assert pairing_numerator(x, y) == pairing_numerator(y, x) == expected * x.den * y.den
    assert total_sum(y) == sum(ry, Fraction(0))
    assert l1_norm(y) == sum((abs(q) for q in ry), Fraction(0))
    assert sup_norm(x) == max(abs(v) for v in [*rx, tx])


@given(
    eventually_constants(), eventually_constants(), raw_prefixes, raw_prefixes, rationals,
    st.booleans(),
)
def test_difference_terms_matches_two_step_form_on_tailed_sides(a, b, rc, rd, t, shared):
    """The fused kernel equals pairing(a - b, c - d), NonSummable included.

    c - d is finitely supported exactly when c and d share their tail.
    """
    c, d = Seq(tuple(rc), t), Seq(tuple(rd), t if shared else t + 1)
    for args in ((a, b, c, d), (c, d, a, b)):
        try:
            expected = pairing(args[0] - args[1], args[2] - args[3])
        except NonSummable:
            with pytest.raises(NonSummable):
                difference_terms(*args)
        else:
            assert Fraction(*difference_terms(*args)) == expected


@given(
    eventually_constants(), eventually_constants(), raw_prefixes, raw_prefixes, rationals,
    st.sampled_from(["zero", "shared", "distinct"]),
)
def test_difference_terms_matches_two_step_form_on_every_path(a, b, rc, rd, t, tails):
    """Fraction(*difference_terms(a, b, c, d)) == pairing(a - b, c - d), over den > 0.

    Zero tails on c and d take the four-pairing path, in either argument
    order.  A shared tail makes c - d finitely supported while both sides
    carry tails: the path that pairs the built differences.  Distinct tails make c - d tailed, so
    the kernel must raise NonSummable exactly where the two-step form does.
    """
    tc, td = {"zero": (0, 0), "shared": (t, t), "distinct": (t, t + 1)}[tails]
    c, d = Seq(tuple(rc), tc), Seq(tuple(rd), td)
    for args in ((a, b, c, d), (c, d, a, b)):
        try:
            expected = pairing(args[0] - args[1], args[2] - args[3])
        except NonSummable:
            with pytest.raises(NonSummable):
                difference_terms(*args)
        else:
            num, den = difference_terms(*args)
            assert den > 0
            assert Fraction(num, den) == expected


def test_difference_terms_examples():
    assert Fraction(*difference_terms(ONES, ZERO, unit(2), unit(1))) == 0
    # (0, 1, 1, 1, ...) against (0, 1, -2, 0, ...)
    assert Fraction(*difference_terms(ONES, unit(1), unit(2), 2 * unit(3))) == -1
    # tails on both sides, finite results: ONES against -unit(2), in either order
    for args in ((ONES, ZERO, ONES, ONES + unit(2)), (ONES, ONES + unit(2), ONES, ZERO)):
        num, den = difference_terms(*args)
        assert den > 0
        assert Fraction(num, den) == -1
    with pytest.raises(NonSummable):
        difference_terms(ONES, ZERO, ONES, unit(1))


@given(eventually_constants(), summables())
def test_pairing_matches_oracle(x, y):
    assert pairing(x, y) == oracle_pairing(x, y)


@given(summables(), summables())
def test_pairing_symmetric_on_summables(x, y):
    assert pairing(x, y) == pairing(y, x)


@given(rationals, rationals, eventually_constants(), eventually_constants(), summables())
def test_pairing_bilinear(a, b, x1, x2, y):
    assert pairing(a * x1 + b * x2, y) == a * pairing(x1, y) + b * pairing(x2, y)


@given(eventually_constants(), summables())
def test_hoelder_bound(x, y):
    assert abs(pairing(x, y)) <= sup_norm(x) * l1_norm(y)


# --- norms and sums ---------------------------------------------------------


def test_norm_examples():
    assert sup_norm(Seq((Fraction(1),), Fraction(2))) == 2
    assert l1_norm(Seq([-1, 1])) == 2
    assert total_sum(Seq([-1, 1])) == 0


def test_norms_reject_nonzero_tail():
    with pytest.raises(NonSummable):
        l1_norm(ONES)
    with pytest.raises(NonSummable):
        total_sum(ONES)


@given(eventually_constants(), eventually_constants())
def test_sup_norm_triangle(a, b):
    assert sup_norm(a + b) <= sup_norm(a) + sup_norm(b)


@given(rationals, eventually_constants())
def test_sup_norm_homogeneous(c, a):
    assert sup_norm(c * a) == abs(c) * sup_norm(a)


@given(summables(), summables())
def test_l1_norm_triangle(a, b):
    assert l1_norm(a + b) <= l1_norm(a) + l1_norm(b)


@given(rationals, summables())
def test_l1_norm_homogeneous(c, a):
    assert l1_norm(c * a) == abs(c) * l1_norm(a)


@given(summables(), summables())
def test_total_sum_additive(a, b):
    assert total_sum(a + b) == total_sum(a) + total_sum(b)


# --- generators -------------------------------------------------------------


def test_unit_and_constant():
    assert unit(1) == Seq([1])
    assert unit(3).entry(3) == 1 and unit(3).entry(2) == 0 and unit(3).entry(4) == 0
    assert Seq((), 1) == ONES
    assert Seq((), 0) == ZERO
    with pytest.raises(ValueError):
        unit(0)


# --- rational strings -------------------------------------------------------


# numerators of either sign and zero, and terms well past one 30-bit limb
multi_limb = st.integers(min_value=2**64, max_value=2**200)
terms_numerators = st.one_of(
    st.integers(min_value=-1000, max_value=1000), multi_limb, multi_limb.map(lambda n: -n)
)
terms_denominators = st.one_of(st.just(1), st.integers(min_value=1, max_value=1000), multi_limb)


@given(terms_numerators, terms_denominators, st.integers(min_value=1, max_value=2**70))
def test_terms_str_writes_the_fractions_string(num, den, k):
    # "p/q" in lowest terms, or "p" when q reduces to 1, from terms that need not be reduced
    assert [terms_str(-6, 8), terms_str(0, 7), terms_str(12, 4)] == ["-3/4", "0", "3"]
    # k * num over k * den: the same value from terms that are not reduced
    for n, d in ((num, den), (k * num, k * den), (0, den), (num, 1)):
        assert terms_str(n, d) == str(Fraction(n, d))
