"""Certificates: graph points, maximality witnesses, extension family, gap."""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import c0cert.certify
from c0cert.certify import (
    EmptySample,
    ExtensionFamily,
    ExtensionPoint,
    GraphPoint,
    InvalidParameter,
    Member,
    Related,
    Violation,
    _below,
    closure_margin,
    distinctness,
    extension_family,
    extension_point,
    family_products,
    fitzpatrick_gap,
    fitzpatrick_value,
    monotone_product,
    random_graph_point,
    random_offgraph_pair,
    random_rational,
    random_summable,
    violation_witness,
)
from c0cert.gossez import gossez_apply, neg_gossez_apply, unit_u, unit_v
from c0cert.seqspace import (
    ONES,
    ZERO,
    NonSummable,
    Seq,
    _derived,
    difference_terms,
    pairing,
    pairing_numerator,
    total_sum,
    unit,
)

from strategies import (
    fraction_of,
    nonzero_rationals,
    positive_sum_summables,
    positive_taus,
    rationals,
    summables,
    zero_sum_summables,
)

ORIGIN = GraphPoint(ZERO, ZERO)


# --- graph points -----------------------------------------------------------


def test_graph_point_accepts_unit_pair():
    p = GraphPoint(-unit_v(1), unit_u(1))
    assert p.x == -unit_v(1)


def test_graph_point_rejects_mismatch():
    with pytest.raises(InvalidParameter):
        GraphPoint(unit(1), ZERO)


def test_graph_point_rejects_a_tail():
    # -G(ZERO) = ZERO != ONES as well: only the message tells the two checks apart
    with pytest.raises(InvalidParameter, match="zero tails on both components"):
        GraphPoint(ONES, ZERO)


def test_graph_point_rejects_nonzero_sum():
    with pytest.raises(InvalidParameter):
        GraphPoint.from_y(unit(1))


@given(zero_sum_summables())
def test_from_y_builds_members(y):
    p = GraphPoint.from_y(y)
    assert p.x == -gossez_apply(y)
    assert total_sum(p.y) == 0
    assert GraphPoint(p.x, p.y) == p  # direct construction re-verifies


# --- monotonicity -----------------------------------------------------------


def test_monotone_product_examples():
    p = GraphPoint(-unit_v(1), unit_u(1))
    assert Fraction(*monotone_product(p, p)) == 0
    assert Fraction(*monotone_product(p, ORIGIN)) == 0


@given(zero_sum_summables(), zero_sum_summables())
def test_monotone_product_vanishes_on_graph(y1, y2):
    assert Fraction(*monotone_product(GraphPoint.from_y(y1), GraphPoint.from_y(y2))) == 0


# --- extension family -------------------------------------------------------


def test_extension_point_tau_one():
    ep = extension_point(1, unit(1))
    assert ep.xstar == unit(1)
    assert ep.xstarstar == Seq((Fraction(1),), Fraction(2))


def test_extension_point_tau_two():
    ep = extension_point(2, unit(1))
    assert ep.xstarstar == Seq((Fraction(1, 2),), Fraction(5, 2))


def test_extension_point_rejects_zero_sum_direction():
    with pytest.raises(InvalidParameter):
        extension_point(1, unit_u(1))


def test_extension_family_rejects_a_direction_with_a_tail():
    # ONES has no prefix, so the positive-sum check refuses it too, with its own message
    with pytest.raises(InvalidParameter, match="ytilde must be finitely supported"):
        extension_family([1], ONES)


def test_extension_point_rejects_nonpositive_tau():
    with pytest.raises(InvalidParameter):
        extension_point(0, unit(1))
    with pytest.raises(InvalidParameter):
        extension_point(-2, unit(1))
    with pytest.raises(InvalidParameter, match="tau must be positive, got -1/2"):
        extension_family([1, 2, "-1/2"], unit(1))


def test_extension_point_rejects_tampered_fields():
    ep = extension_point(1, unit(1))
    assert ExtensionPoint(ep.tau, ep.ytilde, ep.xstar, ep.xstarstar) == ep
    with pytest.raises(InvalidParameter):
        ExtensionPoint(ep.tau, ep.ytilde, ep.xstar + unit(1), ep.xstarstar)
    with pytest.raises(InvalidParameter):
        ExtensionPoint(ep.tau, ep.ytilde, ep.xstar, ep.xstarstar + unit(2))


@pytest.mark.parametrize("tau", ["1", "2", "1/3", "7/2", "100/33", "1/1000"])
def test_family_point_builds_its_ones_term_canonically(tau):
    """x** from integers holds the canonical fields of its definition, ones term included."""
    tau = Fraction(tau)
    ytilde = Seq(["3/7", "-1/5", "2/3"])
    xss = extension_point(tau, ytilde).xstarstar
    expected = -gossez_apply(tau * ytilde) + (Fraction(1) / tau) * ONES
    assert (xss.num, xss.tnum, xss.den) == (expected.num, expected.tnum, expected.den)


@given(positive_taus, positive_sum_summables())
def test_extension_point_leaves_null_sequences(tau, ytilde):
    ep = extension_point(tau, ytilde)
    assert ep.xstarstar.tail == tau * total_sum(ytilde) + 1 / tau
    assert ep.xstarstar.tail != 0


def test_closure_margin_examples():
    ep = extension_point(1, unit(1))
    assert Fraction(*closure_margin(ep, ORIGIN)) == 1
    assert Fraction(*closure_margin(ep, GraphPoint(-unit_v(1), unit_u(1)))) == 1


@given(positive_taus, positive_sum_summables(), zero_sum_summables())
def test_closure_margin_constant_over_graph(tau, ytilde, y):
    ep = extension_point(tau, ytilde)
    margin = Fraction(*closure_margin(ep, GraphPoint.from_y(y)))
    assert margin == pairing(ONES, ytilde)
    assert margin > 0


def test_distinctness_examples():
    assert Fraction(*distinctness(1, 2, unit(1))) == Fraction(-1, 2)
    assert Fraction(*distinctness(1, 3, unit(1))) == Fraction(-4, 3)


def test_distinctness_rejects_equal_parameters():
    with pytest.raises(InvalidParameter):
        distinctness(1, 1, unit(1))


@given(positive_taus, positive_taus, positive_sum_summables())
def test_distinctness_sign_and_closed_form(tau1, tau2, ytilde):
    assume(tau1 != tau2)
    value = Fraction(*distinctness(tau1, tau2, ytilde))
    assert value == (tau1 - tau2) * (1 / tau1 - 1 / tau2) * pairing(ONES, ytilde)
    assert value < 0
    assert value == Fraction(*distinctness(tau2, tau1, ytilde))


def tampered(family, points):
    """``family`` with ``points`` in place of its own, and their diagonal recomputed."""
    diagonal = tuple(pairing_numerator(p.xstarstar, p.xstar) for p in points)
    return ExtensionFamily(
        tuple(points), family.ytilde, family.total, family.g, diagonal
    )


def pair_product(family, i, j):
    """The product of points i and j of ``family`` alone, from a two-point family."""
    two = tampered(family, (family.points[i], family.points[j]))
    _, _, num, den = next(family_products(two))
    return Fraction(num, den)


def products(kernel):
    """``(i, j, product)`` for each ``(i, j, num, den)`` the kernel yields."""
    return ((i, j, Fraction(num, den)) for i, j, num, den in kernel)


def test_family_product_checks_the_closed_form():
    family = extension_family([1, 2], unit(1))
    p1, p2 = family.points
    object.__setattr__(p2, "xstarstar", p2.xstarstar + unit(1))  # bypass validation
    with pytest.raises(AssertionError, match="mismatch"):
        next(family_products(tampered(family, (p1, p2))))


# The family_products kernel against the per-pair loop: the same values in
# the same (i, j) order, and the same first failure.

distinct_taus = st.lists(positive_taus, min_size=2, max_size=8, unique=True)


def family_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@given(distinct_taus, positive_sum_summables())
def test_family_products_match_the_per_pair_loop(taus, ytilde):
    family = extension_family(taus, ytilde)
    points, pairs = family.points, family_pairs(len(taus))
    assert all(den > 0 for *_, den in family_products(family))
    assert list(products(family_products(family))) == [
        (i, j, Fraction(*distinctness(taus[i], taus[j], ytilde))) for i, j in pairs
    ]
    # the direct product, four pairings per pair, with no shared diagonal
    assert [product for _, _, product in products(family_products(family))] == [
        Fraction(*difference_terms(p.xstarstar, q.xstarstar, p.xstar, q.xstar))
        for p, q in ((points[i], points[j]) for i, j in pairs)
    ]


def test_family_products_match_the_direct_products_over_mixed_denominators():
    # tau = 1/3 and 3/2 scale ytilde's denominator 1155, and s = 1139/1155, so
    # the reduction factors and the closed form's denominator all exceed 1
    taus = [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2)]
    family = extension_family(taus, Seq(["3/7", "-1/5", "2/3", "1/11"]))
    points, pairs = family.points, family_pairs(len(taus))
    direct = [
        Fraction(*difference_terms(p.xstarstar, q.xstarstar, p.xstar, q.xstar))
        for p, q in ((points[i], points[j]) for i, j in pairs)
    ]
    assert list(products(family_products(family))) == [
        (i, j, product) for (i, j), product in zip(pairs, direct)
    ]


def test_family_products_refuse_a_nonnegative_product():
    # extension_family refuses ytilde = (-1), whose sum s = -1 is negative.
    # Built by hand, taus 1 and 2 give the product 1/2, which equals the closed
    # form (1 - 2) * (1 - 1/2) * s: only the sign check can raise.  No family
    # that extension_family builds reaches it, as s > 0 there.
    ytilde = Seq([-1])
    g = gossez_apply(ytilde)
    points = tuple(
        _derived(ExtensionPoint, (tau, 1), ytilde, tau * ytilde, Fraction(1, tau) * ONES - tau * g)
        for tau in (1, 2)
    )
    diagonal = tuple(pairing_numerator(p.xstarstar, p.xstar) for p in points)
    family = ExtensionFamily(points, ytilde, (-1, 1), g, diagonal)
    with pytest.raises(AssertionError, match="^distinctness product must be negative, got 1/2$"):
        next(family_products(family))


@given(distinct_taus, positive_sum_summables(), st.data())
def test_family_products_fail_where_the_per_pair_loop_does(taus, ytilde, data):
    family = extension_family(taus, ytilde)
    k = data.draw(st.integers(0, len(taus) - 1))
    # moves each product of point k by (tau_k - tau_j) * sum(ytilde) != 0
    xss = family.points[k].xstarstar + ONES
    object.__setattr__(family.points[k], "xstarstar", xss)  # bypass validation
    family = tampered(family, family.points)
    # every pair with point k fails, the first in row order is (0, k) or (0, 1)
    pairs = family_pairs(len(taus))
    first = pairs.index((0, max(k, 1)))
    passed = [(i, j, Fraction(*distinctness(taus[i], taus[j], ytilde))) for i, j in pairs[:first]]
    i, j = pairs[first]
    with pytest.raises(AssertionError, match="distinctness mismatch") as per_pair:
        pair_product(family, i, j)
    kernel = products(family_products(family))
    assert [next(kernel) for _ in passed] == passed
    with pytest.raises(AssertionError) as raised:
        next(kernel)
    assert str(raised.value) == str(per_pair.value)


@given(distinct_taus, positive_sum_summables(), st.data())
def test_family_products_check_every_pair(taus, ytilde, data):
    # One integer pairing, pairing_numerator(xss_i, xs_j), is off by one: the
    # loop and the kernel must both fail at pair (i, j) and pass every other.
    family = extension_family(taus, ytilde)
    points, pairs = family.points, family_pairs(len(taus))
    i, j = pairs[data.draw(st.integers(0, len(pairs) - 1))]
    real = c0cert.certify.pairing_numerator

    def off_by_one(x, y):
        return real(x, y) + (x is points[i].xstarstar and y is points[j].xstar)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(c0cert.certify, "pairing_numerator", off_by_one)
        values = {}
        for k, l in pairs:
            try:
                values[k, l] = pair_product(family, k, l)
            except AssertionError as exc:
                values[k, l] = str(exc)
        assert [pair for pair, value in values.items() if isinstance(value, str)] == [(i, j)]
        kernel = products(family_products(family))
        passed = pairs[: pairs.index((i, j))]
        assert [next(kernel) for _ in passed] == [(k, l, values[k, l]) for k, l in passed]
        with pytest.raises(AssertionError) as raised:
            next(kernel)
    assert str(raised.value) == values[i, j]


def test_family_products_reject_equal_taus():
    with pytest.raises(InvalidParameter, match="two different parameters"):
        list(family_products(extension_family([1, 2, 3, 2], unit(1))))
    assert list(family_products(extension_family([1], unit(1)))) == []


@given(st.lists(positive_taus, min_size=1, max_size=6), positive_sum_summables())
def test_extension_family_against_independent_oracles(taus, ytilde):
    evaluated = []
    real = c0cert.certify.gossez_apply
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(c0cert.certify, "gossez_apply", lambda y: evaluated.append(y) or real(y))
        family = extension_family(taus, ytilde)
    assert evaluated == [ytilde]  # G once, for any number of taus
    points = family.points
    assert [fraction_of(p.tau) for p in points] == taus and family.ytilde == ytilde
    for tau, p in zip(taus, points):
        assert p.ytilde == ytilde and p.xstar == tau * ytilde
        assert p.xstarstar == -gossez_apply(tau * ytilde) + Fraction(1) / tau * ONES
    assert family.g == gossez_apply(ytilde)
    assert pairing(family.g, ytilde) == 0
    assert violation_witness(-family.g, ytilde) == Related((0, 1))  # margin s at every tau
    assert fraction_of(family.total) == pairing(ONES, ytilde)
    # the self-pairing of tau * ytilde against -tau * g + (1/tau) * ones, by bilinearity
    s, q = pairing(ONES, ytilde), pairing(gossez_apply(ytilde), ytilde)
    for tau, p, num in zip(taus, points, family.diagonal):
        self_pairing = Fraction(num, p.xstar.den * p.xstarstar.den)
        assert self_pairing == pairing(p.xstar, p.xstarstar)
        assert self_pairing == s - tau * tau * q


def test_extension_family_needs_a_point():
    with pytest.raises(InvalidParameter, match="at least one point"):
        extension_family([], unit(1))


# --- Fitzpatrick gap --------------------------------------------------------


def test_fitzpatrick_value_examples():
    ep = extension_point(1, unit(1))
    assert Fraction(*fitzpatrick_value(ep, ORIGIN)) == 0
    assert Fraction(*fitzpatrick_value(ep, GraphPoint(-unit_v(1), unit_u(1)))) == 0
    assert pairing(ep.xstar, ep.xstarstar) == 1


@given(positive_taus, positive_sum_summables(), summables(), summables())
def test_fitzpatrick_value_matches_three_pairings(tau, ytilde, x, y):
    """The one-denominator evaluation equals the sum of three pairings, on or off the graph."""
    ep, p = extension_point(tau, ytilde), SimpleNamespace(x=x, y=y)
    expected = pairing(x, ep.xstar) + pairing(ep.xstarstar, y) - pairing(x, y)
    assert Fraction(*fitzpatrick_value(ep, p)) == expected


@given(positive_taus, positive_sum_summables(), zero_sum_summables())
def test_fitzpatrick_value_constant_over_graph(tau, ytilde, y):
    ep = extension_point(tau, ytilde)
    value = Fraction(*fitzpatrick_value(ep, GraphPoint.from_y(y)))
    assert value == pairing(ep.xstar, ep.xstarstar) - pairing(ONES, ytilde)


def test_fitzpatrick_gap_examples():
    sample = [ORIGIN, GraphPoint(-unit_v(1), unit_u(1)), GraphPoint.from_y(unit_u(3))]
    assert Fraction(*fitzpatrick_gap(extension_point(1, unit(1)), sample)) == 1
    assert Fraction(*fitzpatrick_gap(extension_point(1, 2 * unit(1)), sample)) == 2


def test_fitzpatrick_gap_rejects_an_offgraph_point():
    """One point off the graph breaks constancy, wherever it sits in the sample."""
    ep = extension_point(1, unit(1))
    graph = [ORIGIN, GraphPoint(-unit_v(1), unit_u(1)), GraphPoint.from_y(unit_u(3))]
    offgraph = SimpleNamespace(x=unit(1), y=ZERO)  # Fitzpatrick value 1, the graph's is 0
    for i in range(len(graph) + 1):
        with pytest.raises(AssertionError, match="constant"):
            fitzpatrick_gap(ep, graph[:i] + [offgraph] + graph[i:])


def test_fitzpatrick_gap_accepts_equal_values_over_different_denominators():
    """Graph points with y denominators 1, 6 and 35: equal values, unequal raw terms."""
    ep = extension_point(Fraction(2, 3), Seq(["3/7", "-1/5"]))
    ys = [unit_u(1), Seq(["1/2", "-1/3", "-1/6"]), Seq(["1/5", "1/7", "-12/35"])]
    assert [y.den for y in ys] == [1, 6, 35]
    sample = [GraphPoint.from_y(y) for y in ys]
    terms = [fitzpatrick_value(ep, p) for p in sample]
    assert len(set(terms)) == 3
    assert len({Fraction(num, den) for num, den in terms}) == 1
    assert Fraction(*fitzpatrick_gap(ep, sample)) == Fraction(8, 35)


def test_fitzpatrick_gap_rejects_empty_sample():
    with pytest.raises(EmptySample):
        fitzpatrick_gap(extension_point(1, unit(1)), [])


def test_fitzpatrick_gap_rejects_an_empty_stream():
    with pytest.raises(EmptySample):
        fitzpatrick_gap(extension_point(1, unit(1)), iter([]))


@given(positive_taus, positive_sum_summables(), st.lists(zero_sum_summables(), min_size=1, max_size=6))
def test_fitzpatrick_gap_equals_direction_total(tau, ytilde, ys):
    ep = extension_point(tau, ytilde)
    sample = [GraphPoint.from_y(y) for y in ys]
    gap = Fraction(*fitzpatrick_gap(ep, sample))
    assert gap == pairing(ONES, ytilde)
    assert gap > 0


# --- maximality witness -----------------------------------------------------


def test_witness_example_first_coordinate():
    verdict = violation_witness(unit(1), ZERO)
    assert isinstance(verdict, Violation)
    assert verdict.witness == GraphPoint(unit_v(1), -unit_u(1))
    assert verdict.product == (-1, 1)


def test_witness_example_member():
    assert isinstance(violation_witness(-unit_v(1), unit_u(1)), Member)


def test_every_graph_point_gets_the_one_shared_member():
    p, q = GraphPoint.from_y(unit_u(1)), GraphPoint.from_y(unit_u(2))
    assert violation_witness(p.x, p.y) is violation_witness(q.x, q.y)


def test_witness_example_swapped_pair():
    verdict = violation_witness(ZERO, unit(1))
    assert isinstance(verdict, Violation)
    assert verdict.product == (-1, 1)


def test_witness_origin_branch():
    # recurrence holds but the sum does not vanish
    y = unit(1)
    x = -gossez_apply(y) - total_sum(y) * ONES
    assert x == -unit(1)
    verdict = violation_witness(x, y)
    assert isinstance(verdict, Violation)
    assert verdict.witness == ORIGIN
    assert fraction_of(verdict.product) == -total_sum(y) ** 2 == -1


def test_witness_rejects_nonzero_tails():
    # x may have a tail: (ones, 0) is -G(0) + 1 * ones, related with margin 0
    assert violation_witness(ONES, ZERO) == Related((0, 1))
    with pytest.raises(NonSummable):
        violation_witness(ZERO, ONES)


def test_witness_relates_the_family_point_of_e1_at_tau_one():
    # w = -G(e_1) + ones = (1, 2, 2, ...), z = e_1: kappa = 1, sigma = 1
    w = Seq([1], 2)
    assert w == -gossez_apply(unit(1)) + ONES
    assert violation_witness(w, unit(1)) == Related((1, 1))
    point = extension_point(1, unit(1))
    assert (point.xstarstar, point.xstar) == (w, unit(1))


def test_witness_refutes_ones_against_e1_at_the_first_index():
    # x_2 - x_1 = 0 != y_1 + y_2 = 1; lam = -(pairing(ones, e_1) + 1) / 1 = -2
    verdict = violation_witness(ONES, unit(1))
    assert verdict == Violation(GraphPoint.from_y(2 * (unit(1) - unit(2))), (-1, 1))
    assert pairing(ONES - verdict.witness.x, unit(1) - verdict.witness.y) == -1


def closed_form_g(z):
    """G(z) from (G z)_n = sum over i of sgn(i - n) z_i, as Fractions: its prefix and its tail."""
    entries = [z.entry(i) for i in range(1, len(z.num) + 1)]
    prefix = [
        sum((e if i > n else -e) for i, e in enumerate(entries, 1) if i != n)
        for n in range(1, len(entries) + 1)
    ]
    return prefix, -sum(entries, Fraction(0))


@given(summables(), rationals, st.data())
def test_witness_decides_each_polar_point_by_the_closed_form_of_g(z, kappa, data):
    """w = -G z + kappa * ones is related with margin kappa * sigma, refuted at the origin, or on the graph."""
    prefix, tail = closed_form_g(z)
    w = Seq([kappa - v for v in prefix], kappa - tail)
    sigma = total_sum(z)
    verdict = violation_witness(w, z)
    product = kappa * sigma
    if not (w.tnum or sigma):
        assert verdict == Member()
    elif product >= 0:
        assert verdict == Related((product.numerator, product.denominator))
    else:
        assert verdict == Violation(ORIGIN, (product.numerator, product.denominator))
    # one entry moved: the recurrence fails, and the witness's product, recomputed, is -1
    j = data.draw(st.integers(1, len(z.num) + 2))
    moved = w + data.draw(nonzero_rationals) * unit(j)
    verdict = violation_witness(moved, z)
    assert isinstance(verdict, Violation) and verdict.product == (-1, 1)
    assert verdict.witness.x == -gossez_apply(verdict.witness.y)
    assert pairing(moved - verdict.witness.x, z - verdict.witness.y) == -1


@given(zero_sum_summables())
def test_witness_complete_on_graph(y):
    assert isinstance(violation_witness(-gossez_apply(y), y), Member)


@given(zero_sum_summables(), summables())
def test_witness_sound_on_null_side_perturbations(y, delta):
    assume(delta != ZERO)
    p = GraphPoint.from_y(y)
    verdict = violation_witness(p.x + delta, p.y)
    assert isinstance(verdict, Violation)
    product = fraction_of(verdict.product)
    assert pairing(p.x + delta - verdict.witness.x, p.y - verdict.witness.y) == product
    assert product == -1


@given(zero_sum_summables(), summables())
def test_witness_sound_on_summable_side_perturbations(y, delta):
    assume(delta != ZERO)
    p = GraphPoint.from_y(y)
    verdict = violation_witness(p.x, p.y + delta)
    assert isinstance(verdict, Violation)
    product = fraction_of(verdict.product)
    assert pairing(p.x - verdict.witness.x, p.y + delta - verdict.witness.y) == product
    assert product < 0


@given(summables())
def test_witness_sound_on_sum_breaking_pairs(y):
    total = total_sum(y)
    assume(total != 0)
    x = -gossez_apply(y) - total * ONES
    verdict = violation_witness(x, y)
    assert isinstance(verdict, Violation)
    assert verdict.witness == ORIGIN
    assert fraction_of(verdict.product) == -(total**2)


def fraction_witness(x, y):
    """The witness's y and the product, from the Fraction formulas; None for a member.

    At the first m with gap_m = (y_m + y_{m+1}) - (x_{m+1} - x_m) != 0 the
    witness is lam * u_m with lam = -(pairing(x, y) + 1) / gap_m and product
    -1; past the support, a nonzero sum(y) gives the origin and pairing(x, y).
    """
    for m in range(1, max(len(x.num), len(y.num)) + 2):
        gap = y.entry(m) + y.entry(m + 1) - (x.entry(m + 1) - x.entry(m))
        if gap:
            return -(pairing(x, y) + 1) / gap * unit_u(m), Fraction(-1)
    if total_sum(y):
        return ZERO, pairing(x, y)
    return None


def assert_fraction_witness(x, y):
    verdict = violation_witness(x, y)
    expected = fraction_witness(x, y)
    if expected is None:
        assert isinstance(verdict, Member)
        return
    witness_y, product = expected
    assert isinstance(verdict, Violation)
    assert verdict.witness.y == witness_y
    assert verdict.witness.x == -gossez_apply(witness_y)
    assert fraction_of(verdict.product) == product < 0


@given(zero_sum_summables(), summables(), st.integers(min_value=0, max_value=2))
def test_witness_matches_the_fraction_formula_on_each_offgraph_shape(y, delta, shape):
    # the three shapes of random_offgraph_pair, from a graph point and a delta
    p = GraphPoint.from_y(y)
    if shape == 2:
        assume(total_sum(delta) != 0)
        x, y = -gossez_apply(delta) - total_sum(delta) * ONES, delta
    else:
        assume(delta != ZERO)
        x, y = (p.x + delta, p.y) if shape == 0 else (p.x, p.y + delta)
    assert fraction_witness(x, y) is not None
    assert_fraction_witness(x, y)


@given(summables(), summables())
def test_witness_matches_the_fraction_formula_on_any_pair(x, y):
    # independent draws: the two denominators differ, and members are rare
    assert_fraction_witness(x, y)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([2, 16, 64]),
    st.sampled_from([1, 100, 10**6]),
)
def test_witness_matches_the_fraction_formula_on_sampled_pairs(seed, support_max, coeff_bound):
    rng = random.Random(seed)
    for _ in range(6):
        assert_fraction_witness(*random_offgraph_pair(rng, support_max, coeff_bound))


def test_witness_matches_the_fraction_formula_over_different_denominators():
    x, y = Seq(["1/3", "2/5"]), Seq(["1/7", "0", "-3/4"])
    assert x.den != y.den
    assert_fraction_witness(x, y)
    assert_fraction_witness(y, x)


def test_witness_scale_zero_gives_the_origin():
    # pairing(x, y) = -1, so lam = 0 at the first failing index, m = 1
    verdict = violation_witness(-unit(2), unit(2))
    assert isinstance(verdict, Violation)
    assert verdict.witness == ORIGIN
    assert verdict.product == (-1, 1)
    assert_fraction_witness(-unit(2), unit(2))


def test_witness_refuses_a_failed_membership_reconstruction(monkeypatch):
    # the recurrence holds and sum(y) = 0: only the forward map can disagree
    y = unit_u(2)
    x = neg_gossez_apply(y)
    real = c0cert.certify.neg_gossez_apply
    monkeypatch.setattr(c0cert.certify, "neg_gossez_apply", lambda z: real(z) + unit(1))
    with pytest.raises(AssertionError, match="membership reconstruction failed"):
        violation_witness(x, y)


def test_an_off_by_one_pairing_trips_both_witness_checks(monkeypatch):
    core = c0cert.certify.pairing_numerator
    monkeypatch.setattr(c0cert.certify, "pairing_numerator", lambda a, b: core(a, b) + 1)
    # the recurrence holds and sum(y) = 1: the origin branch
    with pytest.raises(AssertionError, match="origin-witness product mismatch"):
        violation_witness(-unit(1), unit(1))
    # the recurrence fails at m = 1: the scale is off, and the recomputed product shows it
    with pytest.raises(AssertionError, match="witness normalization failed"):
        violation_witness(unit(1), ZERO)


# --- samplers ---------------------------------------------------------------


def test_graph_sampler_is_deterministic():
    a = random_graph_point(random.Random(7), 16, 100)
    b = random_graph_point(random.Random(7), 16, 100)
    assert a == b


def test_graph_sampler_respects_support_bound():
    rng = random.Random(3)
    for _ in range(50):
        p = random_graph_point(rng, 5, 10)
        assert len(p.y.prefix) <= 5
        assert total_sum(p.y) == 0


def test_graph_sampler_rejects_tiny_support():
    with pytest.raises(InvalidParameter):
        random_graph_point(random.Random(0), 1, 10)


def test_offgraph_sampler_leaves_graph():
    rng = random.Random(11)
    for _ in range(100):
        x, y = random_offgraph_pair(rng, 8, 20)
        assert x != -gossez_apply(y)
        verdict = violation_witness(x, y)
        assert isinstance(verdict, Violation)
        assert fraction_of(verdict.product) < 0


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=10**4),
)
def test_offgraph_sampler_never_lands_on_the_graph(seed, support_max, coeff_bound):
    """Every perturbation shape stays off the graph, so the sampler re-checks none."""
    rng = random.Random(seed)
    # coefficient bound 1 draws the smallest deltas and the most zero totals
    for bound in (coeff_bound, 1):
        for _ in range(6):
            x, y = random_offgraph_pair(rng, support_max, bound)
            assert x != -gossez_apply(y)


def assert_canonical(s):
    # the fields the canonicalizer gives for the same numerators over the same denominator
    ref = Seq._of(list(s.num), s.tnum, s.den)
    assert (s.num, s.tnum, s.den) == (ref.num, ref.tnum, ref.den)
    assert type(s.num) is tuple


@pytest.mark.parametrize("support_max", [2, 256])
@pytest.mark.parametrize("coeff_bound", [1, 10**6])
def test_samplers_are_canonical_as_built(support_max, coeff_bound):
    # coefficient bound 1 draws zero entries often: all-zero draws and trailing zeros
    rng = random.Random(support_max + coeff_bound)
    for _ in range(25):
        assert_canonical(random_summable(rng, support_max, coeff_bound))
        p = random_graph_point(rng, support_max, coeff_bound)
        assert_canonical(p.y)
        assert_canonical(p.x)
        for s in random_offgraph_pair(rng, support_max, coeff_bound):
            assert_canonical(s)


@pytest.mark.parametrize("n", [1, 2, 4, 1024, 2**20, 3, 5, 1025, 2**20 + 1, 2 * 10**4 + 1])
def test_draw_kernel_matches_randint(n):
    ours, ref = random.Random(n), random.Random(n)
    assert [_below(ours, n) for _ in range(500)] == [ref.randint(0, n - 1) for _ in range(500)]
    assert ours.getstate() == ref.getstate()


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=10**4),
)
def test_samplers_match_per_entry_randint_reference(seed, support_max, coeff_bound):
    ours, ref = random.Random(seed), random.Random(seed)
    width = ref.randint(0, support_max)
    entries = [
        Fraction(ref.randint(-coeff_bound, coeff_bound), ref.randint(1, coeff_bound))
        for _ in range(width)
    ]
    assert random_summable(ours, support_max, coeff_bound) == Seq(tuple(entries))
    reference_rational = Fraction(
        ref.randint(-coeff_bound, coeff_bound), ref.randint(1, coeff_bound)
    )
    assert random_rational(ours, coeff_bound) == (
        reference_rational.numerator,
        reference_rational.denominator,
    )
    assert ours.getstate() == ref.getstate()


def test_random_rational_returns_lowest_terms():
    # p in [-4, 4] over q in [1, 4]: 22 of the first 50 draws share a factor, 2/4 first
    ours, ref = random.Random(0), random.Random(0)
    for _ in range(50):
        draw = Fraction(ref.randint(-4, 4), ref.randint(1, 4))
        assert random_rational(ours, 4) == (draw.numerator, draw.denominator)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=10**4),
)
def test_random_graph_point_matches_per_entry_randint_reference(seed, support_max, coeff_bound):
    """Draws rebalanced at the last nonzero entry, as Fractions, from randint."""
    ours, ref = random.Random(seed), random.Random(seed)
    # small coefficient bounds draw zero numerators often, so raw draws end in zeros
    for bound in (coeff_bound, 1, 2):
        width = ref.randint(0, support_max)
        entries = [
            Fraction(ref.randint(-bound, bound), ref.randint(1, bound)) for _ in range(width)
        ]
        total = sum(entries, Fraction(0))
        if total:
            last = max(i for i, v in enumerate(entries) if v)
            entries[last] -= total
        y = Seq(tuple(entries))
        assert total_sum(y) == 0
        p = random_graph_point(ours, support_max, bound)
        assert p.y == y and p.x == -gossez_apply(y)
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize(
    ("seed", "width", "last_nonzero"),
    [
        (35, 4, 0),  # 0/1, 0/1, 0/2, 0/1: all zeros, so the graph point is the origin
        (56, 6, 4),  # 2/1, 1/2, 2/2, -1/1, 0/1, 0/2: two zeros after entry 4
    ],
)
def test_samplers_match_the_reference_on_draws_ending_in_zeros(seed, width, last_nonzero):
    """The first draw of ``seed`` at support 6 and coefficient bound 2, from randint."""
    ref = random.Random(seed)
    entries = [
        Fraction(ref.randint(-2, 2), ref.randint(1, 2)) for _ in range(ref.randint(0, 6))
    ]
    assert len(entries) == width
    assert max((i + 1 for i, v in enumerate(entries) if v), default=0) == last_nonzero
    state = ref.getstate()
    ours = random.Random(seed)
    assert random_summable(ours, 6, 2) == Seq(tuple(entries))
    assert ours.getstate() == state
    if last_nonzero:
        entries[last_nonzero - 1] -= sum(entries)
    y = Seq(tuple(entries))
    ours = random.Random(seed)
    p = random_graph_point(ours, 6, 2)
    assert p.y == y and p.x == -gossez_apply(y)
    assert ours.getstate() == state
