"""Exact certificates for the graph of the skew operator's inverse.

Everything here reduces a structural claim about the operator to rational
identities that are checked literally:

* ``monotone_product`` pairs two graph points off to exactly zero, the skew
  sharpening of the monotonicity inequality.
* ``violation_witness`` is a constructive maximality check: any candidate
  pair off the graph is refuted by an explicit graph point whose monotone
  product with the candidate is strictly negative (normalized to -1 whenever
  a difference-recurrence index witnesses the failure).
* ``closure_margin`` and ``family_products`` handle the one-parameter family
  of bidual points built from a positive-sum direction, whose shared values
  ``extension_family`` computes once: each family point is
  monotone against the whole graph with one constant strictly positive
  margin, yet any two family points are strictly non-monotone against each
  other, so no single monotone extension of the graph can contain two of
  them.
* ``fitzpatrick_value`` and ``fitzpatrick_gap`` certify the same failure
  through the Fitzpatrick function: the supremum of the graph evaluations
  stays short of the family point's self-pairing by an exactly computed
  positive gap.
* ``uncertified_points`` proves the margin and the Fitzpatrick value of a
  graph point for every tau > 0 at once, from four tau-free integers per
  point, and returns the points where that proof does not go through.

Each value-returning certificate has an integer core, named with a
``_terms`` suffix, that returns an unreduced numerator over a positive
denominator.  Verdicts are compared as integers: a/b = c/d holds iff
a * d = b * c when b, d > 0, and a value's sign is its numerator's sign.  A
Fraction is built once per reported value, by the public wrappers and by
callers that report the value, never to compare it.

Sampling helpers are deterministic given their random.Random generator; use
one generator per worker, with seeds derived by fixed splitting.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import floordiv

from .gossez import gossez_apply
from .seqspace import (
    ZERO,
    NonSummable,
    Rational,
    Seq,
    difference_terms,
    pairing,
    pairing_numerator,
    rat,
)

__all__ = [
    "InvalidParameter",
    "EmptySample",
    "GraphPoint",
    "ExtensionPoint",
    "ExtensionFamily",
    "Member",
    "Violation",
    "WitnessVerdict",
    "random_rational",
    "random_summable",
    "random_graph_point",
    "random_offgraph_pair",
    "monotone_product",
    "monotone_product_terms",
    "extension_point",
    "extension_family",
    "closure_margin",
    "closure_margin_terms",
    "family_product",
    "family_products",
    "distinctness",
    "fitzpatrick_value",
    "fitzpatrick_value_terms",
    "fitzpatrick_gap",
    "uncertified_points",
    "violation_witness",
]


class InvalidParameter(ValueError):
    """A certificate was requested for parameters outside its preconditions."""


class EmptySample(ValueError):
    """A nonempty sample of graph points is required."""


def _derived(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from fields just derived.

    Skips ``__post_init__``, whose only work would be to derive the same
    fields again; direct construction still runs it.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, slots=True)
class GraphPoint:
    """A pair (x, y) with x = -G(y); membership is verified on construction.

    The zero-tail requirement on x forces sum(y) = 0, since -G(y) has
    constant tail sum(y).
    """

    x: Seq
    y: Seq

    def __post_init__(self) -> None:
        if self.x.tnum or self.y.tnum:
            raise InvalidParameter("graph points need zero tails on both components")
        if self.x != -gossez_apply(self.y):
            raise InvalidParameter("not a graph point: x != -G(y)")

    @classmethod
    def from_y(cls, y: Seq) -> GraphPoint:
        """The graph point above a zero-sum summable y.

        x = -G(y) is computed here, so membership reduces to the zero tail
        of x and is not re-verified by a second evaluation of G.
        """
        x = -gossez_apply(y)
        if x.tnum:
            raise InvalidParameter("graph points need zero tails on both components")
        return _derived(cls, x=x, y=y)


@dataclass(frozen=True, slots=True)
class ExtensionPoint:
    """A closure point beyond the graph, parametrized by tau > 0.

    For a summable direction ytilde with pairing(ones, ytilde) > 0,

        xstar     = tau * ytilde
        xstarstar = -G(tau * ytilde) + (1/tau) * ones .

    The first component stays summable; the second has constant tail
    tau * sum(ytilde) + 1/tau > 0, so it is bounded but not a null sequence.
    All fields are recomputable from (tau, ytilde); direct construction
    re-derives and compares them.
    """

    tau: Rational
    ytilde: Seq
    xstar: Seq
    xstarstar: Seq

    def __post_init__(self) -> None:
        xstar, xstarstar = _family_components(self.tau, self.ytilde)
        if self.xstar != xstar:
            raise InvalidParameter("xstar != tau * ytilde")
        if self.xstarstar != xstarstar:
            raise InvalidParameter("xstarstar does not match its construction")


def _family_components(tau: Rational, ytilde: Seq) -> tuple[Seq, Seq]:
    """Check the family's preconditions on (tau, ytilde); return (xstar, xstarstar)."""
    if tau <= 0:
        raise InvalidParameter(f"tau must be positive, got {tau}")
    if ytilde.tnum:
        raise InvalidParameter("ytilde must be finitely supported")
    if sum(ytilde.num) <= 0:  # the numerator of pairing(ones, ytilde) over ytilde.den > 0
        raise InvalidParameter("pairing(ones, ytilde) must be positive")
    xstar = tau * ytilde
    # (1/tau) * ones is canonical as built: tau > 0 is in lowest terms
    return xstar, Seq._from_canonical((), tau.denominator, tau.numerator) - gossez_apply(xstar)


def extension_point(tau: Rational | int | str, ytilde: Seq) -> ExtensionPoint:
    """Build the family point for parameter tau > 0 and direction ytilde.

    The positive total pairing(ones, ytilde) is exactly the closure margin
    and the Fitzpatrick gap this point certifies.
    """
    tau = rat(tau)
    xstar, xstarstar = _family_components(tau, ytilde)
    return _derived(ExtensionPoint, tau=tau, ytilde=ytilde, xstar=xstar, xstarstar=xstarstar)


@dataclass(frozen=True, slots=True)
class ExtensionFamily:
    """Family points along one direction, with the tau-free values they share.

    With xs_k = xstar and xss_k = xstarstar of ``points[k]``:

    * ``points``: the family points, in the order they were given;
    * ``ytilde``: their common direction;
    * ``total``: s = pairing(ones, ytilde) > 0, the closure margin and the
      Fitzpatrick gap of every point;
    * ``g``: G(ytilde), and ``q``: the integer pairing_numerator(g, ytilde),
      which skewness makes 0;
    * ``diagonal``: the integers pairing_numerator(xss_k, xs_k), so the
      self-pairing pairing(xs_k, xss_k) is diagonal[k] / (xs_k.den * xss_k.den).

    ``extension_family`` builds it, computing each value once.
    """

    points: tuple[ExtensionPoint, ...]
    ytilde: Seq
    total: Rational
    g: Seq
    q: int
    diagonal: tuple[int, ...]


def extension_family(points: Sequence[ExtensionPoint]) -> ExtensionFamily:
    """The family of ``points``, which must be nonempty and share their direction ytilde."""
    if not points:
        raise InvalidParameter("a family needs at least one point")
    ytilde = points[0].ytilde
    if any(p.ytilde is not ytilde and p.ytilde != ytilde for p in points):
        raise InvalidParameter("family points must share their direction ytilde")
    g = gossez_apply(ytilde)
    return ExtensionFamily(
        points=tuple(points),
        ytilde=ytilde,
        total=Fraction(sum(ytilde.num), ytilde.den),
        g=g,
        q=pairing_numerator(g, ytilde),
        diagonal=tuple(pairing_numerator(p.xstarstar, p.xstar) for p in points),
    )


@dataclass(frozen=True)
class Member:
    """Verdict: the candidate pair lies on the graph."""


@dataclass(frozen=True)
class Violation:
    """Verdict: an explicit graph point refutes the candidate pair.

    ``product`` is the monotone product of the candidate against the
    witness, strictly negative, so no monotone extension of the graph can
    contain the candidate.
    """

    witness: GraphPoint
    product: Rational


WitnessVerdict = Member | Violation

# The normalized product of every difference-recurrence witness, once its
# recomputed numerator and denominator are seen to cancel to -1.
_MINUS_ONE = Fraction(-1)
# The witness of the origin branch, validated once, here.
_ORIGIN = GraphPoint(ZERO, ZERO)


def monotone_product(p: GraphPoint, q: GraphPoint) -> Rational:
    """pairing(p.x - q.x, p.y - q.y); identically zero on the graph."""
    return Fraction(*monotone_product_terms(p, q))


def monotone_product_terms(p: GraphPoint, q: GraphPoint) -> tuple[int, int]:
    """``monotone_product`` as an unreduced numerator over a positive denominator."""
    return difference_terms(p.x, q.x, p.y, q.y)


def closure_margin(ep: ExtensionPoint, p: GraphPoint) -> Rational:
    """Monotone product of a family point against a graph point.

    Equals pairing(ones, ep.ytilde) for every graph point: the graph part
    pairs off by skewness, graph values are zero-sum so they are orthogonal
    to the ones direction, and what remains is (1/tau) * pairing(tau *
    ytilde, ones).  Constancy with strict positivity over the graph
    certifies membership in the monotone closure of the graph.

    This is the definition, evaluated directly.  The ``extensions`` suite
    proves the constant margin for every tau > 0 on each sampled point with
    ``uncertified_points``, and evaluates this directly on one point per tau
    (the oracle that ties the proof to the definition) and on every point
    the proof does not cover.
    """
    return Fraction(*closure_margin_terms(ep, p))


def closure_margin_terms(ep: ExtensionPoint, p: GraphPoint) -> tuple[int, int]:
    """``closure_margin`` as an unreduced numerator over a positive denominator."""
    return difference_terms(ep.xstarstar, p.x, ep.xstar, p.y)


def family_product(p1: ExtensionPoint, p2: ExtensionPoint) -> Rational:
    """Monotone product between two family points, from the sequences themselves.

    The two-point case of ``family_products``, which states and checks the
    preconditions, the closed form and the strict sign.
    """
    return next(family_products(extension_family((p1, p2))))[2]


def family_products(family: ExtensionFamily) -> Iterator[tuple[int, int, Rational]]:
    """Every pairwise monotone product of family points, from the sequences themselves.

    Yields ``(i, j, product)`` for i < j in the order of the nested loop
    over i and then j > i, where, with xs = xstar and xss = xstarstar of
    ``family.points``,

        product = pairing(xss_i - xss_j, xs_i - xs_j) .

    The points share ytilde (``extension_family`` checks that) and each
    pair must differ in tau.  Its product is checked against the closed form

        (tau_i - tau_j) * (1/tau_i - 1/tau_j) * pairing(ones, ytilde)

    and required to be strictly negative: the two points cannot live in a
    common monotone graph, so distinct parameters force distinct maximal
    monotone extensions into the bidual.  A failed check raises at the
    first failing pair, with the message the pair alone would give.

    The product expands by bilinearity into the four integer pairings
    P(k, l) = pairing_numerator(xss_k, xs_l) for k, l in {i, j}, each
    summed at C level since xs_l is finitely supported.  Each P(i, j) with
    i != j serves one pair only, so it is computed there; the diagonal
    P(k, k) is the family's ``diagonal``, computed once for all pairs.  n
    points thus cost n^2 pairings, not the 4 per pair of
    ``difference_terms``, and the numerator over the denominator is the one
    ``difference_terms`` builds.
    Both checks run on integers; the one Fraction built per pair is the
    yielded value.  Nothing is held per pair, so the caller decides what
    to keep.
    """
    terms = [(p.xstarstar, p.xstar, p.tau.numerator, p.tau.denominator) for p in family.points]
    diagonal, s, e = family.diagonal, family.total.numerator, family.total.denominator
    for i, (xss1, xs1, a1, b1) in enumerate(terms):
        dss1, ds1 = xss1.den, xs1.den
        for j in range(i + 1, len(terms)):
            xss2, xs2, a2, b2 = terms[j]
            dss2, ds2 = xss2.den, xs2.den
            # tau_i = a_i / b_i in lowest terms, so k = 0 iff tau_i = tau_j
            k = a1 * b2 - a2 * b1
            if not k:
                raise InvalidParameter("distinctness needs two different parameters")
            # xss1 - xss2 has numerators xss1.num * fa - xss2.num * fb over
            # dss1 * fa, and xs1 - xs2 alike with fc, fd, as in difference_terms
            g = gcd(dss1, dss2)
            fa, fb = dss2 // g, dss1 // g
            g = gcd(ds1, ds2)
            fc, fd = ds2 // g, ds1 // g
            num = fa * (fc * diagonal[i] - fd * pairing_numerator(xss1, xs2)) - fb * (
                fc * pairing_numerator(xss2, xs1) - fd * diagonal[j]
            )
            den = dss1 * fa * ds1 * fc
            # With pairing(ones, ytilde) = s / e, the closed form is
            # -(a1 b2 - a2 b1)^2 s / (a1 a2 b1 b2 e); compare it cross-multiplied.
            closed_num, closed_den = -k * k * s, a1 * a2 * b1 * b2 * e
            if num * closed_den != closed_num * den:
                direct, closed = Fraction(num, den), Fraction(closed_num, closed_den)
                raise AssertionError(f"distinctness mismatch: direct {direct} != closed {closed}")
            if num >= 0:
                raise AssertionError(
                    f"distinctness product must be negative, got {Fraction(num, den)}"
                )
            yield i, j, Fraction(num, den)


def distinctness(
    tau1: Rational | int | str, tau2: Rational | int | str, ytilde: Seq
) -> Rational:
    """``family_product`` of the family points for tau1 and tau2 along ytilde.

    Builds both points; callers that pair many taus build one
    ``extension_family`` and stream the pairs through ``family_products``.
    """
    return family_product(extension_point(tau1, ytilde), extension_point(tau2, ytilde))


def fitzpatrick_value(ep: ExtensionPoint, p: GraphPoint) -> Rational:
    """Fitzpatrick evaluation of a graph point against a family point:

        pairing(p.x, ep.xstar) + pairing(ep.xstarstar, p.y) - pairing(p.x, p.y) .

    Constant over the graph, equal to the family point's self-pairing minus
    its closure margin.
    """
    return Fraction(*fitzpatrick_value_terms(ep, p))


def fitzpatrick_value_terms(ep: ExtensionPoint, p: GraphPoint) -> tuple[int, int]:
    """``fitzpatrick_value`` as an unreduced numerator over a positive denominator.

    The three integer pairings are put over one common denominator.
    """
    dx, dy, ds, dss = p.x.den, p.y.den, ep.xstar.den, ep.xstarstar.den
    total = (
        pairing_numerator(p.x, ep.xstar) * dss * dy
        + pairing_numerator(ep.xstarstar, p.y) * dx * ds
        - pairing_numerator(p.x, p.y) * ds * dss
    )
    return total, dx * dy * ds * dss


def fitzpatrick_gap(
    ep: ExtensionPoint, sample: Sequence[GraphPoint], self_pairing: Rational | None = None
) -> Rational:
    """Self-pairing of the family point minus the best graph evaluation.

    The per-point evaluations must all coincide; the gap then equals
    pairing(ones, ep.ytilde) > 0.  Strict positivity means the supremum over
    the whole graph stays short of pairing(xstar, xstarstar), which is the
    machine-checkable failure-of-unique-extension certificate.  The ``gap``
    suite passes pairing(ep.xstar, ep.xstarstar), read from its family's
    ``diagonal``, as ``self_pairing``; without it, it is computed here.

    Constancy is checked while streaming over the sample, each evaluation
    cross-multiplied with the first; the gap is the one Fraction built.

    Every point of ``sample`` is evaluated directly.  The ``gap`` suite
    passes the first sampled point and the points ``uncertified_points``
    returns, since it proves a Fitzpatrick value of 0 at every tau > 0 for
    the rest; it evaluates the whole sample when the common value it gets
    is not 0.
    """
    if not sample:
        raise EmptySample("need at least one graph point")
    points = iter(sample)
    first_num, first_den = fitzpatrick_value_terms(ep, next(points))
    for p in points:
        num, den = fitzpatrick_value_terms(ep, p)
        if num * first_den != first_num * den:
            raise AssertionError("Fitzpatrick evaluations must be constant over the graph")
    if self_pairing is None:
        self_pairing = pairing(ep.xstar, ep.xstarstar)
    sp_num, sp_den = self_pairing.numerator, self_pairing.denominator
    return Fraction(sp_num * first_den - first_num * sp_den, sp_den * first_den)


def uncertified_points(family: ExtensionFamily, sample: Sequence[GraphPoint]) -> list:
    """The points of ``sample`` whose family certificate is not proven for every tau > 0.

    For tau > 0 the family point along the family's direction ytilde is
    xs = tau * ytilde, xss = -tau * g + (1/tau) * ones with g = G(ytilde).
    Take a point p = (x, y) with y finitely supported, and let

        q = pairing(g, ytilde),  s = sum(ytilde),
        a = pairing(g, y),  b = pairing(x, ytilde),  c = sum(y),  d = pairing(x, y).

    Each pairing below has a finitely supported side, so the definitions
    expand by bilinearity:

        closure_margin(tau, p)    = pairing(xss - x, xs - y)
                                  = -tau^2 q + s + tau (a - b) - c / tau + d
        fitzpatrick_value(tau, p) = pairing(x, xs) + pairing(xss, y) - pairing(x, y)
                                  = tau (b - a) + c / tau - d

    None of q, s, a, b, c and d depends on tau.  Where q = 0, a = b, c = 0
    and d = 0, the margin is s and the Fitzpatrick value is 0 at every
    tau > 0 at once.  On the graph these are skewness (q = 0, d = 0), the
    range law (c = 0) and the antisymmetry of G (a = b).

    g and q come from ``family``, built once; if q != 0, every point is returned.
    Each point then costs three integer pairings and one sum: c and d must
    have zero numerators, and a = b is compared cross-multiplied over the
    two denominators.  A point whose y has a nonzero tail is returned
    unchecked, since c and d need not exist.  The returned points keep
    their sample order.
    """
    if family.q:
        return list(sample)
    g, ytilde = family.g, family.ytilde
    gden, tden = g.den, ytilde.den
    return [
        p
        for p in sample
        if p.y.tnum
        or sum(p.y.num)
        or pairing_numerator(p.x, p.y)
        or pairing_numerator(g, p.y) * p.x.den * tden
        != pairing_numerator(p.x, ytilde) * gden * p.y.den
    ]


def violation_witness(x: Seq, y: Seq) -> WitnessVerdict:
    """Constructive graph-membership check for a candidate pair.

    Scans the difference recurrence x_{m+1} - x_m = y_{m+1} + y_m over the
    joint support plus one.  A failure at index m yields the witness
    (-lam * v_m, lam * u_m) with lam chosen so the monotone product against
    the candidate is exactly -1 (the quadratic term cancels because
    pairing(v_m, u_m) = 0).  If the recurrence holds throughout but
    sum(y) != 0, the origin is a witness with product -(sum(y))^2.
    Otherwise x = -G(y) entrywise and the pair is a member of the graph.

    Everything runs on integers.  With g = gcd(x.den, y.den), the scan
    cross-multiplies by the reduced factors x.den / g and y.den / g, so

        scaled_gap = gap_m * x.den * y.den / g

    is an integer with gap_m's sign, and for a pair built from one graph
    point, where both denominators are equal, both factors are 1.  With
    pn = pairing_numerator(x, y) = pairing(x, y) * x.den * y.den,

        lam = -(pairing(x, y) + 1) / gap_m = -(pn + x.den * y.den) / (g * scaled_gap) ,

    and lam * u_m is built as one canonicalized sequence from that
    numerator over that denominator, its sign moved to the numerator.  On
    the origin branch, pairing(x, y) = -total^2 with total = sum(y) reads
    pn * y.den = -total^2 * x.den, compared as integers.

    Every returned product is recomputed from the witness sequences, never
    from the closed form alone, and this recomputation is the re-verification
    of the witness: the product is exactly -1 once the recomputed numerator
    equals minus its denominator, or -total^2 with total != 0 once the
    origin's product pairing(x, y) equals it.  Any other outcome raises
    AssertionError, so a returned product is strictly negative and callers
    need not recheck it.
    """
    if x.tnum or y.tnum:
        raise NonSummable("candidate pair must have zero tails")
    dx, dy = x.den, y.den
    g = gcd(dx, dy)
    fx, fy = dx // g, dy // g
    width = max(len(x.num), len(y.num)) + 2
    xs = list(x.num) + [0] * (width - len(x.num))
    ys = list(y.num) + [0] * (width - len(y.num))
    for m in range(1, width):
        scaled_gap = (ys[m] + ys[m - 1]) * fx - (xs[m] - xs[m - 1]) * fy
        if scaled_gap:
            lam_num = -(pairing_numerator(x, y) + dx * dy)
            lam_den = g * scaled_gap
            if lam_den < 0:
                lam_num, lam_den = -lam_num, -lam_den
            witness = GraphPoint.from_y(Seq._of([0] * (m - 1) + [-lam_num, lam_num], 0, lam_den))
            num, den = difference_terms(x, witness.x, y, witness.y)
            if num != -den:
                raise AssertionError("witness normalization failed")
            return Violation(witness, _MINUS_ONE)
    total = sum(y.num)
    if total:
        if pairing_numerator(x, y) * dy != -total * total * dx:
            raise AssertionError("origin-witness product mismatch")
        return Violation(_ORIGIN, Fraction(-total * total, dy * dy))
    if x != -gossez_apply(y):
        raise AssertionError("membership reconstruction failed")
    return Member()


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from 0..n-1, for n >= 1.

    Rejection sampling on ``rng.getrandbits(n.bit_length())``: the same bits
    and the same value as ``rng.randrange(n)``, so every draw is fixed by the
    Mersenne Twister stream alone.  ``_draw_summable`` inlines this loop.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_rational(rng: random.Random, coeff_bound: int) -> Rational:
    """A draw with numerator in [-coeff_bound, coeff_bound] and denominator in [1, coeff_bound]."""
    return Fraction(_below(rng, 2 * coeff_bound + 1) - coeff_bound, _below(rng, coeff_bound) + 1)


def _draw_summable(
    rng: random.Random, support_max: int, coeff_bound: int
) -> tuple[list[int], list[int]]:
    """The numerators and the denominators of one ``random_summable`` draw.

    Entry i is the i-th ``random_rational`` draw in lowest terms: p // g
    over q // g with g = gcd(p, q) > 0, so a zero entry is 0 over 1.  The
    lists are raw: not trimmed and not over a common denominator.  The
    ``_below`` loop is inlined with its bit widths computed once, so each
    entry costs no Python call of its own; the reduction runs after the
    draws and consumes no random bits.
    """
    width = _below(rng, support_max + 1)
    span = 2 * coeff_bound + 1
    getrandbits, kspan, kden = rng.getrandbits, span.bit_length(), coeff_bound.bit_length()
    # Two int lists, not (p, q) pairs: lcm(*generator) would make CPython
    # build a 10-slot tuple and shrink it on every call, parking each shrunken
    # tuple on the free list of its new size, where the next 10-slot request
    # never finds it.
    nums, dens = [], []
    for _ in range(width):
        r = getrandbits(kspan)
        while r >= span:
            r = getrandbits(kspan)
        nums.append(r - coeff_bound)
        r = getrandbits(kden)
        while r >= coeff_bound:
            r = getrandbits(kden)
        dens.append(r + 1)
    gs = list(map(gcd, nums, dens))
    nums = list(map(floordiv, nums, gs))
    dens = list(map(floordiv, dens, gs))
    return nums, dens


def _over_lcm(nums: list[int], dens: list[int]) -> tuple[list[int], int]:
    """Lowest-terms fractions nums[i] / dens[i] as numerators over their lcm.

    The result is canonical up to trailing zeros: a prime r dividing the
    lcm divides some dens[j] to its full power there, and nums[j] * (lcm //
    dens[j]) is then prime to r, since lcm // dens[j] is and nums[j] is
    coprime to dens[j].  So the gcd of the lcm and the numerators is 1.
    """
    den = lcm(*dens)
    return [p * (den // q) for p, q in zip(nums, dens)], den


def _trimmed(num: list[int]) -> tuple[int, ...]:
    """``num`` without its trailing zeros, as the tuple a zero-tail ``Seq`` holds.

    ``num`` must be a fresh list: it is trimmed in place.
    """
    while num and not num[-1]:
        num.pop()
    return tuple(num)


def random_summable(rng: random.Random, support_max: int, coeff_bound: int) -> Seq:
    """A random finitely supported sequence with support inside 1..support_max.

    Entry i is the i-th ``random_rational`` draw, over the least common
    denominator of all draws.  That form is canonical once trailing zeros
    are trimmed (see ``_over_lcm``), so it is wrapped without a gcd pass.
    A zero entry has denominator 1, so an all-zero draw is 0 over 1.
    """
    num, den = _over_lcm(*_draw_summable(rng, support_max, coeff_bound))
    return Seq._from_canonical(_trimmed(num), 0, den)


def random_graph_point(
    rng: random.Random, support_max: int = 16, coeff_bound: int = 100
) -> GraphPoint:
    """A deterministic-under-seed draw from the graph.

    Draws a random finitely supported direction, rebalances its last nonzero
    entry so the total vanishes (the exact range constraint), and pairs it
    with its image under -G.

    The rebalanced entry k is minus the sum of the other entries, whatever
    was drawn there, and the entries past k are zero.  So y is entries 1..k-1
    over the lcm of their lowest-terms denominators, with entry k the
    negated sum of their numerators, then trimmed.  That form is canonical:
    a prime dividing the lcm leaves some entry j < k with a numerator it
    does not divide (see ``_over_lcm``), and entry k, a combination of the
    others, cannot restore a common factor.  An all-zero draw gives the
    origin.
    """
    if support_max < 2:
        raise InvalidParameter(f"support_max must be at least 2, got {support_max}")
    nums, dens = _draw_summable(rng, support_max, coeff_bound)
    k = len(nums)
    while k and not nums[k - 1]:
        k -= 1
    # entry k, the last nonzero one, becomes minus the sum of entries 1..k-1
    num, den = _over_lcm(nums[: k - 1], dens[: k - 1]) if k else ([], 1)
    num.append(-sum(num))
    return GraphPoint.from_y(Seq._from_canonical(_trimmed(num), 0, den))


def random_offgraph_pair(
    rng: random.Random, support_max: int = 16, coeff_bound: int = 100
) -> tuple[Seq, Seq]:
    """A graph point perturbed off the graph by a nonzero summable delta.

    Cycles through three perturbation shapes: move the null-sequence side,
    move the summable side, or break the zero-sum constraint while keeping
    the difference recurrence intact (the shape that exercises the
    origin-witness branch).  No shape can land on the graph, so the result
    is not re-checked:

    * shape 0 differs from -G(y) by delta, which is nonzero;
    * shape 1 differs from -G(y) by G(delta), nonzero because G is injective;
    * shape 2 differs from -G(y) by -total * ones, and total is nonzero.

    Only a zero delta or a zero total is drawn again.
    """
    while True:
        mode = _below(rng, 3)
        if mode == 2:
            y = random_summable(rng, support_max, coeff_bound)
            total = sum(y.num)
            if not total:
                continue
            # -G(y) - (total / y.den) * ones, entrywise over y.den
            x = Seq._of([-v - total for v in gossez_apply(y).num], 0, y.den)
        else:
            base = random_graph_point(rng, support_max, coeff_bound)
            delta = random_summable(rng, support_max, coeff_bound)
            if delta == ZERO:
                continue
            if mode == 0:
                x, y = base.x + delta, base.y
            else:
                x, y = base.x, base.y + delta
        return x, y
