"""Exact certificates for the graph of the skew operator's inverse.

Everything here reduces a structural claim about the operator to rational
identities that are checked literally:

* ``monotone_product`` pairs two graph points off to exactly zero, the skew
  sharpening of the monotonicity inequality.
* ``violation_witness`` decides the monotone polar of the graph: a
  candidate pair is on the graph, or monotonically related to all of it
  with one constant margin, or refuted by an explicit graph point whose
  monotone product with it is strictly negative (normalized to -1 whenever
  a difference-recurrence index witnesses the failure).
* ``closure_margin`` and ``family_products`` handle the one-parameter family
  of bidual points along a positive-sum direction, which
  ``extension_family`` builds from one evaluation of G, with the values the
  points share computed once: each family point is monotone against the
  whole graph with one constant strictly positive margin, yet any two
  family points are strictly non-monotone against each other, so no single
  monotone extension of the graph can contain two of them.  One
  tau-free ``violation_witness`` call proves that margin for every tau.
* ``fitzpatrick_value`` and ``fitzpatrick_gap`` certify the same failure
  through the Fitzpatrick function: the supremum of the graph evaluations
  stays short of the family point's self-pairing by an exactly computed
  positive gap.

Each value-returning certificate has an integer core, named with a
``_terms`` suffix, that returns an unreduced numerator over a positive
denominator, and ``family_products`` yields such terms.  Verdicts are
compared as integers: a/b = c/d holds iff a * d = b * c when b, d > 0, and a
value's sign is its numerator's sign.  A Fraction is built only by
``rat``, for config values, and by the public wrappers, never to compare a
value, and ``cli`` and ``gossez`` build none of their own.  Each value form
has one writer: a value held as integer terms is written with
``seqspace.terms_str``, and a Fraction, such as a tau or a violation
product, with ``str()``.

Sampling helpers are deterministic given their random.Random generator; use
one generator per worker, with seeds derived by fixed splitting.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import floordiv

from .gossez import gossez_apply, neg_gossez_apply
from .seqspace import (
    ZERO,
    Frozen,
    NonSummable,
    Rational,
    Seq,
    difference_terms,
    pairing,
    pairing_numerator,
    _derived,
    rat,
    terms_str,
)

__all__ = [
    "InvalidParameter",
    "EmptySample",
    "GraphPoint",
    "ExtensionPoint",
    "ExtensionFamily",
    "Member",
    "Related",
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
    "family_products",
    "distinctness",
    "fitzpatrick_value",
    "fitzpatrick_value_terms",
    "fitzpatrick_gap",
    "violation_witness",
]


class InvalidParameter(ValueError):
    """A certificate was requested for parameters outside its preconditions."""


class EmptySample(ValueError):
    """A nonempty sample of graph points is required."""


class GraphPoint(Frozen):
    """A pair (x, y) with x = -G(y); membership is verified on construction.

    The zero-tail requirement on x forces sum(y) = 0, since -G(y) has
    constant tail sum(y).
    """

    __slots__ = ("x", "y")

    def __init__(self, x: Seq, y: Seq) -> None:
        if x.tnum or y.tnum:
            raise InvalidParameter("graph points need zero tails on both components")
        if x != neg_gossez_apply(y):
            raise InvalidParameter("not a graph point: x != -G(y)")
        Frozen.__init__(self, x, y)

    @classmethod
    def from_y(cls, y: Seq) -> GraphPoint:
        """The graph point above a zero-sum summable y.

        x = -G(y) is computed here, so membership reduces to the zero tail
        of x and is not re-verified by a second evaluation of G.
        """
        x = neg_gossez_apply(y)
        if x.tnum:
            raise InvalidParameter("graph points need zero tails on both components")
        # stored field by field, as Seq._from_canonical does: this runs per drawn point
        p = object.__new__(cls)
        object.__setattr__(p, "x", x)
        object.__setattr__(p, "y", y)
        return p


class ExtensionPoint(Frozen):
    """A closure point beyond the graph, parametrized by tau > 0.

    For a summable direction ytilde with pairing(ones, ytilde) > 0,

        xstar     = tau * ytilde
        xstarstar = -G(tau * ytilde) + (1/tau) * ones .

    The first component stays summable; the second has constant tail
    tau * sum(ytilde) + 1/tau > 0, so it is bounded but not a null sequence.
    ``extension_family`` builds these points.  All fields are recomputable
    from (tau, ytilde); direct construction re-derives them through
    ``extension_point`` and compares.
    """

    __slots__ = ("tau", "ytilde", "xstar", "xstarstar")

    def __init__(self, tau: Rational, ytilde: Seq, xstar: Seq, xstarstar: Seq) -> None:
        derived = extension_point(tau, ytilde)
        if xstar != derived.xstar:
            raise InvalidParameter("xstar != tau * ytilde")
        if xstarstar != derived.xstarstar:
            raise InvalidParameter("xstarstar does not match its construction")
        Frozen.__init__(self, tau, ytilde, xstar, xstarstar)


class ExtensionFamily(Frozen):
    """Family points along one direction, with the tau-free values they share.

    With xs_k = xstar and xss_k = xstarstar of ``points[k]``:

    * ``points``: the family points, in ``taus`` order;
    * ``ytilde``: their common direction;
    * ``total``: s = pairing(ones, ytilde) > 0, the closure margin and the
      Fitzpatrick gap of every point;
    * ``g``: G(ytilde);
    * ``diagonal``: the integers pairing_numerator(xss_k, xs_k), so the
      self-pairing pairing(xs_k, xss_k) is diagonal[k] / (xs_k.den * xss_k.den).

    ``extension_family`` builds it, computing each value once.
    """

    __slots__ = ("points", "ytilde", "total", "g", "diagonal")


def extension_family(taus: Sequence[Rational | int | str], ytilde: Seq) -> ExtensionFamily:
    """The family points for ``taus`` along ytilde, with the values they share.

    ``taus`` must be nonempty and each tau positive; ytilde must be finitely
    supported with pairing(ones, ytilde) > 0.  Both are checked once per
    family.  G is linear, so with g = G(ytilde), evaluated once,

        xstarstar = (1/tau) * ones - tau * g ,

    built from integers: with tau = a / b in lowest terms, each entry v / g.den
    of g gives (b^2 g.den - a^2 v) / (a b g.den), and the tail likewise.
    """
    if not taus:
        raise InvalidParameter("a family needs at least one point")
    if ytilde.tnum:
        raise InvalidParameter("ytilde must be finitely supported")
    if sum(ytilde.num) <= 0:  # the numerator of pairing(ones, ytilde) over ytilde.den > 0
        raise InvalidParameter("pairing(ones, ytilde) must be positive")
    taus = [rat(tau) for tau in taus]
    for tau in taus:
        if tau <= 0:
            raise InvalidParameter(f"tau must be positive, got {tau}")
    g = gossez_apply(ytilde)
    d = g.den
    points = []
    for tau in taus:
        a, b = tau.numerator, tau.denominator
        # over a * b * d, 1/tau is b * b * d and tau * v / d is a * a * v
        inv, aa = b * b * d, a * a
        xstarstar = Seq._of([inv - aa * v for v in g.num], inv - aa * g.tnum, a * b * d)
        points.append(_derived(ExtensionPoint, tau, ytilde, ytilde * tau, xstarstar))
    return ExtensionFamily(
        tuple(points),
        ytilde,
        Fraction(sum(ytilde.num), ytilde.den),
        g,
        tuple(pairing_numerator(p.xstarstar, p.xstar) for p in points),
    )


def extension_point(tau: Rational | int | str, ytilde: Seq) -> ExtensionPoint:
    """Build the family point for parameter tau > 0 and direction ytilde.

    The positive total pairing(ones, ytilde) is exactly the closure margin
    and the Fitzpatrick gap this point certifies.  The one-point case of
    ``extension_family``.
    """
    return extension_family((tau,), ytilde).points[0]


class Member(Frozen):
    """Verdict: the candidate pair lies on the graph."""

    __slots__ = ()

    def __init__(self) -> None:
        # nothing to store, so no Frozen.__init__ loop per member verdict
        pass


class Related(Frozen):
    """Verdict: the candidate is off the graph, yet monotone against all of it.

    ``margin``, a Fraction >= 0, is the monotone product of the candidate
    against every graph point, one constant, so a monotone extension of the
    graph may contain the candidate.
    """

    __slots__ = ("margin",)


class Violation(Frozen):
    """Verdict: an explicit graph point refutes the candidate pair.

    ``product`` is the monotone product of the candidate against the
    witness, strictly negative, so no monotone extension of the graph can
    contain the candidate.
    """

    __slots__ = ("witness", "product")

    def __init__(self, witness: GraphPoint, product: Rational) -> None:
        # field by field, without Frozen.__init__'s loop: one per refuted pair
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "product", product)


WitnessVerdict = Member | Related | Violation

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

    This is the definition, evaluated directly; ``violation_witness`` on
    (-G(ytilde), ytilde) proves the same constant for every tau > 0 at once.
    """
    return Fraction(*closure_margin_terms(ep, p))


def closure_margin_terms(ep: ExtensionPoint, p: GraphPoint) -> tuple[int, int]:
    """``closure_margin`` as an unreduced numerator over a positive denominator."""
    return difference_terms(ep.xstarstar, p.x, ep.xstar, p.y)


def family_products(family: ExtensionFamily) -> Iterator[tuple[int, int, int, int]]:
    """Every pairwise monotone product of family points, from the sequences themselves.

    Yields ``(i, j, num, den)`` for i < j in the order of the nested loop
    over i and then j > i, where num over den > 0, not reduced, is the
    product: with xs = xstar and xss = xstarstar of ``family.points``,

        num / den = pairing(xss_i - xss_j, xs_i - xs_j) .

    The points share ytilde by construction, and each pair must differ in
    tau.  Its product is checked against the closed form

        (tau_i - tau_j) * (1/tau_i - 1/tau_j) * pairing(ones, ytilde)

    and required to be strictly negative: the two points cannot live in a
    common monotone graph, so distinct parameters force distinct maximal
    monotone extensions into the bidual.  A failed check raises at the
    first failing pair, with the message the pair alone would give.  On a
    family that ``extension_family`` builds, s > 0 makes a product that
    matches the closed form negative, so the sign check guards families
    built by hand, such as one with s <= 0.

    The product expands by bilinearity into the four integer pairings
    P(k, l) = pairing_numerator(xss_k, xs_l) for k, l in {i, j}, each
    summed at C level since xs_l is finitely supported.  Each P(i, j) with
    i != j serves one pair only, so it is computed there; the diagonal
    P(k, k) is the family's ``diagonal``, computed once for all pairs.  n
    points thus cost n^2 pairings, not the 4 per pair of
    ``difference_terms``, and the numerator over the denominator is the one
    ``difference_terms`` builds.
    Both checks run on integers, and the yielded terms are integers too:
    the caller builds a Fraction or a string from them.  Nothing is held
    per pair, so the caller decides what to keep.
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
                direct, closed = terms_str(num, den), terms_str(closed_num, closed_den)
                raise AssertionError(f"distinctness mismatch: direct {direct} != closed {closed}")
            if num >= 0:
                raise AssertionError(
                    f"distinctness product must be negative, got {terms_str(num, den)}"
                )
            yield i, j, num, den


def distinctness(
    tau1: Rational | int | str, tau2: Rational | int | str, ytilde: Seq
) -> Rational:
    """Monotone product of the family points for tau1 and tau2 along ytilde.

    The two-point case of ``family_products``, which states and checks the
    preconditions, the closed form and the strict sign.  Callers that pair
    many taus build one ``extension_family`` and stream its pairs.
    """
    _, _, num, den = next(family_products(extension_family((tau1, tau2), ytilde)))
    return Fraction(num, den)


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


def fitzpatrick_gap(ep: ExtensionPoint, sample: Iterable[GraphPoint]) -> Rational:
    """Self-pairing of the family point minus the best graph evaluation.

    The per-point evaluations must all coincide; the gap then equals
    pairing(ones, ep.ytilde) > 0.  Strict positivity means the supremum over
    the whole graph stays short of pairing(xstar, xstarstar), which is the
    machine-checkable failure-of-unique-extension certificate.

    ``sample`` may be any iterable, a stream included: every point of it is
    evaluated directly, once, and none is kept.  Constancy is checked while
    streaming over the sample, each evaluation cross-multiplied with the
    first.  An empty sample raises EmptySample.
    """
    points = iter(sample)
    first = next(points, None)
    if first is None:
        raise EmptySample("need at least one graph point")
    first_num, first_den = fitzpatrick_value_terms(ep, first)
    for p in points:
        num, den = fitzpatrick_value_terms(ep, p)
        if num * first_den != first_num * den:
            raise AssertionError("Fitzpatrick evaluations must be constant over the graph")
    return pairing(ep.xstar, ep.xstarstar) - Fraction(first_num, first_den)


def violation_witness(x: Seq, y: Seq) -> WitnessVerdict:
    """The verdict on a candidate pair: on the graph, related to all of it, or refuted.

    x may have a constant tail; y must be finitely supported.  The polar
    lemma: with sigma = sum(y) and kappa = tail(x) - sigma, the pair (x, y)
    is monotonically related to every graph point iff

        x_{m+1} - x_m = y_m + y_{m+1} for every m >= 1,  and  kappa * sigma >= 0,

    and then its monotone product with every graph point is kappa * sigma.

    Proof.  With u_m = -e_m + e_{m+1} and v_m = e_m + e_{m+1} = G(u_m), the
    graph holds (-lam * v_m, lam * u_m) for every lam, and pairing(v_m, u_m)
    = 0, so the product of (x, y) against that point is linear in lam:

        pairing(x, y) + lam * gap_m ,   gap_m = (y_m + y_{m+1}) - (x_{m+1} - x_m) .

    It is >= 0 for every lam only if gap_m = 0.  If every gap_m is 0, x and
    -G(y) obey one recurrence, and -G(y) has tail sigma, so x = -G(y) +
    kappa * ones.  Against a graph point (-G(y'), y'), where sum(y') = 0,
    the product is then

        pairing(-G(y - y') + kappa * ones, y - y') = kappa * sigma ,

    since pairing(G(v), v) = 0 for summable v.  The product is continuous
    on the graph, as |pairing(w, z)| <= |w|_inf |z|_1 and |G(z)|_inf <=
    |z|_1, and the finitely supported zero-sum sequences are dense in the
    zero-sum summable ones.  So finitely supported graph points decide
    relatedness to the whole graph, and the lemma holds for every (x, y) in
    l_inf x l_1, of which this function reads the eventually constant x
    and the finitely supported y.

    The verdicts:

    * gap_m != 0 at a first index m: ``Violation`` with the witness
      (-lam * v_m, lam * u_m), lam = -(pairing(x, y) + 1) / gap_m, whose
      product is exactly -1;
    * tail(x) = 0 and sigma = 0: x = -G(y), a ``Member``;
    * otherwise kappa * sigma, which is the origin's product pairing(x, y):
      ``Related(kappa * sigma)`` if it is >= 0, and ``Violation`` with the
      origin as witness if it is negative.  With tail(x) = 0 it is
      -sigma^2 < 0, so a pair with zero tails is never ``Related``.

    A family point (-tau * G(ytilde) + ones / tau, tau * ytilde) has kappa =
    1 / tau and sigma = tau * s, with s = sum(ytilde).  Its margin is s at
    every graph point, and its Fitzpatrick value, pairing(x, y) minus the
    least product, is 0.  ``violation_witness(-G(ytilde), ytilde) ==
    Related(0)`` proves this for every tau > 0 at once.

    Everything runs on integers.  With g = gcd(x.den, y.den), the scan
    cross-multiplies by the reduced factors x.den / g and y.den / g, so

        scaled_gap = gap_m * x.den * y.den / g

    is an integer with gap_m's sign, and for a pair built from one graph
    point, where both denominators are equal, both factors are 1.  x's
    prefix is padded with its own tail.  With pn = pairing_numerator(x, y) =
    pairing(x, y) * x.den * y.den,

        lam = -(pairing(x, y) + 1) / gap_m = -(pn + x.den * y.den) / (g * scaled_gap) ,

    and lam * u_m is built as one canonicalized sequence from that
    numerator over that denominator, its sign moved to the numerator.  On
    the last branch, pairing(x, y) = (tail(x) - sigma) * sigma reads pn *
    y.den = (x.tnum * y.den - total * x.den) * total with total = sum(y.num),
    compared as integers.

    Every returned product and margin is recomputed from the sequences,
    never from the closed form alone, and this recomputation is the
    re-verification of the verdict: the witness product is exactly -1 once
    the recomputed numerator equals minus its denominator, and kappa * sigma
    is pairing(x, y) once the two agree.  Any other outcome raises
    AssertionError, so a returned ``Violation`` product is strictly negative
    and callers need not recheck it.
    """
    if y.tnum:
        raise NonSummable("the candidate's y must have a zero tail")
    dx, dy = x.den, y.den
    g = gcd(dx, dy)
    fx, fy = dx // g, dy // g
    width = max(len(x.num), len(y.num)) + 1
    xs = list(x.num) + [x.tnum] * (width - len(x.num))
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
    tail, total = x.tnum, sum(y.num)
    if not (tail or total):
        if x != neg_gossez_apply(y):
            raise AssertionError("membership reconstruction failed")
        return Member()
    pn = pairing_numerator(x, y)
    if pn * dy != (tail * dy - total * dx) * total:
        raise AssertionError("origin-witness product mismatch")
    product = Fraction(pn, dx * dy)
    if pn < 0:
        return Violation(_ORIGIN, product)
    return Related(product)


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


def random_graph_point(rng: random.Random, support_max: int, coeff_bound: int) -> GraphPoint:
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


def random_offgraph_pair(rng: random.Random, support_max: int, coeff_bound: int) -> tuple[Seq, Seq]:
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
            x = Seq._of([v - total for v in neg_gossez_apply(y).num], 0, y.den)
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
