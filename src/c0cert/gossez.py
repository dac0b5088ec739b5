"""Gossez's skew operator on summable sequences and its exact inverse solver.

The operator sends a summable sequence y to the bounded sequence whose n-th
entry is the sum of y beyond index n minus the sum of y before index n:

    (G y)_n = sum_{i > n} y_i  -  sum_{i < n} y_i .

On the finitely supported sequences representable here G is linear,
injective and skew, meaning pairing(G(y), y) = 0 exactly.  Its image has
constant tail -sum(y), so -G(y) converges to zero precisely when sum(y) = 0.
``t_solve`` inverts x = -G(y) on such right-hand sides and reports
NotInDomain otherwise; the solvable x form the graph of a point-to-point
maximal monotone operator from null sequences to summable ones, whose range
is exactly the zero-sum summable sequences.
"""

from __future__ import annotations

from .seqspace import NonSummable, Seq, terms_str, unit

__all__ = ["NotInDomain", "gossez_apply", "neg_gossez_apply", "t_solve", "unit_u", "unit_v"]


class NotInDomain(ValueError):
    """The right-hand side has no finitely supported preimage under -G."""


def gossez_apply(y: Seq) -> Seq:
    """Image of a finitely supported sequence under the skew map.

    The negation of ``neg_gossez_apply(y)``: its tail is -total_sum(y), so
    it stays eventually constant.
    """
    return -neg_gossez_apply(y)


def neg_gossez_apply(y: Seq) -> Seq:
    """-G(y) for a finitely supported y: the x of the graph point above y when sum(y) = 0.

    One pass over the support with a running sum before n, on the integer
    numerators over y's denominator: entry n is (sum before n) - (sum after
    n) = y_n + 2 * before - total.  The result has tail total_sum(y), so it
    stays eventually constant.

    The result inherits y's canonical form.  Its last entry total - y_L
    differs from the tail total because y_L != 0.  A prime dividing the
    denominator, the tail and every entry would divide entry 1, which is
    y_1 - total, and each y_n + y_{n+1}, the difference of entries n + 1 and
    n; so it would divide every y_n, which y's gcd of 1 rules out.
    """
    if y.tnum:
        raise NonSummable("the skew map requires a finitely supported argument")
    total = sum(y.num)
    out = []
    before = 0
    for yn in y.num:
        # (sum before n) - (sum after n), with sum after n = total - before - yn
        out.append(yn + 2 * before - total)
        before += yn
    return Seq._from_canonical(tuple(out), total, y.den)


def t_solve(x: Seq) -> Seq:
    """The unique finitely supported y with -G(y) = x, if one exists.

    Any solution has vanishing suffix sums beyond the support of x, so the
    suffix sums S_i = sum_{k >= i} y_k obey the backward recurrence
    S_i = -x_i - S_{i+1} starting from S_{L+1} = 0, and the entries are
    y_i = S_i - S_{i+1}.  The recurrence runs on x's integer numerators, so
    y shares x's denominator.  A solution exists iff the recurrence closes
    with S_1 = 0, which is the zero-sum constraint on y; otherwise
    NotInDomain is raised.  The candidate is re-checked against the forward
    map before being returned: solver and forward map are independent code
    paths, so the comparison is a free internal oracle.
    """
    if x.tnum:
        raise NonSummable("t_solve requires a finitely supported argument")
    s_next = 0
    entries_rev = []
    for xi in reversed(x.num):
        s_i = -xi - s_next
        entries_rev.append(s_i - s_next)
        s_next = s_i
    if s_next != 0:
        residual = terms_str(s_next, x.den)
        raise NotInDomain(f"no finitely supported preimage: residual sum {residual}")
    entries_rev.reverse()
    y = Seq._of(entries_rev, 0, x.den)
    if neg_gossez_apply(y) != x:
        raise AssertionError("solver disagrees with the forward map")
    return y


def unit_u(m: int) -> Seq:
    """The difference test vector u_m = e_{m+1} - e_m, for m >= 1."""
    return -unit(m) + unit(m + 1)


def unit_v(m: int) -> Seq:
    """The image of u_m under the skew map: v_m = e_m + e_{m+1} = G u_m."""
    return unit(m) + unit(m + 1)
