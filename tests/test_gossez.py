"""Skew operator: forward map against a brute-force oracle, solver, vectors."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import c0cert.gossez
from c0cert.gossez import (
    NotInDomain,
    gossez_apply,
    neg_gossez_apply,
    t_solve,
    unit_u,
    unit_v,
)
from c0cert.seqspace import ONES, ZERO, NonSummable, Seq, pairing, total_sum, unit

from strategies import nonzero_rationals, rationals, summables, zero_sum_summables


def oracle_entry(y: Seq, n: int) -> Fraction:
    """Literal double-sum evaluation of the skew map at index n.

    Independent of the production path: no running sums, every term summed
    on its own.  Valid for finitely supported y (entries beyond the prefix
    are zero).
    """
    above = sum((y.entry(i) for i in range(n + 1, len(y.prefix) + 1)), Fraction(0))
    below = sum((y.entry(i) for i in range(1, n)), Fraction(0))
    return above - below


def reference_forward(raw: list) -> list:
    """Entries of G(y), then its tail, from per-entry Fraction arithmetic."""
    total = sum(raw, Fraction(0))
    out, before, remaining = [], Fraction(0), total
    for yn in raw:
        after = remaining - yn
        out.append(after - before)
        before += yn
        remaining = after
    return out + [-total]


def reference_solve(raw: list) -> tuple[list, Fraction]:
    """The backward suffix-sum recurrence on Fractions: (entries, residual sum)."""
    s_next, entries = Fraction(0), []
    for xi in reversed(raw):
        s_i = -xi - s_next
        entries.append(s_i - s_next)
        s_next = s_i
    return entries[::-1], s_next


# --- forward map ------------------------------------------------------------


@given(st.lists(rationals, max_size=10))
def test_forward_map_matches_per_entry_reference(raw):
    g = gossez_apply(Seq(tuple(raw)))
    assert [g.entry(i) for i in range(1, len(raw) + 2)] == reference_forward(raw)


@given(summables())
def test_matches_brute_force_oracle(y):
    g = gossez_apply(y)
    for n in range(1, len(y.prefix) + 4):
        assert g.entry(n) == oracle_entry(y, n)


@given(
    summables(),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=10),
    st.integers(min_value=1, max_value=12),
)
def test_image_is_canonical_as_built(y, nums, den):
    """Both images skip the canonicalizer: each must already be canonical."""
    for s in (y, Seq._of(list(nums), 0, den), Seq._of(list(nums), 0, den) * 6):
        for g in (neg_gossez_apply(s), gossez_apply(s)):
            again = Seq._of(list(g.num), g.tnum, g.den)
            assert (g.num, g.tnum, g.den) == (again.num, again.tnum, again.den)


@given(summables())
def test_tail_is_minus_total(y):
    assert gossez_apply(y).tail == -total_sum(y)


def test_unit_family_images():
    assert gossez_apply(unit_u(1)) == unit_v(1)
    for m in range(1, 51):
        assert gossez_apply(unit_u(m)) == unit_v(m)


def test_image_of_first_coordinate():
    assert gossez_apply(unit(1)) == Seq((Fraction(0),), Fraction(-1))


def test_image_of_zero():
    assert gossez_apply(ZERO) == ZERO


def test_rejects_nonzero_tail():
    with pytest.raises(NonSummable):
        gossez_apply(ONES)


@given(summables())
def test_skew_identity(y):
    assert pairing(gossez_apply(y), y) == 0


@given(rationals, rationals, summables(), summables())
def test_linearity(a, b, y, z):
    assert gossez_apply(a * y + b * z) == a * gossez_apply(y) + b * gossez_apply(z)


@given(summables(), summables())
def test_injectivity(y, z):
    if y != z:
        assert gossez_apply(y) != gossez_apply(z)


# --- solver -----------------------------------------------------------------


def test_solver_inverts_unit_vectors():
    assert t_solve(-unit_v(1)) == unit_u(1)


def test_solver_rejects_first_coordinate():
    # the recurrence ends at S_1 = -x_1 - S_2 = -x_1, with S_2 = 0, not at 0
    for x, residual in ((unit(1), "-1"), (Seq(["1/3"]), "-1/3")):
        message = f"no finitely supported preimage: residual sum {residual}"
        with pytest.raises(NotInDomain, match=f"^{message}$"):
            t_solve(x)


def test_solver_refuses_a_disagreeing_forward_map(monkeypatch):
    real = c0cert.gossez.neg_gossez_apply
    monkeypatch.setattr(c0cert.gossez, "neg_gossez_apply", lambda y: real(y) + unit(1))
    with pytest.raises(AssertionError, match="solver disagrees with the forward map"):
        t_solve(-unit_v(1))


def test_solver_zero():
    assert t_solve(ZERO) == ZERO


def test_solver_rejects_nonzero_tail():
    with pytest.raises(NonSummable):
        t_solve(ONES)


@given(zero_sum_summables())
def test_round_trip_from_range(y):
    assert t_solve(-gossez_apply(y)) == y


@given(
    st.one_of(
        st.lists(rationals, max_size=10),  # almost always outside the domain
        zero_sum_summables().map(lambda y: list((-gossez_apply(y)).prefix)),
    )
)
def test_solver_matches_per_entry_reference(raw):
    entries, residual = reference_solve(raw)
    if residual != 0:
        with pytest.raises(NotInDomain):
            t_solve(Seq(tuple(raw)))
        return
    y = t_solve(Seq(tuple(raw)))
    assert [y.entry(i) for i in range(1, len(raw) + 2)] == entries + [0]


@given(summables())
def test_round_trip_from_domain(x):
    try:
        y = t_solve(x)
    except NotInDomain:
        return
    assert -gossez_apply(y) == x


@given(nonzero_rationals, st.integers(min_value=1, max_value=50))
def test_solver_scaling_identity(lam, m):
    assert t_solve(-lam * unit_v(m)) == lam * unit_u(m)


# --- range ------------------------------------------------------------------


def test_range_examples():
    assert total_sum(unit_u(1)) == 0
    assert total_sum(unit(1)) != 0
    assert total_sum(ZERO) == 0
    with pytest.raises(NonSummable):
        total_sum(ONES)


@given(summables())
def test_images_under_minus_g_are_solvable_iff_zero_sum(y):
    x = -gossez_apply(y)
    if total_sum(y) == 0:
        assert t_solve(x) == y
    else:
        # x leaves the null-sequence model entirely
        assert x.tail != 0


def test_unit_vector_shapes():
    for m in range(1, 65):
        assert unit_u(m) == Seq([0] * (m - 1) + [-1, 1])
        assert unit_v(m) == Seq([0] * (m - 1) + [1, 1])
    # unit's own check reports the bad index itself, not a neighbour
    for m in (0, -1):
        for vector in (unit_u, unit_v):
            with pytest.raises(ValueError, match=f"got {m}$"):
                vector(m)
