"""Shared hypothesis strategies: exact rationals and eventually constant sequences.

Also ``fraction_of``, the Fraction oracle's view of a rational the library
holds as integer terms.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from c0cert.seqspace import Seq, total_sum

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=100
)

nonzero_rationals = rationals.filter(lambda q: q != 0)

positive_taus = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(20), max_denominator=20
)


def fraction_of(pair: tuple[int, int]) -> Fraction:
    """The Fraction of a held ``(num, den)``, which must be in lowest terms with den > 0."""
    value = Fraction(*pair)
    assert (value.numerator, value.denominator) == pair, pair
    return value


def summables(max_len: int = 10) -> st.SearchStrategy[Seq]:
    """Finitely supported sequences (tail 0)."""
    return st.lists(rationals, max_size=max_len).map(lambda es: Seq(tuple(es)))


def eventually_constants(max_len: int = 8) -> st.SearchStrategy[Seq]:
    """Sequences with an arbitrary constant tail."""
    return st.builds(
        lambda es, t: Seq(tuple(es), t), st.lists(rationals, max_size=max_len), rationals
    )


def _balance(entries: list) -> Seq:
    s = Seq(tuple(entries))
    t = total_sum(s)
    if t == 0:
        return s
    # canonical form: the last prefix entry is nonzero whenever the sum is
    es = list(s.prefix)
    es[-1] -= t
    return Seq(tuple(es))


def zero_sum_summables(max_len: int = 10) -> st.SearchStrategy[Seq]:
    """Finitely supported sequences whose entries sum to zero."""
    return st.lists(rationals, max_size=max_len).map(_balance)


def _force_positive_sum(entries: list) -> Seq:
    s = Seq(tuple(entries))
    t = total_sum(s)
    if t > 0:
        return s
    es = list(s.prefix) or [Fraction(0)]
    es[-1] += 1 - t
    return Seq(tuple(es))


def positive_sum_summables(max_len: int = 8) -> st.SearchStrategy[Seq]:
    """Finitely supported directions with strictly positive total."""
    return st.lists(rationals, max_size=max_len).map(_force_positive_sum)
