"""Exact arithmetic on eventually constant rational sequences.

Scalars are arbitrary-precision rationals held as integer terms: a pair
``(num, den)`` of ints in lowest terms with ``den > 0``, no rounding
anywhere.  Sequences are stored as a finite prefix plus a constant tail
value.  That subspace is closed under addition, scaling, the skew operator
and its inverse, and the duality pairing, and it contains every vector this
project manipulates: finitely supported summable sequences, the all-ones
sequence, and the bidual points produced by the extension construction.
Every identity we certify is therefore decidable by exact comparison.

``terms(value)`` is the one parser of rationals: it reads an int, a "p/q"
wire string, a ``fractions.Fraction`` or an integer pair, and returns the
lowest terms.  The library holds every rational it keeps in that form (a
config tau, a family's total, a verdict's product or margin), and the
kernels that feed a verdict, ``pairing_numerator`` and
``difference_terms``, return unreduced integers.  Verdicts are compared as
integers, cross-multiplied over positive denominators.  A ``Fraction``
comes only out of a public wrapper that returns one (``rat``, ``pairing``,
the norms and sums, ``Seq.prefix``, ``.tail`` and ``.entry``), and each of
them imports ``fractions`` in its own body, so no library path loads
``fractions``, ``decimal`` or ``numbers``.

Each value form has one writer.  A ``Fraction`` is written with ``str()``,
which gives "p" or "p/q" in lowest terms with a positive denominator.
Integer terms are written with ``terms_str(num, den)``, which gives the same
string without building the ``Fraction``: ``Seq.__str__`` writes its
entries from ``num``, ``tnum`` and ``den``.

A ``Seq`` keeps its entries as integer numerators over one shared positive
denominator: ``num`` for the prefix, ``tnum`` for the tail, ``den`` for all
of them.  The form is canonical: ``gcd(den, tnum, *num) == 1`` and the last
prefix numerator differs from the tail numerator.  Linear operations, the
pairing and the sums are integer loops that reduce once, by a single gcd
over the result, instead of normalizing a ``Fraction`` per entry.

There is one boundary constructor and one trusted internal path.
``Seq(prefix, tail)`` takes rationals, coerces and validates each through
``terms`` and puts them over their least common denominator;
``Seq._of(num, tnum, den)`` takes a fresh list of ints over a positive int
denominator, as every internally derived sequence has, and checks nothing.
Both end in ``__post_init__``, the single canonicalizer: it trims and
reduces by one gcd.  Where the canonical form is inherited (a negation, the
skew map's image of a summable sequence), ``Seq._from_canonical`` wraps the
result without canonicalizing it again.

``Seq`` and every other value class of the package subclass ``Frozen``: a
slotted class whose instances carry no ``__dict__``, refuse assignment, and
compare, hash, print, pickle and copy by their fields in ``__slots__``
order.  ``Seq`` keeps its own ``__init__``, ``__eq__`` and ``__hash__``.

Indices are 1-based everywhere.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from itertools import islice
from math import gcd, lcm
from operator import mul

__all__ = [
    "NonSummable",
    "Seq",
    "ZERO",
    "ONES",
    "terms",
    "rat",
    "terms_str",
    "pairing",
    "pairing_numerator",
    "difference_terms",
    "sup_norm",
    "l1_norm",
    "total_sum",
    "unit",
]


class NonSummable(ValueError):
    """An absolutely summable argument was required but the tail is nonzero."""


def terms(value: Fraction | int | str | tuple[int, int]) -> tuple[int, int]:
    """The lowest terms ``(num, den)``, den > 0, of an exact rational.

    This is the one parser of rationals.  It reads an int, a "p/q" string,
    a Fraction, or a pair ``(num, den)`` of ints with den != 0, the form the
    library holds.  Floats and booleans raise TypeError: a float would
    silently trade exactness for a binary approximation, and JSON ``true``
    is not a number.  A string must be an optional "-", ASCII digits, and
    optionally "/" and ASCII digits (ValueError otherwise, ZeroDivisionError
    for q = 0); decimal and exponent forms such as "0.5" or "1e1" are
    refused.  The format is checked with ``str`` methods, so parsing
    compiles no regular expression, and a Fraction is recognized without
    importing ``fractions``: a program that never loaded it holds none.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    if isinstance(value, str):
        negative = value.startswith("-")
        num, slash, den = (value[1:] if negative else value).partition("/")
        if not (num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit())):
            raise ValueError(f"malformed rational {_shown(value)}: expected an integer or 'p/q'")
        p, q = int(num), int(den) if slash else 1
        if negative:
            p = -p
    elif type(value) is tuple and len(value) == 2 and type(value[0]) is type(value[1]) is int:
        p, q = value
        if q < 0:
            p, q = -p, -q
        elif q and gcd(p, q) == 1:
            return value  # a held pair is already in lowest terms: shared, not copied
    else:
        fractions = sys.modules.get("fractions")
        if fractions is None or not isinstance(value, fractions.Fraction):
            raise TypeError(f"refusing {_shown(value)}: exact rationals are ints or 'p/q' strings")
        return value.numerator, value.denominator
    if not q:
        raise ZeroDivisionError(f"zero denominator in {_shown(value)}")
    g = gcd(p, q)
    return p // g, q // g


def rat(value: Fraction | int | str) -> Fraction:
    """``terms(value)`` as a Fraction, for an int, a "p/q" string or a Fraction.

    The pair form is the library's own, so a tuple raises TypeError here,
    like every other non-rational.
    """
    from fractions import Fraction

    if type(value) is Fraction:
        return value
    if isinstance(value, tuple):
        raise TypeError(f"refusing {_shown(value)}: exact rationals are ints or 'p/q' strings")
    return Fraction(*terms(value))


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, cut to 40 characters and "..." past that.

    Input echoed back in a message stays one short line, however long it is,
    and showing a decoded JSON value never raises: an int past the int/str
    digit limit is shown by its bit count, and a container whose repr raises
    (one holding such an int, or one nested past the recursion limit) by its
    type.
    """
    try:
        text = repr(value)
    except (ValueError, RecursionError):
        if isinstance(value, int):
            sign = "negative " if value < 0 else ""
            return f"<{sign}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} that cannot be printed>"
    return text if len(text) <= 40 else text[:40] + "..."


def terms_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ints num and den > 0, without building the Fraction.

    The terms are reduced by their gcd, and the denominator is left out
    when it reduces to 1, so zero is "0".
    """
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


class Frozen:
    """The one base of the value classes: immutable, slotted, defined by its fields.

    A subclass lists its fields in ``__slots__``, in order, and stores them
    once, through ``Frozen.__init__`` or ``_derived``; assignment and
    deletion raise AttributeError afterwards.  ``__slots__`` is the one
    field list: a subclass defines ``__init__`` only to check its fields,
    to supply defaults, or to store a per-draw value field by field, and is
    otherwise built positionally, through ``Frozen.__init__``.  Two
    instances are equal when they are of the same class with equal fields,
    the hash is the hash of the field tuple, and the repr names each field.
    This is what a frozen dataclass provides, without importing
    ``dataclasses`` and ``inspect`` and generating methods per class, which
    cost more than the rest of ``import c0cert.cli``.  Paths that run once per drawn point store
    their fields one ``object.__setattr__`` at a time instead of through
    ``Frozen.__init__``'s loop, as ``Seq._from_canonical`` does.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        """Store ``values`` as the fields, in ``__slots__`` order, unchecked."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        # Rebuilt without ``__init__`` or ``__setattr__``: pickle's and copy's
        # default would set each slot through the refusing ``__setattr__``.
        return _derived, (self.__class__, *self._values())


def _derived(cls: type, *values: object) -> Frozen:
    """An instance of the ``Frozen`` subclass ``cls`` holding ``values`` as its fields.

    Nothing is checked or derived: for fields just derived by the caller,
    and for unpickling and copying.  Calling ``cls`` runs its checks.
    """
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values)
    return obj


class Seq(Frozen):
    """An eventually constant rational sequence.

    ``Seq(prefix, tail)`` takes rationals (anything ``terms`` reads):
    entries 1..len(prefix) are ``prefix``, every later entry
    equals ``tail``.  Integer numerators over a common denominator go
    through ``Seq._of`` instead.  Construction canonicalizes (see the
    module docstring), so structural equality is sequence equality and
    instances are hashable, immutable and safe to share across threads.
    The fields are ``num``, ``tnum`` and ``den``.

    A zero tail means the sequence is finitely supported, hence both
    summable and convergent to zero; a nonzero tail means it is bounded but
    stays away from zero.
    """

    __slots__ = ("num", "tnum", "den")

    def __init__(
        self,
        prefix: Iterable[Fraction | int | str | tuple[int, int]] = (),
        tail: Fraction | int | str | tuple[int, int] = 0,
    ) -> None:
        # The boundary path: coerce to ints over the least common denominator,
        # then hand over to the canonicalizer exactly as ``_of`` does.
        values = [terms(v) for v in prefix]
        tnum, tden = terms(tail)
        # a list, not a generator: see certify._draw_summable on star-calls
        den = lcm(tden, *[q for _, q in values])
        object.__setattr__(self, "num", [p * (den // q) for p, q in values])
        object.__setattr__(self, "tnum", tnum * (den // tden))
        object.__setattr__(self, "den", den)
        self.__post_init__()

    @classmethod
    def _of(cls, num: list[int], tnum: int, den: int) -> Seq:
        """The trusted internal constructor, for derived sequences.

        ``num`` must be a fresh list of ints (it is trimmed in place) and
        ``den`` a positive int; nothing is coerced or checked.
        """
        s = cls._from_canonical(num, tnum, den)
        s.__post_init__()
        return s

    @classmethod
    def _from_canonical(cls, num: tuple[int, ...], tnum: int, den: int) -> Seq:
        """An instance holding exactly these fields; nothing is trimmed or reduced.

        For results whose canonical form follows from their inputs', such as
        a negation or the image under the skew map (see ``neg_gossez_apply``);
        ``_of`` canonicalizes what it wraps here.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "num", num)
        object.__setattr__(s, "tnum", tnum)
        object.__setattr__(s, "den", den)
        return s

    def __post_init__(self) -> None:
        # The one canonicalizer, on ints only: trim the entries equal to the
        # tail, divide out the common gcd, and freeze the list into a tuple.
        # (The name is the dataclass hook's; perfbench/run.py wraps it.)
        num, tnum, den = self.num, self.tnum, self.den
        while num and num[-1] == tnum:
            num.pop()
        g = gcd(den, tnum, *num)
        if g != 1:
            num = [v // g for v in num]
            object.__setattr__(self, "tnum", tnum // g)
            object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "num", tuple(num))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.tnum == other.tnum and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.tnum, self.den))

    @property
    def prefix(self) -> tuple[Fraction, ...]:
        """Entries 1..len(prefix) as Fractions."""
        from fractions import Fraction

        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def tail(self) -> Fraction:
        """The constant value of every entry beyond the prefix."""
        from fractions import Fraction

        return Fraction(self.tnum, self.den)

    def entry(self, i: int) -> Fraction:
        """Entry at 1-based index ``i``."""
        from fractions import Fraction

        if i < 1:
            raise IndexError(f"index {i} out of range: indices start at 1")
        return Fraction(self.num[i - 1] if i <= len(self.num) else self.tnum, self.den)

    def _combine(self, other: Seq, sign: int) -> Seq:
        """self + sign * other over the least common denominator."""
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        # each prefix padded with its own tail to the longer one's length
        n = max(len(self.num), len(other.num))
        a = self.num + (self.tnum,) * (n - len(self.num))
        b = other.num + (other.tnum,) * (n - len(other.num))
        out = [p * fa + q * fb for p, q in zip(a, b)]
        return Seq._of(out, self.tnum * fa + other.tnum * fb, self.den * fa)

    def __add__(self, other: Seq) -> Seq:
        return self._combine(other, 1)

    def __sub__(self, other: Seq) -> Seq:
        return self._combine(other, -1)

    def __neg__(self) -> Seq:
        # flipping every sign keeps the gcd and the last-entry condition
        return Seq._from_canonical(tuple([-v for v in self.num]), -self.tnum, self.den)

    def __mul__(self, c: Fraction | int | str | tuple[int, int]) -> Seq:
        p, q = terms(c)
        return Seq._of([p * v for v in self.num], p * self.tnum, q * self.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        shown = [terms_str(v, self.den) for v in (*self.num, self.tnum, self.tnum)]
        return "(" + ", ".join(shown) + ", ...)"


ZERO = Seq()
ONES = Seq((), 1)


def pairing(x: Seq, y: Seq) -> Fraction:
    """Duality product sum_i x_i * y_i.

    Defined whenever at least one argument is finitely supported (the sum is
    then finite and exact); symmetric in its arguments.  Raises NonSummable
    when both tails are nonzero, since the series then diverges.
    """
    from fractions import Fraction

    return Fraction(pairing_numerator(x, y), x.den * y.den)


def pairing_numerator(x: Seq, y: Seq) -> int:
    """The integer ``pairing(x, y) * x.den * y.den``, not reduced.

    Raises NonSummable exactly where ``pairing`` does.  Callers that combine
    several pairings put the numerators over one denominator and reduce once.
    """
    if y.tnum:
        if x.tnum:
            raise NonSummable("pairing of two sequences with nonzero tails diverges")
        x, y = y, x
    # y is finitely supported: only its prefix contributes, and x equals its
    # tail wherever y's prefix outruns x's.
    xs, ys = x.num, y.num
    total = sum(map(mul, xs, ys))
    if len(ys) > len(xs):
        total += x.tnum * sum(islice(ys, len(xs), None))
    return total


def difference_terms(a: Seq, b: Seq, c: Seq, d: Seq) -> tuple[int, int]:
    """``pairing(a - b, c - d)`` as an unreduced numerator over a positive denominator.

    When one side's two sequences both have zero tails, neither difference
    is built: the product expands into four ``pairing_numerator`` calls,
    each summed at C level.  When both sides carry tails, they are paired
    as built differences, the two-step definition itself.  Raises
    NonSummable exactly where the two-step form does: when both
    differences have nonzero tails.
    """
    if (a.tnum or b.tnum) and (c.tnum or d.tnum):
        x, y = a - b, c - d
        return pairing_numerator(x, y), x.den * y.den
    # a - b has numerators a.num * fa - b.num * fb over a.den * fa; c - d alike
    g = gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    g = gcd(c.den, d.den)
    fc, fd = d.den // g, c.den // g
    # every one of the four pairings has a finitely supported argument
    num = fa * (fc * pairing_numerator(a, c) - fd * pairing_numerator(a, d)) - fb * (
        fc * pairing_numerator(b, c) - fd * pairing_numerator(b, d)
    )
    return num, a.den * fa * c.den * fc


def sup_norm(a: Seq) -> Fraction:
    """max_i |a_i|, attained on the prefix or at the tail."""
    from fractions import Fraction

    return Fraction(max((abs(a.tnum), *map(abs, a.num))), a.den)


def l1_norm(a: Seq) -> Fraction:
    """sum_i |a_i|; requires a finitely supported argument."""
    from fractions import Fraction

    if a.tnum:
        raise NonSummable("l1_norm of a sequence with nonzero tail diverges")
    return Fraction(sum(map(abs, a.num)), a.den)


def total_sum(a: Seq) -> Fraction:
    """sum_i a_i; requires a finitely supported argument."""
    from fractions import Fraction

    if a.tnum:
        raise NonSummable("total_sum of a sequence with nonzero tail diverges")
    return Fraction(sum(a.num), a.den)


def unit(k: int) -> Seq:
    """The k-th coordinate sequence: 1 at index k, 0 elsewhere."""
    if k < 1:
        raise ValueError(f"unit index must be >= 1, got {k}")
    return Seq._of([0] * (k - 1) + [1], 0, 1)
