"""Exact rational certificates for a skew maximal monotone operator on c0.

The package constructs, entirely in arbitrary-precision rational arithmetic,
a linear operator from null sequences to summable sequences that is maximal
monotone yet admits infinitely many mutually incompatible maximal monotone
extensions into the bidual.  Every identity behind that statement (skewness,
monotonicity with equality, constructive maximality, closure membership of
the extension family, pairwise incompatibility, and the strict Fitzpatrick
gap) is machine-checked exactly, with no tolerances.
"""

from . import certify, gossez, seqspace
from .seqspace import *
from .gossez import *
from .certify import *

__version__ = "0.1.0"

# The package exports each module's public names, in module order.
__all__ = []
__all__ += seqspace.__all__
__all__ += gossez.__all__
__all__ += certify.__all__
