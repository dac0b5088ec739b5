"""Exact rational certificates for a skew maximal monotone operator on c0.

The package constructs, entirely in arbitrary-precision rational arithmetic,
a linear operator from null sequences to summable sequences that is maximal
monotone yet admits infinitely many mutually incompatible maximal monotone
extensions into the bidual.  Every identity behind that statement (skewness,
monotonicity with equality, constructive maximality, closure membership of
the extension family, pairwise incompatibility, and the strict Fitzpatrick
gap) is machine-checked exactly, with no tolerances.
"""

from .seqspace import (
    Rational,
    NonSummable,
    Seq,
    ZERO,
    ONES,
    rat,
    rat_str,
    pairing,
    pairing_numerator,
    pairing_of_differences,
    sup_norm,
    l1_norm,
    total_sum,
    unit,
    constant,
)
from .gossez import NotInDomain, gossez_apply, t_solve, unit_u, unit_v, range_member
from .certify import (
    InvalidParameter,
    EmptySample,
    GraphPoint,
    ExtensionPoint,
    Member,
    Violation,
    WitnessVerdict,
    random_rational,
    random_summable,
    random_graph_point,
    random_offgraph_pair,
    monotone_product,
    extension_point,
    closure_margin,
    family_product,
    distinctness,
    fitzpatrick_value,
    fitzpatrick_gap,
    violation_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "NonSummable",
    "Seq",
    "ZERO",
    "ONES",
    "rat",
    "rat_str",
    "pairing",
    "pairing_numerator",
    "pairing_of_differences",
    "sup_norm",
    "l1_norm",
    "total_sum",
    "unit",
    "constant",
    "NotInDomain",
    "gossez_apply",
    "t_solve",
    "unit_u",
    "unit_v",
    "range_member",
    "InvalidParameter",
    "EmptySample",
    "GraphPoint",
    "ExtensionPoint",
    "Member",
    "Violation",
    "WitnessVerdict",
    "random_rational",
    "random_summable",
    "random_graph_point",
    "random_offgraph_pair",
    "monotone_product",
    "extension_point",
    "closure_margin",
    "family_product",
    "distinctness",
    "fitzpatrick_value",
    "fitzpatrick_gap",
    "violation_witness",
]
