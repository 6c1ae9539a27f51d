"""Exact exponents, girth and cycle structure of primitive Boolean matrices.

Core objects: BoolMatrix (bit-set rows, what ``parse_matrix`` returns),
Digraph (1-based vertices, held as its successor bit-set rows; ``digraph()``
builds one from arcs, ``from_matrix`` from a matrix) and CycleProfile.  On
top of them: exponent computation with walk witnesses, cycle-meeting walk
distances, closed-form bound evaluators, the named chord families, exact
isomorphism with canonical forms, and a verification harness that checks
every bound and formula against independent oracles.  The row kernels
(``boolmat.mul_rows``, ``digraph.rows_primitive`` and the like) stay in
their modules and are not exported here.
"""

from .boolmat import BoolMatrix, MatrixParseError, parse_matrix
from .digraph import (
    CycleProfile,
    Digraph,
    digraph,
    from_matrix,
    girth,
    simple_cycles,
)
from .exponent import (
    CWalkResult,
    ExponentResult,
    NotPrimitiveError,
    TooManyCycleLengthsError,
    TruncatedProfileError,
    c_walk_distances,
    exponent,
    formula_thm33,
    lemma22_bound,
    lemma23_bound,
    lemma25_bound,
    lemma26_bound,
    lemma32_bound,
    lemma34_bound,
    thm36_range,
    wielandt_bound,
    z_of_w,
)
from .families import (
    FamilySpec,
    chord_member,
    d1,
    d2,
    d_gN,
    h_graph,
    q1,
    q2,
    standard_cycle,
)
from .iso import (
    CanonicalForm,
    OrderCapError,
    are_isomorphic,
    automorphism_count,
    canonical_form,
    find_isomorphism,
)
from .semigroup import frobenius, gcd_set

__all__ = [
    "BoolMatrix", "MatrixParseError", "parse_matrix",
    "CycleProfile", "Digraph", "digraph", "from_matrix", "girth", "simple_cycles",
    "CWalkResult", "ExponentResult", "NotPrimitiveError",
    "TooManyCycleLengthsError", "TruncatedProfileError", "c_walk_distances",
    "exponent", "formula_thm33", "lemma22_bound", "lemma23_bound",
    "lemma25_bound", "lemma26_bound", "lemma32_bound", "lemma34_bound",
    "thm36_range", "wielandt_bound", "z_of_w",
    "FamilySpec", "chord_member", "d1", "d2", "d_gN", "h_graph", "q1", "q2",
    "standard_cycle",
    "CanonicalForm", "OrderCapError", "are_isomorphic", "automorphism_count",
    "canonical_form", "find_isomorphism",
    "frobenius", "gcd_set",
]
