"""Exact exponents, girth and cycle structure of primitive Boolean matrices.

Core objects: BoolMatrix (bit-set rows), Digraph (1-based vertices, held
as its successor bit-set rows) and CycleProfile.  On top of them: exponent computation with walk witnesses,
cycle-meeting walk distances, closed-form bound evaluators, the named chord
families, exact isomorphism with canonical forms, and a verification
harness that checks every bound and formula against independent oracles.
"""

from .boolmat import (
    BoolMatrix,
    MatrixParseError,
    all_ones,
    identity,
    is_all_positive,
    multiply,
    parse_matrix,
    power,
    serialize_matrix,
)
from .digraph import (
    CycleProfile,
    Digraph,
    digraph,
    distance,
    from_matrix,
    girth,
    is_primitive,
    is_spanning_subgraph,
    is_strongly_connected,
    relabel,
    simple_cycles,
    to_matrix,
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
    walk_exists,
    wielandt_bound,
    z_of_w,
)
from .families import (
    FamilySpec,
    chord_family,
    chord_member,
    d1,
    d2,
    d_gN,
    enumerate_DgN,
    enumerate_Dr,
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
    classify_against,
    find_isomorphism,
)
from .semigroup import frobenius, gcd_set

__all__ = [
    "BoolMatrix", "MatrixParseError", "all_ones", "identity", "is_all_positive",
    "multiply", "parse_matrix", "power", "serialize_matrix",
    "CycleProfile", "Digraph", "digraph", "distance", "from_matrix", "girth",
    "is_primitive", "is_spanning_subgraph", "is_strongly_connected", "relabel",
    "simple_cycles", "to_matrix",
    "CWalkResult", "ExponentResult", "NotPrimitiveError",
    "TooManyCycleLengthsError", "TruncatedProfileError", "c_walk_distances",
    "exponent", "formula_thm33", "lemma22_bound", "lemma23_bound",
    "lemma25_bound", "lemma26_bound", "lemma32_bound", "lemma34_bound",
    "thm36_range", "walk_exists", "wielandt_bound", "z_of_w",
    "FamilySpec", "chord_family", "chord_member", "d1", "d2", "d_gN",
    "enumerate_DgN", "enumerate_Dr", "h_graph", "q1", "q2", "standard_cycle",
    "CanonicalForm", "OrderCapError", "are_isomorphic", "automorphism_count",
    "canonical_form", "classify_against", "find_isomorphism",
    "frobenius", "gcd_set",
]
