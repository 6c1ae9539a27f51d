"""Claim-by-claim verification against independent oracles.

Established upper bounds are hard assertions (any violation is an
implementation bug); the exact-formula and window-characterization claims
are report-only: every instance is compared against the oracle and the
agreement pattern is itself the deliverable.  All randomness is seeded and
all row streams are sorted, so identical parameters reproduce identical
reports byte for byte.

The bound suite and the thm36 converse sweep evaluate each orbit of a
chord universe once: rotating a chord mask relabels its member, and every
checked value is an isomorphism invariant, so the members of an orbit
differ only in their label and mask.  The first mask of an orbit is its
least, because masks ascend; its value is stored under every mask of the
orbit, so every later member is one lookup.  The bound suite's orbits are
dihedral: one mirror mask's member is the transpose of the other's,
relabeled, and every bound-suite fact survives transposition.  The thm36
converse keeps rotation orbits, because the ``classify_against`` index it
reports does not.  Both get each orbit's successor rows straight from its
mask through ``families._chord_rows``, the one chorded-cycle constructor,
and build no Digraph per member; the converse builds one only for
``classify_against``.  Every member of the (n, g) universe has period
gcd(n, g), so primitivity is one gcd test per universe: the bound suite
skips a universe with gcd(n, g) > 1, and thm36 refuses the pair.  In the
same way the bound suite's random sweep, drawn on bit rows, evaluates each
distinct labeled matrix once and re-emits its facts under the label and
params of every later instance with equal rows.
The bound suite's facts are template rows with an empty instance.  They
depend only on the order, the exponent, the cycle lengths and the c-walk
maximum, so they are built (and their claim checked and agree flag
computed) once per such invariant key, not once per evaluation: each chord
universe and the random sweep keep a dict from key to fact list, and the
1 699 evaluations of ``verify bounds --n-max 8 --samples 2000 --seed 1``
build 619 lists.  The kernels still run on every evaluation.  Each
instance adds one report entry that holds its label, its params and its
key's fact list, so instances with equal keys share one list.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import random
from operator import add, itemgetter

from .boolmat import MAX_ORDER, serialize_rows
from .digraph import (
    Digraph,
    _cycle_cover,
    rows_cycle_lengths,
    rows_girth,
)
from .exponent import (
    NotPrimitiveError,
    TooManyCycleLengthsError,
    cwalk_of_cover,
    exponent,
    exponent_of_rows,
    formula_thm33,
    lemma23_bound,
    lemma25_bound,
    lemma26_bound,
    lemma32_bound,
    lemma34_bound,
    thm36_range,
    z_of_w,
)
from .families import (
    _chord_rows,
    chord_position_cap,
    d1,
    d2,
    enumerate_DgN,
    enumerate_Dr,
    h_graph,
    q1,
    q2,
    standard_cycle,
)
from .iso import (
    ISO_ORDER_CAP,
    automorphism_count,
    canonical_code_tables,
    classify_against,
    find_isomorphism,
)
from .report import CensusRow, Entry, Report, VerificationRow, make_row
from .semigroup import frobenius

BERNOULLI_SWEEP = (0.05, 0.1, 0.2)
DEFAULT_CHORD_PAIRS = ((10, 3), (10, 7), (10, 9), (11, 3))
CHORD_ORDER_CAP = 16
THM33_ORDER_CAP = 20
MAX_RANDOM_TRIES = 100_000


# -- random instance generation --------------------------------------------

def _random_tries(rng: random.Random, n: int, p: float):
    """Endless (successor rows, period) tries of ``_random_primitive_rows``.

    Number the vertices by their position on the drawn cycle.  Every arc
    u -> v of a strongly connected digraph of period d joins consecutive
    classes mod d, and the cycle puts the vertex at position k in class
    k + c mod d, so d divides pos(u) + 1 - pos(v) for every arc; that sum
    over the arcs of any closed walk is its length, so d is the gcd of these
    values.  The cycle's own arcs give 0 and n, so the period is the gcd of
    n and the value of each drawn arc.
    """
    draw = rng.random
    gcd = math.gcd
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        cycle = [0] * n
        pos = [0] * n
        for i in range(n):
            cycle[perm[i - 1]] = perm[i]
            pos[perm[i]] = i
        rows = []
        period = n
        for v, c in enumerate(cycle):
            row = 1 << c
            after = pos[v] + 1
            for j in range(n):
                if j != c and draw() < p:
                    row |= 1 << j
                    period = gcd(period, after - pos[j])
            rows.append(row)
        yield tuple(rows), period


def _random_primitive_rows(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    """Successor rows of a random Hamiltonian cycle plus Bernoulli(p) arcs, retained if primitive.

    Each try shuffles the n vertices into a cycle, then draws rng.random()
    once for every arc not on it, in row-major order, and adds the arc when
    the draw is below p.  The cycle makes every try strongly connected, and
    its period is read off the drawn arcs' positions on the cycle (see
    ``_random_tries``), so a try costs no search.  After MAX_RANDOM_TRIES
    tries it raises RuntimeError.
    """
    for rows, period in itertools.islice(_random_tries(rng, n, p), MAX_RANDOM_TRIES):
        if period == 1:
            return rows
    raise RuntimeError(f"no primitive digraph found in {MAX_RANDOM_TRIES} tries (n={n}, p={p})")


def _random_rows(seed: int, samples: int, n_max: int):
    """Deterministic stream of (index, n, p, successor rows) primitive instances."""
    if n_max > 10:
        raise ValueError(f"random sampling is capped at order 10, got n_max={n_max}")
    rng = random.Random(seed)
    for idx in range(samples):
        p = BERNOULLI_SWEEP[idx % len(BERNOULLI_SWEEP)]
        n = rng.randint(2, n_max)
        yield idx, n, p, _random_primitive_rows(rng, n, p)


def random_instances(seed: int, samples: int, n_max: int):
    """Deterministic stream of (index, n, p, digraph) primitive instances."""
    for idx, n, p, rows in _random_rows(seed, samples, n_max):
        yield idx, n, p, Digraph(n, rows)


def matrix_digest(rows: tuple[int, ...], n: int) -> str:
    text = serialize_rows(rows, n)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- bound suite -------------------------------------------------------------

# make_row options of an asserted upper bound
_LE = {"asserted": True, "rule": "le"}


def _fact_rows(n: int, exp: int, lengths: tuple[int, ...], cw: int | str) -> list[VerificationRow]:
    """One template row per applicable established bound, with an empty instance.

    ``lengths`` are the cycle lengths in ascending order and ``cw`` the
    c-walk maximum, or the skip note when the c-walk could not run.
    """
    g = lengths[0]
    if isinstance(cw, str):
        facts = [("L2.2", None, None, {"asserted": False, "notes": cw})]
    else:
        facts = [("L2.2", cw + frobenius(lengths), exp, _LE)]
    facts.append(("L2.3", lemma23_bound(n, g), exp, _LE))
    if len(lengths) >= 3:
        facts.append(("L2.5", lemma25_bound(n), exp, _LE))
    if exp > lemma25_bound(n):
        facts.append(("C2.1", 2, len(lengths), {"asserted": True}))
    if len(lengths) == 2:
        q = lengths[1]
        facts.append(("L2.6", lemma26_bound(n, g, q), exp, _LE))
        if n >= 6 and q <= n - 1:
            facts.append(("L3.2", lemma32_bound(n, g), exp, _LE))
    return [make_row(claim, "", predicted, oracle, **options)
            for claim, predicted, oracle, options in facts]


def _bound_facts(rows: tuple[int, ...], n: int,
                 memo: dict[tuple, list[VerificationRow]] | None = None) -> list[VerificationRow]:
    """``_fact_rows`` of a digraph's order, exponent, cycle lengths and c-walk.

    The successor rows must be primitive; NotPrimitiveError is raised
    otherwise.  Every value is an isomorphism invariant and does not change
    when every arc is reversed.  The cycle lengths and the c-walk come from
    one subset-DP cycle cover, which has no cap.  The kernels run on every
    call; with ``memo`` the rows are built once per key of those four
    values, and calls with equal keys return one shared list.
    """
    exp = exponent_of_rows(rows, n)
    if exp is None:
        raise NotPrimitiveError(f"digraph of order {n} is not primitive")
    cover = _cycle_cover(rows, n)
    lengths = tuple([k for k in range(1, n + 1) if cover[k]])
    try:
        cw = cwalk_of_cover(rows, n, cover).max
    except TooManyCycleLengthsError as exc:
        cw = f"skipped: {exc}"
    key = (n, exp, lengths, cw)
    if memo is None:
        return _fact_rows(*key)
    facts = memo.get(key)
    if facts is None:
        facts = memo[key] = _fact_rows(*key)
    return facts


def bound_rows_for(d: Digraph, instance: str, report: Report, **params) -> None:
    """Append one row per applicable established bound for one primitive digraph."""
    report.entries.append((instance, params, _bound_facts(d.rows, d.order)))


def _mirror_mask(mask: int, n: int, g: int) -> int:
    """The chord mask whose member is the transpose of ``mask``'s, relabeled.

    Reversing every arc and relabeling v_i -> v_{-i mod n} (v_0 being v_n)
    keeps the descending cycle and sends the chord at position i to the
    chord at position (1 - g - i) mod n, again with 0 read as n.
    """
    mirrored = 0
    while mask:
        low = mask & -mask
        mirrored |= 1 << ((-g - low.bit_length()) % n)
        mask ^= low
    return mirrored


def _per_orbit(n: int, g: int, evaluate, mirror: bool = False):
    """(mask, evaluate(rows)) for every member of the (n, g) chord universe.

    Masks ascend from 1 to 2^n - 1, and ``evaluate`` gets the member's
    successor rows (``_chord_rows``).  Relabeling v_i -> v_{i+1} maps the
    member of a mask onto the member of the mask rotated by one position,
    so ``evaluate``, which must return an isomorphism invariant, runs once
    per rotation orbit: on the member of its least mask, which comes first
    because masks ascend.  The value is then stored under all n rotations
    of that mask, so every later member of the orbit is one lookup.

    With ``mirror`` the value is also stored under every rotation of
    ``_mirror_mask``, whose member is the transpose of this one relabeled,
    so ``evaluate`` runs once per dihedral orbit (77 instead of 107 at
    n = 10).  Only the bound suite turns it on: its facts do not change
    when every arc is reversed.  The thm36 converse must not, because the
    ``classify_against`` index it stores is not invariant under
    transposition: with it on, the thm36 report changes at 15 of the 43
    coprime pairs with 5 <= n <= 13, (10, 7) among them.
    """
    if not 2 <= g <= n - 1:
        raise ValueError(f"need 2 <= g <= n-1, got g={g}, n={n}")
    full = (1 << n) - 1
    orbit_values: dict[int, object] = {}
    for mask in range(1, full + 1):
        if mask not in orbit_values:
            value = evaluate(_chord_rows(n, g, mask))
            for rotated in (mask, _mirror_mask(mask, n, g)) if mirror else (mask,):
                for _ in range(n):
                    orbit_values[rotated] = value
                    rotated = ((rotated << 1) | (rotated >> (n - 1))) & full
        yield mask, orbit_values[mask]


def _chord_universe_rows(pair: tuple[int, int]) -> list[Entry]:
    """Bound-suite report entries for every primitive member of the (n, g) chord universe.

    Each chord closes a g-cycle with the n-cycle, so every member has
    period gcd(n, g): all of them are primitive or none is.
    """
    n, g = pair
    if math.gcd(n, g) != 1:
        return []
    memo: dict[tuple, list[VerificationRow]] = {}
    label = f"chord:n={n},g={g},mask="
    return [(label + str(mask), {"n": n, "g": g, "mask": mask}, facts)
            for mask, facts in _per_orbit(n, g, lambda rows: _bound_facts(rows, n, memo),
                                          mirror=True)]


def verify_bounds(
    n_max: int = 8,
    samples: int = 1000,
    seed: int = 0,
    chord_pairs=DEFAULT_CHORD_PAIRS,
    jobs: int = 1,
) -> Report:
    """Bound suite over exhaustive chord families plus a seeded random sweep.

    Each chord pair (n, g) needs 2 <= g <= n-1 and n <= CHORD_ORDER_CAP,
    checked before any universe runs.  A universe has 2^n - 1 members, and
    its time and memory about double with each order: on 2 cores under
    Python 3.11, each of (16, 3), (16, 5), (16, 7), (16, 9) and (16, 15)
    took 0.6-1.4 s and 48 MB.  With jobs > 1 the chord universes run in
    worker processes, one per (n, g) pair; the random sweep always runs
    here.
    """
    if not 2 <= n_max <= 10:
        raise ValueError(f"n_max must be in 2..10, got {n_max}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    chord_pairs = list(chord_pairs)
    for n, g in chord_pairs:
        if not (2 <= g <= n - 1 and n <= CHORD_ORDER_CAP):
            raise ValueError(
                f"chord pair {n}:{g} needs 2 <= g <= n-1 and n <= {CHORD_ORDER_CAP}")
    report = Report()
    for entries in _run_blocks(_chord_universe_rows, chord_pairs, jobs):
        report.entries += entries
    # Small orders repeat: at seed 1, 657 of 2 000 instances have the rows of
    # an earlier one.  Their digest and facts are computed once, keyed by rows.
    seen: dict[tuple[int, ...], tuple[str, list[VerificationRow]]] = {}
    memo: dict[tuple, list[VerificationRow]] = {}
    for idx, n, p, rows in _random_rows(seed, samples, n_max):
        if rows not in seen:
            seen[rows] = matrix_digest(rows, n), _bound_facts(rows, n, memo)
        digest, facts = seen[rows]
        report.entries.append((f"rand:{idx:06d}:{digest}", {"n": n, "p": p, "seed": seed}, facts))
    return report


# -- worker processes ---------------------------------------------------------

def _run_blocks(worker, argses, jobs: int):
    """``worker`` over ``argses`` in order, on at most min(jobs, CPUs) processes."""
    workers = min(jobs, len(argses), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in argses]
    # Imported here because only --jobs > 1 needs it, and loading the
    # process-pool machinery costs every CLI call about 2 MB and some start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, argses))


# -- top exponent classes (Lemma 2.4) ---------------------------------------------

def _fixed_cycle_walk(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(exponent, rows) of each primitive supergraph of ``standard_cycle(n)``
    with no cycle shorter than n - 1.

    Deleting an arc creates no cycle, so a depth-first walk that adds the
    off-cycle arcs in row-major order, refusing arc i -> j when a walk
    j -> i of length <= n - 3 exists, visits each such supergraph once.
    That test cannot see a 1-cycle, so the arcs leave out the loops.
    """
    base = standard_cycle(n).rows
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and not base[i] >> j & 1]
    rows = list(base)
    nodes = []

    def closes_short_cycle(i: int, j: int) -> bool:
        seen = frontier = 1 << j
        for _ in range(n - 3):
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= rows[low.bit_length() - 1]
                frontier ^= low
            if (reached >> i) & 1:
                return True
            frontier = reached & ~seen
            if not frontier:
                return False
            seen |= reached
        return False

    def descend(first: int) -> None:
        exp = exponent_of_rows(tuple(rows), n)
        if exp is not None:
            nodes.append((exp, tuple(rows)))
        for k in range(first, len(arcs)):
            i, j = arcs[k]
            if not closes_short_cycle(i, j):
                rows[i] |= 1 << j
                descend(k + 1)
                rows[i] ^= 1 << j

    descend(0)
    return nodes


def verify_lemma24(n: int = 4) -> Report:
    """Exhaustive check that the two highest exponent classes are exactly the
    isomorphism classes of d1(n) and d2(n).

    A primitive matrix of girth g has exp <= n + g(n-2) (Lemma 2.3,
    Dulmage-Mendelsohn), so for n >= 4 an exponent of at least
    t2 = (n-1)^2 needs girth >= n-1; every other primitive matrix has
    exponent at most n^2-3n+4 < t2.  A primitive matrix with girth >= n-1
    has cycle lengths in {n-1, n} and needs both, so it has a Hamiltonian
    cycle and is a relabeling of a supergraph of the fixed n-cycle; the
    walk ``_fixed_cycle_walk`` visits those supergraphs.

    Each walk node stands for (n-1)! labeled matrices, one per directed
    Hamiltonian cycle of K_n, because it has exactly one Hamiltonian cycle.
    Its off-cycle arcs each skip one cycle vertex, so a Hamiltonian cycle
    through k of them advances n + k places around the fixed cycle, and k is
    0 or n.  Two skip arcs that do not overlap close an (n-2)-cycle with the
    fixed cycle, so the node with all n skip arcs is never reached: the walk
    has 2n + 1 nodes, the bare cycle, n single skip arcs and n overlapping
    pairs.  The weighted counts equal those of a scan over all 2^(n^2)
    matrices.

    A hit at a top exponent counts against membership when it is not
    isomorphic to the reference (``find_isomorphism``), and the class size
    is checked against n!/|Aut| of the reference.  Orders 4..ISO_ORDER_CAP
    are accepted; order 14 takes under 0.1 s.
    """
    if not 4 <= n <= ISO_ORDER_CAP:
        raise ValueError(f"supported orders are 4..{ISO_ORDER_CAP}, got {n}")
    t1 = (n - 1) ** 2 + 1
    t2 = (n - 1) ** 2
    weight = math.factorial(n - 1)
    nodes = _fixed_cycle_walk(n)

    report = Report()
    for target, reference in ((t1, d1(n)), (t2, d2(n))):
        hits = [rows for exp, rows in nodes if exp == target]
        offenders = sum(find_isomorphism(Digraph(n, rows), reference) is None for rows in hits)
        orbit = math.factorial(n) // automorphism_count(reference)
        report.add(make_row(
            "L2.4", f"n={n}:exp={target}:membership", 0, weight * offenders,
            asserted=True, n=n, target=target,
            notes="count of matrices at this exponent not isomorphic to the reference",
        ))
        report.add(make_row(
            "L2.4", f"n={n}:exp={target}:class-size", orbit, weight * len(hits),
            asserted=True, n=n, target=target,
            notes="labeled matrices at this exponent vs n!/|Aut| of the reference",
        ))
    report.add(make_row(
        "L2.4", f"n={n}:max-exponent", t1, max(exp for exp, _ in nodes), asserted=True, n=n,
        notes="largest exponent over the census equals the order-n maximum",
    ))
    return report


# -- chord-family exact formula ----------------------------------------------

def _attainment_note(n: int, g: int, r: int, rows: tuple[int, ...]) -> str:
    """Claimed against computed cycle-meeting diameter and its attaining pair.

    The rows must be primitive; the cycle cover comes from the subset DP.
    """
    if r < n - g + 1:
        claimed_pair = (n, g + r)
        claimed = 2 * n - g - r
    else:
        claimed_pair = (n, 1)
        claimed = n - 1
    cw = cwalk_of_cover(rows, n, _cycle_cover(rows, n))
    mark = "match" if (cw.max == claimed and cw.arg_max == claimed_pair) else "differ"
    return (
        f"claimed dC={claimed}@{claimed_pair}; "
        f"computed dC={cw.max}@{cw.arg_max} [{mark}]"
    )


def verify_thm33(n_min: int = 5, n_max: int = 12) -> Report:
    """Exact-formula report over every chord set; asserted for N={1} and N={1,2}.

    Also records the claimed cycle-meeting-diameter attaining pair against
    the computed one, and summarizes the agreement pattern split by whether
    N contains position 1 and whether it is a prefix 1..r.

    Each coprime pair (n, g) has 2^min(n-g+1, g) - 1 chord sets, so n_max
    above THM33_ORDER_CAP = 20 raises ValueError before any work.  Order 20
    alone took 0.8 s and orders 5..20 3.4 s (2-core VM, Python 3.11); order
    23 alone took 6 s, and the cost keeps growing with the order.
    """
    if n_max > THM33_ORDER_CAP:
        raise ValueError(f"n_max must be at most {THM33_ORDER_CAP}, got {n_max}")
    report = Report()
    stats = {"prefix": [0, 0], "has-1": [0, 0], "no-1": [0, 0]}
    for n in range(n_min, n_max + 1):
        for g in range(2, n):
            if math.gcd(n, g) != 1:
                continue
            for spec in enumerate_DgN(n, g):
                d = spec.build()
                r = spec.r
                predicted = formula_thm33(n, g, r)
                # exponent raises unless d is primitive, as _attainment_note needs.
                oracle = exponent(d).value
                anchored = spec.N in ((1,), (1, 2))
                notes = _attainment_note(n, g, r, d.rows)
                row = make_row(
                    "T3.3", spec.label(), predicted, oracle,
                    asserted=anchored, notes=notes,
                    n=n, g=g, N=list(spec.N), r=r,
                )
                report.add(row)
                if spec.N == tuple(range(1, r + 1)):
                    stats["prefix"][0] += row.agree
                    stats["prefix"][1] += 1
                key = "has-1" if 1 in spec.N else "no-1"
                stats[key][0] += row.agree
                stats[key][1] += 1
    report.add(make_row(
        "T3.3", "summary:agreement-pattern", None, None, asserted=False,
        notes=(
            f"chord sets containing position 1 agree {stats['has-1'][0]}/{stats['has-1'][1]}; "
            f"sets without position 1 agree {stats['no-1'][0]}/{stats['no-1'][1]}; "
            f"prefix sets 1..r agree {stats['prefix'][0]}/{stats['prefix'][1]} "
            "(cyclic rotation maps a chord set onto its translate, so isomorphic "
            "instances share an exponent while max(N) shifts; a max-position "
            "formula can therefore only track sets anchored at position 1)"
        ),
    ))
    return report


# -- two-disjoint-cycle bound --------------------------------------------------

def valid_h_triples(n_max: int):
    for n in range(2, n_max + 1):
        for g in range(1, n // 2 + 1):
            if math.gcd(n, g) != 1:
                continue
            for k in range(g + 1, n - g + 2):
                yield n, g, k


def verify_lemma34(n_max: int = 12) -> Report:
    """Assert the (n-1)g + n - 2g bound on every valid two-cycle construction.

    The constructions are digraphs of order n <= n_max, so n_max above
    boolmat.MAX_ORDER = 64 raises ValueError before any work.  n_max = 64
    took 11 to 13 s (2-core VM, Python 3.11).
    """
    if n_max > MAX_ORDER:
        raise ValueError(f"n_max must be at most {MAX_ORDER}, got {n_max}")
    report = Report()
    for n, g, k in valid_h_triples(n_max):
        d = h_graph(n, g, k)
        bound = lemma34_bound(n, g)
        oracle = exponent(d).value
        report.add(make_row(
            "L3.4", f"h:n={n},g={g},k={k}", bound, oracle,
            asserted=True, rule="le", n=n, g=g, k=k,
            notes="tight" if oracle == bound else "",
        ))
    return report


# -- characterization window -----------------------------------------------

def printed_threshold_min_g(n: int) -> int:
    """Smallest integer girth above the printed threshold (n^2-4n)/(4(n-3))."""
    if n <= 3:
        raise ValueError(f"threshold undefined for n <= 3, got {n}")
    return (n * n - 4 * n) // (4 * (n - 3)) + 1


def proof_threshold_min_g(n: int) -> int:
    """Smallest girth with 2n-1 + (g-1)(n-3) > floor((n-2)^2/2) + n."""
    g = 1
    while not 2 * n - 1 + (g - 1) * (n - 3) > lemma25_bound(n):
        g += 1
    return g


def _converse_facts(rows: tuple[int, ...], n: int, g: int, low: int, high: int,
                    reference_families: dict[int, list[Digraph]]):
    """Isomorphism-invariant converse facts of one chord member's successor rows.

    The member must be primitive, as every member is when gcd(n, g) = 1.
    None unless its girth is g; otherwise (exponent, cycle lengths from the
    subset DP when the exponent exceeds low, window index z and the
    classify_against index when the exponent is in (low, high]).
    """
    if rows_girth(rows, n) != g:
        return None
    oracle = exponent_of_rows(rows, n)
    lengths = rows_cycle_lengths(rows, n) if oracle > low else None
    z = match = None
    if low < oracle <= high:
        z = z_of_w(n, g, oracle)
        if z not in reference_families:
            reference_families[z] = [s.build() for s in enumerate_Dr(n, g, z)]
        match = classify_against(Digraph(n, rows), reference_families[z])
    return oracle, lengths, z, match


def verify_thm36(n: int, g: int) -> Report:
    """Window characterization over the full rotational chord universe.

    Phase a (forward): oracle exponents of every admissible-position chord
    set with maximum z, against the window value w(z).  Phase b (converse):
    every primitive girth-g chord member with exponent inside the window is
    classified against the corresponding max-z family, once per rotation
    orbit.  Phase c: audit of the two competing girth thresholds.  Only the
    forced cycle-set condition is asserted; everything else is reported.

    The chord member with mask 1 is q1(n, g), whose exponent tops the
    window, so phase b always classifies and needs n <= ISO_ORDER_CAP = 14.
    A larger n raises ValueError before phase a, whose 2^t - 1 forward
    chord sets would otherwise run first.
    """
    if math.gcd(n, g) != 1:
        raise ValueError(f"need gcd(n, g) = 1, got gcd({n}, {g})")
    if n > ISO_ORDER_CAP:
        raise ValueError(f"n must be at most {ISO_ORDER_CAP}, the isomorphism order cap, got {n}")
    report = Report()
    t = chord_position_cap(n, g)
    low, high = thm36_range(n, g)

    # Phase a: forward sweep over D^z, z = 1..t.
    for z in range(1, t + 1):
        w = (n - 2) * g + 1 + n - z
        for spec in enumerate_Dr(n, g, z):
            oracle = exponent(spec.build()).value
            report.add(make_row(
                "T3.6", f"forward:z={z}:{spec.label()}", w, oracle,
                asserted=False, n=n, g=g, N=list(spec.N), z=z,
            ))
    report.add(make_row(
        "C3.8", f"q1:n={n},g={g}", (n - 2) * g + n, exponent(q1(n, g)).value,
        asserted=True, n=n, g=g,
    ))
    if t >= 2:
        report.add(make_row(
            "C3.8", f"q2:n={n},g={g}", (n - 2) * g + n - 1, exponent(q2(n, g)).value,
            asserted=True, n=n, g=g,
        ))

    # Phase b: converse classification over the whole chord universe.
    reference_families: dict[int, list[Digraph]] = {}
    processed = 0
    eligible = 0
    in_window = 0
    for mask, facts in _per_orbit(
            n, g, lambda rows: _converse_facts(rows, n, g, low, high, reference_families)):
        processed += 1
        if facts is None:
            continue
        eligible += 1
        oracle, lengths, z, match = facts
        if lengths is not None:
            report.add(make_row(
                "T3.6", f"cycleset:mask={mask:05d}", [g, n], list(lengths),
                asserted=True, n=n, g=g, mask=mask,
                notes="cycle set forced to {girth, order} above the window floor",
            ))
        if z is not None:
            in_window += 1
            report.add(make_row(
                "C3.7", f"converse:mask={mask:05d}",
                f"member-of-D^{z}", "none" if match is None else match,
                asserted=False, rule="member", n=n, g=g, mask=mask,
                notes=f"exponent {oracle} = w(z={z})",
            ))
    report.add(make_row(
        "T3.6", "summary:universe", None, None, asserted=False, n=n, g=g,
        notes=(
            f"processed {processed} chord subsets; {eligible} primitive with "
            f"girth {g}; {in_window} with exponent in ({low}, {high}]"
        ),
    ))

    # Phase c: girth-threshold audit.
    report.add(make_row(
        "T3.6", "audit:girth-threshold",
        printed_threshold_min_g(n), proof_threshold_min_g(n),
        asserted=False, n=n, g=g,
        notes=(
            "minimal girth admitted by the printed threshold vs by the "
            "slack inequality used in the argument; discrepancy recorded, not resolved"
        ),
    ))
    return report


# -- census -------------------------------------------------------------------

def _rows_by_popcount(n: int) -> list[list[int]]:
    """The n-bit row values, bucketed by popcount 0..n."""
    by_popcount: list[list[int]] = [[] for _ in range(n + 1)]
    for row in range(1 << n):
        by_popcount[bin(row).count("1")].append(row)
    return by_popcount


def _degree_preserving(perms: list[tuple[int, ...]], degrees: tuple[int, ...]) -> list[int]:
    """Indices of the relabelings p with degrees[p[v]] == degrees[v] for every v.

    Relabeled by p, row v of a code becomes row p[v], so these are the
    relabelings that take a code with row popcounts ``degrees`` to another.
    """
    return [k for k, p in enumerate(perms) if itemgetter(*p)(degrees) == degrees]


def _cycle_masks(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(k, the arc masks of the simple k-cycles of K_n with loops), k = 1..n.

    The C(n,k)(k-1)! k-cycles are listed from their least vertex, and arc
    i -> j sits at bit n*n-1-(i*n+j), the row-major, most-significant-first
    convention of ``canonical_code_tables``: a digraph with that code has a
    k-cycle iff ``code & m == m`` for one of the k-masks m.
    """
    top = n * n - 1
    by_length = []
    for k in range(1, n + 1):
        masks = []
        for members in itertools.combinations(range(n), k):
            for rest in itertools.permutations(members[1:]):
                cycle = (members[0], *rest, members[0])
                masks.append(sum(1 << (top - i * n - j) for i, j in zip(cycle, cycle[1:])))
        by_length.append((k, tuple(masks)))
    return by_length


def _row_group(tables, by_popcount: list[list[int]], first: int, degrees: tuple[int, ...]):
    """(union, identity code, codes, rows) for each choice of the rows
    first, first + 1, ... (one or two of them) with popcounts ``degrees``.

    ``codes`` is the n!-vector of the rows' relabeled partial codes, the
    elementwise sum of their ``canonical_code_tables`` entries, so a matrix's
    relabeled codes are the elementwise sum of its groups' vectors.  The
    identity's partial code comes first, and ``union`` is the OR of the rows.
    """
    table = tables[first]
    if len(degrees) == 1:
        return [(r, table[r][0], table[r], (r,)) for r in by_popcount[degrees[0]]]
    second = tables[first + 1]
    entries = []
    for r0 in by_popcount[degrees[0]]:
        for r1 in by_popcount[degrees[1]]:
            codes = tuple(map(add, table[r0], second[r1]))
            entries.append((r0 | r1, codes[0], codes, (r0, r1)))
    return entries


def _class_codes(head_codes: tuple[int, ...], last_codes: tuple[int, ...]) -> list[int]:
    """The n! relabeled codes of a matrix, its head's and last group's vectors summed."""
    return list(map(add, head_codes, last_codes))


def _census_block(args: tuple[int, tuple[tuple[int, ...], ...]]):
    """Census rows of the classes with a sorted out-degree sequence in ``sequences``.

    Relabeling the vertices by out-degree gives every class a member whose
    row popcounts do not decrease, so only those codes are scanned, and
    only those without a zero row or column.  The scan works on groups of
    rows (``_row_group``): a lone row 0 when n is odd, then pairs, so the
    last group is the pair (n-2, n-1).  A group depends only on where its
    rows start and on their degrees, so it is built once per block.  The
    choices from every group but the last are merged into heads of the
    same shape (column union, identity code, n!-vector, rows), so a code
    costs one coverage test (its last pair's union must hold every column
    its head misses), one addition for its identity code and one set
    lookup.  With the lone row first, the order-5 census merges 54 106
    heads (row 0 with rows 1-2), where rows 0-3 would give 361 481.

    Each class is canonicalized once, on the first of its codes the scan
    meets: its n! relabeled codes, its head's and last pair's vectors summed
    (``_class_codes``), give the class key (their least) and |Aut| (how many
    equal the code itself), and the class holds n!/|Aut| labeled matrices.
    The codes of its ``_degree_preserving`` relabelings, which are all the
    codes of the class the scan can still meet, go into ``known``, reset
    for each degree sequence.  The exponent and the cycle lengths are
    computed once per class, on its first code: a length k is present iff
    the identity code holds every arc of one of the ``_cycle_masks`` k-masks
    (24 masks at n = 4, 89 at n = 5), and the girth is the least length.
    Returns the rows of the primitive classes and the labeled total of
    every class found, primitive or not.
    """
    n, sequences = args
    full = (1 << n) - 1
    tables = canonical_code_tables(n)
    perms = list(itertools.permutations(range(n)))
    by_popcount = _rows_by_popcount(n)
    cycle_masks = _cycle_masks(n)
    relabelings = len(perms)
    slices = [(0, 1)] * (n % 2) + [(first, first + 2) for first in range(n % 2, n, 2)]
    # A group depends only on where its rows start and on their degrees.
    group = functools.cache(lambda first, degrees: _row_group(tables, by_popcount, first, degrees))
    rows_out = []
    labeled = 0
    for degrees in sequences:
        kept = _degree_preserving(perms, degrees)
        known: set[int] = set()
        *head_groups, last = [group(a, degrees[a:b]) for a, b in slices]
        # One head per choice from every group but the last; at n = 2 the
        # last group is the whole matrix, and the one head is empty.
        heads = head_groups[0] if head_groups else [(0, 0, (0,) * relabelings, ())]
        for entries in head_groups[1:]:
            heads = [(hu | u, hc + c, tuple(map(add, hv, v)), hr + r)
                     for hu, hc, hv, hr in heads for u, c, v, r in entries]
        for union, ident, head_codes, head_rows in heads:
            need = full ^ union
            for lu, lc, lcodes, lrows in last:
                if lu & need != need:
                    continue
                code = ident + lc
                if code in known:
                    continue
                codes = _class_codes(head_codes, lcodes)
                known.update(map(codes.__getitem__, kept))
                count = relabelings // codes.count(code)
                labeled += count
                exp = exponent_of_rows(head_rows + lrows, n)
                if exp is None:
                    continue
                lengths = []
                for k, masks in cycle_masks:
                    for m in masks:
                        if code & m == m:
                            lengths.append(k)
                            break
                rows_out.append(CensusRow(
                    order=n,
                    canonical_bits=format(min(codes), f"0{n * n}b"),
                    girth=lengths[0],
                    cycle_lengths=tuple(lengths),
                    exponent=exp,
                    labeled_count=count,
                ))
    return rows_out, labeled


def census(n: int, jobs: int = 1) -> list[CensusRow]:
    """Exhaustive isomorphism-class table of primitive digraphs of order n.

    The sorted out-degree sequence is a class invariant, so the work splits
    by it into blocks with disjoint classes, and each block scans its codes
    by row pairs and canonicalizes each of its classes once.  One worker
    runs one block, so the relabeling tables, row groups, permutations,
    popcount buckets and cycle masks are built once per call; more workers
    run 4 blocks each, to even out their loads.
    The labeled class sizes must add up to the number of matrices with no
    zero row and no zero column, sum_k (-1)^k C(n,k) (2^(n-k) - 1)^n; a
    census that misses a class, counts one twice or miscounts one raises
    RuntimeError.  Order 5 (155 452 classes) takes about 8 s on one worker
    and 5.5 s on two through the CLI (2-core VM, Python 3.11).
    """
    if n not in (2, 3, 4, 5):
        raise ValueError(f"census supports orders 2..5, got {n}")
    # Dealt out largest first, so that the blocks scan similar numbers of codes.
    sequences = sorted(
        itertools.combinations_with_replacement(range(1, n + 1), n),
        key=lambda degrees: -math.prod(math.comb(n, d) for d in degrees),
    )
    workers = min(jobs, os.cpu_count() or 1)
    blocks = 4 * workers if workers > 1 else 1
    argses = [(n, tuple(sequences[b::blocks])) for b in range(min(blocks, len(sequences)))]
    rows = []
    labeled = 0
    for block_rows, block_labeled in _run_blocks(_census_block, argses, jobs):
        rows += block_rows
        labeled += block_labeled
    expected = sum((-1) ** k * math.comb(n, k) * ((1 << (n - k)) - 1) ** n for k in range(n + 1))
    if labeled != expected:
        raise RuntimeError(
            f"census classes cover {labeled} labeled matrices, expected {expected}")
    return sorted(rows, key=lambda row: row.canonical_bits)
