"""Claim-by-claim verification against independent oracles.

Established upper bounds are hard assertions (any violation is an
implementation bug); the exact-formula and window-characterization claims
are report-only: every instance is compared against the oracle and the
agreement pattern is itself the deliverable.  All randomness is seeded and
all row streams are sorted, so identical parameters reproduce identical
reports byte for byte.

The bound suite and the thm36 converse sweep evaluate each orbit of a
chord universe once: rotating a chord mask relabels its member, and every
checked value is constant on an orbit, so the members of an orbit differ
only in their label and mask.  The first mask of an orbit is its least,
because masks ascend; its value is stored under every mask of the orbit,
so every later member is one lookup.  The bound suite's orbits are
dihedral: one mirror mask's member is the transpose of the other's,
relabeled, and every bound-suite fact survives transposition.  The thm36
converse keeps rotation orbits, because the D^z index it reports does not.
Both get each orbit's successor rows straight from its mask through
``families._chord_rows``, the only chorded-cycle constructor, and build no
Digraph per member; so does ``verify_thm33`` over its chord sets
(``_chord_sets``).  Each batch of one order, orbit representatives or
chord sets, is bit-sliced once (``boolmat._lane_entries``), and its lane
passes read the same slices: exponents (``_lane_exponents``) and cycle
covers (``_lane_cycle_covers``), each only where it is read.  The thm36
converse makes the cover pass, reads the girth off each cover, and runs
the exponent pass on the girth-g members only; its forward sweep makes no
pass of its own, since every forward chord set lies in a girth-g orbit and
reads that orbit's exponent.  A census block's classes get the same two
passes, but read only which lanes have a k-cycle (``_lane_cycle_sets``),
not each lane's cover.  Every member of the (n, g) universe has period
gcd(n, g), so primitivity is one gcd test per universe: the bound suite
skips a universe with gcd(n, g) > 1, and thm36 refuses the pair.  In the
same way the bound suite's random sweep, drawn on bit rows, evaluates each
rotation orbit of its drawn Hamiltonian cycle once: a try's offset pattern
(``_random_tries``) rebuilds it up to relabeling, so tries whose patterns
have one least rotation are isomorphic and get the facts of the first.
Each instance still gets the digest of its own labeled matrix.

Chord members are isomorphic only by rotation, so lemma24 and the thm36
converse compare masks and run no isomorphism search.  Take the n-cycle
plus span-g chords, gcd(n, g) = 1, with a mask that is not full.  A
Hamiltonian cycle through k chords and n - k cycle arcs moves
k(g - 1) - (n - k) = kg - n places around the fixed cycle, a multiple of n,
so n divides k and k = 0: the fixed cycle is the only Hamiltonian cycle.
An isomorphism maps it onto itself, so it is a rotation and takes the mask
to a rotation of the other.  The full mask's member has the most arcs and
is isomorphic to no other member.

The bound suite's facts are template rows with an empty instance.  They
depend only on the order, the exponent, the cycle lengths and the c-walk
maximum, so they are built (and their claim checked and agree flag
computed) once per such invariant key, not once per evaluation: each chord
universe and the random sweep keep a dict from key to fact list, and the
1 318 evaluations of ``verify bounds --n-max 8 --samples 2000 --seed 1``
(356 chord orbits and 962 random pattern orbits; one evaluation per
distinct random matrix made 1 699) still build 619 lists.  The suite runs
in two phases.  It first collects every orbit representative, a chord
universe's least dihedral masks and the random tries that are the first
with their least pattern rotation, into one batch per order, whatever
pair or sweep they come from: the default pairs (10, 3), (10, 7) and
(10, 9) make one 231-lane batch.  Then each batch is bit-sliced once, and
one ``_lane_exponents`` and one ``_lane_cycle_covers`` pass read the same
slices (``_batch_keys``).  With ``--jobs`` N > 1 each batch is dealt
round-robin into min(N, CPUs) blocks, one slicing and one pair of passes
per block, and the blocks of every order run on one process pool, so the
pairs of one order still spread over the workers.  The c-walk runs on
every representative, and its distance rows are read only for their
maximum.  Each instance adds one report entry that holds its label, its
params and its key's fact list, so instances with equal keys share one
list.  Five order-16 pairs, (16, 3), (16, 5), (16, 7), (16, 9) and
(16, 15), take 1.7-1.9 s and 146 MB in process at jobs=1, and 1.5-1.6 s
and 148 MB in the parent at jobs=2 (2-core VM, Python 3.11).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import random
from operator import add, itemgetter, or_

from .boolmat import MAX_ORDER, _lane_entries, _row_lines, serialize_rows
from .digraph import (
    Digraph,
    _bfs_levels,
    _cycle_cover,
    _lane_cycle_covers,
    _lane_cycle_sets,
)
from .exponent import (
    NotPrimitiveError,
    TooManyCycleLengthsError,
    _cwalk_rows,
    _lane_exponents,
    cwalk_of_cover,
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
from .families import _chord_rows, chord_position_cap, standard_cycle
from .iso import canonical_code_tables
from .report import CensusRow, Report, VerificationRow, make_row
from .semigroup import frobenius

BERNOULLI_SWEEP = (0.05, 0.1, 0.2)
DEFAULT_CHORD_PAIRS = ((10, 3), (10, 7), (10, 9), (11, 3))
CHORD_ORDER_CAP = 16
THM33_ORDER_CAP = 20
MAX_RANDOM_TRIES = 100_000


# -- random instance generation --------------------------------------------

def _random_tries(rng: random.Random, n: int, p: float):
    """Endless (successor rows, period, pattern) tries of ``_random_primitive_rows``.

    Number the vertices by their position on the drawn cycle.  Every arc
    u -> v of a strongly connected digraph of period d joins consecutive
    classes mod d, and the cycle puts the vertex at position k in class
    k + c mod d, so d divides pos(u) + 1 - pos(v) for every arc; that sum
    over the arcs of any closed walk is its length, so d is the gcd of these
    values.  The cycle's own arcs give 0 and n, so the period is the gcd of
    n and o - 1 over the drawn arcs, o being how many positions ahead of its
    tail an arc lands.

    ``pattern[k]`` has bit o set for each drawn arc out of position k that
    lands o positions ahead: o = 0 is a loop, and o = 1 is never drawn,
    because that is the cycle arc.  The n-cycle on the positions plus these
    arcs is the try relabeled by position, so tries whose patterns are
    rotations of each other are isomorphic.

    The draws are one per slot s < n(n - 1), in order: slot s is row
    s // (n - 1), and its column s % (n - 1) skips the row's cycle column.
    """
    draw = rng.random
    gcd = math.gcd
    m = n - 1
    slots = range(n * m)
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        # perm[k] is the vertex at position k, and perm[k - m] the next one.
        pos = [0] * n
        rows = [0] * n
        for k, v in enumerate(perm):
            pos[v] = k
            rows[perm[k - 1]] = 1 << v
        hits = [s for s in slots if draw() < p]
        pattern = [0] * n
        period = n
        for s in hits:
            v, j = divmod(s, m)
            k = pos[v]
            if j >= perm[k - m]:
                j += 1
            rows[v] |= 1 << j
            o = (pos[j] - k) % n
            pattern[k] |= 1 << o
            period = gcd(period, o - 1)
        yield tuple(rows), period, tuple(pattern)


def _random_primitive_rows(rng: random.Random, n: int,
                           p: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(successor rows, pattern) of a random Hamiltonian cycle plus
    Bernoulli(p) arcs, retained if primitive.

    Each try shuffles the n vertices into a cycle, then draws rng.random()
    once for every arc not on it, in row-major order, and adds the arc when
    the draw is below p.  The cycle makes every try strongly connected, and
    its period is read off the drawn arcs' positions on the cycle (see
    ``_random_tries``), so a try costs no search.  The pattern holds those
    positions too: patterns with equal least rotations give isomorphic
    digraphs.  After MAX_RANDOM_TRIES tries it raises RuntimeError.
    """
    for rows, period, pattern in itertools.islice(_random_tries(rng, n, p), MAX_RANDOM_TRIES):
        if period == 1:
            return rows, pattern
    raise RuntimeError(f"no primitive digraph found in {MAX_RANDOM_TRIES} tries (n={n}, p={p})")


def _random_rows(seed: int, samples: int, n_max: int):
    """Deterministic stream of (index, n, p, successor rows, pattern) primitive instances."""
    if n_max > 10:
        raise ValueError(f"random sampling is capped at order 10, got n_max={n_max}")
    rng = random.Random(seed)
    for idx in range(samples):
        p = BERNOULLI_SWEEP[idx % len(BERNOULLI_SWEEP)]
        n = rng.randint(2, n_max)
        yield idx, n, p, *_random_primitive_rows(rng, n, p)


def random_instances(seed: int, samples: int, n_max: int):
    """Deterministic stream of (index, n, p, digraph) primitive instances."""
    for idx, n, p, rows, _ in _random_rows(seed, samples, n_max):
        yield idx, n, p, Digraph(n, rows)


def matrix_digest(rows: tuple[int, ...], n: int, lines: list[str] | None = None) -> str:
    """The first 12 hex digits of the SHA-256 of the rows' text format.

    ``lines`` is an optional ``boolmat._row_lines(n)`` table, passed on to
    ``serialize_rows``.
    """
    text = serialize_rows(rows, n, lines)
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


def _bound_key(rows: tuple[int, ...], n: int, exp: int | None,
               cover: list[int]) -> tuple[int, int, tuple[int, ...], int | str]:
    """The ``_fact_rows`` arguments of a digraph: order, exponent, cycle lengths and c-walk.

    ``exp`` is the exponent of the successor rows, None when they are not
    primitive, which raises NotPrimitiveError, and ``cover`` is their
    subset-DP cycle cover (``_cycle_cover``), which has no cap.  The cycle
    lengths are read off the cover, and the c-walk runs on it on every
    call.  Every value is an isomorphism invariant and does not change when
    every arc is reversed, so equal keys give equal facts.
    """
    if exp is None:
        raise NotPrimitiveError(f"digraph of order {n} is not primitive")
    lengths = tuple([k for k in range(1, n + 1) if cover[k]])
    try:
        cw = max(map(max, _cwalk_rows(rows, n, cover)))
    except TooManyCycleLengthsError as exc:
        cw = f"skipped: {exc}"
    return n, exp, lengths, cw


def _bound_facts(rows: tuple[int, ...], n: int, exp: int | None,
                 cover: list[int]) -> list[VerificationRow]:
    """``_fact_rows`` of a digraph's ``_bound_key``."""
    return _fact_rows(*_bound_key(rows, n, exp, cover))


def _shared_facts(keys: list[tuple]) -> list[list[VerificationRow]]:
    """The ``_fact_rows`` of each key, one list shared by every equal key."""
    memo = {key: _fact_rows(*key) for key in dict.fromkeys(keys)}
    return [memo[key] for key in keys]


def _batch_keys(args: tuple[int, list[tuple[int, ...]]]) -> list[tuple]:
    """The ``_bound_key`` of each successor-row tuple of a batch of order n, in order.

    The batch is bit-sliced once (``_lane_entries``), and the same slices
    feed one ``_lane_exponents`` pass and one ``_lane_cycle_covers`` pass.
    """
    n, rowsets = args
    arc = _lane_entries(rowsets, n)
    exps = _lane_exponents(arc, len(rowsets))
    covers = _lane_cycle_covers(arc, len(rowsets))
    return [_bound_key(rows, n, exp, cover) for rows, exp, cover in zip(rowsets, exps, covers)]


def bound_rows_for(d: Digraph, instance: str, report: Report, **params) -> None:
    """Append one row per applicable established bound for one primitive digraph."""
    report.entries.append(
        (instance, params, _bound_facts(d.rows, d.order, exponent_of_rows(d.rows, d.order),
                                        _cycle_cover(d.rows, d.order))))


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


def _rotations(mask: int, n: int) -> list[int]:
    """The n rotations of an n-bit chord mask, ``mask`` first; each relabels its member."""
    full = (1 << n) - 1
    rotations = []
    for _ in range(n):
        rotations.append(mask)
        mask = ((mask << 1) | (mask >> (n - 1))) & full
    return rotations


def _orbits(n: int, g: int, mirror: bool = False):
    """(reps, orbit) of the (n, g) chord universe, whose masks run from 1 to 2^n - 1.

    ``reps`` lists (least mask, successor rows) of every rotation orbit
    (``_chord_rows``) in ascending mask order: the first mask of an orbit
    is its least, because masks ascend.  ``orbit[mask]`` is the index in
    ``reps`` of mask's orbit (``orbit[0]`` is None).

    With ``mirror`` an orbit also takes in every rotation of
    ``_mirror_mask``, whose member is the transpose of this one relabeled,
    so ``reps`` has one mask per dihedral orbit (77 instead of 107 at
    n = 10).  Only the bound suite turns it on: its facts do not change
    when every arc is reversed.  The thm36 converse must not, because the
    D^z index it stores is not invariant under transposition: with it on,
    the thm36 report changes at 15 of the 43 coprime pairs with
    5 <= n <= 13, (10, 7) among them.
    """
    if not 2 <= g <= n - 1:
        raise ValueError(f"need 2 <= g <= n-1, got g={g}, n={n}")
    orbit_of: dict[int, int] = {}
    reps = []
    for mask in range(1, 1 << n):
        if mask not in orbit_of:
            for start in (mask, _mirror_mask(mask, n, g)) if mirror else (mask,):
                orbit_of.update(dict.fromkeys(_rotations(start, n), len(reps)))
            reps.append((mask, _chord_rows(n, g, mask)))
    # A list holds the index far more compactly than the dict.
    return reps, list(map(orbit_of.get, range(1 << n)))


def verify_bounds(
    n_max: int = 8,
    samples: int = 1000,
    seed: int = 0,
    chord_pairs=DEFAULT_CHORD_PAIRS,
    jobs: int = 1,
) -> Report:
    """Bound suite over exhaustive chord families plus a seeded random sweep.

    Each chord pair (n, g) needs 2 <= g <= n-1 and n <= CHORD_ORDER_CAP,
    checked before any work.  Every member of the (n, g) universe has
    period gcd(n, g), so a pair with gcd(n, g) > 1 adds no entry.  The
    suite collects every orbit representative into one batch per order
    (``_chord_representatives``, ``_random_representatives``), bit-slices
    each batch once for its two lane passes, dealt over min(jobs, CPUs)
    worker processes when jobs > 1 (``_order_keys``), and gives each chord
    pair and the random sweep one shared fact list per key
    (``_shared_facts``); see the module docstring.  A universe has 2^n - 1
    members, and its time and memory about double with each order.
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
    batches: dict[int, list[tuple[int, ...]]] = {}
    universes = _chord_representatives(chord_pairs, batches)
    slots, pending = _random_representatives(seed, samples, n_max, batches)
    keys = _order_keys(batches, jobs)
    # The representatives' rows are not needed for the entries.
    del batches
    report = Report()
    for n, g, start, stop, orbit in universes:
        facts = _shared_facts(keys[n][start:stop])
        label = f"chord:n={n},g={g},mask="
        report.entries += [(label + str(mask), {"n": n, "g": g, "mask": mask}, facts[orbit[mask]])
                           for mask in range(1, 1 << n)]
    facts = _shared_facts([keys[n][i] for n, i in slots])
    report.entries += [(label, params, facts[slot]) for label, params, slot in pending]
    return report


def _chord_representatives(chord_pairs, batches: dict[int, list[tuple[int, ...]]]):
    """(n, g, start, stop, orbit) of each coprime chord pair, its least
    dihedral masks' rows (``_orbits``) appended to ``batches[n]`` at start:stop.

    Every member of the (n, g) universe has period gcd(n, g), so a pair
    with gcd(n, g) > 1 has no primitive member and is left out.
    """
    universes = []
    for n, g in chord_pairs:
        if math.gcd(n, g) == 1:
            reps, orbit = _orbits(n, g, mirror=True)
            batch = batches.setdefault(n, [])
            universes.append((n, g, len(batch), len(batch) + len(reps), orbit))
            batch += [rows for _, rows in reps]
    return universes


def _random_representatives(seed: int, samples: int, n_max: int,
                            batches: dict[int, list[tuple[int, ...]]]):
    """(slots, pending) of the random sweep; each slot's rows are appended to ``batches``.

    Facts are keyed by the least rotation of the try's pattern, which is
    equal on isomorphic tries, so the 2 000 instances at seed 1 take 962
    evaluations.  ``slots`` holds the (order, index in its batch) of the
    first try with each least rotation, and ``pending`` the (label, params,
    slot) of every instance.  Each digest reads its rows' text from its
    order's ``_row_lines`` table, built once per call.
    """
    lines = {n: _row_lines(n) for n in range(2, n_max + 1)}
    slot_of: dict[tuple[int, ...], int] = {}
    slots: list[tuple[int, int]] = []
    pending = []
    for idx, n, p, rows, pattern in _random_rows(seed, samples, n_max):
        twice = pattern + pattern
        least = min(twice[s:s + n] for s in range(n))
        slot = slot_of.get(least)
        if slot is None:
            slot = slot_of[least] = len(slots)
            batch = batches.setdefault(n, [])
            slots.append((n, len(batch)))
            batch.append(rows)
        pending.append((f"rand:{idx:06d}:{matrix_digest(rows, n, lines[n])}",
                        {"n": n, "p": p, "seed": seed}, slot))
    return slots, pending


def _order_keys(batches: dict[int, list[tuple[int, ...]]], jobs: int) -> dict[int, list[tuple]]:
    """The ``_bound_key`` of every row tuple of each order's batch, in order.

    One batch per order is bit-sliced once and read by one pass of each
    lane kernel (``_batch_keys``).  With jobs > 1 each batch is dealt
    round-robin into min(jobs, CPUs) blocks, so the pairs of one order
    still spread over the worker processes.
    """
    workers = max(1, min(jobs, os.cpu_count() or 1))
    deals = {n: min(workers, len(batch)) for n, batch in batches.items()}
    blocks = iter(_run_blocks(_batch_keys, [(n, batches[n][b::k]) for n, k in deals.items()
                                            for b in range(k)], jobs))
    keys: dict[int, list[tuple]] = {}
    for n, k in deals.items():
        keys[n] = [None] * len(batches[n])
        for b in range(k):
            keys[n][b::k] = next(blocks)
    return keys


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

    An off-cycle arc i -> j closes a cycle of length (j - i) mod n + 1, its
    span, with the fixed cycle, so only the n arcs of span n - 1,
    i -> (i - 2) mod n, can be added.  Deleting an arc creates no cycle, so
    a depth-first walk that adds those arcs in order of i, refusing arc
    i -> j when a walk j -> i of length <= n - 3 exists (i lies on one of
    the ``_bfs_levels`` 1..n - 3 out of j), visits each such supergraph
    once.
    """
    arcs = [(i, (i - 2) % n) for i in range(n)]
    rows = list(standard_cycle(n).rows)
    full = (1 << n) - 1
    nodes = []

    def descend(first: int) -> None:
        exp = exponent_of_rows(tuple(rows), n)
        if exp is not None:
            nodes.append((exp, tuple(rows)))
        for k in range(first, len(arcs)):
            i, j = arcs[k]
            if not any(level >> i & 1
                       for level in itertools.islice(_bfs_levels(rows, 1 << j, full), 1, n - 2)):
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

    Each off-cycle arc of a walk node skips one cycle vertex, so a node is
    the span-(n-1) chord member of its mask; d1 and d2 are masks 0b1 and
    0b11.  Two skip arcs that do not overlap close an (n-2)-cycle with the
    fixed cycle, so the full mask is never reached: the walk has 2n + 1
    nodes, the bare cycle, n single skip arcs and n overlapping pairs.  By
    the module docstring each node has one Hamiltonian cycle, so it stands
    for (n-1)! labeled matrices, and the weighted counts equal those of a
    scan over all 2^(n^2) matrices.  A hit at a top exponent counts against
    membership unless its rows are a rotation of the reference's, and the
    class size n!/|Aut| is (n-1)! times the number of distinct rotations.
    Order 64 takes about 0.35 s (2-core VM, Python 3.11).
    """
    if not 4 <= n <= MAX_ORDER:
        raise ValueError(f"supported orders are 4..{MAX_ORDER}, got {n}")
    t1 = (n - 1) ** 2 + 1
    t2 = (n - 1) ** 2
    weight = math.factorial(n - 1)
    nodes = _fixed_cycle_walk(n)

    report = Report()
    for target, reference in ((t1, 0b1), (t2, 0b11)):
        members = {_chord_rows(n, n - 1, mask) for mask in _rotations(reference, n)}
        hits = [rows for exp, rows in nodes if exp == target]
        offenders = sum(rows not in members for rows in hits)
        report.add(make_row(
            "L2.4", f"n={n}:exp={target}:membership", 0, weight * offenders,
            asserted=True, n=n, target=target,
            notes="count of matrices at this exponent not isomorphic to the reference",
        ))
        report.add(make_row(
            "L2.4", f"n={n}:exp={target}:class-size", weight * len(members), weight * len(hits),
            asserted=True, n=n, target=target,
            notes="labeled matrices at this exponent vs n!/|Aut| of the reference",
        ))
    report.add(make_row(
        "L2.4", f"n={n}:max-exponent", t1, max(exp for exp, _ in nodes), asserted=True, n=n,
        notes="largest exponent over the census equals the order-n maximum",
    ))
    return report


# -- chord-family exact formula ----------------------------------------------

def _chord_sets(n: int, g: int):
    """(mask, label, N) of every chord set N within 1..t,
    t = ``chord_position_cap(n, g)``, masks ascending from 1.

    Bit i - 1 of the mask is position i, so max(N) is its bit length.
    """
    for mask in range(1, 1 << chord_position_cap(n, g)):
        N = [i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1]
        yield mask, f"d_gN:n={n},g={g},N=" + ",".join(map(str, N)), N


def _attainment_note(n: int, g: int, r: int, rows: tuple[int, ...], cover: list[int]) -> str:
    """Claimed against computed cycle-meeting diameter and its attaining pair.

    The rows must be primitive, and ``cover`` is their cycle cover.
    """
    if r < n - g + 1:
        claimed_pair = (n, g + r)
        claimed = 2 * n - g - r
    else:
        claimed_pair = (n, 1)
        claimed = n - 1
    cw = cwalk_of_cover(rows, n, cover)
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
    above THM33_ORDER_CAP = 20 raises ValueError before any work, as do
    n_min below 3 and an empty range, n_min > n_max.  Every n >= 3 has the
    coprime pair (n, n - 1), so every accepted range has a chord set.  A
    pair's exponents and cycle covers come from one lane pass each, on one
    bit-slicing of its chord sets' rows.  Order 20 alone took 0.18 s and
    orders 5..20 0.8-1.0 s (2-core VM, Python 3.11); order 23 alone took
    4.6 s before the exponents came from one lane pass per pair, and the
    cost keeps growing with the order.
    """
    if n_max > THM33_ORDER_CAP:
        raise ValueError(f"n_max must be at most {THM33_ORDER_CAP}, got {n_max}")
    if n_min < 3:
        raise ValueError(f"n_min must be at least 3, got {n_min}")
    if n_min > n_max:
        raise ValueError(f"n_min must be at most n_max, got n_min={n_min}, n_max={n_max}")
    report = Report()
    stats = {"prefix": [0, 0], "has-1": [0, 0], "no-1": [0, 0]}
    for n in range(n_min, n_max + 1):
        for g in range(2, n):
            if math.gcd(n, g) != 1:
                continue
            sets = list(_chord_sets(n, g))
            rowsets = [_chord_rows(n, g, mask) for mask, _, _ in sets]
            arc = _lane_entries(rowsets, n)
            exps = _lane_exponents(arc, len(rowsets))
            covers = _lane_cycle_covers(arc, len(rowsets))
            for (mask, label, N), rows, oracle, cover in zip(sets, rowsets, exps, covers):
                r = mask.bit_length()
                row = make_row(
                    "T3.3", label, formula_thm33(n, g, r), oracle,
                    asserted=mask in (1, 3), notes=_attainment_note(n, g, r, rows, cover),
                    n=n, g=g, N=N, r=r,
                )
                report.add(row)
                if mask & (mask + 1) == 0:
                    stats["prefix"][0] += row.agree
                    stats["prefix"][1] += 1
                key = "has-1" if mask & 1 else "no-1"
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

    Each exponent is read off the rows of mask {1, k}, the transpose of
    h(n, g, k): (A^T)^e = (A^e)^T.  Rotated by n - k + 1 it is mask
    {1, n - k + 2}, so h(n, g, n - k + 2) is isomorphic to h(n, g, k).
    n_max above boolmat.MAX_ORDER = 64 raises ValueError before any work,
    as does n_max below 2, which leaves no triple: the least is (2, 1, 2).
    n_max = 64 took 7 to 8 s through the CLI (2-core VM, Python 3.11).
    """
    if n_max > MAX_ORDER:
        raise ValueError(f"n_max must be at most {MAX_ORDER}, got {n_max}")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    report = Report()
    for n, g, k in valid_h_triples(n_max):
        bound = lemma34_bound(n, g)
        oracle = exponent_of_rows(_chord_rows(n, g, 1 | 1 << (k - 1)), n)
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


def _converse_facts(mask: int, oracle: int, cover: list[int], n: int, g: int,
                    low: int, high: int):
    """Converse facts of ``mask``'s member from its exponent and cycle cover.

    The member must be primitive, as every member is when gcd(n, g) = 1,
    and have girth g; ``_converse_pass`` picks those members.  The facts
    are (exponent, cycle lengths when the exponent exceeds low, window
    index z and the D^z index when the exponent is in (low, high]).  D^z is
    the masks 2^(z-1) + i, i ascending, as the forward sweep lists them, so
    the index of the first member isomorphic to this one is that of its
    least rotation there.
    """
    lengths = tuple([k for k in range(1, n + 1) if cover[k]])
    z = match = None
    if low < oracle <= high:
        z = z_of_w(n, g, oracle)
        first = 1 << (z - 1)
        match = min((r - first for r in _rotations(mask, n) if first <= r < 2 * first),
                    default=None)
    return oracle, lengths if oracle > low else None, z, match


def _converse_pass(reps: list[tuple[int, tuple[int, ...]]], n: int, g: int,
                   low: int, high: int) -> list[tuple | None]:
    """``_converse_facts`` of each (least mask, successor rows) of ``reps``, in order.

    One ``_lane_cycle_covers`` pass gives every cover, and the girth is the
    least length on it.  Only the girth-g members have converse facts, so
    only they are sliced again for one ``_lane_exponents`` pass: 2 of the
    4 115 representatives at (16, 15).  The others get None; this is the
    only girth test of the converse.
    """
    covers = _lane_cycle_covers(_lane_entries([rows for _, rows in reps], n), len(reps))
    girth_g = [t for t, cover in enumerate(covers) if cover[g] and not any(cover[1:g])]
    exps = _lane_exponents(_lane_entries([reps[t][1] for t in girth_g], n), len(girth_g))
    facts = [None] * len(reps)
    for t, oracle in zip(girth_g, exps):
        facts[t] = _converse_facts(reps[t][0], oracle, covers[t], n, g, low, high)
    return facts


def verify_thm36(n: int, g: int) -> Report:
    """Window characterization over the full rotational chord universe.

    Phase a (forward): oracle exponents of every admissible-position chord
    set with maximum z, against the window value w(z).  Phase b (converse):
    every primitive girth-g chord member with exponent inside the window is
    classified against the corresponding max-z family, once per rotation
    orbit.  Phase c: audit of the two competing girth thresholds.  Only the
    forced cycle-set condition is asserted; everything else is reported.
    The rows come in that order, but the facts of both sweeps come from one
    ``_converse_pass`` over the rotation orbits, made before phase a.

    Phase a reads each chord set's exponent from its orbit's converse
    facts.  Its mask lies below 2^t, t = min(n - g + 1, g), so its chords
    sit in one run of t positions.  A cycle through a chord returns over
    the g - 1 places the chord skips (t <= g); any other chord there skips
    back past the first one's landing vertex (t <= n - g + 1), so the cycle
    takes one chord and has length g.  The member's cycle set is {g, n}:
    its orbit is a girth-g representative of the converse, and the
    exponent is a rotation invariant.

    Phase b walks 2^n - 1 chord masks, so n above CHORD_ORDER_CAP = 16
    raises ValueError, as in the bound suite; each coprime g at n = 16 took
    0.09-0.21 s, best of 5 (2-core VM, Python 3.11).  Phase c needs n >= 4,
    a chord span 2 <= g <= n - 1 and a primitive universe gcd(n, g) = 1.
    Any other (n, g) raises ValueError before any chord member is built.
    """
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    if n > CHORD_ORDER_CAP:
        raise ValueError(f"n must be at most {CHORD_ORDER_CAP}, the chord universe cap, got {n}")
    if not 2 <= g <= n - 1:
        raise ValueError(f"g must lie in 2..{n - 1}, got {g}")
    if math.gcd(n, g) != 1:
        raise ValueError(f"need gcd(n, g) = 1, got gcd({n}, {g})")
    report = Report()
    low, high = thm36_range(n, g)
    reps, orbit = _orbits(n, g)
    facts = _converse_pass(reps, n, g, low, high)

    # Phase a: forward sweep over D^z, z = 1..t, the masks of bit length z.
    for mask, label, N in _chord_sets(n, g):
        z = mask.bit_length()
        report.add(make_row(
            "T3.6", f"forward:z={z}:{label}", formula_thm33(n, g, z), facts[orbit[mask]][0],
            asserted=False, n=n, g=g, N=N, z=z,
        ))
    # q1 and q2 are the chord sets {1} and {1, 2}, masks 1 and 3; with
    # 2 <= g <= n - 1, t = min(n - g + 1, g) >= 2 and the sweep has both.
    report.add(make_row("C3.8", f"q1:n={n},g={g}", high, facts[orbit[1]][0], asserted=True, n=n, g=g))
    report.add(make_row("C3.8", f"q2:n={n},g={g}", high - 1, facts[orbit[3]][0], asserted=True, n=n, g=g))

    # Phase b: converse classification over the whole chord universe.
    eligible = 0
    in_window = 0
    for mask in range(1, 1 << n):
        if facts[orbit[mask]] is None:
            continue
        eligible += 1
        oracle, lengths, z, match = facts[orbit[mask]]
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
            f"processed {(1 << n) - 1} chord subsets; {eligible} primitive with "
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


def _row_group(tables, by_popcount: list[list[int]], first: int, degrees: tuple[int, ...]):
    """(union, identity code, codes) for each choice of the rows first,
    first + 1, ... (one or two of them) with popcounts ``degrees``, the
    choices in lexicographic order.

    ``codes`` is the n!-vector of the rows' relabeled partial codes, the
    elementwise sum of their ``canonical_code_tables`` entries, so a matrix's
    relabeled codes are the elementwise sum of its groups' vectors.  The
    identity's partial code comes first, and ``union`` is the OR of the rows.
    """
    table = tables[first]
    if len(degrees) == 1:
        return [(r, table[r][0], table[r]) for r in by_popcount[degrees[0]]]
    second = tables[first + 1]
    entries = []
    for r0 in by_popcount[degrees[0]]:
        for r1 in by_popcount[degrees[1]]:
            codes = tuple(map(add, table[r0], second[r1]))
            entries.append((r0 | r1, codes[0], codes))
    return entries


def _class_codes(head_codes: tuple[int, ...], last_codes: tuple[int, ...]) -> list[int]:
    """The n! relabeled codes of a matrix, its head's and last group's vectors summed."""
    return list(map(add, head_codes, last_codes))


def _lane_facts(codes: list[int], n: int) -> list[tuple[int | None, tuple[int, ...]]]:
    """(exponent or None, sorted cycle lengths) of each order-n code, in order.

    The codes are row-major and most-significant first, arc i -> j at bit
    n*n-1-(i*n+j), so the text of the codes slices straight into the
    ``boolmat._lane_entries`` layout: arc[i][j] holds arc i -> j of every
    code, code t at bit len(codes)-1-t.  One ``_lane_exponents`` pass gives
    the exponents, None where a code is not primitive, and one
    ``_lane_cycle_sets`` pass the cycles: the lanes with a k-cycle are the
    OR of its on[k] over the vertices.
    """
    if not codes:
        return []
    nn = n * n
    lanes = len(codes)
    width, lane_width = f"0{nn}b", f"0{lanes}b"
    text = "".join([format(code, width) for code in codes])
    entry = [int(text[e::nn], 2) for e in range(nn)]
    arc = [entry[i * n:i * n + n] for i in range(n)]
    # The lanes with a k-cycle, k = 1..n, as text: lane t is character t.
    hits = [format(functools.reduce(or_, sets), lane_width)
            for sets in _lane_cycle_sets(arc, lanes)[1:]]
    # One shared tuple per pattern of present lengths, read per lane.
    patterns = {bits: tuple(k for k, bit in enumerate(bits, 1) if bit == "1")
                for bits in itertools.product("01", repeat=n)}
    return list(zip(_lane_exponents(arc, lanes), map(patterns.__getitem__, zip(*hits))))


def _census_block(args: tuple[int, tuple[tuple[int, ...], ...]]):
    """Census rows of the classes with a sorted out-degree sequence in ``sequences``.

    Relabeling the vertices by out-degree gives every class a member whose
    row popcounts do not decrease, so only those codes are scanned, and
    only those without a zero row or column.  The scan works on groups of
    rows (``_row_group``): a lone row 0 when n is odd, then pairs, so the
    last group is the pair (n-2, n-1).  A group depends only on where its
    rows start and on their degrees, so it is built once per block.  The
    choices from every group but the last are merged into heads of the
    same shape (column union, identity code, n!-vector), so a code
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
    for each degree sequence.  The scan records each class's identity code,
    key and labeled count; after it, ``_lane_facts`` slices the classes
    once and reads every class's exponent and cycle lengths from one
    ``_lane_exponents`` and one ``_lane_cycle_sets`` pass, and the girth is
    the least length.  Returns the rows of the primitive classes and the
    labeled total of every class found, primitive or not.
    """
    n, sequences = args
    full = (1 << n) - 1
    tables = canonical_code_tables(n)
    perms = list(itertools.permutations(range(n)))
    by_popcount = _rows_by_popcount(n)
    relabelings = len(perms)
    slices = [(0, 1)] * (n % 2) + [(first, first + 2) for first in range(n % 2, n, 2)]
    # A group depends only on where its rows start and on their degrees.
    group = functools.cache(lambda first, degrees: _row_group(tables, by_popcount, first, degrees))
    idents = []
    forms = []
    counts = []
    labeled = 0
    for degrees in sequences:
        kept = _degree_preserving(perms, degrees)
        known: set[int] = set()
        *head_groups, last = [group(a, degrees[a:b]) for a, b in slices]
        # One head per choice from every group but the last; at n = 2 the
        # last group is the whole matrix, and the one head is empty.
        heads = head_groups[0] if head_groups else [(0, 0, (0,) * relabelings)]
        for entries in head_groups[1:]:
            heads = [(hu | u, hc + c, tuple(map(add, hv, v)))
                     for hu, hc, hv in heads for u, c, v in entries]
        for union, ident, head_codes in heads:
            need = full ^ union
            for lu, lc, lcodes in last:
                if lu & need != need:
                    continue
                code = ident + lc
                if code in known:
                    continue
                codes = _class_codes(head_codes, lcodes)
                known.update(map(codes.__getitem__, kept))
                count = relabelings // codes.count(code)
                labeled += count
                idents.append(code)
                forms.append(min(codes))
                counts.append(count)
    # The row groups are the scan's largest tables; freed before the lane
    # pass, they do not add to its peak memory.
    group.cache_clear()
    rows_out = [
        CensusRow(
            order=n,
            canonical_bits=format(form, f"0{n * n}b"),
            girth=lengths[0],
            cycle_lengths=lengths,
            exponent=exp,
            labeled_count=count,
        )
        for form, count, (exp, lengths) in zip(forms, counts, _lane_facts(idents, n))
        if exp is not None
    ]
    return rows_out, labeled


def census(n: int, jobs: int = 1) -> list[CensusRow]:
    """Exhaustive isomorphism-class table of primitive digraphs of order n.

    The sorted out-degree sequence is a class invariant, so the work splits
    by it into blocks with disjoint classes.  Each block scans its codes by
    row pairs, canonicalizes each of its classes once, and then finds every
    class's exponent and cycle lengths on lanes (``_lane_facts``): one
    exponent pass and one cycle-set pass over the block's classes.  One
    worker runs one block, so its row groups, permutations and popcount
    buckets are built once per call and each lane pass runs once; more
    workers run 4 blocks each, to even out their loads.
    The labeled class sizes must add up to the number of matrices with no
    zero row and no zero column, sum_k (-1)^k C(n,k) (2^(n-k) - 1)^n; a
    census that misses a class, counts one twice or miscounts one raises
    RuntimeError.  Order 5 (155 452 classes) takes 4.3-5.1 s on one
    worker and 3.2-4.4 s on two through the CLI (2-core VM, Python 3.11).
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
