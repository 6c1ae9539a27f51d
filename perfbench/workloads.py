"""The three benchmark workloads: their CLI calls, inputs and output checks.

Each workload is a fixed list of CLI calls that makes up one pass.  The
benchmark repeats passes in a closed loop; every pass at a given seed must
produce byte-identical stdout and report files.  ``check`` runs after the
timed section on the first pass's outputs and returns, per call, how many
instances the call covers and how many of them failed an oracle.
``query_is_call`` says whether one latency sample is a CLI call or a pass.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import oracles

# Digests of the seed-free census4 outputs at the commit that introduced the
# benchmark.  A change that alters these bytes fails the benchmark.
CENSUS4_REFERENCE = {
    "census.jsonl": "2beb86970af1df7fefc985939bbe42837f6c3f88afe06b12903ca21ef1898cb0",
    "census.csv": "a87ac5a51ddf3b1efe739ac63ee4289d17b3639598dfa931b508035b4beb20fa",
    "lemma24.jsonl": "d6b2ba0fcda8fa3d033433dda5017ec136577abd9ac3e787832bfb868b1d19b4",
    "lemma24.csv": "13f23bfd8d357f7a28e23e356a2b8d6591191f6d37ba7e519670a529e1f05dc2",
}


@dataclass
class Call:
    argv: list[str]
    outputs: tuple[str, ...] = ()


@dataclass
class CallResult:
    """What one CLI call returned; file bytes are kept for the first pass only."""

    rc: int
    stdout: str
    stderr: str
    digest: str
    files: dict[str, bytes] = field(default_factory=dict)


def _digraph_rows(d) -> tuple[int, ...]:
    rows = [0] * d.order
    for i, j in d.arcs:
        rows[i - 1] |= 1 << (j - 1)
    return tuple(rows)


# -- bounds ------------------------------------------------------------------

BOUNDS_N_MAX = 8
BOUNDS_SAMPLES = 2000
BOUNDS_CHORD_PAIRS = ((10, 3), (10, 7), (10, 9), (11, 3))


class Bounds:
    """The acceptance bound suite: chord universes plus a seeded random sweep."""

    instance_noun = "digraphs"
    query_is_call = False  # one query is the whole verify run

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = os.path.join(workdir, "bounds.jsonl")
        self.calls = [Call(
            ["verify", "bounds", "--n-max", str(BOUNDS_N_MAX), "--samples", str(BOUNDS_SAMPLES),
             "--seed", str(seed), "--jobs", "1", "--out", self.out],
            (self.out, self.out[: -len(".jsonl")] + ".csv"),
        )]

    def _expected(self) -> dict[str, tuple[int, ...]]:
        from primexp.verify import random_instances

        expected: dict[str, tuple[int, ...]] = {}
        for n, g in BOUNDS_CHORD_PAIRS:
            for mask in range(1, 1 << n):
                rows = oracles.chord_rows(n, g, oracles.mask_positions(mask))
                if oracles.is_primitive(rows):
                    expected[f"chord:n={n},g={g},mask={mask}"] = rows
        for idx, _, _, d in random_instances(self.seed, BOUNDS_SAMPLES, BOUNDS_N_MAX):
            rows = _digraph_rows(d)
            digest = oracles.sha256(oracles.serialize(rows).encode())[:12]
            expected[f"rand:{idx:06d}:{digest}"] = rows
        return expected

    def check(self, results: list[CallResult]) -> tuple[list[int], list[int]]:
        expected = self._expected()
        total = len(expected)
        result = results[0]
        if result.rc != 0:
            return [total], [total]
        bound23: dict[str, dict] = {}
        bad: set[str] = set()
        for line in result.files[self.out].decode().splitlines():
            row = json.loads(line)
            if row["asserted"] and not row["agree"]:
                bad.add(row["instance"])
            if row["claim"] == "L2.3":
                bound23[row["instance"]] = row
        for instance, rows in expected.items():
            row = bound23.get(instance)
            if row is None or not oracles.exponent_holds(rows, row["oracle"]):
                bad.add(instance)
                continue
            n, g = len(rows), oracles.girth(rows)
            if row["predicted"] != n + g * (n - 2):
                bad.add(instance)
        bad |= set(bound23) - set(expected)
        return [total], [min(len(bad), total)]


# -- census4 -----------------------------------------------------------------

CENSUS_ORDER = 4


class Census4:
    """Exhaustive order-4 census and the L2.4 extremal-class check; seed-free."""

    instance_noun = "codes"
    query_is_call = False  # one query is the pair of verify runs

    def __init__(self, seed: int, workdir: str):
        del seed  # the scans are exhaustive; nothing depends on the seed
        n = str(CENSUS_ORDER)
        self.paths = {name: os.path.join(workdir, name) for name in CENSUS4_REFERENCE}
        self.calls = [
            Call(["verify", "census", "--n", n, "--jobs", "1", "--out", self.paths["census.jsonl"]],
                 (self.paths["census.jsonl"], self.paths["census.csv"])),
            Call(["verify", "lemma24", "--n", n, "--jobs", "1", "--out", self.paths["lemma24.jsonl"]],
                 (self.paths["lemma24.jsonl"], self.paths["lemma24.csv"])),
        ]

    def _reference_ok(self, result: CallResult, names) -> bool:
        return all(
            oracles.sha256(result.files[self.paths[name]]) == CENSUS4_REFERENCE[name]
            for name in names
        )

    def _census_ok(self, result: CallResult) -> bool:
        n = CENSUS_ORDER
        primitive = 0
        for code in range(1 << (n * n)):
            rows = tuple((code >> (i * n)) & ((1 << n) - 1) for i in range(n))
            primitive += oracles.is_primitive(rows)
        labeled = 0
        for line in result.files[self.paths["census.jsonl"]].decode().splitlines():
            row = json.loads(line)
            labeled += row["count"]
            if not oracles.exponent_holds(oracles.decode_bits(row["canonical"], n), row["exp"]):
                return False
        return labeled == primitive

    def _lemma24_ok(self, result: CallResult) -> bool:
        lines = result.files[self.paths["lemma24.jsonl"]].decode().splitlines()
        return bool(lines) and all(json.loads(line)["agree"] for line in lines)

    def check(self, results: list[CallResult]) -> tuple[list[int], list[int]]:
        codes = 1 << (CENSUS_ORDER * CENSUS_ORDER)
        census, lemma24 = results
        census_ok = (census.rc == 0 and self._census_ok(census)
                     and self._reference_ok(census, ("census.jsonl", "census.csv")))
        lemma24_ok = (lemma24.rc == 0 and self._lemma24_ok(lemma24)
                      and self._reference_ok(lemma24, ("lemma24.jsonl", "lemma24.csv")))
        return [codes, codes], [0 if census_ok else codes, 0 if lemma24_ok else codes]


# -- queries -----------------------------------------------------------------

# (family, orders): every member gets exp --verbose, girth and cwalk.  The
# seed picks girths, chord sets and a vertex relabeling of every matrix; the
# orders are fixed.  The twelve d1/d2 exponent scans cost the same at every
# seed and are the slowest twelve calls, so the p90 of the 102 calls falls
# among them; the seeded families stay at orders where every call is faster.
QUERY_PLAN = (
    ("d1", (24, 28, 32, 36, 40, 64)),
    ("d2", (24, 28, 32, 36, 40, 48)),
    ("q1", (16, 18, 20)),
    ("q2", (16, 18, 20)),
    ("d_gN", (16, 18, 20, 22)),
    ("h", (16, 20, 24, 28)),
    ("chord", (16, 18, 20, 22)),
)
ISO_PAIRS = 12
ISO_ORDERS = (10, 14)


@dataclass
class QueryMatrix:
    """One generated input and what its construction tells us about it."""

    path: str
    rows: tuple[int, ...]
    built_ok: bool
    exp: int | None = None
    exp_max: int | None = None
    lengths: tuple[int, int] | None = None


def _coprime_near(rng: random.Random, n: int, center: int, lo: int, hi: int) -> int:
    """A girth coprime to n, drawn from the few values nearest center within [lo, hi].

    The exponent scan's cost grows with the girth, so a narrow window keeps
    the cost of a pass nearly independent of the seed.
    """
    choices = [g for g in range(max(lo, center - 2), min(hi, center + 2) + 1)
               if math.gcd(n, g) == 1]
    return rng.choice(choices)


def _h_rows(n: int, g: int, k: int) -> tuple[int, ...]:
    rows = [0] * n
    for j in range(1, n):
        rows[j - 1] |= 1 << j
    rows[n - 1] |= 1
    rows[g - 1] |= 1
    rows[k + g - 2] |= 1 << (k - 1)
    return tuple(rows)


class Queries:
    """A seeded stream of single-matrix CLI queries plus isomorphism pairs."""

    instance_noun = "queries"
    query_is_call = True

    def __init__(self, seed: int, workdir: str):
        from primexp.families import FamilySpec

        rng = random.Random(seed)
        matrices: list[QueryMatrix] = []
        self.expect: list[tuple] = []

        def add(spec: FamilySpec, reference: tuple[int, ...], **known) -> QueryMatrix:
            built = _digraph_rows(spec.build())
            perm = list(range(spec.n))
            rng.shuffle(perm)
            rows = oracles.relabel(built, perm)
            path = os.path.join(workdir, f"m{len(matrices):03d}.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(oracles.serialize(rows))
            matrix = QueryMatrix(path, rows, built == reference, **known)
            matrices.append(matrix)
            return matrix

        queries: list[tuple] = []
        for family, orders in QUERY_PLAN:
            for n in orders:
                if family in ("d1", "d2"):
                    positions = [1] if family == "d1" else [1, 2]
                    exp = (n - 1) ** 2 + 1 if family == "d1" else (n - 1) ** 2
                    m = add(FamilySpec(kind=family, n=n), oracles.chord_rows(n, n - 1, positions),
                            exp=exp, lengths=(n - 1, n))
                elif family in ("q1", "q2"):
                    g = _coprime_near(rng, n, n // 2, 2, n - 1)
                    positions = [1] if family == "q1" else [1, 2]
                    exp = n + g * (n - 2) if family == "q1" else n + g * (n - 2) - 1
                    m = add(FamilySpec(kind=family, n=n, g=g), oracles.chord_rows(n, g, positions),
                            exp=exp, lengths=(g, n))
                elif family == "d_gN":
                    g = _coprime_near(rng, n, n // 2, 2, n - 1)
                    t = min(n - g + 1, g)
                    N = tuple(sorted(rng.sample(range(1, t + 1), rng.randint(1, 3))))
                    m = add(FamilySpec(kind="d_gN", n=n, g=g, N=N), oracles.chord_rows(n, g, N),
                            lengths=(g, n) if len(N) == 1 else None)
                elif family == "h":
                    g = _coprime_near(rng, n, n // 4, 2, n // 2)
                    k = rng.randint(g + 1, n - g + 1)
                    m = add(FamilySpec(kind="h", n=n, g=g, k=k), _h_rows(n, g, k),
                            exp_max=(n - 1) * g + n - 2 * g, lengths=(g, n))
                else:
                    while True:
                        g = rng.randint(n // 2 - 2, n // 2 + 2)
                        positions = rng.sample(range(1, n + 1), rng.randint(1, 3))
                        reference = oracles.chord_rows(n, g, positions)
                        if oracles.is_primitive(reference):
                            break
                    mask = sum(1 << (i - 1) for i in positions)
                    m = add(FamilySpec(kind="chord", n=n, g=g, chord_mask=mask), reference)
                for verb in ("exp", "girth", "cwalk"):
                    queries.append((verb, m))

        for pair in range(ISO_PAIRS):
            n = rng.randint(*ISO_ORDERS)
            g = _coprime_near(rng, n, n // 2, 2, n - 2)
            t = min(n - g + 1, g)
            N = sorted(rng.sample(range(1, t + 1), rng.randint(1, min(3, t))))
            a = add(FamilySpec(kind="d_gN", n=n, g=g, N=tuple(N)), oracles.chord_rows(n, g, N))
            if pair % 2 == 0:
                # A cyclic rotation maps a chord set onto its translate: isomorphic.
                s = rng.randint(1, n - 1)
                rotated = [(i - 1 + s) % n + 1 for i in N]
                mask = sum(1 << (i - 1) for i in rotated)
                b = add(FamilySpec(kind="chord", n=n, g=g, chord_mask=mask),
                        oracles.chord_rows(n, g, rotated))
                answer = "true"
            else:
                # Same arc count, different girth: not isomorphic.
                g2 = rng.choice([h for h in range(2, n - 1) if h != g and math.gcd(n, h) == 1
                                 and min(n - h + 1, h) >= len(N)])
                N2 = sorted(rng.sample(range(1, min(n - g2 + 1, g2) + 1), len(N)))
                b = add(FamilySpec(kind="d_gN", n=n, g=g2, N=tuple(N2)),
                        oracles.chord_rows(n, g2, N2))
                answer = "false"
            queries.append(("iso", a, b, answer))

        rng.shuffle(queries)
        self.calls = []
        for query in queries:
            verb, m = query[0], query[1]
            if verb == "exp":
                argv = ["exp", "-f", m.path, "--verbose"]
            elif verb == "iso":
                argv = ["iso", "-a", m.path, "-b", query[2].path]
            else:
                argv = [verb, "-f", m.path]
            self.calls.append(Call(argv))
            self.expect.append(query)

    def _query_ok(self, query: tuple, lines: list[str], verified: dict[str, int]) -> bool:
        verb, m = query[0], query[1]
        if verb == "iso":
            return m.built_ok and query[2].built_ok and lines == [query[3]]
        if not m.built_ok:
            return False
        rows = m.rows
        if verb == "girth":
            return lines == [str(oracles.girth(rows))]
        if verb == "cwalk":
            if len(lines) != 1:
                return False
            value = int(lines[0])
            if not oracles.diameter(rows) <= value <= 2 * len(rows) - 2:
                return False
            if m.lengths is None:
                return True
            # Lemma 2.2: exp <= cwalk + conductor of the cycle length set.
            e = verified.get(m.path)
            return e is not None and e <= value + oracles.conductor(*m.lengths)
        if len(lines) != 2:
            return False
        e = int(lines[0])
        if m.exp is not None and e != m.exp:
            return False
        if m.exp_max is not None and e > m.exp_max:
            return False
        if not oracles.exponent_holds(rows, e):
            return False
        u, v = (int(x) for x in lines[1].split("pair=(")[1].split(")")[0].split(","))
        before = oracles.bool_power(rows, e - 1)
        if not (lines[1].endswith(f" length={e - 1}") and oracles.entry(before, u, v) == 0):
            return False
        verified[m.path] = e
        return True

    def check(self, results: list[CallResult]) -> tuple[list[int], list[int]]:
        failed = [1] * len(results)
        verified: dict[str, int] = {}
        # exp answers first: the cwalk check reuses the exponents they verified.
        order = sorted(range(len(results)), key=lambda i: self.expect[i][0] != "exp")
        for i in order:
            try:
                ok = results[i].rc == 0 and self._query_ok(
                    self.expect[i], results[i].stdout.splitlines(), verified)
            except (ValueError, IndexError):
                ok = False
            failed[i] = 0 if ok else 1
        return [1] * len(results), failed


WORKLOADS = {"bounds": Bounds, "census4": Census4, "queries": Queries}
