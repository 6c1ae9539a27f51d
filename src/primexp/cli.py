"""Command-line front door.

Computational verbs print a single machine-parsable line (value only)
unless --verbose.  Exit codes: 0 success / all asserted rows agree,
1 assertion failure, 2 usage error, 3 input error (also a file that
cannot be read or written).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import families
from .boolmat import MatrixParseError, parse_matrix, serialize_rows
from .digraph import DEFAULT_CYCLE_CAP, Digraph, count_cycles, from_matrix, girth
from .exponent import (
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
)
from .iso import find_isomorphism, perm_cycle_notation
from .report import Report, census_to_csv, census_to_jsonl
from .semigroup import frobenius
from .verify import (
    DEFAULT_CHORD_PAIRS,
    census,
    verify_bounds,
    verify_lemma24,
    verify_lemma34,
    verify_thm33,
    verify_thm36,
)

EXIT_OK = 0
EXIT_ASSERT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

# bound name -> (evaluator, its options in call order); lemma22 reads -f instead
BOUNDS = {
    "lemma23": (lemma23_bound, ("n", "g")),
    "lemma25": (lemma25_bound, ("n",)),
    "lemma26": (lemma26_bound, ("n", "g", "q")),
    "lemma32": (lemma32_bound, ("n", "g")),
    "lemma34": (lemma34_bound, ("n", "g")),
    "formula-thm33": (formula_thm33, ("n", "g", "r")),
    "range-thm36": (thm36_range, ("n", "g")),
}

# FamilySpec field -> the family option that sets it
_FAMILY_OPTIONS = {"n": "--n", "g": "--g", "N": "--N", "k": "--k", "chord_mask": "--mask"}


def _load_digraph(path: str) -> Digraph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return from_matrix(parse_matrix(text))
    except MatrixParseError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _required(args, names) -> list:
    """Values of the named options, in order; a missing one is an input error."""
    values = [getattr(args, name) for name in names]
    for name, value in zip(names, values):
        if value is None:
            raise ValueError(f"missing required option {_FAMILY_OPTIONS.get(name, '--' + name)}")
    return values


def _parse_position_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({int(part) for part in text.split(",") if part != ""}))
    except ValueError as exc:
        raise ValueError(f"bad position list {text!r}") from exc


def _parse_chord_pairs(text: str) -> tuple[tuple[int, int], ...]:
    """"n:g,n:g,..." as (n, g) pairs; the empty string means no pairs."""
    if not text:
        return ()
    try:
        return tuple((int(n), int(g)) for n, g in (part.split(":") for part in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad chord pair list {text!r}") from exc


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# -- verb handlers -----------------------------------------------------------

def _cmd_exp(args) -> int:
    result = exponent(_load_digraph(args.file))
    print(result.value)
    if args.verbose:
        u, v = result.certificate_pair
        print(f"no-walk pair=({u},{v}) length={result.certificate_length}")
    return EXIT_OK


def _cmd_girth(args) -> int:
    d = _load_digraph(args.file)
    value = girth(d)
    print("acyclic" if value is None else value)
    return EXIT_OK


def _cmd_cycles(args) -> int:
    d = _load_digraph(args.file)
    count, profile = count_cycles(d, cap=args.cap)
    print(",".join(str(x) for x in profile.lengths) if profile.lengths else "none")
    if args.verbose:
        print(f"count={count} cap_hit={str(profile.cap_hit).lower()}")
        for v in range(1, d.order + 1):
            through = sorted(profile.vertex_lengths(v))
            print(f"v{v}: {','.join(str(x) for x in through) if through else '-'}")
    return EXIT_OK


def _cmd_frobenius(args) -> int:
    print(frobenius(args.values))
    return EXIT_OK


def _cmd_cwalk(args) -> int:
    result = c_walk_distances(_load_digraph(args.file))
    print(result.max)
    if args.verbose:
        print(f"arg_max=({result.arg_max[0]},{result.arg_max[1]})")
        for row in result.per_pair:
            print(" ".join(str(x) for x in row))
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.which == "lemma22":
        if args.file is None:
            raise ValueError("bound lemma22 requires -f MATRIX")
        print(lemma22_bound(_load_digraph(args.file)))
        return EXIT_OK
    evaluator, names = BOUNDS[args.which]
    value = evaluator(*_required(args, names))
    print(",".join(map(str, value)) if isinstance(value, tuple) else value)
    return EXIT_OK


def _cmd_family(args) -> int:
    fields = families.KINDS[args.kind][1]
    values = dict(zip(fields, _required(args, fields)))
    if "N" in values:
        values["N"] = _parse_position_list(values["N"])
    d = families.FamilySpec(args.kind, **values).build()
    text = serialize_rows(d.rows, d.order)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_iso(args) -> int:
    a = _load_digraph(args.a)
    b = _load_digraph(args.b)
    witness = find_isomorphism(a, b)
    print("true" if witness is not None else "false")
    if args.verbose and witness is not None:
        print(perm_cycle_notation(witness))
    return EXIT_OK


def _csv_path(out: str) -> str:
    """Summary CSV path beside a report: r.jsonl -> r.csv; any other path gets .csv appended."""
    return out.removesuffix(".jsonl") + ".csv"


def _write_report(report: Report, out: str | None) -> int:
    if out is None:
        sys.stdout.write(report.to_jsonl())
    else:
        report.write(out, _csv_path(out))
    if not report.all_asserts_pass:
        for row in report.failures():
            print(f"assert failed: {row.claim} {row.instance}: "
                  f"predicted {row.predicted}, oracle {row.oracle}", file=sys.stderr)
        return EXIT_ASSERT_FAILURE
    return EXIT_OK


def _cmd_report(args) -> int:
    return _write_report(args.run(args), args.out)


def _cmd_census(args) -> int:
    rows = census(args.n, jobs=args.jobs)
    if args.out is None:
        sys.stdout.write(census_to_jsonl(rows))
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(census_to_jsonl(rows))
        with open(_csv_path(args.out), "w", encoding="utf-8", newline="") as fh:
            fh.write(census_to_csv(rows))
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primexp",
        description="Exponents, girth and cycle structure of primitive Boolean matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="exponent of the digraph in a matrix file")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_exp)

    p = sub.add_parser("girth", help="shortest directed cycle length")
    p.add_argument("-f", "--file", required=True)
    p.set_defaults(handler=_cmd_girth)

    p = sub.add_parser("cycles", help="simple cycle length set")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_cycles)

    p = sub.add_parser("frobenius", help="conductor of a gcd-1 generator set")
    p.add_argument("values", type=int, nargs="+")
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("cwalk", help="max cycle-meeting walk distance")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_cwalk)

    p = sub.add_parser("bound", help="closed-form bound and window evaluators")
    p.add_argument("which", choices=["lemma22", *BOUNDS])
    p.add_argument("-f", "--file")
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--r", type=int)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("family", help="serialize a constructed family member")
    p.add_argument("kind", choices=list(families.KINDS))
    for field, flag in _FAMILY_OPTIONS.items():
        p.add_argument(flag, dest=field, type=None if field == "N" else int)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("iso", help="isomorphism test between two matrix files")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("verify", help="claim-check harness runs")
    vsub = p.add_subparsers(dest="what", required=True)

    def verb(name, help, run=None, handler=_cmd_report):
        v = vsub.add_parser(name, help=help)
        v.add_argument("--out")
        v.set_defaults(handler=handler, run=run)
        return v

    v = verb("bounds", "bound suite: chord families + random sweep", lambda a: verify_bounds(
        n_max=a.n_max, samples=a.samples, seed=a.seed,
        chord_pairs=_parse_chord_pairs(a.chord_pairs), jobs=a.jobs))
    v.add_argument("--n-max", dest="n_max", type=int, default=8)
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--chord-pairs", dest="chord_pairs",
                   default=",".join(f"{n}:{g}" for n, g in DEFAULT_CHORD_PAIRS))
    v.add_argument("--jobs", type=_jobs, default=1)

    v = verb("lemma24", "exhaustive extremal-class check", lambda a: verify_lemma24(n=a.n))
    v.add_argument("--n", type=int, default=4)
    v.add_argument("--jobs", type=_jobs, default=1,
                   help="accepted for compatibility; has no effect, the check runs in one process")

    v = verb("thm33", "chord-set exact-formula report",
             lambda a: verify_thm33(n_min=a.n_min, n_max=a.n_max))
    v.add_argument("--n-min", dest="n_min", type=int, default=5)
    v.add_argument("--n-max", dest="n_max", type=int, default=12)

    v = verb("lemma34", "two-disjoint-cycle bound sweep", lambda a: verify_lemma34(n_max=a.n_max))
    v.add_argument("--n-max", dest="n_max", type=int, default=12)

    v = verb("thm36", "window characterization over the chord universe",
             lambda a: verify_thm36(a.n, a.g))
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--g", type=int, required=True)

    v = verb("census", "isomorphism-class table of primitive digraphs", handler=_cmd_census)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--jobs", type=_jobs, default=1)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use; parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # Every library error is a ValueError: an input the computation is undefined
        # for.  An OSError is a file that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
