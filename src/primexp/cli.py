"""Command-line front door.

Computational verbs print a single machine-parsable line (value only)
unless --verbose.  Exit codes: 0 success / all asserted rows agree,
1 assertion failure, 2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import families
from .boolmat import BoolMatrix, MatrixParseError, parse_matrix, serialize_matrix
from .digraph import Digraph, from_matrix, girth, simple_cycles
from .exponent import (
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
)
from .iso import find_isomorphism, perm_cycle_notation
from .report import Report, census_to_csv, census_to_jsonl
from .semigroup import frobenius, gcd_set
from .verify import (
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


class InputError(Exception):
    """Unusable input file or a computation undefined for the given input."""


def _load_digraph(path: str) -> Digraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return from_matrix(parse_matrix(text))
    except MatrixParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(value) -> None:
    print(value)


# -- verb handlers -----------------------------------------------------------

def _cmd_exp(args) -> int:
    d = _load_digraph(args.file)
    try:
        result = exponent(d)
    except NotPrimitiveError as exc:
        raise InputError(str(exc)) from exc
    _emit(result.value)
    if args.verbose:
        pair = result.certificate_pair
        if pair is not None:
            _emit(f"no-walk pair=({pair[0]},{pair[1]}) length={result.certificate_length}")
    return EXIT_OK


def _cmd_girth(args) -> int:
    d = _load_digraph(args.file)
    value = girth(d)
    _emit("acyclic" if value is None else value)
    return EXIT_OK


def _cmd_cycles(args) -> int:
    d = _load_digraph(args.file)
    cycles, profile = simple_cycles(d, cap=args.cap)
    _emit(",".join(str(x) for x in profile.lengths) if profile.lengths else "none")
    if args.verbose:
        _emit(f"count={len(cycles)} cap_hit={str(profile.cap_hit).lower()}")
        for v in range(1, d.order + 1):
            through = sorted(profile.vertex_lengths(v))
            _emit(f"v{v}: {','.join(str(x) for x in through) if through else '-'}")
    return EXIT_OK


def _cmd_frobenius(args) -> int:
    try:
        if gcd_set(args.values) != 1:
            raise InputError(f"gcd of {sorted(set(args.values))} is not 1; conductor undefined")
        _emit(frobenius(args.values))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return EXIT_OK


def _cmd_cwalk(args) -> int:
    d = _load_digraph(args.file)
    try:
        result = c_walk_distances(d)
    except (NotPrimitiveError, TruncatedProfileError, TooManyCycleLengthsError) as exc:
        raise InputError(str(exc)) from exc
    _emit(result.max)
    if args.verbose:
        _emit(f"arg_max=({result.arg_max[0]},{result.arg_max[1]})")
        for row in result.per_pair:
            _emit(" ".join(str(x) for x in row))
    return EXIT_OK


def _cmd_bound(args) -> int:
    try:
        if args.which == "lemma22":
            if args.file is None:
                raise InputError("bound lemma22 requires -f MATRIX")
            d = _load_digraph(args.file)
            _emit(lemma22_bound(d))
        elif args.which == "lemma23":
            _require(args, "n", "g")
            _emit(lemma23_bound(args.n, args.g))
        elif args.which == "lemma25":
            _require(args, "n")
            _emit(lemma25_bound(args.n))
        elif args.which == "lemma26":
            _require(args, "n", "g", "q")
            _emit(lemma26_bound(args.n, args.g, args.q))
        elif args.which == "lemma32":
            _require(args, "n", "g")
            _emit(lemma32_bound(args.n, args.g))
        elif args.which == "lemma34":
            _require(args, "n", "g")
            _emit(lemma34_bound(args.n, args.g))
        elif args.which == "formula-thm33":
            _require(args, "n", "g", "r")
            _emit(formula_thm33(args.n, args.g, args.r))
        elif args.which == "range-thm36":
            _require(args, "n", "g")
            low, high = thm36_range(args.n, args.g)
            _emit(f"{low},{high}")
    except (ValueError, NotPrimitiveError, TruncatedProfileError, TooManyCycleLengthsError) as exc:
        raise InputError(str(exc)) from exc
    return EXIT_OK


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise InputError(f"missing required option --{name}")


def _parse_position_list(text: str) -> set[int]:
    try:
        return {int(part) for part in text.split(",") if part != ""}
    except ValueError as exc:
        raise InputError(f"bad position list {text!r}") from exc


def _cmd_family(args) -> int:
    try:
        if args.kind == "cycle":
            _require(args, "n")
            d = families.standard_cycle(args.n)
        elif args.kind == "d1":
            _require(args, "n")
            d = families.d1(args.n)
        elif args.kind == "d2":
            _require(args, "n")
            d = families.d2(args.n)
        elif args.kind == "d_gN":
            _require(args, "n", "g")
            if args.N is None:
                raise InputError("family d_gN requires --N")
            d = families.d_gN(args.n, args.g, _parse_position_list(args.N))
        elif args.kind == "q1":
            _require(args, "n", "g")
            d = families.q1(args.n, args.g)
        elif args.kind == "q2":
            _require(args, "n", "g")
            d = families.q2(args.n, args.g)
        elif args.kind == "h":
            _require(args, "n", "g", "k")
            d = families.h_graph(args.n, args.g, args.k)
        else:  # chord
            _require(args, "n", "g", "mask")
            d = families.chord_member(args.n, args.g, args.mask)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    text = serialize_matrix(BoolMatrix(d.order, d.successor_rows()))
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_iso(args) -> int:
    a = _load_digraph(args.a)
    b = _load_digraph(args.b)
    try:
        witness = find_isomorphism(a, b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit("true" if witness is not None else "false")
    if args.verbose and witness is not None:
        _emit(perm_cycle_notation(witness))
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


def _cmd_verify(args) -> int:
    try:
        if args.what == "bounds":
            if args.seed is None:
                raise InputError("verify bounds is randomized; --seed is required")
            pairs = tuple(
                tuple(int(x) for x in pair.split(":"))
                for pair in args.chord_pairs.split(",")
            ) if args.chord_pairs else ()
            report = verify_bounds(
                n_max=args.n_max, samples=args.samples, seed=args.seed,
                chord_pairs=pairs,
            )
        elif args.what == "lemma24":
            report = verify_lemma24(n=args.n, jobs=args.jobs)
        elif args.what == "thm33":
            report = verify_thm33(n_min=args.n_min, n_max=args.n_max)
        elif args.what == "lemma34":
            report = verify_lemma34(n_max=args.n_max)
        elif args.what == "thm36":
            _require(args, "n", "g")
            report = verify_thm36(args.n, args.g)
        else:  # census
            rows = census(
                args.n, long_mode=args.long, jobs=args.jobs,
                start=args.start, end=args.end,
            )
            if args.out is None:
                sys.stdout.write(census_to_jsonl(rows))
            else:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(census_to_jsonl(rows))
                with open(_csv_path(args.out), "w", encoding="utf-8", newline="") as fh:
                    fh.write(census_to_csv(rows))
            return EXIT_OK
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _write_report(report, args.out)


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
    p.add_argument("--cap", type=int, default=10**6)
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
    p.add_argument("which", choices=[
        "lemma22", "lemma23", "lemma25", "lemma26",
        "lemma32", "lemma34", "formula-thm33", "range-thm36",
    ])
    p.add_argument("-f", "--file")
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--r", type=int)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("family", help="serialize a constructed family member")
    p.add_argument("kind", choices=["cycle", "d1", "d2", "d_gN", "q1", "q2", "h", "chord"])
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--N")
    p.add_argument("--k", type=int)
    p.add_argument("--mask", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("iso", help="isomorphism test between two matrix files")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("verify", help="claim-check harness runs")
    vsub = p.add_subparsers(dest="what", required=True)

    v = vsub.add_parser("bounds", help="bound suite: chord families + random sweep")
    v.add_argument("--n-max", dest="n_max", type=int, default=8)
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--chord-pairs", dest="chord_pairs", default="10:3,10:7,10:9,11:3")
    v.add_argument("--out")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(handler=_cmd_verify)

    v = vsub.add_parser("lemma24", help="exhaustive extremal-class census check")
    v.add_argument("--n", type=int, default=4, choices=[4, 5])
    v.add_argument("--out")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(handler=_cmd_verify)

    v = vsub.add_parser("thm33", help="chord-set exact-formula report")
    v.add_argument("--n-min", dest="n_min", type=int, default=5)
    v.add_argument("--n-max", dest="n_max", type=int, default=12)
    v.add_argument("--out")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(handler=_cmd_verify)

    v = vsub.add_parser("lemma34", help="two-disjoint-cycle bound sweep")
    v.add_argument("--n-max", dest="n_max", type=int, default=12)
    v.add_argument("--out")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(handler=_cmd_verify)

    v = vsub.add_parser("thm36", help="window characterization over the chord universe")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--g", type=int, required=True)
    v.add_argument("--out")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(handler=_cmd_verify)

    v = vsub.add_parser("census", help="isomorphism-class table of primitive digraphs")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--long", action="store_true")
    v.add_argument("--start", type=int, default=0)
    v.add_argument("--end", type=int, default=None)
    v.add_argument("--out")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use; parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
