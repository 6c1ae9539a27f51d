"""Outside-in tracing: spans and counts around the package's public functions.

The package imports its functions by name, so a wrapper must replace every
``primexp.*`` binding of a function, not only the defining module's.  The
modules are reached through ``sys.modules`` because ``primexp.digraph`` is
shadowed by the ``digraph()`` function that ``primexp/__init__`` exports.

Each call records a span (label, start, end, parent index) in memory.  A
label's self time is the total span time minus the time its direct child
spans cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from collections import Counter


def _row_ors(counts, label, func, args, kwargs, result):
    counts[label + ".row_ors"] += sum(row.bit_count() for row in args[0])


def _value_sum(counts, label, func, args, kwargs, result):
    value = result.value if hasattr(result, "value") else result
    counts[label + ".value_sum"] += value or 0


def _cycles(counts, label, func, args, kwargs, result):
    cycles, profile = result
    counts[label + ".cycles_stored"] += len(cycles)
    counts[label + ".cap_hits"] += profile.cap_hit


def _useful(counts, label, func, args, kwargs, result):
    counts[label + ".useful"] += bool(result)


def _bytes(counts, label, func, args, kwargs, result):
    counts["report.bytes"] += len(result.encode())


def _bound_instance(counts, label, func, args, kwargs, result):
    counts["verify.instances"] += 1


def _scanned_codes(counts, label, func, args, kwargs, result):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    params = bound.arguments
    end = params.get("end")
    total = 1 << (params["n"] * params["n"]) if end is None else end
    counts["verify.instances"] += total - params.get("start", 0)


# (module, attribute or Class.method, label, counting hook)
TARGETS = (
    ("primexp.boolmat", "mul_rows", "boolmat.mul_rows", _row_ors),
    ("primexp.boolmat", "pow_rows", "boolmat.pow_rows", None),
    ("primexp.boolmat", "parse_matrix", "boolmat.parse_matrix", None),
    ("primexp.exponent", "exponent", "exponent.exponent", _value_sum),
    ("primexp.exponent", "exponent_of_rows", "exponent.exponent_of_rows", _value_sum),
    ("primexp.exponent", "c_walk_distances", "exponent.c_walk_distances", None),
    ("primexp.digraph", "simple_cycles", "digraph.simple_cycles", _cycles),
    ("primexp.digraph", "rows_primitive", "digraph.rows_primitive", _useful),
    ("primexp.digraph", "rows_girth", "digraph.rows_girth", None),
    ("primexp.digraph", "from_matrix", "digraph.from_matrix", None),
    ("primexp.iso", "canonical_form", "iso.canonical_form", None),
    ("primexp.iso", "find_isomorphism", "iso.find_isomorphism", None),
    ("primexp.iso", "automorphism_count", "iso.automorphism_count", None),
    ("primexp.semigroup", "frobenius", "semigroup.frobenius", None),
    ("primexp.families", "FamilySpec.build", "families.build", None),
    ("primexp.verify", "verify_bounds", "verify", None),
    ("primexp.verify", "bound_rows_for", "verify", _bound_instance),
    ("primexp.verify", "verify_lemma24", "verify", _scanned_codes),
    ("primexp.verify", "census", "verify", _scanned_codes),
    ("primexp.report", "make_row", "report", None),
    ("primexp.report", "Report.write", "report", None),
    ("primexp.report", "Report.to_jsonl", "report", _bytes),
    ("primexp.report", "Report.to_summary_csv", "report", _bytes),
    ("primexp.report", "census_to_jsonl", "report", _bytes),
    ("primexp.report", "census_to_csv", "report", _bytes),
    ("primexp.cli", "main", "cli.main", None),
)


class Tracer:
    """Installs wrappers over TARGETS and keeps their spans and counts."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, func, label: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)
            if hook is not None:
                hook(counts, label, func, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "primexp" or name.startswith("primexp.")]
        for module_name, attr, label, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                func = cls.__dict__[method]
                self._restore.append((cls, method, func))
                setattr(cls, method, self._wrap(func, label, hook))
                continue
            func = getattr(module, attr)
            wrapper = self._wrap(func, label, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is func:
                        self._restore.append((m, name, func))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, func in reversed(self._restore):
            setattr(owner, name, func)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """label -> (calls, self seconds)."""
        child = [0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (layer, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(layer, [0, 0])
            entry[0] += 1
            entry[1] += end - start - covered
        return {layer: (calls, ns / 1e9) for layer, (calls, ns) in out.items()}

    def write_spans(self, path: str) -> None:
        """Spans as gzip CSV: index, parent index, label, start ns, end ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,parent,label,start_ns,end_ns\n")
            for index, (layer, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{parent},{layer},{start},{end}\n")
