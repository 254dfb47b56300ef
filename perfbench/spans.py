"""In-process span tracer over the package's public functions.

`Tracer.install` replaces every public module-level function of each layer
module with a timing wrapper, in every `antiprelie` namespace that binds it
(`from .linalg import kernel_basis` makes a second binding that must be
patched too), and counts `Fp` constructions.  Spans stay in memory as
(name, start, end, parent span, job id) and are written out after the run;
`layer_metrics` turns them into per-layer self times and counters.

Nothing under `src/` is touched: the spans sit at the package's function
boundaries, seen from outside.  Methods are not wrapped, so time in
`Matrix.__matmul__` counts towards the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

LAYERS = (
    "fields", "linalg", "algebra", "representation", "cohomology", "dendriform",
    "deformation", "extension", "documents", "search", "cli",
)
# Per-entry helpers called millions of times inside the law checks and the d2
# assembly; a span around each would cost more than the work it measures.
UNTRACED = {
    "linalg": {"vec_zero", "basis_vec", "vec_add", "vec_sub", "vec_neg", "vec_scale",
               "vec_is_zero", "lincomb"},
    "cohomology": {"c1_index", "c2_index"},
}
ELIMINATIONS = {f"linalg.{n}" for n in ("rank", "pivot_columns", "kernel_basis", "solve",
                                        "invert", "in_span")}
# Law checks; one inside another of the same layer (is_O_operator calling
# check_O_operator) counts once.
CHECKS = {
    "algebra.check_anti_pre_lie", "algebra.is_anti_pre_lie",
    "representation.check_representation", "representation.is_representation",
    "dendriform.check_anti_L_dendriform", "dendriform.is_anti_L_dendriform",
    "dendriform.check_O_operator", "dendriform.is_O_operator", "dendriform.check_form_invariance",
    "deformation.check_deformation", "deformation.is_deformation",
}
SEARCHES = {f"search.{n}" for n in ("search_algebras", "search_representations",
                                    "search_o_operators", "search_bilinear_forms")}


def _first_arg(args, result):
    return args[0]


def _in_span_payload(args, result):
    vectors, v = args[0], args[1]
    return (tuple(vectors), v)  # the caller appends to its list afterwards


def _result(args, result):
    return result


# What a span keeps for its counters; references only, measured after the run.
PAYLOADS = {
    **{name: _first_arg for name in ELIMINATIONS},
    "linalg.in_span": _in_span_payload,
    "cohomology.d2_matrix": _result,
    "algebra.check_anti_pre_lie": _first_arg,
    "algebra.is_anti_pre_lie": _first_arg,
    "documents.loads": _first_arg,
    "documents.dumps": _result,
    **{name: _result for name in SEARCHES},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.payloads: dict = {}
        self.job = None
        self.fp_new = 0
        self._stack: list = []
        self._patched: list = []  # (namespace, attribute, original)

    def _wrap(self, label: str, fn):
        spans, stack, payloads = self.spans, self._stack, self.payloads
        keep = PAYLOADS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (label, start, end, parent, self.job)
            if keep is not None:
                payloads[sid] = keep(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"antiprelie.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNTRACED.get(layer, ())):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "antiprelie" or name.startswith("antiprelie."))]
        for mod in package:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        fp = sys.modules["antiprelie.fields"].Fp
        original_init = fp.__init__

        def counting_init(obj, value, p):
            self.fp_new += 1
            original_init(obj, value, p)

        self._patched.append((fp, "__init__", original_init))
        fp.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def nnz(rows) -> int:
    """Nonzero entries of a row-major table; repeated zero objects are skipped by identity."""
    zero = object()
    count = 0
    for row in rows:
        for x in row:
            if x is zero:
                continue
            if x:
                count += 1
            else:
                zero = x
    return count


def _table_nnz(table) -> int:
    return sum(nnz(plane) for plane in table.tensor.entries)


def layer_metrics(tracer: Tracer) -> dict:
    """Self times per layer and the counters named in the benchmark, from one traced pass."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    counts = dict.fromkeys((
        "linalg.calls", "linalg.cells_in", "linalg.nnz_in", "linalg.in_span_calls",
        "cohomology.d2_cells", "cohomology.d2_nnz", "cohomology.is_cocycle_calls",
        "algebra.checks", "algebra.law_instances", "algebra.table_nnz",
        "representation.checks", "dendriform.checks", "deformation.checks",
        "deformation.trivialize_calls", "extension.builds", "search.candidates",
        "search.accepted", "documents.bytes_in", "documents.bytes_out",
    ), 0)
    times = dict.fromkeys((
        "linalg.in_span_s", "linalg.kernel_basis_s", "cohomology.d2_matrix_s",
        "cohomology.is_cocycle_s", "documents.decode_s", "documents.encode_s",
    ), 0.0)
    search_s = 0.0
    for sid, (name, start, end, parent, _) in enumerate(spans):
        layer, func = name.split(".", 1)
        dur = end - start
        self_s = dur - child_time[sid]
        m[f"{layer}.self_s"] += self_s
        parent_name = spans[parent][0] if parent >= 0 else ""
        payload = tracer.payloads.get(sid)
        if name in ELIMINATIONS and parent_name not in ELIMINATIONS:
            counts["linalg.calls"] += 1
            if name == "linalg.in_span":
                vectors, v = payload
                counts["linalg.in_span_calls"] += 1
                times["linalg.in_span_s"] += dur
                counts["linalg.cells_in"] += len(v) * (len(vectors) + 1)
                counts["linalg.nnz_in"] += nnz(vectors) + nnz((v,))
            else:
                counts["linalg.cells_in"] += payload.rows * payload.cols
                counts["linalg.nnz_in"] += nnz(payload.entries)
                if name == "linalg.kernel_basis":
                    times["linalg.kernel_basis_s"] += dur
        elif name == "cohomology.d2_matrix":
            times["cohomology.d2_matrix_s"] += dur
            counts["cohomology.d2_cells"] += payload.rows * payload.cols
            counts["cohomology.d2_nnz"] += nnz(payload.entries)
        elif name == "cohomology.is_cocycle":
            counts["cohomology.is_cocycle_calls"] += 1
            times["cohomology.is_cocycle_s"] += dur
        elif name == "deformation.trivialize_step":
            counts["deformation.trivialize_calls"] += 1
        elif name == "extension.build_extension":
            counts["extension.builds"] += 1
        elif name in SEARCHES:
            search_s += dur
            counts["search.accepted"] += len(payload)
        elif layer == "documents":
            if func == "loads":
                counts["documents.bytes_in"] += len(payload)
            elif func == "dumps":
                counts["documents.bytes_out"] += len(payload)
            if func == "loads" or func.startswith("decode_"):
                times["documents.decode_s"] += self_s
            elif func == "dumps" or func.startswith("encode_"):
                times["documents.encode_s"] += self_s
        if name in CHECKS and not (parent_name in CHECKS and parent_name.startswith(layer + ".")):
            counts[f"{layer}.checks"] += 1
            if parent_name in SEARCHES:
                counts["search.candidates"] += 1
            if layer == "algebra":
                n = payload.dim
                counts["algebra.table_nnz"] += _table_nnz(payload)
                if func == "check_anti_pre_lie":
                    counts["algebra.law_instances"] += 2 * n ** 3
    m.update(counts)
    m.update(times)
    m["search.us_per_candidate"] = (1e6 * search_s / counts["search.candidates"]
                                    if counts["search.candidates"] else 0.0)
    m["fields.fp_new"] = tracer.fp_new
    return m


def median_metrics(runs: list) -> dict:
    """Times as medians over repeated traced passes; counts (ints) from the last pass."""
    last = runs[-1]
    return {key: value if isinstance(value, int) else statistics.median(r[key] for r in runs)
            for key, value in last.items()}
