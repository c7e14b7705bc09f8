"""Spans around flagstab's public functions, recorded from outside.

`Tracer.install` rebinds every module attribute, across all loaded
flagstab modules, that is bound to one of the listed function objects;
modules import each other's functions with `from .groebner import
buchberger`, so patching only the defining module would miss callers.
Methods are rebound on their class, aliases such as `__radd__`
included. `Tracer.uninstall` restores the originals.

Each span has a name, start and end (perf_counter_ns), the id of its
parent span and the index of the document it ran in. Spans stay in
memory until `write_spans`; aggregates (calls, total and self time, the
derived counts) cover every call even when the stored span list is
capped.
"""

from __future__ import annotations

import json
import sys
from array import array
from math import comb
from time import perf_counter_ns

WRAPPED = {
    "cli": ["parse_document", "render"],
    "flags": ["check_flag_stability", "nrgit_stage_check", "validate_flag", "flag_limit"],
    "parabolic": ["configuration_unipotent_stabilizer_dim"],
    "geometry": ["flat_limit", "singular_locus_empty", "is_nondegenerate"],
    "hilbert": ["hilbert_data", "hilbert_function", "chow_weight_numeric", "chow_points_stability"],
    "groebner": ["buchberger", "normal_form", "degree_echelon", "ideal_equal", "canonical_generators"],
    "linalg": ["Echelon.insert", "rank_of_rows"],
    "poly": ["Polynomial.__mul__", "Polynomial.__add__"],
}

ROOT_SPAN = "doc"
MAX_STORED_SPANS = 100_000  # spans kept for the spans file; aggregates count all


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    out += [
        ("groebner.buchberger.repeat_share", "share"),
        ("groebner.buchberger.basis_size", "count"),
        ("groebner.normal_form.zero_share", "share"),
        ("groebner.degree_echelon.rows", "count"),
        ("groebner.degree_echelon.cols", "count"),
        ("groebner.degree_echelon.rank_share", "share"),
        ("linalg.Echelon.insert.useful_share", "share"),
        ("hilbert.hilbert_function.max_degree", "count"),
        ("doc.calls", "count"),
        ("doc.total_s", "s"),
        ("doc.self_s", "s"),
        ("trace.self_sum_share", "share"),
        ("trace.docs_per_s_untraced", "1/s"),
        ("trace.docs_per_s_traced", "1/s"),
        ("trace.overhead_share", "share"),
        ("trace.spans", "count"),
    ]
    return out


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT_SPAN] + span_names()
        n = len(self.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.span_count = 0
        self.doc = -1
        # stored spans, one column per field
        self.s_name, self.s_parent, self.s_doc = array("i"), array("q"), array("i")
        self.s_start, self.s_end = array("q"), array("q")
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._restore: list[tuple[object, str, object]] = []
        # derived counts; gb_seen holds the (ideal, order) pairs of gb_doc
        self.gb_doc = -1
        self.gb_seen: set = set()
        self.gb_repeats = 0
        self.gb_basis_total = 0
        self.nf_in_buchberger = 0
        self.nf_zero_in_buchberger = 0
        self.ech_rows = self.ech_cols = self.ech_rank = 0
        self.insert_useful = 0
        self.hf_max_degree = 0
        self._grlex = None

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn, post=None):
        idx = self.names.index(name)
        stack, calls, total_ns, self_ns = self._stack, self.calls, self.total_ns, self.self_ns

        def wrapper(*args, **kwargs):
            span = self.span_count
            self.span_count += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                total_ns[idx] += dur
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span < MAX_STORED_SPANS:
                    self.s_name.append(idx)
                    self.s_parent.append(parent)
                    self.s_doc.append(self.doc)
                    self.s_start.append(start)
                    self.s_end.append(end)
            if post is not None:
                post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function in all loaded flagstab modules."""
        mods = {
            k: m for k, m in sys.modules.items()
            if m is not None and (k == "flagstab" or k.startswith("flagstab."))
        }
        self._grlex = mods["flagstab.poly"].GRLEX
        posts = {
            "groebner.buchberger": self._post_buchberger,
            "groebner.normal_form": self._post_normal_form,
            "groebner.degree_echelon": self._post_degree_echelon,
            "linalg.Echelon.insert": self._post_insert,
            "hilbert.hilbert_function": self._post_hilbert_function,
        }
        for mod_name, fns in WRAPPED.items():
            home = mods[f"flagstab.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = self.wrap(name, original, posts.get(name))
                    # aliases such as __radd__ = __add__ are the same object
                    for attr, value in list(vars(cls).items()):
                        if value is original:
                            self._rebind(cls, attr, original, wrapper)
                    continue
                original = getattr(home, fn_name)
                wrapper = self.wrap(name, original, posts.get(name))
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived counts ---------------------------------------------------

    def _post_buchberger(self, args, kwargs, result) -> None:
        order = args[1] if len(args) > 1 else kwargs.get("order", self._grlex)
        key = (args[0], order)
        if self.gb_doc != self.doc:
            self.gb_doc = self.doc
            self.gb_seen.clear()
        if key in self.gb_seen:
            self.gb_repeats += 1
        else:
            self.gb_seen.add(key)
        self.gb_basis_total += len(result.basis)

    def _post_normal_form(self, args, kwargs, result) -> None:
        # frame 0 is this hook, 1 the wrapper, 2 the caller: count only
        # the S-pair reductions inside buchberger, not interreduction
        if sys._getframe(2).f_code.co_name == "buchberger":
            self.nf_in_buchberger += 1
            if result.is_zero:
                self.nf_zero_in_buchberger += 1

    def _post_degree_echelon(self, args, kwargs, result) -> None:
        ideal, d = args[0], args[1]
        columns, ech = result
        n = ideal.nvars
        self.ech_rows += sum(
            comb(d - g.degree() + n - 1, n - 1) for g in ideal.generators if g.degree() <= d
        )
        self.ech_cols += len(columns)
        self.ech_rank += ech.rank

    def _post_insert(self, args, kwargs, result) -> None:
        if result:
            self.insert_useful += 1

    def _post_hilbert_function(self, args, kwargs, result) -> None:
        self.hf_max_degree = max(self.hf_max_degree, args[1])

    # -- report -----------------------------------------------------------

    def metrics(
        self, docs_per_s_untraced: float, docs_per_s_traced: float, doc_wall_s: float
    ) -> dict:
        """Per-layer metrics; `doc_wall_s` is the summed document latency
        measured by the runner, which the self times should add up to."""
        def share(num: int, den: int) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.total_s"] = self.total_ns[i] / 1e9
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
        idx = {name: i for i, name in enumerate(self.names)}
        gb_calls = self.calls[idx["groebner.buchberger"]]
        ech_calls = self.calls[idx["groebner.degree_echelon"]]
        out["groebner.buchberger.repeat_share"] = share(self.gb_repeats, gb_calls)
        out["groebner.buchberger.basis_size"] = share(self.gb_basis_total, gb_calls)
        out["groebner.normal_form.zero_share"] = share(
            self.nf_zero_in_buchberger, self.nf_in_buchberger
        )
        out["groebner.degree_echelon.rows"] = share(self.ech_rows, ech_calls)
        out["groebner.degree_echelon.cols"] = share(self.ech_cols, ech_calls)
        out["groebner.degree_echelon.rank_share"] = share(self.ech_rank, self.ech_rows)
        out["linalg.Echelon.insert.useful_share"] = share(
            self.insert_useful, self.calls[idx["linalg.Echelon.insert"]]
        )
        out["hilbert.hilbert_function.max_degree"] = self.hf_max_degree
        out["trace.self_sum_share"] = sum(self.self_ns) / 1e9 / doc_wall_s if doc_wall_s else 0.0
        out["trace.docs_per_s_untraced"] = docs_per_s_untraced
        out["trace.docs_per_s_traced"] = docs_per_s_traced
        out["trace.overhead_share"] = (
            docs_per_s_untraced / docs_per_s_traced - 1 if docs_per_s_traced else 0.0
        )
        out["trace.spans"] = self.span_count
        return out

    def write_spans(self, path) -> None:
        data = {
            "names": self.names,
            "stored": len(self.s_name),
            "recorded": self.span_count,
            "columns": ["name", "start_ns", "end_ns", "parent", "doc"],
            "spans": [
                list(self.s_name), list(self.s_start), list(self.s_end),
                list(self.s_parent), list(self.s_doc),
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
