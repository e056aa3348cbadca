"""Spans around hsk's public functions, installed from outside the program.

``Tracer.install`` replaces each traced function at every hsk module
binding that names it (``rref`` is bound in ``linalg``, ``trace`` and
``category``; patching only one binding would miss calls between
modules), and wraps the traced methods on their classes.  Spans are
kept in memory as ``[name, start, end, parent, extra]`` and written as
JSON lines when the traced process ends; ``layer_metrics`` turns the
span files of a run into the per-layer metrics.

Self time is a span's duration minus the time its direct children
cover; inclusive time of a name counts only spans with no ancestor of
the same name, so recursion (the Laplace ``determinant``) and nested
Hecke products are not counted twice.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name, extra) for module-level functions.
FUNCTIONS = (
    ("perms", "perm_table", "perms.perm_table", None),
    ("hecke", "from_braid", "hecke.from_braid", "terms"),
    ("hecke", "young_idempotent", "hecke.young_idempotent", None),
    ("trace", "markov_trace", "trace.markov_trace", None),
    ("trace", "gram_bilinear", "trace.gram", "bilinear"),
    ("trace", "gram_hermitian", "trace.gram", "hermitian"),
    ("linalg", "rref", "linalg.rref", "rref"),
    ("linalg", "determinant", "linalg.determinant", None),
    ("category", "purified_algebra", "category.purified_algebra", None),
    ("category", "central_idempotents", "category.central_idempotents", None),
    ("category", "fusion", "category.fusion", None),
    ("category", "s_matrix", "category.s_matrix", None),
    ("category", "mf_dim", "category.mf_dim", None),
    ("verify", "run_verify", "verify.run_verify", "skipped"),
)

# (module, class, method, span name) for methods.
METHODS = (
    ("scalar", "Scalar", "inverse", "scalar.inverse"),
    ("hecke", "HeckeElement", "__mul__", "hecke.mul"),
    ("hecke", "HeckeElement", "__rmul__", "hecke.mul"),
)


def _extra(kind, args, out):
    if kind == "terms":
        return len(out.terms)
    if kind == "rref":
        rows = args[1]
        return [len(rows), len(rows[0]) if rows else 0, len(out[1])]
    if kind in ("bilinear", "hermitian"):
        p, n = args[0], args[1]
        return [f"{kind}:{p.N},{p.K},{n}", len(out) ** 2]
    if kind == "skipped":
        return sum(1 for c in out.checks if c.status == "skip")
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scalar_mul = 0

    def _span(self, name: str, fn, kind=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if kind is not None:
                rec[4] = _extra(kind, args, out)
            return out

        return wrapper

    def install(self) -> None:
        mods = {name: importlib.import_module(f"hsk.{name}") for name in
                ("scalar", "perms", "hecke", "trace", "linalg", "category", "verify")}
        bindings = [m for name, m in sys.modules.items()
                    if m is not None and (name == "hsk" or name.startswith("hsk."))]
        for mod, attr, name, kind in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            wrapped = self._span(name, orig, kind)
            for m in bindings:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            setattr(cls, attr, self._span(name, cls.__dict__[attr]))
        scalar = mods["scalar"].Scalar
        mul = scalar.__dict__["__mul__"]
        tracer = self

        def counted_mul(a, b):
            tracer.scalar_mul += 1
            return mul(a, b)

        scalar.__mul__ = counted_mul
        scalar.__rmul__ = counted_mul

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"scalar.mul_count": self.scalar_mul}) + "\n")


def read_spans(path: str) -> tuple[list[list], int]:
    spans: list[list] = []
    muls = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, dict):
                muls += rec["scalar.mul_count"]
            else:
                spans.append(rec)
    return spans, muls


class _Agg:
    """Per-name totals over the spans of one or more traced processes."""

    def __init__(self):
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.extras: dict[str, list] = {}

    def add(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
            if extra is not None:
                self.extras.setdefault(name, []).append(extra)
            outer = True
            while parent >= 0:
                if spans[parent][0] == name:
                    outer = False
                    break
                parent = spans[parent][3]
            if outer:
                self.incl[name] = self.incl.get(name, 0.0) + dur


def layer_metrics(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics of the program layers (the cli counts come from
    the cache directory and are added by ``run.py``)."""
    agg = _Agg()
    muls = 0
    gram_entries = 0
    for path in span_files:
        spans, m = read_spans(path)
        agg.add(spans)
        muls += m
        # Each traced process starts with empty caches, so the first
        # call per key in a file is the one that built the matrix.
        built = {r[4][0]: r[4][1] for r in spans if r[0] == "trace.gram"}
        gram_entries += sum(built.values())
    incl, calls, ex = agg.incl, agg.calls, agg.extras
    rref = ex.get("linalg.rref", [])
    rows = sum(r[0] for r in rref)
    return {
        "scalar.mul_count": muls,
        "scalar.inverse_count": calls.get("scalar.inverse", 0),
        "scalar.inverse_s": incl.get("scalar.inverse", 0.0),
        "perms.perm_table_s": incl.get("perms.perm_table", 0.0),
        "hecke.from_braid_s": incl.get("hecke.from_braid", 0.0),
        "hecke.from_braid_calls": calls.get("hecke.from_braid", 0),
        "hecke.terms_max": max(ex.get("hecke.from_braid", [0])),
        "hecke.mul_s": incl.get("hecke.mul", 0.0),
        "hecke.young_idempotent_s": incl.get("hecke.young_idempotent", 0.0),
        "trace.markov_trace_s": incl.get("trace.markov_trace", 0.0),
        "trace.gram_s": incl.get("trace.gram", 0.0),
        "trace.gram_entries": gram_entries,
        "linalg.rref_s": incl.get("linalg.rref", 0.0),
        "linalg.rref_calls": calls.get("linalg.rref", 0),
        "linalg.rref_cells": sum(r[0] * r[1] for r in rref),
        "linalg.rank_frac": sum(r[2] for r in rref) / rows if rows else 0.0,
        "linalg.determinant_s": incl.get("linalg.determinant", 0.0),
        "category.purified_algebra_s": incl.get("category.purified_algebra", 0.0),
        "category.central_idempotents_s": incl.get("category.central_idempotents", 0.0),
        "category.fusion_s": agg.self_time.get("category.fusion", 0.0),
        "category.fusion_calls": calls.get("category.fusion", 0),
        "category.s_matrix_s": incl.get("category.s_matrix", 0.0),
        "category.mf_dim_s": incl.get("category.mf_dim", 0.0),
        "verify.run_s": incl.get("verify.run_verify", 0.0),
        "verify.checks_skipped": sum(ex.get("verify.run_verify", [])),
    }
