"""Spans around dimgroup's public functions, installed from outside.

Each target is a public name in its home module, or a method on a class.
A function wrapper replaces the name in every ``dimgroup`` module that
holds it (``dimgroup.verify.integer_perron``, ``dimgroup.ecrs.is_primitive``
and so on), so calls are caught wherever the name is looked up.  Methods
are replaced on the class.  A target missing from the package is reported
as missing, and every metric derived from it then has no value.

Spans live in memory as ``[target, start_ns, end_ns, parent, returned]``
and are only summarised, by ``layer_metrics``, when the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time

# (span name, home module, class or None, attribute, how it is reported):
# "self" gives .calls and .self_s, "incl" gives .incl_s, None only feeds
# the derived metrics below.
TARGETS = (
    ("cli.main", "dimgroup.cli", None, "main", "self"),
    ("realization.load", "dimgroup.realization", "RealizationSeq", "load",
     "incl"),
    ("realization.save", "dimgroup.realization", "RealizationSeq", "save",
     "incl"),
    ("verify.structural_report", "dimgroup.verify", None,
     "structural_report", "incl"),
    ("traces.trace_report", "dimgroup.traces", None, "trace_report", "incl"),
    ("traces.nearly_split_witness", "dimgroup.traces", None,
     "nearly_split_witness", "incl"),
    ("ecs.ecs_pipeline", "dimgroup.ecs", None, "ecs_pipeline", "incl"),
    ("ecs.telescope_extension", "dimgroup.ecs", None, "telescope_extension",
     "self"),
    ("ecs.reduce_vector", "dimgroup.ecs", None, "reduce_vector", "self"),
    ("ecs.choose_a_params", "dimgroup.ecs", None, "choose_a_params", "self"),
    ("ers.ers_pipeline", "dimgroup.ers", None, "ers_pipeline", "incl"),
    ("ers.build_w_sequence", "dimgroup.ers", None, "build_w_sequence",
     "self"),
    ("ers.verify_ers", "dimgroup.ers", None, "verify_ers", "self"),
    ("ecrs.ecrs_pipeline", "dimgroup.ecrs", None, "ecrs_pipeline", "incl"),
    ("ecrs.ecrs_finisher", "dimgroup.ecrs", None, "ecrs_finisher", "self"),
    ("ecrs.normalize_to_ones", "dimgroup.ecrs", None, "normalize_to_ones",
     "self"),
    ("perron.integer_perron", "dimgroup.perron", None, "integer_perron",
     "self"),
    ("perron.is_primitive", "dimgroup.perron", None, "is_primitive", "self"),
    ("perron.equal_sums", "dimgroup.perron", None,
     "check_equal_sums_criterion", "self"),
    ("supernatural.factorize", "dimgroup.supernatural", None, "factorize",
     "self"),
    ("exact.kernel", "dimgroup.exact", None, "right_kernel_basis", "self"),
    ("exact.matmul", "dimgroup.exact", "Matrix", "__mul__", "self"),
    ("exact.rank", "dimgroup.exact", "Matrix", "rank", "self"),
    ("exact.det", "dimgroup.exact", "Matrix", "det", "self"),
    ("exact.inverse", "dimgroup.exact", "Matrix", "inverse", "self"),
    ("exact.charpoly", "dimgroup.exact", "Matrix", "charpoly", "self"),
    ("exact.charpoly_at", "dimgroup.exact", "Matrix", "charpoly_at", None),
)
NAMES = tuple(t[0] for t in TARGETS)

# Metrics computed from span parentage, and the spans each one needs.
DERIVED = {
    # charpoly_at calls under integer_perron, and the share that hit a root
    "perron.root_candidates": ("exact.charpoly_at", "perron.integer_perron"),
    "perron.root_hit_ratio": ("exact.charpoly_at", "perron.integer_perron"),
    # rank and matmul spans directly under structural_report
    "verify.kernel_ranks_s": ("verify.structural_report", "exact.rank",
                              "exact.matmul"),
    "verify.telescoped_products": ("verify.structural_report", "exact.rank"),
    # a grouping is tried once per reduce_vector call in ecs_pipeline
    "ecs.groupings_tried": ("ecs.reduce_vector", "ecs.ecs_pipeline"),
    "ecs.groupings_accepted": ("ecs.reduce_vector", "ecs.ecs_pipeline"),
    "ecs.accept_ratio": ("ecs.reduce_vector", "ecs.ecs_pipeline"),
}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one build."""
        rec = self._open(name)
        try:
            yield rec
            rec[4] = True
        finally:
            self._close(rec)

    def _open(self, name) -> list:
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
                rec[4] = True
                return result
            finally:
                self._close(rec)
        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None
                   and (key == "dimgroup" or key.startswith("dimgroup."))]
        for name, home, cls_name, attr, _ in TARGETS:
            owner = sys.modules.get(home)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.add(name)
            elif cls_name is not None:
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._replace(owner, attr, raw, new)
            else:
                new = self._wrap(name, raw)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._replace(mod, key, raw, new)
        return self

    def _replace(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float | int | None]:
    """Per-layer counts and times from the recorded spans.

    ``.calls`` counts spans; ``.self_s`` is span time minus the time of
    traced child spans; ``.incl_s`` is the time of the outermost span of
    that name.  Metrics derived from a missing target are None."""
    spans = tracer.spans
    calls = dict.fromkeys(NAMES, 0)
    self_ns = dict.fromkeys(NAMES, 0)
    incl_ns = dict.fromkeys(NAMES, 0)
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    roots = candidates = tried = accepted = telescoped = 0
    kernel_ranks_ns = 0
    for idx, (name, start, end, parent, returned) in enumerate(spans):
        if name not in calls:
            continue
        calls[name] += 1
        self_ns[name] += end - start - child_ns[idx]
        if not _has_ancestor(spans, idx, name):
            incl_ns[name] += end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "exact.charpoly_at" and _has_ancestor(
                spans, idx, "perron.integer_perron"):
            candidates += 1
        elif name == "perron.integer_perron" and returned:
            roots += 1
        elif name == "ecs.reduce_vector" and _has_ancestor(
                spans, idx, "ecs.ecs_pipeline"):
            tried += 1
        elif name == "ecs.ecs_pipeline" and returned:
            accepted += 1
        if (parent_name == "verify.structural_report"
                and name in ("exact.rank", "exact.matmul")):
            kernel_ranks_ns += end - start
            telescoped += name == "exact.rank"

    out: dict[str, float | int | None] = {}
    for name, *_, report in TARGETS:
        if report == "self":
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        elif report == "incl":
            out[f"{name}.incl_s"] = incl_ns[name] / 1e9
    out["perron.root_candidates"] = candidates
    out["perron.root_hit_ratio"] = roots / candidates if candidates else 0.0
    out["verify.kernel_ranks_s"] = kernel_ranks_ns / 1e9
    out["verify.telescoped_products"] = telescoped
    out["ecs.groupings_tried"] = tried
    out["ecs.groupings_accepted"] = accepted
    out["ecs.accept_ratio"] = accepted / tried if tried else 0.0
    for key in out:
        needs = DERIVED.get(key, (key.rsplit(".", 1)[0],))
        if tracer.missing.intersection(needs):
            out[key] = None
    return out
