"""Spans around the calls the benchmark sees ``monotri`` make between modules.

Tracing is switched on by :func:`install`, which replaces names in the
namespaces of ``monotri``'s modules with wrappers defined here; no file of the
package changes.  A wrapper records a span (name, start, end, parent span,
operation id) around the call and the counts it can read at that boundary,
such as memo hits of the ``EvalCache`` the wrapper passes to ``alpha``.

Calls made many times under one parent (``alpha`` per method, the signed
count, admissible-row generation, ``Triangle`` construction, JSON
serialization, ``sc_statistic``) are folded into one record per (parent span,
name) with a call count and the summed busy time, so the trace stays small;
the record is the parent of what those calls do.  Streams are recorded the
same way: one record per stream whose busy time is the time spent inside the
stream's ``next``.  Spans stay in memory until :meth:`Tracer.write` at the
end of the run.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

SPAN_FIELDS = ("id", "name", "parent", "op", "start_ns", "end_ns", "calls", "busy_ns", "counts")


class Span:
    __slots__ = SPAN_FIELDS

    def __init__(self, id_, name, parent, op, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.op = op
        self.start_ns = start
        self.end_ns = start
        self.calls = 0
        self.busy_ns = 0
        self.counts = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in SPAN_FIELDS}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._folded: dict[tuple[int | None, str], Span] = {}

    def _new(self, name: str, start: int) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.op, start)
        self.spans.append(span)
        return span

    def begin(self, name: str) -> Span:
        span = self._new(name, perf_counter_ns())
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = perf_counter_ns()
        span.calls += 1
        span.busy_ns += span.end_ns - span.start_ns
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def enter(self, name: str) -> tuple[Span, int]:
        """Open a folded span: the record of ``name`` under the current span,
        shared by every call made from there."""
        key = (self.stack[-1].id if self.stack else None, name)
        span = self._folded.get(key)
        start = perf_counter_ns()
        if span is None:
            span = self._folded[key] = self._new(name, start)
        self.stack.append(span)
        return span, start

    def leave(self, span: Span, start: int) -> None:
        span.end_ns = perf_counter_ns()
        span.calls += 1
        span.busy_ns += span.end_ns - start
        self.stack.pop()

    # --- wrappers -----------------------------------------------------------

    def span_call(self, name: str, fn, counts=None):
        """Wrap ``fn`` so each call is one span; ``counts(span, result)`` may
        attach counts read from the result."""

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                counts(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def folded_call(self, name: str, fn, size=None):
        """Wrap ``fn`` as a folded span; ``size(result)`` adds to count "n"."""

        def wrapper(*args, **kwargs):
            span, start = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(span, start)
            if size is not None:
                span.add("n", size(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def stream(self, name: str, fn):
        """Wrap a function returning an iterator: one record per stream, busy
        while inside ``next``, with the objects yielded as its call count."""

        def wrapper(*args, **kwargs):
            span = self._new(name, perf_counter_ns())
            inner = iter(fn(*args, **kwargs))

            def gen():
                while True:
                    self.stack.append(span)
                    start = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.end_ns = perf_counter_ns()
                        span.busy_ns += span.end_ns - start
                        self.stack.pop()
                    span.calls += 1
                    yield item

            return gen()

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


CACHED_METHODS = ("operator", "operator_alt", "third")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Put the wrappers in place; returns what :func:`uninstall` restores."""
    import monotri.cli as cli
    import monotri.decorated as decorated
    import monotri.evaluate as evaluate
    import monotri.identities as identities
    import monotri.report as report
    import monotri.rows as rows

    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    # evaluate: alpha with an EvalCache the benchmark passes and reads.
    def traced_alpha(row, method="operator", cache=None):
        if cache is None and method in CACHED_METHODS:
            cache = evaluate.EvalCache()
        before = (cache.hits, cache.misses, len(cache)) if cache is not None else None
        span, start = tracer.enter(f"evaluate.alpha.{method}")
        try:
            return evaluate.alpha(row, method, cache)
        finally:
            tracer.leave(span, start)
            if before is not None:
                span.add("memo_hits", cache.hits - before[0])
                span.add("memo_misses", cache.misses - before[1])
                span.add("memo_entries", len(cache) - before[2])

    class TracedEvalCache(evaluate.EvalCache):
        def load(self, path):
            span = tracer.begin("evaluate.cache_load")
            try:
                records = super().load(path)
            finally:
                tracer.end(span)
            span.add("records", records)
            return records

        def save(self, path):
            span = tracer.begin("evaluate.cache_save")
            try:
                super().save(path)
            finally:
                tracer.end(span)
            span.add("records", len(self))

    patch(cli, "alpha", traced_alpha)
    patch(identities, "alpha", traced_alpha)
    patch(cli, "EvalCache", TracedEvalCache)
    for name in ("operator_apply", "operator_apply_alt"):
        patch(identities, name, tracer.folded_call(f"evaluate.{name}", getattr(evaluate, name)))

    # rows: the signed count, admissible rows and the triangle streams.
    signed = tracer.folded_call("rows.signed_gmt_count", rows.signed_gmt_count)
    patch(evaluate, "signed_gmt_count", signed)
    patch(decorated, "signed_gmt_count", signed)
    for name in ("gmt_admissible_rows", "mt_admissible_rows", "dmt_admissible_rows"):
        patch(rows, name, tracer.folded_call(f"rows.{name}", getattr(rows, name), len))
    patch(identities, "gmt_admissible_rows", rows.gmt_admissible_rows)
    for klass in ("gmt", "mt", "dmt"):
        name = f"enumerate_{klass}"
        wrapped = tracer.stream(f"rows.{name}", getattr(rows, name))
        patch(cli, name, wrapped)
        if klass == "gmt":
            patch(decorated, name, wrapped)
        if klass == "mt":
            patch(evaluate, name, wrapped)

    # triangles: construction, serialization and the sign statistic.
    constructor = tracer.folded_call("triangles.Triangle", rows.Triangle)
    patch(rows, "Triangle", constructor)
    patch(decorated, "Triangle", constructor)
    for name in ("triangle_to_json", "tn_to_json"):
        patch(cli, name, tracer.folded_call(f"triangles.{name}", getattr(cli, name), len))
    statistic = tracer.folded_call("triangles.sc_statistic", cli.sc_statistic)
    patch(cli, "sc_statistic", statistic)
    patch(decorated, "sc_statistic", statistic)

    # decorated: the decorated stream and the reduction check.
    tn_stream = tracer.stream("decorated.enumerate_tn", decorated.enumerate_tn)
    patch(cli, "enumerate_tn", tn_stream)
    patch(decorated, "enumerate_tn", tn_stream)
    patch(cli, "verify_reduction", tracer.span_call("decorated.verify_reduction", decorated.verify_reduction))

    # identities: grids, conjecture families and ratio scans.
    def checked(span, result):
        reports = result if isinstance(result, list) else [result]
        span.add("points", sum(r.checked for r in reports))

    for name in ("run_identity_grid", "run_conjecture_suite", "emit_ratio_sequence"):
        patch(cli, name, tracer.span_call(f"identities.{name}", getattr(identities, name), checked))

    # report: rendering of reports (every workload asks for JSON).
    patch(report.VerificationReport, "to_dict",
          tracer.span_call("report.to_dict", report.VerificationReport.to_dict))
    return saved


def uninstall(saved) -> None:
    for module, attr, value in reversed(saved):
        setattr(module, attr, value)


# --- per-layer metrics ----------------------------------------------------------

PER_LAYER = (
    ("cli.ops", "count"),
    ("cli.main_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("evaluate.alpha_operator_s", "s"),
    ("evaluate.alpha_other_s", "s"),
    ("evaluate.memo_entries", "count"),
    ("evaluate.memo_hits", "count"),
    ("evaluate.memo_misses", "count"),
    ("evaluate.memo_hit_ratio", "ratio"),
    ("evaluate.cache_file_load_s", "s"),
    ("evaluate.cache_file_save_s", "s"),
    ("evaluate.cache_file_records", "count"),
    ("rows.signed_gmt_count_s", "s"),
    ("rows.distinct_rows", "count"),
    ("rows.admissible_rows", "count"),
    ("rows.admissible_s", "s"),
    ("rows.enumerate_s", "s"),
    ("rows.stream_rows_generated", "count"),
    ("rows.objects_per_row", "ratio"),
    ("triangles.objects", "count"),
    ("triangles.construct_s", "s"),
    ("triangles.to_json_s", "s"),
    ("triangles.json_bytes", "bytes"),
    ("triangles.sc_statistic_s", "s"),
    ("decorated.tn_objects", "count"),
    ("decorated.enumerate_tn_s", "s"),
    ("decorated.verify_reduction_s", "s"),
    ("identities.points", "count"),
    ("identities.grid_s", "s"),
    ("identities.conjecture_s", "s"),
    ("report.reports", "count"),
    ("report.render_s", "s"),
)

STREAMS = ("rows.enumerate_gmt", "rows.enumerate_mt", "rows.enumerate_dmt")
ADMISSIBLE = ("rows.gmt_admissible_rows", "rows.mt_admissible_rows", "rows.dmt_admissible_rows")


def layer_figures(spans: list[Span], stdout_bytes: int) -> dict[str, float]:
    """Per-layer figures of the spans of one round (times in seconds)."""
    by_id = {s.id: s for s in spans}
    f = {name: 0 for name, _ in PER_LAYER}
    f["cli.stdout_bytes"] = stdout_bytes
    stream_objects = 0
    for s in spans:
        busy = s.busy_ns / 1e9
        parent = by_id.get(s.parent)
        pname = parent.name if parent is not None else None
        if s.name == "cli.main":
            f["cli.ops"] += s.calls
            f["cli.main_s"] += busy
        elif s.name.startswith("evaluate.alpha."):
            if s.name == "evaluate.alpha.operator":
                f["evaluate.alpha_operator_s"] += busy
            elif s.name != "evaluate.alpha.gmt":
                f["evaluate.alpha_other_s"] += busy
            for c in ("memo_entries", "memo_hits", "memo_misses"):
                f[f"evaluate.{c}"] += s.counts.get(c, 0)
        elif s.name == "evaluate.cache_load":
            f["evaluate.cache_file_load_s"] += busy
            f["evaluate.cache_file_records"] += s.counts["records"]
        elif s.name == "evaluate.cache_save":
            f["evaluate.cache_file_save_s"] += busy
        elif s.name == "rows.signed_gmt_count":
            f["rows.signed_gmt_count_s"] += busy
        elif s.name in ADMISSIBLE and pname == "rows.signed_gmt_count":
            f["rows.distinct_rows"] += s.calls
            f["rows.admissible_rows"] += s.counts["n"]
            f["rows.admissible_s"] += busy
        elif s.name in ADMISSIBLE and pname in STREAMS:
            f["rows.stream_rows_generated"] += s.counts["n"]
        elif s.name in STREAMS:
            f["rows.enumerate_s"] += busy
            stream_objects += s.calls
        elif s.name == "triangles.Triangle":
            f["triangles.objects"] += s.calls
            f["triangles.construct_s"] += busy
        elif s.name in ("triangles.triangle_to_json", "triangles.tn_to_json"):
            f["triangles.to_json_s"] += busy
            f["triangles.json_bytes"] += s.counts["n"]
        elif s.name == "triangles.sc_statistic":
            f["triangles.sc_statistic_s"] += busy
        elif s.name == "decorated.enumerate_tn":
            f["decorated.tn_objects"] += s.calls
            f["decorated.enumerate_tn_s"] += busy
        elif s.name == "decorated.verify_reduction":
            f["decorated.verify_reduction_s"] += busy
        elif s.name.startswith("identities."):
            f["identities.points"] += s.counts["points"]
            key = "identities.grid_s" if s.name == "identities.run_identity_grid" else "identities.conjecture_s"
            f[key] += busy
        elif s.name == "report.to_dict":
            f["report.reports"] += s.calls
            f["report.render_s"] += busy
    lookups = f["evaluate.memo_hits"] + f["evaluate.memo_misses"]
    f["evaluate.memo_hit_ratio"] = f["evaluate.memo_hits"] / lookups if lookups else 0.0
    rows_made = f["rows.stream_rows_generated"]
    f["rows.objects_per_row"] = stream_objects / rows_made if rows_made else 0.0
    return f
