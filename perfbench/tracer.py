"""Traced CLI run: spans around each module's public functions.

Run as ``python3 perfbench/tracer.py <cayleycolour arguments>`` with the
package on ``PYTHONPATH``.  The child wraps every module attribute bound to a
traced function, so each caller's own name (``cli.ball``,
``hausdorff.check``, ``proper.feasible``, ...) goes through the span.  Per-word
arithmetic (``ReducedWord.__mul__``, ``reduce_letters``) is deliberately not
wrapped: it runs hundreds of thousands of times per ball and its cost belongs
to the caller's self time.

Spans and counters stay in memory.  When ``cli.main`` returns, the child
prints one JSON object holding the CLI's own stdout, its exit status, the
spans and the counters.  ``layer_metrics`` turns that into per-layer metrics
in the parent, outside the traced process's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict

# Span name -> functions it wraps, as (module, attribute).
FUNCTION_SPANS = {
    "configs.sample": (("configs", "sample"), ("configs", "sample_batch")),
    "arrows.solve": (("arrows", "constructive_solve"),),
    "arrows.pdegree": (("arrows", "pdegree_profile"),),
    "rules.check": (("rules", "check"),),
    "proper.greedy": (("proper", "greedy_base_colouring"),),
    "proper.calibrate": (("proper", "calibrate_N"),),
    "proper.graph": (("proper", "doubled_graph"),),
    "proper.check_proper": (("proper", "check_proper"),),
    "proper.flow_audit": (("proper", "flow_audit_doubled"),),
    "hausdorff.solve": (("hausdorff", "hausdorff_solve"),),
    "hausdorff.doubling": (("hausdorff", "six_piece_doubling"),),
    "measures.feasible": (("measures", "feasible"),),
    "cli.run": (("cli", "run"),),
    "cli.main": (("cli", "main"),),
}

# Span name -> Ball methods it wraps.  Wrapping the constructor counts every
# ball, including those ``enumerate_words`` builds.  A table lookup that hits
# the ball's cache opens no span: callers such as ``arrows.candidates`` make
# hundreds of thousands of them, so, like per-word arithmetic, their cost
# counts toward the caller's self time.
BALL_SPANS = {
    "groups.ball": ("__init__",),
    "groups.tables": ("left_table", "right_table"),
}
TABLE_CACHES = {"left_table": "_left", "right_table": "_right"}

PACKAGE = "cayleycolour"


class Tracer:
    """Records (id, name, start_ns, end_ns, thread, parent id) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._lock = threading.Lock()
        self._balls: dict[tuple[str, int], int] = {}
        self._batches: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._read_columns: dict[tuple[int, bytes], int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` counts work.

        A span opened on a thread with no open span of its own (a pool
        worker) takes the innermost open span of the main thread as parent:
        that is the call that handed the work out.
        """
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            tail = stack[-1:] or main_stack[-1:]  # slices: the main thread may pop meanwhile
            parent = tail[0] if tail else None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, threading.get_ident(), parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, **amounts) -> None:
        with self._lock:
            self.counters.update(amounts)

    # Counter hooks, called after the wrapped function returns.

    def _after_ball(self, args, kwargs, result) -> None:
        b = args[0]
        with self._lock:
            self.counters["groups.vertices_built"] += len(b)
            self._balls[(str(b.presentation), b.radius)] = len(b)

    def _after_sample_batch(self, args, kwargs, values) -> None:
        self._batches[id(values)] = values
        self.count(**{"configs.samples": values.shape[0], "configs.coords_drawn": values.size})

    def _after_sample(self, args, kwargs, config) -> None:
        # The drawn batch was counted by sample_batch; its consumer reads
        # this one whole configuration.
        self.count(**{"configs.coords_read": config.values.size})

    def _after_pdegree(self, args, kwargs, result) -> None:
        ball, values, vertices = args
        if self._batches.get(id(values)) is not values:
            return  # not a freshly drawn batch; its reads were counted already
        key = (id(ball), vertices.tobytes())
        columns = self._read_columns.get(key)
        if columns is None:
            from cayleycolour.arrows import neighbour_tables

            tables = neighbour_tables(ball)
            columns = len({int(t[v]) for t in tables for v in vertices})
            self._read_columns[key] = columns
        self.count(**{"configs.coords_read": values.shape[0] * columns})

    def _after_check(self, args, kwargs, report) -> None:
        self.count(**{"rules.interior_checked": report.interior_size})

    def _after_check_proper(self, args, kwargs, report) -> None:
        self.count(**{f"proper.edges_checked.{k}": v for k, v in report.edges_checked.items()})

    def _after_feasible(self, args, kwargs, outcome) -> None:
        program = args[0]
        steps = len(outcome.refutation.steps) if outcome.refutation is not None else 0
        self.count(**{"measures.constraints": len(program.constraints), "measures.refutation_steps": steps})

    def install(self) -> None:
        hooks = {
            ("configs", "sample_batch"): self._after_sample_batch,
            ("configs", "sample"): self._after_sample,
            ("arrows", "pdegree_profile"): self._after_pdegree,
            ("rules", "check"): self._after_check,
            ("proper", "check_proper"): self._after_check_proper,
            ("measures", "feasible"): self._after_feasible,
        }
        importlib.import_module(f"{PACKAGE}.cli")  # imports every traced module
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        for name, targets in FUNCTION_SPANS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                traced = self.wrap(name, original, hooks.get((module_name, attr)))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)
        ball_class = sys.modules[f"{PACKAGE}.groups"].Ball
        for name, methods in BALL_SPANS.items():
            for method in methods:
                after = self._after_ball if method == "__init__" else None
                traced = self.wrap(name, getattr(ball_class, method), after)
                if method in TABLE_CACHES:
                    traced = _on_cache_miss(traced, TABLE_CACHES[method])
                setattr(ball_class, method, traced)

    def payload(self, exit_status: int, stdout: str) -> dict:
        counters = dict(self.counters)
        counters["groups.vertices"] = sum(self._balls.values())
        return {
            "exit": exit_status,
            "stdout": stdout,
            "main_thread": threading.main_thread().ident,
            "spans": self.spans,
            "counters": counters,
        }


def _on_cache_miss(traced, cache: str):
    """Call ``traced`` only when the ball has not cached the table yet.  A
    ball without that cache attribute goes through ``traced`` every time."""

    @functools.wraps(traced)
    def table(ball, g):
        cached = getattr(ball, cache, {}).get(g.letters)
        return traced(ball, g) if cached is None else cached

    return table


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = sys.modules[f"{PACKAGE}.cli"]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = cli.main(argv)
    json.dump(tracer.payload(status, captured.getvalue()), sys.stdout, separators=(",", ":"))
    return 0


# ---------------------------------------------------------------------------
# Parent side: spans -> per-layer metrics.

SECONDS_PER_NS = 1e-9


def _covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> dict[str, float]:
    """Seconds per span name: each span's duration minus the part of it
    covered by its child spans, summed over calls and threads."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _sid, _name, start, end, _tid, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, int] = defaultdict(int)
    for sid, name, start, end, _tid, _parent in spans:
        totals[name] += end - start - _covered(children.get(sid, []), start, end)
    return {name: ns * SECONDS_PER_NS for name, ns in totals.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(payload: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; 0 where the run never entered
    the layer.  ``wall_s`` is the traced process's spawn-to-exit time."""
    spans = payload["spans"]
    counters = Counter(payload["counters"])
    own = defaultdict(float, self_times(spans))
    metrics = {f"{name}_s": own[name] for name in (*FUNCTION_SPANS, *BALL_SPANS)}
    metrics["cli.self_s"] = metrics.pop("cli.run_s")
    metrics["cli.emit_s"] = metrics.pop("cli.main_s")

    main_thread = payload["main_thread"]
    thread_of = {sid: tid for sid, _n, _s, _e, tid, _p in spans}
    worker_busy = sum(
        end - start
        for _sid, _name, start, end, tid, parent in spans
        if tid != main_thread and thread_of.get(parent) == main_thread
    )
    run_span = sum(end - start for _sid, name, start, end, _t, _p in spans if name == "cli.run")
    metrics["cli.pdeg_parallelism"] = _ratio(worker_busy, run_span)

    for name in (
        "groups.vertices",
        "groups.vertices_built",
        "configs.samples",
        "configs.coords_drawn",
        "rules.interior_checked",
        "proper.edges_checked.secondary",
        "proper.edges_checked.cross",
        "proper.edges_checked.copy2",
        "measures.constraints",
        "measures.refutation_steps",
    ):
        metrics[name] = counters[name]
    metrics["groups.build_ratio"] = _ratio(counters["groups.vertices_built"], counters["groups.vertices"])
    metrics["configs.coords_read_ratio"] = _ratio(counters["configs.coords_read"], counters["configs.coords_drawn"])
    metrics["rules.check_us_per_vertex"] = _ratio(1e6 * metrics["rules.check_s"], counters["rules.interior_checked"])
    edges = sum(counters[f"proper.edges_checked.{k}"] for k in ("secondary", "cross", "copy2"))
    metrics["proper.check_us_per_edge"] = _ratio(1e6 * metrics["proper.check_proper_s"], edges)
    metrics["trace.unattributed_s"] = wall_s - sum(own.values())
    return metrics


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
