"""Span tracing installed from the benchmark, inside the server process.

:func:`install` wraps the public function at each layer boundary of the
serving path (nothing under ``src/`` changes).  A wrapper records one span
per call: ``(id, name, start, end, parent)``.  The parent is the span that
was open in the same request when the call started; the request context
follows blocking calls into the executor threads because the wrapped
``ServingApp._call`` runs them inside a copy of the request's context.

Spans stay in memory until :meth:`Tracer.report` folds them into per-layer
totals.  A layer's self time is its span's duration minus the time its
child spans cover (children of one span run one after another on one
thread, so their durations add up).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from contextlib import asynccontextmanager

_current: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "servebench_span", default=None)
_clock = time.perf_counter

PARSERS = (
    ("repro.sql.parser", "parse_sql"),
    ("repro.ra.parser", "parse_ra"),
    ("repro.trc.parser", "parse_trc"),
    ("repro.drc.parser", "parse_drc"),
    ("repro.datalog.parser", "parse_datalog"),
)


class Tracer:
    """Collects spans and the write-flush accounting for one server."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        # (relation, seconds) per service.add_rows call, in call order.
        self.applies: list = []
        # Seconds of add_rows each flushed write waited on, summed.
        self.applied_wait = 0.0

    def reset(self) -> None:
        """Drop everything recorded so far (called at quiescence)."""
        self.spans = []
        self.applies = []
        self.applied_wait = 0.0

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn):
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            span = next(ids)
            token = _current.set(span)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                _current.reset(token)
                self.spans.append((span, name, start, end, parent))

        return traced

    def wrap_async(self, name: str, fn):
        ids = self._ids

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent = _current.get()
            span = next(ids)
            token = _current.set(span)
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _clock()
                _current.reset(token)
                self.spans.append((span, name, start, end, parent))

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((next(self._ids), name, start, end, _current.get()))

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        """``{name: {"count", "total_s", "self_s"}}`` plus flush accounting."""
        totals: dict = {}
        child_time: dict = {}
        for span, name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for span, name, start, end, parent in self.spans:
            entry = totals.setdefault(name, {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(span, 0.0)
        return {"layers": totals, "flush_applied_wait_s": self.applied_wait}


class _TimedReader:
    """Stream reader proxy noting when a request's first line arrived.

    ``read_request`` also waits for the client's next request on an idle
    keep-alive connection; framing time starts when that line is in.
    """

    def __init__(self, reader) -> None:
        self._reader = reader
        self.first_line_at: "float | None" = None

    async def readline(self):
        line = await self._reader.readline()
        if self.first_line_at is None:
            self.first_line_at = _clock()
        return line

    async def readexactly(self, n: int):
        return await self._reader.readexactly(n)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the serving path for ``tracer``."""
    import importlib

    import repro.engine as engine
    import repro.engine.stats as stats
    import repro.translate.equivalence as equivalence
    from repro.core.service import MaterializedView, PreparedQuery, QueryService
    from repro.core.service_api import ServiceBase
    from repro.data.relation import Relation
    from repro.server import protocol
    from repro.server.admission import AdmissionController
    from repro.server.app import ServingApp
    from repro.server.worker import WriteWorker

    # server: framing, admission, request root, executor context, writes
    original_read = protocol.read_request

    async def read_request(reader):
        timed = _TimedReader(reader)
        request = await original_read(timed)
        if request is not None and timed.first_line_at is not None:
            tracer.record("server.read_request", timed.first_line_at, _clock())
        return request

    protocol.read_request = read_request
    protocol.render_response = tracer.wrap("server.render_response",
                                           protocol.render_response)
    ServingApp._respond = tracer.wrap_async("server.request",
                                            ServingApp._respond)

    original_call = ServingApp._call

    async def call_in_context(self, fn, *args, **kwargs):
        return await original_call(self, contextvars.copy_context().run,
                                   fn, *args, **kwargs)

    ServingApp._call = call_in_context

    original_slot = AdmissionController.slot

    @asynccontextmanager
    async def slot(self):
        start = _clock()
        async with original_slot(self):
            tracer.record("server.admission_wait", start, _clock())
            yield

    AdmissionController.slot = slot
    WriteWorker.submit = tracer.wrap_async("server.submit", WriteWorker.submit)

    original_flush = WriteWorker._flush

    async def flush(self, batch):
        items: dict = {}
        for item in batch:
            items[item.relation] = items.get(item.relation, 0) + 1
        first = len(tracer.applies)
        await original_flush(self, batch)
        for relation, seconds in tracer.applies[first:]:
            tracer.applied_wait += seconds * items.get(relation, 0)

    WriteWorker._flush = tracer.wrap_async("server.flush", flush)

    original_add_rows = QueryService.add_rows

    def add_rows(self, relation, rows, **kwargs):
        start = _clock()
        try:
            return original_add_rows(self, relation, rows, **kwargs)
        finally:
            tracer.applies.append((relation, _clock() - start))

    QueryService.add_rows = tracer.wrap("service.add_rows", add_rows)
    Relation.add_rows = tracer.wrap("storage.add_rows", Relation.add_rows)

    # core.service / core.pipeline: the read roots and view maintenance
    ServiceBase.query = tracer.wrap("service.query", ServiceBase.query)
    PreparedQuery.query = tracer.wrap("service.prepared", PreparedQuery.query)
    MaterializedView._refresh_locked = tracer.wrap(
        "view.refresh", MaterializedView._refresh_locked)

    # parsers, lowering, optimizer, stats, executors, interpreter fallback
    for module_name, function in PARSERS:
        module = importlib.import_module(module_name)
        setattr(module, function,
                tracer.wrap("parse", getattr(module, function)))
    engine.detect_language = tracer.wrap("parse.detect_language",
                                         engine.detect_language)
    engine.lower = tracer.wrap("lower", engine.lower)
    engine.optimize = tracer.wrap("optimize", engine.optimize)
    stats.collect_table_stats = tracer.wrap("stats.collect",
                                            stats.collect_table_stats)
    engine.execute_plan = tracer.wrap("execute", engine.execute_plan)
    engine.execute_datalog = tracer.wrap("datalog", engine.execute_datalog)
    equivalence.answer_relation = tracer.wrap("fallback",
                                              equivalence.answer_relation)
