"""In-memory span tracer and the wrappers that time each layer from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of the pipeline's layers with wrappers that
record one span per call, and :func:`uninstall` puts the originals back.
Each name is patched where its caller looks it up: a module-level
function in the module that imports it (``repro.crawl.httparchive.write_har``),
a method on its class (``ChromiumBrowser.visit``).

A span carries a name, start, end, parent span and operation id.  Spans
are appended to per-thread arrays (no lock on the hot path) and written
out by :meth:`Tracer.dump`.  Per-name call counts, total time and self
time are aggregated online: self time is a span's duration minus what its
child spans *on the same thread* cover.  Work a span hands to pool
threads (``runtime.map_sites`` under a thread executor) still names that
span as parent, but it is not subtracted: the waiting thread's span keeps
the wait as self time.
"""

from __future__ import annotations

import array
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "EXACT_COUNTERS",
    "LAYER_NAMES",
    "Tracer",
    "install",
    "load_spans",
    "uninstall",
]

_perf = time.perf_counter

#: Every span name the wrappers record, in a fixed order.  ``op.*`` are
#: the per-operation roots the benchmark itself opens.
LAYER_NAMES = (
    "op.study",
    "op.request",
    "browser.visit",
    "loader.load",
    "pool.get_connection",
    "dns.resolve",
    "tls.verify",
    "h2.request",
    "hpack.encode",
    "har.write",
    "har.read",
    "netlog.parse",
    "classifier",
    "store.get",
    "store.put",
    "runlog.append",
    "analysis.merge",
    "analysis.digest",
    "runtime.map_sites",
    "web.generate",
    "serve.run_study",
)
_INDEX = {name: index for index, name in enumerate(LAYER_NAMES)}

#: Counters that are a pure function of the workload's inputs on a
#: serial executor, so two runs of the same code must repeat them
#: exactly.  Times are not in this list.
EXACT_COUNTERS = (
    "browser.visit.calls",
    "pool.get_connection.calls",
    "pool.connections_opened",
    "pool.coalesced",
    "dns.resolve.calls",
    "tls.verify.calls",
    "h2.request.calls",
    "hpack.encode.calls",
    "har.write.calls",
    "har.read.calls",
    "netlog.events",
    "netlog.events_parsed",
    "classifier.calls",
    "store.get.calls",
    "store.hits",
    "store.misses",
    "store.bytes_read",
    "store.put.calls",
    "store.bytes_written",
    "runlog.append.calls",
    "analysis.merge.calls",
    "runtime.map_sites.calls",
    "web.generate.calls",
)

_SPAN_FIELDS = (
    ("id", "q"), ("parent", "q"), ("op", "q"), ("name", "h"),
    ("start", "d"), ("end", "d"),
)


class _ThreadState:
    """One thread's span stack, aggregates and recorded spans."""

    __slots__ = ("stack", "op", "calls", "total", "self_s", "counters",
                 "spans")

    def __init__(self) -> None:
        #: Open spans as ``[span_id, child_seconds]`` frames.
        self.stack: list[list] = []
        self.op = 0
        self.calls = [0] * len(LAYER_NAMES)
        self.total = [0.0] * len(LAYER_NAMES)
        self.self_s = [0.0] * len(LAYER_NAMES)
        self.counters: dict[str, int] = {}
        self.spans = {field: array.array(code) for field, code in _SPAN_FIELDS}


class Tracer:
    """Collects spans and per-layer aggregates for one traced phase."""

    def __init__(self, *, enabled: bool = True) -> None:
        #: Wrappers call straight through while this is false.
        self.enabled = enabled
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # ------------------------------------------------------------------
    # Recording.

    def _open(self, state: _ThreadState) -> tuple[list, list | None]:
        frame = [next(self._ids), 0.0]
        parent = state.stack[-1] if state.stack else None
        state.stack.append(frame)
        return frame, parent

    def _close(self, state: _ThreadState, index: int, frame: list,
               parent: list | None, start: float, end: float) -> None:
        state.stack.pop()
        duration = end - start
        state.calls[index] += 1
        state.total[index] += duration
        state.self_s[index] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        spans = state.spans
        spans["id"].append(frame[0])
        spans["parent"].append(parent[0] if parent is not None else 0)
        spans["op"].append(state.op)
        spans["name"].append(index)
        spans["start"].append(start)
        spans["end"].append(end)

    @contextmanager
    def operation(self, op_id: int, name: str):
        """A root span around the ``with`` body that tags every span
        under it with ``op_id``."""
        if not self.enabled:
            yield
            return
        state = self.state()
        previous = state.op
        state.op = op_id
        frame, parent = self._open(state)
        start = _perf()
        try:
            yield
        finally:
            self._close(state, _INDEX[name], frame, parent, start, _perf())
            state.op = previous

    def count(self, key: str, value: int = 1) -> None:
        counters = self.state().counters
        counters[key] = counters.get(key, 0) + value

    # ------------------------------------------------------------------
    # Reading.

    def totals(self) -> dict[str, float]:
        """Every aggregate so far, summed over threads, by metric name.

        ``<layer>.calls``, ``<layer>.s`` (total) and ``<layer>.self_s``
        for each span name, plus the free-form counters.
        """
        with self._lock:
            states = list(self._states)
        out: dict[str, float] = {}
        for index, name in enumerate(LAYER_NAMES):
            out[f"{name}.calls"] = sum(s.calls[index] for s in states)
            out[f"{name}.s"] = sum(s.total[index] for s in states)
            out[f"{name}.self_s"] = sum(s.self_s[index] for s in states)
        for state in states:
            for key, value in state.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def spans(self) -> dict[str, list]:
        """All recorded spans as columns (``id``, ``parent``, ``op``,
        ``name``, ``start``, ``end``), names resolved to strings."""
        with self._lock:
            states = list(self._states)
        columns: dict[str, list] = {field: [] for field, _ in _SPAN_FIELDS}
        for state in states:
            for field, _ in _SPAN_FIELDS:
                columns[field].extend(state.spans[field])
        columns["name"] = [LAYER_NAMES[index] for index in columns["name"]]
        return columns

    def dump(self, prefix: str | os.PathLike) -> int:
        """Write every span to ``<prefix>.json`` (header) and
        ``<prefix>.bin`` (one array per field); returns the span count."""
        with self._lock:
            states = list(self._states)
        count = sum(len(state.spans["id"]) for state in states)
        prefix = Path(prefix)
        with open(prefix.with_suffix(".bin"), "wb") as handle:
            for field, _ in _SPAN_FIELDS:
                for state in states:
                    state.spans[field].tofile(handle)
        header = {
            "count": count,
            "fields": [[field, code] for field, code in _SPAN_FIELDS],
            "names": list(LAYER_NAMES),
            "time": "perf_counter seconds",
        }
        prefix.with_suffix(".json").write_text(json.dumps(header, indent=1))
        return count


def load_spans(prefix: str | os.PathLike) -> dict[str, list]:
    """Read a :meth:`Tracer.dump` back as columns (names resolved)."""
    prefix = Path(prefix)
    header = json.loads(prefix.with_suffix(".json").read_text())
    count = header["count"]
    columns: dict[str, list] = {}
    with open(prefix.with_suffix(".bin"), "rb") as handle:
        for field, code in header["fields"]:
            column = array.array(code)
            column.fromfile(handle, count)
            columns[field] = list(column)
    columns["name"] = [header["names"][index] for index in columns["name"]]
    return columns


# ----------------------------------------------------------------------
# Wrappers.

Post = Callable[[Tracer, tuple, Any], None]


def _wrap(tracer: Tracer, name: str, fn: Callable, post: Post | None):
    index = _INDEX[name]

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        state = tracer.state()
        frame, parent = tracer._open(state)
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._close(state, index, frame, parent, start, _perf())
        if post is not None:
            post(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _wrap_map_sites(tracer: Tracer, fn: Callable):
    """``map_sites`` span whose per-item work keeps it as parent and
    keeps the operation id, also when a pool thread runs the item."""
    index = _INDEX["runtime.map_sites"]

    def traced(self, work, items, **kwargs):
        if not tracer.enabled:
            return fn(self, work, items, **kwargs)
        state = tracer.state()
        frame, parent = tracer._open(state)
        origin = (frame[0], state.op)

        def adopted(item):
            worker = tracer.state()
            if worker is state:
                return work(item)
            # A pool thread: parent the item's spans on this map_sites
            # span through a placeholder frame, without charging the
            # placeholder's child time to anyone.
            worker.stack.append([origin[0], 0.0])
            previous, worker.op = worker.op, origin[1]
            try:
                return work(item)
            finally:
                worker.stack.pop()
                worker.op = previous

        start = _perf()
        try:
            return fn(self, adopted, items, **kwargs)
        finally:
            tracer._close(state, index, frame, parent, start, _perf())

    traced.__wrapped__ = fn
    return traced


def _wrap_request(tracer: Tracer, fn: Callable):
    """The HTTP handler's ``do_POST`` as the ``op.request`` root; the
    operation id comes from the client's ``X-Bench-Op`` header."""

    def traced(handler):
        try:
            op_id = int(handler.headers.get("X-Bench-Op", "0"))
        except ValueError:
            op_id = 0
        with tracer.operation(op_id, "op.request"):
            return fn(handler)

    traced.__wrapped__ = fn
    return traced


def _post_visit(tracer, args, visit) -> None:
    tracer.count("netlog.events", len(visit.netlog))


def _post_connection(tracer, args, decision) -> None:
    if decision.created:
        tracer.count("pool.connections_opened")
    if decision.coalesced:
        tracer.count("pool.coalesced")


def _post_parse(tracer, args, result) -> None:
    tracer.count("netlog.events_parsed", len(args[0]))


def _post_store_get(tracer, args, artefact) -> None:
    cache, kind, key = args[:3]
    if artefact is None:
        tracer.count("store.misses")
        return
    tracer.count("store.hits")
    try:
        tracer.count("store.bytes_read", os.path.getsize(cache._path(kind, key)))
    except (AttributeError, OSError, ValueError):
        pass


def _post_store_put(tracer, args, path) -> None:
    try:
        tracer.count("store.bytes_written", os.path.getsize(path))
    except (OSError, TypeError):
        pass


def _targets(handler_cls: type | None) -> list[tuple[Any, str, str, Post | None]]:
    """``(owner, attribute, span name, post hook)`` for every layer."""
    import repro.analysis.digest
    import repro.analysis.study
    import repro.browser.browser
    import repro.browser.loader
    import repro.browser.pool
    import repro.crawl.alexa
    import repro.crawl.classify
    import repro.crawl.httparchive
    import repro.dns.resolver
    import repro.h2.connection
    import repro.h2.hpack
    import repro.runlog.journal
    import repro.runtime.executor
    import repro.serve.service
    import repro.store.cache
    import repro.sweep.runner
    import repro.web.ecosystem

    targets = [
        (repro.browser.browser.ChromiumBrowser, "visit", "browser.visit",
         _post_visit),
        (repro.browser.loader.PageLoader, "load", "loader.load", None),
        (repro.browser.pool.ConnectionPool, "get_connection",
         "pool.get_connection", _post_connection),
        (repro.dns.resolver.RecursiveResolver, "resolve", "dns.resolve", None),
        (repro.browser.pool, "verify_certificate", "tls.verify", None),
        (repro.h2.connection.Http2Connection, "perform_request", "h2.request",
         None),
        (repro.h2.hpack.HpackEncoder, "encode", "hpack.encode", None),
        (repro.crawl.httparchive, "write_har", "har.write", None),
        (repro.crawl.httparchive, "read_sessions", "har.read", None),
        (repro.crawl.alexa, "parse_sessions", "netlog.parse", _post_parse),
        (repro.crawl.classify, "classify_site", "classifier", None),
        (repro.crawl.httparchive, "classify_site", "classifier", None),
        (repro.store.cache.StudyCache, "get", "store.get", _post_store_get),
        (repro.store.cache.StudyCache, "put", "store.put", _post_store_put),
        (repro.runlog.journal.RunJournal, "append", "runlog.append", None),
        (repro.analysis.study, "merge_classified_datasets", "analysis.merge",
         None),
        (repro.analysis.digest, "study_digest", "analysis.digest", None),
        (repro.sweep.runner, "study_digest", "analysis.digest", None),
        (repro.runtime.executor.SerialExecutor, "map_sites",
         "runtime.map_sites", None),
        (repro.runtime.executor.ThreadExecutor, "map_sites",
         "runtime.map_sites", None),
        (repro.web.ecosystem.Ecosystem, "generate", "web.generate", None),
        (repro.serve.service.StudyService, "run_study", "serve.run_study",
         None),
    ]
    if handler_cls is not None:
        targets.append((handler_cls, "do_POST", "op.request", None))
    return targets


#: What :func:`install` replaced: ``(owner, attribute, original)``, the
#: original being ``None`` where the attribute was inherited.
Patches = list[tuple[Any, str, Any]]


def install(tracer: Tracer, *, handler_cls: type | None = None) -> Patches:
    """Patch every layer target to record into ``tracer``."""
    patches: Patches = []
    for owner, attr, name, post in _targets(handler_cls):
        own = vars(owner).get(attr) if isinstance(owner, type) else None
        if isinstance(own, classmethod):
            wrapped = classmethod(_wrap(tracer, name, own.__func__, post))
        else:
            fn = getattr(owner, attr)
            if attr == "map_sites":
                wrapped = _wrap_map_sites(tracer, fn)
            elif attr == "do_POST":
                wrapped = _wrap_request(tracer, fn)
            else:
                wrapped = _wrap(tracer, name, fn, post)
        original = own if isinstance(owner, type) else getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    return patches


def uninstall(patches: Patches) -> None:
    """Restore every original :func:`install` replaced."""
    for owner, attr, original in reversed(patches):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
    patches.clear()
