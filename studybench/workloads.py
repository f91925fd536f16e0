"""The three workloads: cold studies, warm sharded re-runs, mixed serve traffic.

Each workload is a closed loop: a client issues its next operation only
after the previous one returned.  Every operation's output is checked
against a reference the timed run did not produce (see
:func:`load_references`), and a wrong answer counts as a failed
operation whose latency misses every limit.

A workload returns a :class:`Outcome`; :mod:`run` prints it.  With
``trace=False`` the metrics are the end-to-end ones; with ``trace=True``
the workload runs an untraced phase and then the same work traced, and
the metrics are the per-layer ones (values per operation) plus
``trace.overhead_share``.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import importlib.util
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

from tracer import EXACT_COUNTERS, Tracer, install, uninstall

HERE = Path(__file__).resolve().parent

__all__ = [
    "FULL",
    "TINY",
    "WORKLOADS",
    "Context",
    "Outcome",
    "load_references",
]

#: Crawl and classification stages: on a warm operation each must report
#: zero pending items (the same rule as the service's ``cached`` flag).
MEASURED_STAGES = (
    "crawl-httparchive",
    "crawl-alexa-fetch",
    "crawl-alexa-nofetch",
    "classify-datasets",
)
#: Every ``StageTimings`` stage a study records, in pipeline order.
STAGES = ("generate-ecosystem",) + MEASURED_STAGES + ("overlap",)

#: Simulated DNS-study length of every config here.  It never enters a
#: digest; 0.25 days is what the pinned benchmark scales use.
DNS_DAYS = 0.25


@dataclass(frozen=True)
class Scale:
    """Input sizes of all workloads."""

    #: ``study-cold``: sites per study, and the study seeds.  The first
    #: seed runs first in every run; the others follow in an order the
    #: workload seed picks.
    cold_sites: int
    cold_seeds: tuple[int, ...]
    #: ``study-warm``: one sharded config, its seed picked from
    #: ``warm_seeds`` by the workload seed.
    warm_sites: int
    warm_shards: int
    warm_seeds: tuple[int, ...]
    #: ``serve-mixed``: size of every requested study, the warm set's
    #: size, and the ``(seed, fault_profile, h3_profile)`` candidates
    #: for warm extras and cold requests.
    serve_sites: int
    serve_shards: int
    serve_warm: int
    serve_pool: tuple[tuple[int, str, str], ...]
    #: How many times setup is repeated for ``setup_s``: an import for
    #: ``study-cold`` (about half of them after the timed phase), a cold
    #: cache fill for the other two.
    setup_repeats: int
    fill_repeats: int


def _serve_pool(count: int) -> tuple[tuple[int, str, str], ...]:
    """Fresh clean-profile seeds; the goldens bring chaos and broad."""
    return tuple((1000 + index, "none", "none") for index in range(count))


FULL = Scale(
    cold_sites=1200,
    cold_seeds=(7, 11, 13, 17, 19, 23, 29, 31),
    warm_sites=600,
    warm_shards=8,
    warm_seeds=(7, 11, 13, 17, 19, 23, 29, 31),
    serve_sites=120,
    serve_shards=4,
    serve_warm=8,
    serve_pool=_serve_pool(40),
    setup_repeats=11,
    fill_repeats=2,
)

#: A few-second pass of every workload for the benchmark's own tests.
TINY = Scale(
    cold_sites=60,
    cold_seeds=(7, 11),
    warm_sites=60,
    warm_shards=2,
    warm_seeds=(7, 11),
    serve_sites=60,
    serve_shards=2,
    serve_warm=4,
    serve_pool=_serve_pool(8),
    setup_repeats=1,
    fill_repeats=1,
)


# ----------------------------------------------------------------------
# References.

RefKey = tuple[int, int, str, str]


def ref_key(config) -> RefKey:
    """What a digest depends on among the fields the workloads vary."""
    return (config.seed, config.n_sites, config.fault_profile,
            config.h3_profile)


def load_references(root: Path, *, include_pinned: bool = True
                    ) -> dict[RefKey, str]:
    """Pinned study digests, by :func:`ref_key`.

    * the golden snapshots ``tests/golden/{digest,faulted_digest,h3_digest}.txt``
      under the configs ``tests/golden/regenerate.py`` defines;
    * every run in ``BENCH_pipeline.json`` (its ``stress`` scale is the
      ``study-cold`` config at seed 7);
    * ``references.json`` next to this file, recorded by ``pin.py`` from
      serial, unsharded, cacheless studies.

    Two sources disagreeing on one config is an error.
    """
    refs: dict[RefKey, str] = {}

    def add(key: RefKey, digest: str, source: str) -> None:
        if refs.setdefault(key, digest) != digest:
            raise ValueError(
                f"references disagree on {key}: {refs[key]} vs {digest} "
                f"({source})"
            )

    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", root / "tests" / "golden" / "regenerate.py"
    )
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    for filename, make in (
        ("digest.txt", golden.golden_config),
        ("faulted_digest.txt", golden.faulted_config),
        ("h3_digest.txt", golden.h3_config),
    ):
        digest = (root / "tests" / "golden" / filename).read_text().strip()
        add(ref_key(make()), digest, filename)
    bench = json.loads((root / "BENCH_pipeline.json").read_text())
    for run in bench["runs"]:
        if {"seed", "n_sites", "digest"} <= set(run):
            add((run["seed"], run["n_sites"], "none", "none"), run["digest"],
                "BENCH_pipeline.json")
    if not include_pinned:
        return refs
    pinned = json.loads((HERE / "references.json").read_text())
    for entry in pinned["studies"]:
        add((entry["seed"], entry["n_sites"], entry["fault_profile"],
             entry["h3_profile"]), entry["digest"], "references.json")
    return refs


# ----------------------------------------------------------------------
# Shared plumbing.

@dataclass
class Context:
    """Everything a workload needs from the command line."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    scale: Scale = FULL
    #: Pinned digests (see :func:`load_references`).
    references: dict[RefKey, str] = field(init=False)
    #: Working space inside the checkout (caches, spans, counters).
    out: Path = field(init=False)

    def __post_init__(self) -> None:
        self.out = self.root / ".studybench"
        self.out.mkdir(exist_ok=True)
        self.references = load_references(self.root)

    def subprocess_env(self) -> dict[str, str]:
        # Benchmark harness, not pipeline code: children need the host env.
        env = dict(os.environ)  # repro-lint: ignore[determinism]
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: ``name -> (value, unit)`` for the JSON line.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Further figures printed above the JSON line, ``name -> (value,
    #: unit, samples)``.
    detail: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: Every timed operation, for the result file.
    ops: list[dict] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


@dataclass
class Op:
    """One timed operation and its checked result."""

    latency: float
    ok: bool
    sites: int
    key: RefKey | None = None
    kind: str = "study"
    stages: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] | None = None
    first_event: float | None = None
    status: int = 200
    op_id: int = 0
    stream: bool = False
    #: Issue time, seconds after the timed phase began.
    started: float = 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: list[float], share: float) -> float | None:
    """Nearest-rank percentile, or ``None`` unless at least ten samples
    lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(share * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def import_seconds(ctx: Context) -> float:
    """Wall time of a fresh interpreter importing the study pipeline."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import repro.analysis.study, repro.analysis.digest, repro.store"],
        env=ctx.subprocess_env(), cwd=ctx.root, check=True,
    )
    return time.perf_counter() - started


class RssSampler:
    """Peak resident set size of one process, sampled every 20 ms."""

    def __init__(self, pid: int) -> None:
        self._path = f"/proc/{pid}/statm"
        self._page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        try:
            with open(self._path) as handle:
                resident = int(handle.read().split()[1]) * self._page
        except (OSError, ValueError, IndexError):
            return
        self.peak = max(self.peak, resident)

    def _run(self) -> None:
        while not self._stop.wait(0.02):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / (1024 * 1024)


def settle() -> None:
    """Collect setup's garbage so the timed phase does not pay for it."""
    gc.collect()


def closed_loop(seconds: float, step: Callable[[int], Op]) -> tuple[list[Op], float]:
    """Run ``step(i)`` back to back until ``seconds`` have passed."""
    settle()
    ops: list[Op] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        ops.append(step(len(ops)))
    return ops, time.perf_counter() - started


def sites_per_s(ops: list[Op], elapsed: float) -> float:
    return sum(op.sites for op in ops if op.ok) / elapsed


def latencies(ops: list[Op]) -> list[float]:
    """Per-operation seconds; a failed operation misses every limit."""
    return [op.latency if op.ok else math.inf for op in ops]


def end_to_end(outcome: Outcome, setup: list[float], ops: list[Op],
               elapsed: float, peak_mb: float) -> None:
    times = latencies(ops)
    outcome.ops = [
        {"kind": op.kind, "config": op.key, "ok": op.ok,
         "stream": op.stream, "started": round(op.started, 4),
         "seconds": round(op.latency, 4)}
        for op in ops
    ]
    outcome.metrics.update({
        "setup_s": (median(setup), "s"),
        "sites_per_s": (sites_per_s(ops, elapsed), "sites/s"),
        "study_s_p50": (median(times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    })
    outcome.detail.update({
        "setup_s": (median(setup), "s", len(setup)),
        "study_s_p50": (median(times), "s", len(times)),
        "timed_s": (elapsed, "s", 1),
        "failed_share": (
            outcome.failed / outcome.attempted if outcome.attempted else 0.0,
            "ratio", outcome.attempted,
        ),
    })
    p90 = percentile(times, 0.9)
    if p90 is not None:
        outcome.detail["study_s_p90"] = (p90, "s", len(times))


def stage_seconds(timings) -> dict[str, float]:
    out: dict[str, float] = {}
    for stage in timings.stages:
        out[stage.name] = out.get(stage.name, 0.0) + stage.seconds
    return out


def _per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def layer_metrics(totals: dict[str, float], ops: list[Op],
                  overhead: float, serve: dict | None = None
                  ) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each per operation of the traced phase."""
    n = len(ops)

    def per(key: str) -> float:
        return _per_op(totals.get(key, 0), n)

    metrics: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        metrics[f"stage.{stage}.s"] = (
            _per_op(sum(op.stages.get(stage, 0.0) for op in ops), n), "s/op"
        )
    for layer, fields in (
        ("browser.visit", ("calls", "self_s")),
        ("loader.load", ("self_s",)),
        ("pool.get_connection", ("calls", "self_s")),
        ("dns.resolve", ("calls", "self_s")),
        ("tls.verify", ("calls", "self_s")),
        ("h2.request", ("calls", "self_s")),
        ("hpack.encode", ("calls", "s")),
        ("har.write", ("calls", "s")),
        ("har.read", ("calls", "s")),
        ("store.get", ("calls", "s")),
        ("store.put", ("calls", "s")),
        ("runlog.append", ("calls", "s")),
        ("runtime.map_sites", ("calls", "self_s")),
        ("web.generate", ("calls", "s")),
    ):
        for item in fields:
            unit = "calls/op" if item == "calls" else "s/op"
            metrics[f"{layer}.{item}"] = (per(f"{layer}.{item}"), unit)
    connections = totals.get("pool.get_connection.calls", 0)
    metrics["pool.connections_opened"] = (
        per("pool.connections_opened"), "count/op")
    metrics["pool.coalesced_share"] = (
        totals.get("pool.coalesced", 0) / connections if connections else 0.0,
        "ratio")
    events = totals.get("netlog.events", 0)
    metrics["netlog.events"] = (per("netlog.events"), "count/op")
    metrics["netlog.events_unread"] = (
        _per_op(events - totals.get("netlog.events_parsed", 0), n),
        "count/op")
    metrics["netlog.parse.s"] = (per("netlog.parse.s"), "s/op")
    metrics["classifier.sites"] = (per("classifier.calls"), "count/op")
    metrics["classifier.self_s"] = (per("classifier.self_s"), "s/op")
    lookups = totals.get("store.hits", 0) + totals.get("store.misses", 0)
    metrics["store.hits"] = (per("store.hits"), "count/op")
    metrics["store.misses"] = (per("store.misses"), "count/op")
    metrics["store.hit_share"] = (
        totals.get("store.hits", 0) / lookups if lookups else 0.0, "ratio")
    metrics["store.bytes_read"] = (per("store.bytes_read"), "B/op")
    metrics["store.bytes_written"] = (per("store.bytes_written"), "B/op")
    metrics["analysis.merge.s"] = (per("analysis.merge.s"), "s/op")
    metrics["analysis.digest.s"] = (per("analysis.digest.s"), "s/op")
    serve = serve or {}
    metrics["serve.run_study.s"] = (per("serve.run_study.s"), "s/op")
    metrics["serve.http_overhead_ms"] = (
        serve.get("http_overhead_ms", 0.0), "ms")
    metrics["serve.rejected"] = (float(serve.get("rejected", 0)), "count")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


def exact_counters(before: dict[str, float], after: dict[str, float]
                   ) -> dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in EXACT_COUNTERS}


def timed_op(tracer: Tracer | None, op_id: int, work: Callable):
    """Run ``work()`` as one operation, under an ``op.study`` root span
    when traced; returns its result, wall seconds and (traced only) the
    exact counters it moved."""
    if tracer is None:
        started = time.perf_counter()
        result = work()
        return result, time.perf_counter() - started, None
    before = tracer.totals()
    started = time.perf_counter()
    with tracer.operation(op_id, "op.study"):
        result = work()
    seconds = time.perf_counter() - started
    return result, seconds, exact_counters(before, tracer.totals())


def source_hash(root: Path) -> str:
    """Content hash of ``src/``: exact counters are compared only
    between runs of identical code."""
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def check_exact_counters(ctx: Context, workload: str, ops: list[Op],
                         outcome: Outcome) -> None:
    """Exact counters must repeat for a repeated config: within this
    run, and against any earlier run of the same code in this checkout
    (kept in ``.studybench/exact_counters.json``).  A mismatch fails the
    operation and names the layer counters that differ."""
    store_path = ctx.out / "exact_counters.json"
    try:
        stored = json.loads(store_path.read_text())
    except (OSError, ValueError):
        stored = {}
    code = source_hash(ctx.root)
    known = stored.setdefault(code, {}).setdefault(workload, {})
    for op in ops:
        label = "/".join(str(part) for part in op.key)
        previous = known.setdefault(label, op.counters)
        differing = sorted(
            name for name in EXACT_COUNTERS
            if previous.get(name) != op.counters.get(name)
        )
        if differing:
            outcome.fail(
                f"exact counters differ from an earlier run of {label}: "
                + ", ".join(
                    f"{name} {previous.get(name)} != {op.counters.get(name)}"
                    for name in differing
                )
            )
    store_path.write_text(json.dumps(stored, indent=1, sort_keys=True))


def fill_cache(configs: list, cache_dir: Path) -> list[str]:
    """Setup: run ``configs`` cold into a study cache, as a user filling
    it with ``repro study --executor process --jobs 2 --cache-dir``
    would; returns their digests.  The world cache is cleared first, and
    the last world stays resident."""
    from repro.analysis.digest import study_digest
    from repro.analysis.study import Study
    from repro.runtime import clear_ecosystem_cache, make_executor
    from repro.store import StudyCache

    clear_ecosystem_cache()
    cache = StudyCache(cache_dir)
    executor = make_executor("process", 2)
    try:
        return [study_digest(Study.run(config, cache=cache, executor=executor))
                for config in configs]
    finally:
        executor.close()


def verify_later(ctx: Context, pending: list[tuple[object, str]],
                 outcome: Outcome) -> None:
    """Check digests that had no pinned reference against a serial,
    cacheless recomputation made after the timed phase."""
    from repro.analysis.digest import study_digest
    from repro.analysis.study import Study
    from repro.runtime import clear_ecosystem_cache

    for config, digest in pending:
        clear_ecosystem_cache()
        expected = study_digest(Study.run(replace(config, shards=1)))
        if digest != expected:
            outcome.fail(f"digest {digest} != recomputed {expected} "
                         f"for {ref_key(config)}")


# ----------------------------------------------------------------------
# study-cold

def _cold_sequence(scale: Scale, seed: int) -> Iterator[int]:
    """The first cold seed once, then the others over and over in an
    order the workload seed picks."""
    first, rest = scale.cold_seeds[0], list(scale.cold_seeds[1:])
    yield first
    yield from itertools.cycle(random.Random(seed).sample(rest, len(rest))
                               or [first])


def study_cold(ctx: Context) -> Outcome:
    """Full serial studies back to back, world cache cleared before each."""
    from repro.analysis import digest as digest_module
    from repro.analysis.study import Study, StudyConfig
    from repro.runtime import StageTimings, clear_ecosystem_cache

    outcome = Outcome()
    # An import takes well under a second, so the host's speed of that
    # moment decides it; timing half of the repeats after the timed phase
    # makes their median follow the host over the whole run.
    repeats = 1 if ctx.trace else ctx.scale.setup_repeats
    setup = [import_seconds(ctx) for _ in range(repeats - repeats // 2)]
    seeds = _cold_sequence(ctx.scale, ctx.seed)
    configs = []
    pending: list[tuple[object, str]] = []

    def run_one(config, tracer: Tracer | None, op_id: int) -> Op:
        clear_ecosystem_cache()
        timings = StageTimings()

        def work():
            return digest_module.study_digest(
                Study.run(config, timings=timings))

        digest, latency, counters = timed_op(tracer, op_id, work)
        op = Op(latency=latency, ok=True, sites=config.n_sites,
                key=ref_key(config), stages=stage_seconds(timings),
                counters=counters, op_id=op_id)
        outcome.attempted += 1
        expected = ctx.references.get(op.key)
        if expected is None:
            pending.append((config, digest))
        elif digest != expected:
            op.ok = False
            outcome.fail(f"study {op.key}: digest {digest} != pinned "
                         f"{expected}")
        return op

    first_peak_mb: list[float] = []

    def untraced(index: int) -> Op:
        config = StudyConfig(seed=next(seeds), n_sites=ctx.scale.cold_sites,
                             dns_study_days=DNS_DAYS)
        configs.append(config)
        op = run_one(config, None, index)
        if index == 0:
            rss.sample()
            first_peak_mb.append(rss.peak_mb)
        return op

    with RssSampler(os.getpid()) as rss:
        ops, elapsed = closed_loop(ctx.seconds, untraced)
    if not ctx.trace:
        setup += [import_seconds(ctx) for _ in range(repeats // 2)]
        verify_later(ctx, pending, outcome)
        # A CLI user's process runs one study; later studies in one
        # process grow it further (see the detail line), so the gated
        # figure is the peak through the first, always the stress config.
        end_to_end(outcome, setup, ops, elapsed, first_peak_mb[0])
        outcome.detail["peak_rss_mb_all_studies"] = (
            rss.peak_mb, "MB", len(ops))
        return outcome

    tracer = Tracer()
    patches = install(tracer)
    try:
        started = time.perf_counter()
        traced = [run_one(config, tracer, index)
                  for index, config in enumerate(configs, start=1)]
        traced_elapsed = time.perf_counter() - started
    finally:
        uninstall(patches)
    verify_later(ctx, pending, outcome)
    finish_trace(ctx, "study-cold", outcome, tracer, ops, elapsed, traced,
                 traced_elapsed)
    return outcome


def finish_trace(ctx: Context, workload: str, outcome: Outcome,
                 tracer: Tracer, ops: list[Op], elapsed: float,
                 traced: list[Op], traced_elapsed: float) -> None:
    """Per-layer metrics, repeat checks and the span dump of a traced
    in-process phase."""
    totals = tracer.totals()
    untraced_rate = sites_per_s(ops, elapsed)
    overhead = 1.0 - sites_per_s(traced, traced_elapsed) / untraced_rate
    outcome.metrics = layer_metrics(totals, traced, overhead)
    check_exact_counters(ctx, workload, traced, outcome)
    roots = sum(op.latency for op in traced)
    self_total = sum(
        value for key, value in totals.items() if key.endswith(".self_s")
    )
    outcome.detail["trace.spans"] = (
        tracer.dump(ctx.out / f"spans-{workload}"), "count", 1)
    outcome.detail["trace.self_s_total"] = (self_total, "s", len(traced))
    outcome.detail["trace.op_s_total"] = (roots, "s", len(traced))
    outcome.detail["trace.op.study.s"] = (totals["op.study.s"], "s",
                                          len(traced))


# ----------------------------------------------------------------------
# study-warm

def study_warm(ctx: Context) -> Outcome:
    """Warm re-runs of one sharded config against a filled cache."""
    from repro.analysis import digest as digest_module
    from repro.analysis.study import Study, StudyConfig
    from repro.runtime import StageTimings
    from repro.store import StudyCache

    outcome = Outcome()
    seed = random.Random(ctx.seed).choice(ctx.scale.warm_seeds)
    config = StudyConfig(seed=seed, n_sites=ctx.scale.warm_sites,
                         shards=ctx.scale.warm_shards,
                         dns_study_days=DNS_DAYS)
    setup: list[float] = []
    fill_digests: list[str] = []
    cache_dir = ctx.out / f"warm-cache-{os.getpid()}"
    try:
        for _ in range(1 if ctx.trace else ctx.scale.fill_repeats):
            shutil.rmtree(cache_dir, ignore_errors=True)
            imported = import_seconds(ctx)
            started = time.perf_counter()
            outcome.attempted += 1
            fill_digests += fill_cache([config], cache_dir)
            setup.append(imported + time.perf_counter() - started)
        cache = StudyCache(cache_dir)
        # The fill ran the same sharded fold the re-runs use, so a config
        # with no pin is also recomputed serially, unsharded, afterwards.
        expected = ctx.references.get(ref_key(config))
        if expected is None:
            expected = fill_digests[0]
            pending = [(config, expected)]
        else:
            pending = []
        for digest in fill_digests:
            if digest != expected:
                outcome.fail(f"setup fill digest {digest} != {expected}")

        def run_one(tracer: Tracer | None, op_id: int) -> Op:
            timings = StageTimings()

            def work():
                study = Study.run(config, cache=cache, timings=timings)
                return study, digest_module.study_digest(study)

            (study, digest), latency, counters = timed_op(tracer, op_id, work)
            op = Op(latency=latency, ok=True, sites=config.n_sites,
                    key=ref_key(config), stages=stage_seconds(timings),
                    counters=counters, op_id=op_id)
            outcome.attempted += 1
            items = {stage.name: stage.items for stage in timings.stages}
            recomputed = {name: items.get(name) for name in MEASURED_STAGES
                          if items.get(name) != 0}
            coverage = study.coverage
            if digest != expected:
                op.ok = False
                outcome.fail(f"warm digest {digest} != {expected}")
            elif recomputed:
                op.ok = False
                outcome.fail(f"warm run recomputed stages {recomputed}")
            elif coverage is None or not coverage.complete:
                op.ok = False
                outcome.fail(f"warm run coverage incomplete: {coverage}")
            return op

        with RssSampler(os.getpid()) as rss:
            ops, elapsed = closed_loop(
                ctx.seconds, lambda index: run_one(None, index))
        if not ctx.trace:
            verify_later(ctx, pending, outcome)
            end_to_end(outcome, setup, ops, elapsed, rss.peak_mb)
            return outcome
        tracer = Tracer()
        patches = install(tracer)
        try:
            started = time.perf_counter()
            traced = [run_one(tracer, index) for index in range(1, len(ops) + 1)]
            traced_elapsed = time.perf_counter() - started
        finally:
            uninstall(patches)
        verify_later(ctx, pending, outcome)
        finish_trace(ctx, "study-warm", outcome, tracer, ops, elapsed,
                     traced, traced_elapsed)
        return outcome
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# serve-mixed

#: The server grows request after request, and how many requests a timed
#: phase holds depends on the host's speed; so ``peak_rss_mb`` is the
#: server's peak through this many requests (two blocks of the mix).  Over
#: the first block alone it depends on the order of the requests.
RSS_REQUESTS = 32


@dataclass(frozen=True)
class Job:
    """One request of the serve mix."""

    kind: str  # "warm", "cold" or "pair"
    config: tuple[int, str, str]
    stream: bool
    barrier: threading.Barrier | None = None


class JobSource:
    """The seeded request mix, shared by the client threads.

    Requests come in blocks of 16: two cold (fresh pool configs), one
    concurrent pair of one warm config, twelve single warm requests;
    four of the 16 stream SSE.  Every warm config is asked about once
    per block before any is asked twice.  The seed picks configs and
    order, never the proportions, so runs with different seeds do the
    same kinds of work.  A block started before the deadline is finished; none starts
    after it.  The second half of a pair goes to whichever thread asks
    next, which is always the other thread: the first waits at the
    pair's barrier.
    """

    def __init__(self, seed: int, warm: list, cold: list,
                 deadline: float) -> None:
        self._rng = random.Random(seed)
        self._warm = warm
        self._cold = list(cold)
        self._deadline = deadline
        self._queue: list[Job] = []
        self._lock = threading.Lock()

    def unused_cold(self) -> list:
        with self._lock:
            return list(self._cold)

    def _block(self) -> list[Job]:
        rng = self._rng
        kinds = ["cold"] * 2 + ["pair"] + ["warm"] * 12
        rng.shuffle(kinds)
        streams = set(rng.sample(range(16), 4))
        # Every warm config once, then distinct ones for the remaining
        # picks: each config is asked about equally often.
        picks = rng.sample(self._warm, len(self._warm))
        while len(picks) < len(kinds):
            picks += rng.sample(self._warm, len(self._warm))
        jobs: list[Job] = []
        for kind, config in zip(kinds, picks):
            if kind == "cold" and not self._cold:
                kind = "warm"
            if kind == "cold":
                jobs.append(Job("cold", self._cold.pop(0),
                                len(jobs) in streams))
                continue
            if kind == "pair":
                barrier = threading.Barrier(2)
                for _ in range(2):
                    jobs.append(Job("pair", config, len(jobs) in streams,
                                    barrier))
            else:
                jobs.append(Job("warm", config, len(jobs) in streams))
        return jobs

    def next(self) -> Job | None:
        with self._lock:
            if not self._queue:
                if time.perf_counter() >= self._deadline:
                    return None
                self._queue = self._block()
            return self._queue.pop(0)


class Server:
    """A launcher subprocess serving on an ephemeral port."""

    def __init__(self, ctx: Context, cache_dir: Path, *, trace: bool) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--cache-dir", str(cache_dir)]
        if trace:
            command.append("--trace")
        self._log = open(ctx.out / f"serve-{os.getpid()}.log", "ab")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True, cwd=ctx.root,
            env=ctx.subprocess_env(),
        )
        words = self.proc.stdout.readline().split()
        if len(words) != 3 or words[0] != "ready":
            self.stop()
            raise RuntimeError("serve launcher did not start; see "
                               f"{self._log.name}")
        self.host, self.port = words[1], int(words[2])

    def command(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if reply != "ok":
            raise RuntimeError(f"serve launcher answered {reply!r} to {line!r}")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()
        if self.proc.returncode == 0:
            os.unlink(self._log.name)


def _body(ctx: Context, config: tuple[int, str, str]) -> dict:
    seed, fault, h3 = config
    return {
        "schema": 1, "seed": seed, "n_sites": ctx.scale.serve_sites,
        "shards": ctx.scale.serve_shards, "dns_study_days": DNS_DAYS,
        "fault_profile": fault, "h3_profile": h3,
    }


def post_study(server: Server, body: dict, *, stream: bool, op_id: int
               ) -> tuple[int, dict | None, float, float | None]:
    """``(status, payload, seconds, first-event seconds)`` of one POST."""
    headers = {"Content-Type": "application/json", "X-Bench-Op": str(op_id)}
    if stream:
        headers["Accept"] = "text/event-stream"
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=170)
    started = time.perf_counter()
    first_event = None
    try:
        connection.request("POST", "/v1/study", json.dumps(body), headers)
        response = connection.getresponse()
        if not stream or response.status != 200:
            raw = response.read()
            payload = json.loads(raw) if response.status == 200 else None
            return response.status, payload, time.perf_counter() - started, None
        payload = None
        event = None
        for line in response:
            line = line.decode().rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
                if first_event is None:
                    first_event = time.perf_counter() - started
            elif line.startswith("data: ") and event in ("result", "error"):
                payload = json.loads(line[len("data: "):])
                if event == "error":
                    return 500, payload, time.perf_counter() - started, \
                        first_event
        return 200, payload, time.perf_counter() - started, first_event
    finally:
        connection.close()


def serve_mixed(ctx: Context) -> Outcome:
    """Seeded ``POST /v1/study`` traffic from two client threads."""
    scale = ctx.scale
    outcome = Outcome()
    # The warm set is the same for every seed (the goldens, then the
    # first pool configs), so seeds differ in order and cold configs
    # only; the seed shuffles the rest of the pool into the cold order.
    goldens = [(7, "none", "none"), (7, "chaos", "none"), (7, "none", "broad")]
    pool = [config for config in scale.serve_pool if config not in goldens]
    extra = scale.serve_warm - len(goldens)
    warm, cold = goldens + pool[:extra], pool[extra:]
    random.Random(ctx.seed).shuffle(cold)
    expected: dict[tuple[int, str, str], str] = {}
    pending: list[tuple[object, str]] = []
    early_peak_mb: list[float] = []
    lock = threading.Lock()

    def key(config) -> RefKey:
        return (config[0], scale.serve_sites, config[1], config[2])

    def check(job_kind: str, config, status: int, payload: dict | None
              ) -> str | None:
        """The reason a response is wrong, or ``None``."""
        if status != 200 or payload is None:
            return f"HTTP {status}"
        digest = payload.get("digest")
        reference = expected.get(config) or ctx.references.get(key(config))
        if reference is None:
            with lock:
                pending.append((study_config(config), digest))
        elif digest != reference:
            return f"digest {digest} != {reference}"
        if job_kind == "cold":
            if payload.get("cached"):
                return "cold request answered from cache"
        else:
            if not payload.get("cached"):
                return "warm request not cached"
            recomputed = {stage["name"]: stage["items"]
                          for stage in payload.get("stages", [])
                          if stage["name"] in MEASURED_STAGES
                          and stage["items"] != 0}
            if recomputed:
                return f"warm request recomputed {recomputed}"
        return None

    def study_config(config):
        from repro.analysis.study import StudyConfig

        return StudyConfig(seed=config[0], n_sites=scale.serve_sites,
                           shards=scale.serve_shards, fault_profile=config[1],
                           h3_profile=config[2], dns_study_days=DNS_DAYS)

    def phase(server: Server, source: JobSource, first_op: int,
              rss: RssSampler | None = None) -> tuple[list[Op], float]:
        ops: list[Op] = []
        counter = iter(range(first_op, first_op + 1_000_000))

        def client() -> None:
            while True:
                job = source.next()
                if job is None:
                    return
                if job.barrier is not None:
                    try:
                        job.barrier.wait(timeout=120)
                    except threading.BrokenBarrierError:
                        pass
                with lock:
                    op_id = next(counter)
                issued = time.perf_counter() - started
                try:
                    status, payload, seconds, first = post_study(
                        server, _body(ctx, job.config), stream=job.stream,
                        op_id=op_id)
                except (OSError, http.client.HTTPException, ValueError):
                    # No usable response (connection lost, bad JSON):
                    # a failed request, not a crashed client.
                    status, payload, first = 0, None, None
                    seconds = time.perf_counter() - started - issued
                problem = check(job.kind, job.config, status, payload)
                op = Op(latency=seconds, ok=problem is None,
                        sites=scale.serve_sites, key=key(job.config),
                        kind=job.kind, first_event=first, status=status,
                        op_id=op_id, stream=job.stream, started=issued)
                if payload and status == 200:
                    for stage in payload.get("stages", []):
                        op.stages[stage["name"]] = (
                            op.stages.get(stage["name"], 0.0)
                            + stage["seconds"])
                with lock:
                    ops.append(op)
                    if rss is not None and len(ops) == RSS_REQUESTS:
                        rss.sample()
                        early_peak_mb.append(rss.peak_mb)
                    outcome.attempted += 1
                    if problem is not None:
                        outcome.fail(f"{job.kind} request {job.config}: "
                                     f"{problem}")

        settle()
        started = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return ops, time.perf_counter() - started

    setup: list[float] = []
    server: Server | None = None
    cache_dir = ctx.out / f"serve-cache-{os.getpid()}"
    try:
        for _ in range(1 if ctx.trace else scale.fill_repeats):
            if server is not None:
                server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
            started = time.perf_counter()
            digests = fill_cache([study_config(c) for c in warm], cache_dir)
            server = Server(ctx, cache_dir, trace=ctx.trace)
            setup.append(time.perf_counter() - started)
            expected.clear()
            for config, digest in zip(warm, digests):
                outcome.attempted += 1
                reference = ctx.references.get(key(config), digest)
                if digest == reference:
                    expected[config] = digest
                else:
                    outcome.fail(f"setup fill {config}: digest {digest} "
                                 f"!= {reference}")
        deadline = time.perf_counter() + ctx.seconds
        source = JobSource(ctx.seed, warm, cold, deadline)
        with RssSampler(server.proc.pid) as rss:
            ops, elapsed = phase(server, source, 1, rss)
        if not ctx.trace:
            end_to_end(outcome, setup, ops, elapsed,
                       early_peak_mb[0] if early_peak_mb else rss.peak_mb)
            outcome.detail["peak_rss_mb_all_requests"] = (
                rss.peak_mb, "MB", len(ops))
            serve_detail(outcome, ops, elapsed)
        else:
            server.command("trace on")
            source = JobSource(ctx.seed + 1, warm, source.unused_cold(),
                               time.perf_counter() + ctx.seconds)
            traced, traced_elapsed = phase(server, source, 1 + len(ops))
            prefix = ctx.out / "spans-serve-mixed"
            server.command(f"report {prefix}")
            report = json.loads(
                prefix.with_suffix(".totals.json").read_text())
            totals = report["totals"]
            overheads = [
                (op.latency - report["run_study"][str(op.op_id)]) * 1000
                for op in traced
                if op.ok and str(op.op_id) in report["run_study"]
            ]
            overhead = 1.0 - (sites_per_s(traced, traced_elapsed)
                              / sites_per_s(ops, elapsed))
            outcome.metrics = layer_metrics(totals, traced, overhead, {
                "http_overhead_ms": median(overheads),
                "rejected": sum(1 for op in traced
                                if op.status in (429, 503)),
            })
            outcome.detail["trace.spans"] = (report["spans"], "count", 1)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    verify_later(ctx, pending, outcome)
    return outcome


def serve_detail(outcome: Outcome, ops: list[Op], elapsed: float) -> None:
    """The serve-only figures: split by request kind, SSE, rate."""
    times = [ms * 1000 for ms in latencies(ops)]
    detail = outcome.detail
    detail["request_ms_p50"] = (median(times), "ms", len(times))
    p90 = percentile(times, 0.9)
    if p90 is not None:
        detail["request_ms_p90"] = (p90, "ms", len(times))
    detail["requests_per_s"] = (len(ops) / elapsed, "1/s", len(ops))
    for kind in ("warm", "cold", "pair"):
        subset = [ms * 1000 for ms in latencies(
            [op for op in ops if op.kind == kind])]
        if subset:
            detail[f"{kind}_request_ms_p50"] = (median(subset), "ms",
                                                len(subset))
    first = [op.first_event * 1000 for op in ops
             if op.first_event is not None and op.ok]
    if first:
        detail["sse_first_event_ms_p50"] = (median(first), "ms", len(first))
    detail["rejected"] = (
        sum(1 for op in ops if op.status in (429, 503)), "count", len(ops))


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "study-cold": study_cold,
    "study-warm": study_warm,
    "serve-mixed": serve_mixed,
}
