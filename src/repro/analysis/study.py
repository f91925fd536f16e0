"""The full-study driver.

One :class:`Study` object runs everything the paper's evaluation needs,
in the paper's order:

1. generate the synthetic web (one seed → one world);
2. the HTTP Archive crawl (3 loads/site, median HAR, §4.3 noise) from
   the US vantage point, classified under the endless and immediate
   lifetime models;
3. two Alexa crawls from the German vantage point — Fetch-compliant and
   privacy-mode-patched — restricted to the runs' common reachable
   sites, classified with actual NetLog lifetimes (plus the endless
   variant);
4. the corpora overlap (Appendix A.3);
5. the DNS load-balancing study (Appendix A.4).

Every table and figure renderer consumes a Study; benches construct one
small Study per session and reuse it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property

from repro.crawl.alexa import AlexaCrawler, AlexaRun
from repro.crawl.classify import ClassifiedDataset, merge_classified_datasets
from repro.crawl.httparchive import HarCorpus, HttpArchiveCrawler
from repro.crawl.overlap import overlap_datasets
from repro.crawl.shards import pending_items
from repro.core.session import LifetimeModel
from repro.evolve.policy import evolution_policy, policy_names
from repro.faults.plan import fault_profile, merge_counts
from repro.faults.plan import profile_names as fault_profile_names
from repro.h3.plan import h3_profile
from repro.h3.plan import profile_names as h3_profile_names
from repro.dnsstudy.study import DnsLoadBalancingStudy, DnsStudyResult
from repro.runlog import RunContext, RunCoverage
from repro.runtime import (
    Executor,
    StageTimings,
    ecosystem_for,
    ecosystem_is_cached,
    make_executor,
    null_timings,
)
from repro.store import StudyCache
from repro.web.ecosystem import Ecosystem, EcosystemConfig

__all__ = [
    "StudyConfig",
    "Study",
    "DATASET_LABELS",
    "EXECUTION_ONLY",
    "TEXT_PARSERS",
]

#: Paper-facing names of the Table 1 dataset columns.
DATASET_LABELS: dict[str, str] = {
    "har-endless": "HAR Endless",
    "har-immediate": "HAR Immediate",
    "alexa-endless": "Alexa Endless",
    "alexa": "Alexa",
    "alexa-nofetch": "Alexa w/o Fetch",
    "har-overlap": "HAR Overlap Endless",
    "alexa-overlap": "Alexa Overlap Endless",
}

#: Alexa browser variants a study may crawl.
_ALEXA_VARIANTS = ("fetch", "nofetch")


def _axis(default=MISSING, *, default_factory=MISSING, flag=None, help="",
          names=None, lookup=None, execution_only=False, server_owned=False,
          cache_exempt=None):
    """A :class:`StudyConfig` field and everything its consumers derive.

    ``flag``/``help`` declare its shared CLI flag (``{names}`` in the
    help lists the ``names()`` registry); ``lookup`` resolves a
    registered name, raising ``ValueError`` on unknowns.
    ``execution_only`` fields change how a study runs, never what it
    computes: run ids normalise them away, and HTTP clients may set
    neither them nor a ``server_owned`` field.  ``cache_exempt`` says
    why no cache key hashes the field; the ``cache-key`` lint reads it
    from the source, so it must be a string literal.
    """
    return field(default=default, default_factory=default_factory, metadata={
        "flag": flag, "help": help, "names": names, "lookup": lookup,
        "execution_only": execution_only, "server_owned": server_owned,
        "cache_exempt": cache_exempt,
    })


def _plus_tuple(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split("+") if part)


#: How a field's value reads from command-line text, by its type
#: annotation; tuple elements join with ``+`` (``fetch+nofetch``).
TEXT_PARSERS = {
    "int": int, "int | None": int, "float": float, "str": str,
    "tuple[str, ...]": _plus_tuple,
}


@dataclass(frozen=True)
class StudyConfig:
    """Scale and seed of one full reproduction run.

    Each field's declaration is the only description of its axis: the
    CLI flags, the HTTP request schema, the ``--grid`` parsers, run-id
    normalisation and the ``cache-key`` lint all derive from it.
    Fields hash by name and declaration order (see
    :func:`repro.store.stable_key`), so never rename or reorder one.
    """

    seed: int = _axis(7)
    n_sites: int = _axis(1200)
    #: Share of the universe whose top ranks form the Alexa list.
    alexa_share: float = _axis(0.30, cache_exempt=(
        "consumed via the Alexa domain list: it selects the top-N "
        "domains, and every shard key hashes the shard's domains"
    ))
    #: Sampling share of the universe the HTTP Archive crawls.
    ha_sample_share: float = _axis(0.85, cache_exempt=(
        "consumed via the HTTP Archive sample: it draws the crawl's "
        "domain list, and every shard key hashes the shard's domains"
    ))
    #: Simulated duration of the DNS study.
    dns_study_days: float = _axis(2.0, cache_exempt=(
        "the Appendix A.4 DNS study is computed on demand and never "
        "stored in the StudyCache"
    ))
    #: Raw :class:`EcosystemConfig` overrides; an escape hatch for
    #: library callers that ``repro serve`` keeps for its operator.
    ecosystem_overrides: dict = _axis(default_factory=dict, server_owned=True)
    #: Execution substrate for the per-site pipeline stages.
    executor: str = _axis(
        "serial", flag="--executor", execution_only=True,
        help="execution substrate: serial, thread or process, "
             "optionally with workers (e.g. process:8)",
        cache_exempt=(
            "execution substrate only; digests are executor-independent "
            "by construction (pinned by the serial/thread/process golden "
            "suite)"
        ),
    )
    #: Worker count for pool executors (None: picked per machine).
    parallelism: int | None = _axis(
        None, flag="--jobs", execution_only=True,
        help="worker count for thread/process executors",
        cache_exempt=(
            "worker count for the executor; affects wall clock only, like "
            "`executor`"
        ),
    )
    #: Lifetime models the HAR corpus is classified under (dataset
    #: ``har-<model>`` each); a sweep axis for the §4.1 model ablation.
    har_models: tuple[str, ...] = _axis(
        ("endless", "immediate"),
        cache_exempt=(
            "selects which per-dataset classification keys exist; each "
            "classify key hashes its own (model, dataset-name) pair"
        ),
    )
    #: Which Alexa browser variants are crawled: "fetch" (the
    #: Fetch-compliant run) and/or "nofetch" (privacy-mode patched,
    #: §5.3.3); a sweep axis for the Fetch toggle.
    alexa_variants: tuple[str, ...] = _axis(
        ("fetch", "nofetch"),
        cache_exempt=(
            "selects which crawl runs exist; each run's shard keys hash "
            "the run name and browser-patch knobs"
        ),
    )
    #: Named fault profile injected into every crawl visit (see
    #: :mod:`repro.faults`); a first-class sweep/cache axis.  The
    #: default ``"none"`` compiles to no plan at all, leaving every
    #: layer on its pre-fault code path (the golden digest pins this).
    fault_profile: str = _axis(
        "none", flag="--fault-profile",
        names=fault_profile_names, lookup=fault_profile,
        help="named fault scenario injected into every crawl visit: "
             "{names} (see repro.faults)",
    )
    #: How many churn epochs of ``evolution_policy`` the world is
    #: advanced through before measuring (see :mod:`repro.evolve`); a
    #: first-class study/sweep/cache axis.  0 measures the pristine
    #: world every pre-evolution study saw (the golden digest pins it).
    epochs: int = _axis(
        0, flag="--epochs",
        help="advance the world through this many churn epochs of "
             "--evolution-policy before measuring (see repro.evolve)",
    )
    #: Named ecosystem-churn policy for the evolution epochs; the
    #: default ``"none"`` never enters the evolution engine at all.
    evolution_policy: str = _axis(
        "none", flag="--evolution-policy",
        names=policy_names, lookup=evolution_policy,
        help="named ecosystem-churn policy evolving the world per "
             "epoch: {names} (see repro.evolve)",
    )
    #: Named alt-svc/HTTP-3 adoption profile for the generated world
    #: (see :mod:`repro.h3`); a first-class study/sweep/cache axis.
    #: The default ``"none"`` compiles to no plan at all, leaving the
    #: world and every browser on their pre-h3 code paths (the clean
    #: golden digest pins this).
    h3_profile: str = _axis(
        "none", flag="--h3-profile",
        names=h3_profile_names, lookup=h3_profile,
        help="named HTTP/3 alt-svc adoption profile for the synthetic "
             "world: {names}, or adopt-<fraction> (see repro.h3)",
    )
    #: Site shards per crawl/classification stage (see
    #: :mod:`repro.crawl.shards`).  A site's shard hashes its domain
    #: alone and shard artefacts cache per site set, so sharded studies
    #: recompute incrementally: evolution epochs recrawl only the
    #: shards their ledger touched.
    shards: int = _axis(
        1, flag="--shards",
        help="partition each crawl into this many deterministic site "
             "shards, cached and recomputed independently (output is "
             "shard-count-invariant; see repro.crawl.shards)",
        cache_exempt=(
            "partitioning knob: each shard key hashes its member domains "
            "and schedule slots, and the N-shard fold is "
            "shard-count-invariant (pinned by goldens for N in {1,2,3,7})"
        ),
    )

    def make_executor(self, task_timeout: float | None = None) -> "Executor":
        return make_executor(
            self.executor, self.parallelism, task_timeout=task_timeout
        )

    def without_execution(self) -> "StudyConfig":
        """This config with its execution-only fields at their defaults:
        the same study, however it is run."""
        return replace(self, **_EXECUTION_DEFAULTS)

    def ecosystem_config(self) -> EcosystemConfig:
        return EcosystemConfig(
            seed=self.seed,
            n_sites=self.n_sites,
            evolution_policy=self.evolution_policy,
            epoch=self.epochs,
            h3_profile=self.h3_profile,
            **self.ecosystem_overrides,
        )

    def validate(self) -> None:
        """Reject bad executor specs, lifetime models, Alexa variants and
        unregistered profile or policy names.

        Everything a sweep axis can set is checked here, so grid cells
        fail fast (and CLI-cleanly) before any study work starts.
        """
        make_executor(self.executor, self.parallelism)  # raises on bad specs
        for model in self.har_models:
            LifetimeModel(model)  # raises ValueError on unknown names
        if not self.har_models:
            raise ValueError("har_models must name at least one model")
        if len(set(self.har_models)) != len(self.har_models):
            raise ValueError(f"duplicate har_models in {self.har_models!r}")
        unknown = set(self.alexa_variants) - set(_ALEXA_VARIANTS)
        if unknown or not self.alexa_variants:
            raise ValueError(
                f"alexa_variants must be a non-empty subset of "
                f"{_ALEXA_VARIANTS}, got {self.alexa_variants!r}"
            )
        if len(set(self.alexa_variants)) != len(self.alexa_variants):
            raise ValueError(
                f"duplicate alexa_variants in {self.alexa_variants!r}"
            )
        for name, lookup in _LOOKUPS:
            lookup(getattr(self, name))  # raises ValueError on unknowns
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        overlap = {
            "evolution_policy", "epoch", "h3_profile",
        } & set(self.ecosystem_overrides)
        if overlap:
            raise ValueError(
                f"set scenario axes via StudyConfig (epochs, "
                f"evolution_policy, h3_profile), not ecosystem_overrides "
                f"({sorted(overlap)})"
            )

    def small(self) -> "StudyConfig":
        """A scaled-down copy for quick tests.

        Built with :func:`dataclasses.replace`, so new config fields
        carry over automatically instead of being silently dropped.
        """
        return replace(
            self,
            n_sites=min(self.n_sites, 200),
            dns_study_days=0.25,
            ecosystem_overrides=dict(self.ecosystem_overrides),
        )


_EXECUTION_DEFAULTS = {
    spec.name: spec.default for spec in fields(StudyConfig)
    if spec.metadata["execution_only"]
}
#: Fields that change how a study runs, never what it computes.
EXECUTION_ONLY = frozenset(_EXECUTION_DEFAULTS)
#: (field, registry lookup) for every field naming a registered profile.
_LOOKUPS = tuple(
    (spec.name, spec.metadata["lookup"]) for spec in fields(StudyConfig)
    if spec.metadata["lookup"] is not None
)


@dataclass
class Study:
    """All measurement artefacts of one reproduction run.

    The two Alexa runs are ``None`` when the config's
    ``alexa_variants`` excludes them (sweep ablations); the default
    config always produces both.
    """

    config: StudyConfig
    ecosystem: Ecosystem
    har_corpus: HarCorpus
    alexa_run: AlexaRun | None
    alexa_nofetch_run: AlexaRun | None
    alexa_common_sites: list[str]
    datasets: dict[str, ClassifiedDataset]
    timings: StageTimings = field(default_factory=null_timings)
    #: Shard coverage of the run (see :mod:`repro.runlog`): ``None``
    #: for cacheless runs, else complete-or-partial accounting that the
    #: digest and every report fold in when shards were quarantined.
    coverage: RunCoverage | None = None

    @classmethod
    def run(
        cls,
        config: StudyConfig | None = None,
        *,
        executor: Executor | None = None,
        timings: StageTimings | None = None,
        cache: StudyCache | None = None,
        runlog: RunContext | None = None,
        resume: bool = False,
        strict: bool = False,
    ) -> "Study":
        """Execute the full pipeline for ``config``.

        ``executor`` overrides the config's executor spec; ``timings``
        (see :mod:`repro.runtime.profile`) records per-stage wall time;
        ``cache`` (see :mod:`repro.store`) loads crawl and
        classification artefacts produced by earlier identical runs
        instead of recomputing them — cached stages record zero items.

        With a cache the run is journalled through a :class:`RunContext`
        (crash-safe, retrying, quarantining; see :mod:`repro.runlog`);
        ``resume`` replays a prior interrupted journal and skips its
        finished shards, ``strict`` restores fail-fast on the first
        shard failure.  Pass an explicit ``runlog`` to share one
        context; the caller then owns its ``finish()``/``close()``.
        """
        config = config or StudyConfig()
        config.validate()
        if resume and cache is None:
            raise ValueError("resume requires a cache to journal into")
        owns_executor = executor is None
        executor = executor if executor is not None else config.make_executor()
        timings = timings if timings is not None else null_timings()
        owns_runlog = runlog is None and cache is not None
        if owns_runlog:
            runlog = RunContext.for_study(
                config, cache, resume=resume, strict=strict
            )
        try:
            study = cls._run(config, executor, timings, cache, runlog)
            if runlog is not None:
                study.coverage = (
                    runlog.finish() if owns_runlog else runlog.coverage()
                )
            return study
        finally:
            if owns_runlog and runlog is not None:
                runlog.close()
            if owns_executor:
                executor.close()

    @classmethod
    def _run(
        cls,
        config: StudyConfig,
        executor: Executor,
        timings: StageTimings,
        cache: StudyCache | None = None,
        runlog: RunContext | None = None,
    ) -> "Study":
        eco_config = config.ecosystem_config()
        world_cached = ecosystem_is_cached(eco_config)
        with timings.stage(
            "generate-ecosystem", items=0 if world_cached else config.n_sites
        ):
            ecosystem = ecosystem_for(eco_config)
        asdb = ecosystem.asdb
        n_shards = config.shards

        ha_crawler = HttpArchiveCrawler(
            ecosystem=ecosystem, seed=config.seed + 100,
            fault_profile=config.fault_profile,
        )
        ha_domains = ecosystem.httparchive_sample(
            config.ha_sample_share, seed=config.seed + 1
        )
        # Each crawl plans its deterministic shard partition up front
        # (one shard on the default config): per-shard keys are hashed
        # at most once, cached shards record zero items, and the same
        # plan drives the crawl, the per-shard classifications and the
        # item accounting, so the three cannot drift.
        ha_plan = ha_crawler.plan_shards(
            ha_domains, shards=n_shards, cache=cache
        )
        with timings.stage("crawl-httparchive", items=pending_items(ha_plan)):
            har_corpus = ha_crawler.crawl(
                ha_domains, executor=executor, cache=cache, plan=ha_plan,
                runlog=runlog,
            )

        alexa_count = max(1, int(config.n_sites * config.alexa_share))
        alexa_domains = ecosystem.alexa_list(alexa_count)
        alexa_crawler = AlexaCrawler(
            ecosystem=ecosystem, seed=config.seed + 200,
            fault_profile=config.fault_profile,
        )
        alexa_run: AlexaRun | None = None
        alexa_nofetch: AlexaRun | None = None
        fetch_plan = nofetch_plan = None
        if "fetch" in config.alexa_variants:
            fetch_plan = alexa_crawler.plan_shards(
                alexa_domains, shards=n_shards, run_name="alexa-fetch",
                cache=cache,
            )
            with timings.stage(
                "crawl-alexa-fetch", items=pending_items(fetch_plan)
            ):
                alexa_run = alexa_crawler.run(
                    alexa_domains, run_name="alexa-fetch", executor=executor,
                    cache=cache, plan=fetch_plan, runlog=runlog,
                )
        if "nofetch" in config.alexa_variants:
            nofetch_plan = alexa_crawler.plan_shards(
                alexa_domains, shards=n_shards, run_name="alexa-nofetch",
                ignore_privacy_mode=True, run_offset=500_000.0, cache=cache,
            )
            with timings.stage(
                "crawl-alexa-nofetch", items=pending_items(nofetch_plan)
            ):
                alexa_nofetch = alexa_crawler.run(
                    alexa_domains,
                    run_name="alexa-nofetch",
                    ignore_privacy_mode=True,
                    run_offset=500_000.0,
                    executor=executor,
                    cache=cache,
                    plan=nofetch_plan,
                    runlog=runlog,
                )
        # "We review the intersection of websites for comparability."
        reachable_sets = [
            set(run.reachable_sites)
            for run in (alexa_run, alexa_nofetch)
            if run is not None
        ]
        common = sorted(set.intersection(*reachable_sets))

        # One classification job per (dataset, crawl shard): each job
        # classifies its shard's sub-corpus under the shard's own cache
        # key, and the per-dataset fold merges the partials.  With one
        # shard the single partial *is* the dataset — the monolithic
        # path, byte for byte.
        dataset_specs: list[tuple[str, LifetimeModel, list]] = []
        for model_value in config.har_models:
            model = LifetimeModel(model_value)
            name = f"har-{model_value}"
            shard_jobs = []
            for shard in ha_plan:
                # A quarantined crawl shard has no data in the corpus:
                # classifying its (empty) view would poison the cache
                # under the full shard's classify key, so the dataset
                # simply folds without it.
                if runlog is not None and runlog.is_quarantined(shard.key):
                    continue
                view = har_corpus.shard_view(shard)
                key = (
                    view.classify_cache_key(model, name)
                    if cache is not None else None
                )
                shard_jobs.append((
                    len(view.hars), key,
                    lambda view=view, model=model, name=name, key=key:
                        view.classify(
                            model=model, asdb=asdb, name=name,
                            executor=executor, cache=cache, cache_key=key,
                        ),
                ))
            dataset_specs.append((name, model, shard_jobs))
        alexa_datasets: list[tuple[AlexaRun, list, str, LifetimeModel]] = []
        if alexa_run is not None:
            alexa_datasets += [
                (alexa_run, fetch_plan, "alexa-endless", LifetimeModel.ENDLESS),
                (alexa_run, fetch_plan, "alexa", LifetimeModel.ACTUAL),
            ]
        if alexa_nofetch is not None:
            alexa_datasets.append(
                (alexa_nofetch, nofetch_plan, "alexa-nofetch",
                 LifetimeModel.ACTUAL)
            )
        for run, run_plan, name, model in alexa_datasets:
            shard_jobs = []
            for shard in run_plan:
                if runlog is not None and runlog.is_quarantined(shard.key):
                    continue
                members = set(shard.domains)
                sites = [site for site in common if site in members]
                view = run.shard_view(shard)
                key = (
                    view.classify_cache_key(model, name, sites)
                    if cache is not None else None
                )
                shard_jobs.append((
                    len(sites), key,
                    lambda view=view, model=model, name=name, key=key,
                    sites=sites:
                        view.classify(
                            model=model, asdb=asdb, name=name, sites=sites,
                            executor=executor, cache=cache, cache_key=key,
                        ),
                ))
            dataset_specs.append((name, model, shard_jobs))
        n_classified = sum(
            items
            for _, _, shard_jobs in dataset_specs
            for items, key, _ in shard_jobs
            if key is None or not cache.contains("classify", key)
        )
        with timings.stage("classify-datasets", items=n_classified):
            datasets = {}
            for name, model, shard_jobs in dataset_specs:
                partials = [job() for _, _, job in shard_jobs]
                if len(partials) == 1:
                    datasets[name] = partials[0]
                else:
                    datasets[name] = merge_classified_datasets(
                        name, model, partials, asdb=asdb
                    )
        if "har-endless" in datasets and "alexa-endless" in datasets:
            with timings.stage("overlap"):
                har_overlap, alexa_overlap = overlap_datasets(
                    datasets["har-endless"], datasets["alexa-endless"]
                )
                datasets["har-overlap"] = har_overlap
                datasets["alexa-overlap"] = alexa_overlap

        return cls(
            config=config,
            ecosystem=ecosystem,
            har_corpus=har_corpus,
            alexa_run=alexa_run,
            alexa_nofetch_run=alexa_nofetch,
            alexa_common_sites=common,
            datasets=datasets,
            timings=timings,
        )

    # ------------------------------------------------------------------
    def dataset(self, key: str) -> ClassifiedDataset:
        return self.datasets[key]

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault strikes across every crawl, by fault kind.

        Empty for the default ``fault_profile="none"``; the resilience
        report renders this as its failure-taxonomy table.
        """
        totals: dict[str, int] = dict(self.har_corpus.fault_counts)
        for run in (self.alexa_run, self.alexa_nofetch_run):
            if run is not None:
                merge_counts(totals, tuple(run.fault_counts.items()))
        return totals

    @cached_property
    def dns_study(self) -> DnsStudyResult:
        """The Appendix A.4 resolver study (computed on first use)."""
        study = DnsLoadBalancingStudy(
            ecosystem=self.ecosystem,
            duration_s=self.config.dns_study_days * 24 * 3600.0,
        )
        return study.run()

    def connection_lifetimes(self) -> list[float]:
        """Lifetimes of Alexa connections that closed before test end."""
        lifetimes = []
        if self.alexa_run is None:
            return lifetimes
        for domain in self.alexa_common_sites:
            measurement = self.alexa_run.measurements[domain]
            for record in measurement.records:
                if record.protocol != "h2":
                    continue
                lifetime = record.lifetime()
                if lifetime is not None:
                    lifetimes.append(lifetime)
        return lifetimes

    def early_closed_lifetimes(self) -> list[float]:
        """Lifetimes of sessions closed by the server (GOAWAY) only."""
        lifetimes = []
        if self.alexa_run is None:
            return lifetimes
        for domain in self.alexa_common_sites:
            measurement = self.alexa_run.measurements[domain]
            goaway_ids = set(measurement.goaway_connection_ids)
            if not goaway_ids:
                continue
            for record in measurement.records:
                if record.connection_id in goaway_ids:
                    lifetime = record.lifetime()
                    if lifetime is not None:
                        lifetimes.append(lifetime)
        return lifetimes
