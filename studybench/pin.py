"""Record ``references.json``: the study digests the workloads check against.

Every config a full-size workload can issue that the repository does not
already pin (``tests/golden/``, ``BENCH_pipeline.json``) is run here once,
serially, unsharded and without a cache, and its digest is recorded.  The
timed runs then compare against these.  Re-pin only when a change is
meant to alter study output, and say so in its description::

    python3 studybench/pin.py           # from the repository root

It takes a few minutes.  Configs the repository already pins are run
too, as a cross-check.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def main() -> int:
    from repro.analysis.digest import study_digest
    from repro.analysis.study import Study, StudyConfig
    from repro.runtime import clear_ecosystem_cache

    root = Path.cwd()
    path = HERE / "references.json"
    known = workloads.load_references(root, include_pinned=False)
    scale = workloads.FULL
    configs = [
        StudyConfig(seed=seed, n_sites=scale.cold_sites,
                    dns_study_days=workloads.DNS_DAYS)
        for seed in scale.cold_seeds
    ] + [
        StudyConfig(seed=seed, n_sites=scale.warm_sites,
                    dns_study_days=workloads.DNS_DAYS)
        for seed in scale.warm_seeds
    ] + [
        StudyConfig(seed=seed, n_sites=scale.serve_sites,
                    fault_profile=fault, h3_profile=h3,
                    dns_study_days=workloads.DNS_DAYS)
        for seed, fault, h3 in scale.serve_pool
    ]
    studies = []
    for config in configs:
        key = workloads.ref_key(config)
        clear_ecosystem_cache()
        started = time.perf_counter()
        digest = study_digest(Study.run(config))
        print(f"{key} {digest} {time.perf_counter() - started:.2f}s",
              flush=True)
        if key in known:
            if known[key] != digest:
                print(f"error: {key} disagrees with the repository's pin "
                      f"{known[key]}", file=sys.stderr)
                return 1
            continue
        seed, n_sites, fault, h3 = key
        studies.append({"seed": seed, "n_sites": n_sites,
                        "fault_profile": fault, "h3_profile": h3,
                        "digest": digest})
    path.write_text(json.dumps({"studies": studies}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
