"""Regenerate the golden snapshots in this directory.

Run from the repository root after any INTENTIONAL change to study
output, then review the diff like any other code change:

    PYTHONPATH=src python tests/golden/regenerate.py

The snapshots pin the rendered headline statistics, every table
(1-12) and the study digest for ``StudyConfig(seed=7, n_sites=120)``,
plus the rendered ``repro resilience`` (chaos vs. clean) and ``repro
h3`` (broad vs. clean) twin reports at the same scale.
``tests/analysis/test_golden.py`` diffs live output against them, so an
unintentional behaviour change in any pipeline layer — ecosystem
generation, crawling, classification, aggregation, rendering — fails
the suite with a readable diff instead of passing silently.
"""

from __future__ import annotations

from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: The snapshot scale: big enough that every table has entries, small
#: enough to run inside the tier-1 suite.
GOLDEN_SEED = 7
GOLDEN_N_SITES = 120

#: The canonical fault scenario pinned alongside the clean goldens: the
#: combined profile, so every injection hook contributes to the digest.
FAULTED_PROFILE = "chaos"

#: The canonical evolution scenario: the combined policy, so every
#: churn axis contributes, across enough epochs to show drift while
#: keeping the tier-1 suite fast.
LONGITUDINAL_POLICY = "mixed"
LONGITUDINAL_EPOCHS = 2

#: The canonical HTTP/3 rollout scenario: the widest named adoption
#: profile, so origin fleets *and* third-party providers advertise h3
#: and every discovery/coalescing/attribution hook contributes.
H3_PROFILE = "broad"


def golden_config():
    from repro.analysis.study import StudyConfig

    return StudyConfig(seed=GOLDEN_SEED, n_sites=GOLDEN_N_SITES,
                       dns_study_days=0.25)


def faulted_config():
    """The faulted-golden configuration (seed=7, n=120, chaos)."""
    from dataclasses import replace

    return replace(golden_config(), fault_profile=FAULTED_PROFILE)


def h3_config():
    """The h3-golden configuration (seed=7, n=120, broad rollout)."""
    from dataclasses import replace

    return replace(golden_config(), h3_profile=H3_PROFILE)


def render_longitudinal_artifact(digests) -> str:
    """``longitudinal_digest.txt`` content from (epoch, digest) pairs.

    One ``epoch N <digest>`` line per epoch; line 0 must always equal
    ``digest.txt`` — epoch 0 under any policy is the pristine world.
    """
    return "".join(
        f"epoch {epoch} {digest}\n" for epoch, digest in digests
    )


def render_artifacts(study) -> dict[str, str]:
    """Every clean-study golden artefact name -> rendered text."""
    from repro.analysis import ALL_TABLES, headline, study_digest

    artifacts = {"headline.txt": headline(study).render() + "\n"}
    for name in sorted(ALL_TABLES, key=lambda n: int(n.removeprefix("table"))):
        artifacts[f"{name}.txt"] = ALL_TABLES[name](study).render() + "\n"
    artifacts["digest.txt"] = study_digest(study) + "\n"
    return artifacts


def render_faulted_artifacts(faulted_study) -> dict[str, str]:
    """The faulted-study goldens: the digest that regression-locks the
    resilience numbers the way Table 1 locks the clean ones."""
    from repro.analysis import study_digest

    return {"faulted_digest.txt": study_digest(faulted_study) + "\n"}


def render_h3_artifacts(h3_study) -> dict[str, str]:
    """The h3-study golden: pins the broad-rollout digest the way
    ``faulted_digest.txt`` pins the chaos scenario."""
    from repro.analysis import study_digest

    return {"h3_digest.txt": study_digest(h3_study) + "\n"}


def render_twin_artifacts(study, faulted_study, h3_study) -> dict[str, str]:
    """The differential-twin reports: each variant study diffed against
    the clean golden study, exactly as ``repro resilience`` and ``repro
    h3`` print them."""
    from repro.analysis.h3 import h3_report
    from repro.analysis.resilience import resilience_report

    return {
        "resilience_report.txt":
            resilience_report(study, faulted_study).render() + "\n",
        "h3_report.txt": h3_report(study, h3_study).render() + "\n",
    }


def main() -> int:
    from repro.analysis.study import Study
    from repro.evolve import run_longitudinal

    study = Study.run(golden_config())
    faulted_study = Study.run(faulted_config())
    h3_study = Study.run(h3_config())
    artifacts = render_artifacts(study)
    artifacts.update(render_faulted_artifacts(faulted_study))
    artifacts.update(render_h3_artifacts(h3_study))
    artifacts.update(render_twin_artifacts(study, faulted_study, h3_study))
    longitudinal = run_longitudinal(
        golden_config(), policy=LONGITUDINAL_POLICY,
        epochs=LONGITUDINAL_EPOCHS,
    )
    artifacts["longitudinal_digest.txt"] = render_longitudinal_artifact(
        longitudinal.digests()
    )
    for name, text in artifacts.items():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
