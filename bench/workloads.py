"""The benchmark's workloads: the jobs each one runs, and what they report.

Every job runs in its own child interpreter (see child.py).  Sizes are
fixed; only the seed varies.  Why each workload exists is recorded in
BENCHMARK.json and METRICS.md.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from child import PERM_SAMPLES

# replication-study's outputs are pinned by digest at this seed only.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Job:
    """One child run: its spec, the files it writes and the files it reads."""

    name: str
    spec: dict
    outputs: tuple[str, ...] = ()
    inputs: dict = field(default_factory=dict)


def cli(name: str, *argv: str, outputs=(), inputs=None) -> Job:
    return Job(name, {"kind": "cli", "argv": list(argv)}, tuple(outputs), inputs or {})


def tables_jobs(seed: int) -> list[Job]:
    """Exact tables, bounds and codes; no output depends on the seed."""
    return [
        cli("bounds", "bounds", "--n-range", "3..6", "--w-range", "1..3", "--W-range", "0..2",
            "--exact-when-small"),
        cli("exact-l", "exact-l", "--n", "7", "--w", "2", "--W", "1", "--out", "exact_l_code.txt",
            outputs=["exact_l_code.txt"]),
        cli("wmw-grid", "critical", "--test", "wmw", "--alpha", "0.05", "--max-size", "50"),
        cli("lightcode-upper", "critical", "--test", "lightcode-upper", "--max-size", "40"),
        cli("lightcode-lower", "critical", "--test", "lightcode-lower", "--max-size", "40"),
        cli("construct", "construct", "--method", "graham-sloane", "--n", "18", "--w", "6",
            "--W", "3", "--out", "gs_code.txt", outputs=["gs_code.txt"]),
        # Reads the code the construct job wrote; construct always runs first.
        cli("verify", "verify", "--code", "gs_code.txt", "--W", "3"),
    ]


def permutation_jobs(seed: int) -> list[Job]:
    """One sample, many labelings: MC p-values and exact nulls via the library API."""
    return [Job("permutation", {"kind": "permutation", "seed": seed})]


TYPE2_REPS = 150
TYPE2_SIZES = 8  # the CLI's default sizes 12, 16, ..., 40
PARITY_REPS = 2000
EMPIRICAL_REPS, EMPIRICAL_MAX_SIZE = 30, 10
EMPIRICAL_CONFIGS = 2


def replication_jobs(seed: int) -> list[Job]:
    """One labeling per fresh sample, through the CLI."""
    s = str(seed)
    configs = (f"constant;feature=0;null-gauss-1d;{seed}\n"
               f"constant;feature=0;null-mix-1d;{seed + 1}\n")
    type2 = ("simulate", "--mode", "type2", "--scenario", "nonlinear-3mode",
             "--reps", str(TYPE2_REPS), "--seed", s)
    return [
        cli("type2-ridge", *type2, "--learner", "ridge;lambda=1"),
        cli("type2-knn", *type2, "--learner", "knn;k=3"),
        cli("null-parity", "simulate", "--mode", "null", "--learner", "parity",
            "--scenario", "parity", "--n", "20", "--w", "10", "--reps", str(PARITY_REPS),
            "--over-samples", "--seed", s),
        cli("empirical", "critical", "--test", "empirical", "--configs", "empirical.txt",
            "--max-size", str(EMPIRICAL_MAX_SIZE), "--reps", str(EMPIRICAL_REPS),
            inputs={"empirical.txt": configs}),
    ]


REPLICATIONS = (2 * TYPE2_REPS * TYPE2_SIZES + PARITY_REPS
                + EMPIRICAL_CONFIGS * EMPIRICAL_MAX_SIZE**2 * EMPIRICAL_REPS)
MC_PVALUES = 3 * PERM_SAMPLES


def _median(reports, key) -> float:
    return statistics.median(r[key] for r in reports)


def tables_metrics(samples: dict) -> dict:
    work = {job: _median(reports, "work_s") for job, reports in samples.items()}
    return {
        "bounds_s": ("s", work["bounds"]),
        "exact_l_s": ("s", work["exact-l"]),
        "wmw_grid_s": ("s", work["wmw-grid"]),
        "construct_verify_s": ("s", work["construct"] + work["verify"]),
    }


def permutation_metrics(samples: dict) -> dict:
    reports = samples["permutation"]
    mc_s = statistics.median(r["result"]["phases"]["mc_s"] for r in reports)
    exact_s = statistics.median(r["result"]["phases"]["exact_s"] for r in reports)
    return {
        "mc_pvalues_per_s": ("1/s", MC_PVALUES / mc_s),
        "exact_null_s": ("s", exact_s),
    }


def replication_metrics(samples: dict) -> dict:
    wall = sum(_median(reports, "work_s") for reports in samples.values())
    return {"replications_per_s": ("1/s", REPLICATIONS / wall)}


WORKLOADS = {
    "tables": (tables_jobs, tables_metrics),
    "permutation-test": (permutation_jobs, permutation_metrics),
    "replication-study": (replication_jobs, replication_metrics),
}
