"""Record the sha256 digests that checks.py compares outputs with.

Usage (from the repository root): python3 bench/record_digests.py

Runs every ``tables`` job and, at the default seed, every
``replication-study`` job once, and writes bench/digests.json.  Run it only
on a commit whose outputs are known to be right: the digests are the
benchmark's reference.  The exact-l code file is not pinned, because any
maximum code is a right answer; checks.py verifies it instead.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, Runner
from workloads import DEFAULT_SEED, replication_jobs, tables_jobs

sys.path.insert(0, str(ROOT / "src"))
from checks import DIGESTS_PATH, sha256  # noqa: E402  (needs the sources on the path)

PINNED_FILES = {"construct": ["gs_code.txt"]}


def record(workload: str, jobs) -> dict:
    runner = Runner(ROOT, ROOT / ".bench_work" / "digests" / workload)
    out = {}
    for job in jobs:
        report = runner.run(job)
        if report is None or report["result"]["exit_code"] != 0:
            sys.exit(f"{workload}/{job.name} failed; nothing recorded")
        entry = {"stdout": sha256(report["result"]["stdout"])}
        files = PINNED_FILES.get(job.name, [])
        if files:
            entry["files"] = {name: sha256((runner.workdir / name).read_bytes()) for name in files}
        out[job.name] = entry
    return out


def main() -> int:
    digests = {
        "tables": record("tables", tables_jobs(DEFAULT_SEED)),
        "replication-study": {"seed": DEFAULT_SEED,
                              **record("replication-study", replication_jobs(DEFAULT_SEED))},
    }
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
