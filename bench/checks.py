"""Output checks for every benchmark job, run in the parent after the job.

Outputs that do not depend on the seed (every ``tables`` output) and the
default-seed CLI output of ``replication-study`` are compared with the
sha256 digests in digests.json, recorded from the code the benchmark was
defined on.  Every seed is also checked against oracles and invariants:

* error counts against the base-class per-pair loop ``Learner.error_counts``;
* replication outputs against an independent re-run of the replications;
* exact nulls against the edge-sum identity;
* Monte-Carlo p-values against p*(M+1) in {1, ..., M+1}.

Monte-Carlo p-values and random-orientation bits are deliberately not
pinned: planned changes to the labeling stream and to that learner's hash
alter both.

A Checker counts the outputs it checked and keeps one message per output
that failed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from lightcodes import codes, datagen, learners, words

DIGESTS_PATH = Path(__file__).with_name("digests.json")
ALPHA = Fraction(1, 20)
BASE_ORACLE_REPS = 5  # replications per job also checked against the per-pair loop


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


class Checker:
    def __init__(self, workload: str, seed: int, digests: dict):
        self.seed = seed
        self.pinned = digests.get(workload, {})
        # Digests pin seed-dependent outputs only at the seed they were recorded with.
        if "seed" in self.pinned and self.pinned["seed"] != seed:
            self.pinned = {}
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def check(self, job, report: dict | None, workdir: Path) -> None:
        """Check one job run; a crashed child counts as one failed output."""
        if report is None:
            self.expect(False, f"{job.name}: child failed")
            return
        result = report["result"]
        try:
            if job.spec["kind"] == "permutation":
                self._permutation(result)
                return
            self.expect(result["exit_code"] == 0, f"{job.name}: exit code {result['exit_code']}")
            pinned = self.pinned.get(job.name)
            if pinned is not None:
                self.expect(sha256(result["stdout"]) == pinned["stdout"],
                            f"{job.name}: stdout digest")
                for name, digest in pinned.get("files", {}).items():
                    self.expect(sha256((workdir / name).read_bytes()) == digest,
                                f"{job.name}: {name} digest")
            oracle = self.ORACLES.get(job.name)
            if oracle is not None:
                oracle(self, job.spec["argv"], result["stdout"], workdir)
        except Exception as exc:  # malformed output must count as a failure, not stop the run
            self.expect(False, f"{job.name}: check raised {exc!r}")

    # -- tables ---------------------------------------------------------------

    def _exact_l(self, argv, stdout: str, workdir: Path) -> None:
        """The code file must be a 1-light code in S(7,2) of the reported size."""
        size = int(stdout.splitlines()[0].rsplit(":", 1)[1])
        found = words.read_word_file(workdir / "exact_l_code.txt")
        code = codes.LightCode(7, 2, 1, tuple(found))
        self.expect(code.size == size and codes.verify_light(code)[0],
                    "exact-l: code file is not a 1-light code of the reported size")

    # -- permutation-test -----------------------------------------------------

    def _permutation(self, result: dict) -> None:
        from child import EXACT_N, EXACT_W, PERM_N, PERM_SAMPLES, PERM_W, RANDOM_N, RANDOM_W

        mc_learners = {
            "ridge": learners.RidgeLearner(1.0),
            "knn": learners.KnnLearner(3),
            "order-direction": learners.OrderDirectionLearner(0),
        }
        M = result["M"]
        for i in range(PERM_SAMPLES):
            data, labeling = datagen.generate_data("null-gauss-10d", PERM_N, PERM_W, (self.seed, i))
            for name, learner in mc_learners.items():
                oracle = int(learners.Learner.error_counts(learner, data, [labeling])[0])
                self.expect(result["observed"][name][i] == oracle,
                            f"permutation: {name} observed error count, sample {i}")
                scaled = Fraction(result["pvalues"][name][i]) * (M + 1)
                self.expect(scaled.denominator == 1 and 1 <= scaled <= M + 1,
                            f"permutation: {name} p-value {result['pvalues'][name][i]}, sample {i}")
        for name, hist in result["exact"].items():
            n, w = (RANDOM_N, RANDOM_W) if name == "random-orientation" else (EXACT_N, EXACT_W)
            counts = hist["counts"]
            self.expect(
                (hist["n"], hist["w"]) == (n, w)
                and len(counts) == w * (n - w) + 1
                and sum(counts) == comb(n, w)
                and 2 * sum(k * c for k, c in enumerate(counts)) == comb(n, w) * w * (n - w),
                f"permutation: {name} exact null breaks the edge-sum identity",
            )

    # -- replication-study ----------------------------------------------------

    def _replicate(self, spec: str, scenario: str, n: int, w: int, reps: int, seed: int,
                   base_reps: int = BASE_ORACLE_REPS) -> list:
        """Error counts of fresh samples, seeded as the experiments layer documents.

        The first ``base_reps`` counts are also compared with the per-pair loop.
        """
        learner = learners.make_learner(spec)
        errors = []
        for r in range(reps):
            data, labeling = datagen.generate_data(scenario, n, w, (seed, n, w, r))
            fast = int(learner.error_counts(data, [labeling])[0])
            if r < base_reps:
                base = int(learners.Learner.error_counts(learner, data, [labeling])[0])
                self.expect(fast == base, f"{spec}: error count differs from the per-pair loop")
            errors.append(fast)
        return errors

    def _type2(self, argv, stdout: str, workdir: Path) -> None:
        """Check the proportions' form, then recompute the smallest size's row."""
        spec, reps = _flag(argv, "--learner"), int(_flag(argv, "--reps"))
        lines = stdout.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        sizes = [int(size) for size, _ in rows]
        ok = lines[0] == "size,failure_proportion" and sizes == list(range(12, 41, 4))
        for _, value in rows:
            k = round(float(value) * reps)
            ok = ok and value == repr(float(Fraction(k, reps)))
        self.expect(ok, f"type2 {spec}: output is not a table of proportions")
        n, w = sizes[0], sizes[0] // 2
        crit = _wmw_critical_brute(n, w)
        errors = self._replicate(spec, _flag(argv, "--scenario"), n, w, reps, self.seed)
        failures = sum(1 for e in errors if crit is None or e > crit)
        self.expect(rows[0][1] == repr(float(Fraction(failures, reps))),
                    f"type2 {spec}: size {n} row differs from the re-run")

    def _null_parity(self, argv, stdout: str, workdir: Path) -> None:
        """Two-point null: u in {0, 1}, so only 0 and w(n-w) errors occur."""
        n, w, reps = (int(_flag(argv, flag)) for flag in ("--n", "--w", "--reps"))
        lines = stdout.splitlines()
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        top = w * (n - w)
        self.expect(lines[0] == "errors,count" and len(counts) == top + 1
                    and sum(counts) == reps and counts[0] + counts[top] == reps,
                    "null-parity: histogram is not a two-point null over all replications")
        errors = self._replicate("parity", "parity", n, w, reps, self.seed)
        rerun = [0] * (top + 1)
        for e in errors:
            rerun[e] += 1
        self.expect(counts == rerun, "null-parity: histogram differs from the re-run")

    def _empirical(self, argv, stdout: str, workdir: Path) -> None:
        """Recompute every cell with the strict rule and the pointwise-min merge."""
        size, reps = int(_flag(argv, "--max-size")), int(_flag(argv, "--reps"))
        configs = []
        for line in (workdir / _flag(argv, "--configs")).read_text().splitlines():
            name, params, scenario, seed = line.split(";")
            configs.append((f"{name};{params}", scenario, int(seed)))
        expected = ["w," + ",".join(str(n0) for n0 in range(1, size + 1))]
        for w in range(1, size + 1):
            row = [str(w)]
            for n0 in range(1, size + 1):
                cells = [
                    _critical_from_errors(
                        self._replicate(spec, scenario, w + n0, w, reps, seed, 1),
                        w * n0)
                    for spec, scenario, seed in configs
                ]
                merged = None if None in cells else min(cells)
                row.append("" if merged is None else str(merged))
            expected.append(",".join(row))
        self.expect(stdout.splitlines() == expected, "empirical: grid differs from the re-run")

    ORACLES = {
        "exact-l": _exact_l,
        "type2-ridge": _type2,
        "type2-knn": _type2,
        "null-parity": _null_parity,
        "empirical": _empirical,
    }


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _critical_from_errors(errors: list, top: int) -> int | None:
    """Largest W with #{errors <= W} / reps strictly below ALPHA, else None."""
    best = None
    for W in range(top + 1):
        if Fraction(sum(1 for e in errors if e <= W), len(errors)) < ALPHA:
            best = W
        else:
            break
    return best


def _wmw_critical_brute(n: int, w: int) -> int | None:
    """WMW critical value by enumerating S(n,w): inversions of each labeling."""
    counts = [0] * (w * (n - w) + 1)
    for ones in combinations(range(n), w):
        one_set = set(ones)
        counts[sum(1 for i in ones for j in range(i) if j not in one_set)] += 1
    best, cum = None, 0
    for W, c in enumerate(counts):
        cum += c
        if Fraction(cum, comb(n, w)) < ALPHA:
            best = W
        else:
            break
    return best
