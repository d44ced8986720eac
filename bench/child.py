"""Run one benchmark job in a fresh interpreter and report it as one JSON line.

Usage: python3 bench/child.py SPEC_JSON

The spec names the job kind ("cli" or "permutation"), its arguments, the
parent's time.monotonic() just before it spawned this process ("spawned"),
and, for a traced run, the file the spans are written to ("trace_path").
The job's own output is captured; the report is the last line of stdout.

Set-up runs from process start to inputs ready (imports plus data
generation); the timed work starts after it.  Each job gets its own
interpreter because lightcodes keeps process-global memos (the WMW
recursion memo and the cache on bounds.johnson_upper) that a second job in
the same process would reuse.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time

# Permutation-test sizes: 30 samples of S(20,10) with M=200 Monte-Carlo
# labelings per p-value, then exact nulls over C(14,7) and C(12,6).
PERM_SAMPLES = 30
PERM_N, PERM_W, PERM_M = 20, 10, 200
EXACT_N, EXACT_W = 14, 7
RANDOM_N, RANDOM_W = 12, 6


def _memo_sizes() -> dict:
    from lightcodes import bounds, wilcoxon

    return {
        "q_memo": len(wilcoxon._q_memo),
        "johnson_upper": bounds.johnson_upper.cache_info().currsize,
    }


def _prepare_permutation(seed: int) -> dict:
    from lightcodes import datagen

    gen = datagen.generate_data
    samples = [gen("null-gauss-10d", PERM_N, PERM_W, (seed, i)) for i in range(PERM_SAMPLES)]
    exact_data = gen("null-gauss-10d", EXACT_N, EXACT_W, (seed, PERM_SAMPLES))[0]
    random_data = gen("null-gauss-10d", RANDOM_N, RANDOM_W, (seed, PERM_SAMPLES + 1))[0]
    return {"seed": seed, "samples": samples, "exact": exact_data, "random": random_data}


def _run_permutation(inputs: dict) -> dict:
    from lightcodes import learners, lpocv

    seed = inputs["seed"]
    mc_learners = {
        "ridge": learners.RidgeLearner(1.0),
        "knn": learners.KnnLearner(3),
        "order-direction": learners.OrderDirectionLearner(0),
    }
    observed = {name: [] for name in mc_learners}
    pvalues = {name: [] for name in mc_learners}
    t0 = time.perf_counter()
    for i, (data, labeling) in enumerate(inputs["samples"]):
        for k, (name, learner) in enumerate(mc_learners.items()):
            errors, _ = lpocv.lpocv_u(learner, data, labeling)
            p = lpocv.mc_null_pvalue(learner, data, PERM_W, errors, PERM_M, (seed, i, k))
            observed[name].append(errors)
            pvalues[name].append(f"{p.numerator}/{p.denominator}")
    mc_s = time.perf_counter() - t0

    exact_learners = [
        ("constant", learners.ConstantLearner(feature=0), inputs["exact"]),
        ("knn", learners.KnnLearner(3), inputs["exact"]),
        ("ridge", learners.RidgeLearner(1.0), inputs["exact"]),
        ("order-direction", learners.OrderDirectionLearner(0), inputs["exact"]),
        ("random-orientation", learners.RandomOrientationLearner(seed), inputs["random"]),
    ]
    exact = {}
    exact_s = 0.0
    for name, learner, data in exact_learners:
        t = time.perf_counter()
        hist = lpocv.exact_null_distribution(learner, data, data.n // 2)
        exact_s += time.perf_counter() - t
        exact[name] = {"n": hist.n, "w": hist.w, "counts": list(hist.counts)}
    return {
        "observed": observed,
        "pvalues": pvalues,
        "M": PERM_M,
        "exact": exact,
        "phases": {"mc_s": mc_s, "exact_s": exact_s},
    }


def _run_cli(argv: list[str]) -> dict:
    from lightcodes import cli

    buf = io.StringIO()
    saved = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(list(argv))  # looked up at call time so a traced run sees the span
    finally:
        sys.stdout = saved
    return {"exit_code": code, "stdout": buf.getvalue()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import lightcodes.cli  # noqa: F401  (imports every lightcodes module)

    tracer = None
    if spec.get("trace_path"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    memo = _memo_sizes()
    inputs = _prepare_permutation(spec["seed"]) if spec["kind"] == "permutation" else None
    ready = time.monotonic()

    t0 = time.perf_counter()
    if spec["kind"] == "permutation":
        result = _run_permutation(inputs)
    else:
        result = _run_cli(spec["argv"])
    work_s = time.perf_counter() - t0

    report = {
        "interpreter": f"{os.getpid()}-{os.urandom(8).hex()}",
        "memo_at_start": memo,
        "setup_s": ready - spec["spawned"],
        "work_s": work_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "result": result,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write(spec["trace_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
