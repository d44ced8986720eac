"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; the heavy statistical criteria (8, 9) take a few minutes.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np

from lightcodes.bounds import gs_lower, johnson_upper
from lightcodes.cli import main as cli_main
from lightcodes.codes import construct_graham_sloane, exact_L, verify_light
from lightcodes.datagen import Dataset, generate_data
from lightcodes.experiments import (
    SimulationConfig,
    empirical_critical_value,
    type2_experiment,
)
from lightcodes.learners import (
    ConstantLearner,
    KnnLearner,
    ParityLearner,
    RidgeLearner,
    make_learner,
)
from lightcodes.lpocv import (
    exact_null_distribution,
    lpo_kernel,
    lpocv_u,
    mc_null_pvalue,
)
from lightcodes.wilcoxon import q_count, wmw_critical, wmw_distribution
from lightcodes.words import iter_words, transpose

ALPHA = Fraction(1, 20)


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS ({detail})")


def closed_forms(n, w, W):
    """The boundary formulas applicable to (n, w); both must hold if both apply."""
    values = []
    if w in (1, n - 1):
        values.append(min(2 * W + 1, n))
    if w in (2, n - 2):
        values.append(min((W + 1) * n // 2, comb(n, 2)))
    return values


def boundary_instances():
    out = []
    for n in range(2, 7):
        for w in {1, 2, n - 2, n - 1}:
            if not 0 < w < n or comb(n, w) > 24:
                continue
            for W in range(3):
                out.append((n, w, W))
    return sorted(out)


def test_criterion_1_closed_form_vs_search():
    start = time.monotonic()
    instances = boundary_instances()
    for n, w, W in instances:
        got = exact_L(n, w, W)
        for want in closed_forms(n, w, W):
            assert got == want, (n, w, W, got, want)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(1, f"{len(instances)} instances agree with the closed forms, {elapsed:.1f}s")


def test_criterion_2_bound_sandwich():
    checked = 0
    for n, w, W in boundary_instances():
        exact = exact_L(n, w, W)
        low = gs_lower(n, w, W)
        if low is not None:
            assert low <= exact, (n, w, W)
        assert exact <= johnson_upper(n, w, W), (n, w, W)
        assert exact >= q_count(W, n, w), (n, w, W)
        checked += 1
    report(2, f"gs_lower <= exact_L <= johnson_upper and exact_L >= Q on {checked} instances")


def test_criterion_3_graham_sloane_validity():
    start = time.monotonic()
    for n, w, W in [(5, 2, 0), (6, 3, 0), (8, 3, 1), (9, 4, 2)]:
        code = construct_graham_sloane(n, w, W)
        ok, _ = verify_light(code)
        assert ok, (n, w, W)
        assert code.size >= -(comb(n, w) // -(n - 2 * W)), (n, w, W)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(3, f"4 constructions verified at pigeonhole size, {elapsed:.1f}s")


def test_criterion_4_wilcoxon_oracle():
    cells = 0
    for n in range(2, 9):
        for w in range(1, n):
            scores = np.arange(n, dtype=float)
            data = Dataset(scores[:, None])
            hist = exact_null_distribution(ConstantLearner(feature=0), data, w)
            assert hist.counts == wmw_distribution(n, w).counts, (n, w)
            cells += 1
    report(4, f"bit-exact match on {cells} (n,w) grids with n <= 8")


LEARNER_SPECS = [
    "constant;feature=0",
    "order-direction;feature=0",
    "parity",
    "random-orientation;seed=2",
    "ridge;lambda=1",
    "knn;k=1",  # k <= n-2 must hold down to n=3
]


def dataset_for(spec, n, w, seed):
    if spec == "parity":
        data, _ = generate_data("parity", n, w, seed)
        return data
    return Dataset(np.random.default_rng(seed).standard_normal((n, 3)))


def test_criterion_5_edge_sum_identity():
    checked = 0
    for spec in LEARNER_SPECS:
        learner = make_learner(spec)
        for n in range(3, 7):
            for w in range(1, n):
                for trial in range(5):
                    data = dataset_for(spec, n, w, (1000 + trial, n, w))
                    hist = exact_null_distribution(learner, data, w)
                    total = sum(k * c for k, c in enumerate(hist.counts))
                    assert total == comb(n, w) * w * (n - w) // 2, (spec, n, w, trial)
                    checked += 1
    report(5, f"edge-sum exact on {checked} (learner, dataset, n, w) cases")


def test_criterion_6_complement_identity():
    n = 5
    checked = 0
    for spec in LEARNER_SPECS + ["knn;k=3", "ridge;lambda=0.5"]:
        learner = make_learner(spec)
        for w in range(1, n):
            data = dataset_for(spec, n, w, (2000, w))
            for B in iter_words(n, w):
                for i in B.support():
                    for j in B.zeros():
                        k1 = lpo_kernel(learner, data, B, i, j)
                        k2 = lpo_kernel(learner, data, transpose(B, i, j), j, i)
                        assert k1 + k2 == 1, (spec, str(B), i, j)
                        checked += 1
    report(6, f"label-switch constraint exact on {checked} kernel pairs at n=5")


def test_criterion_7_parity_two_point():
    n, w = 20, 10
    learner = ParityLearner()
    ones = 0
    for r in range(2000):
        data, lab = generate_data("parity", n, w, (3000, r))
        errors, u = lpocv_u(learner, data, lab)
        assert u in (0, 1), (r, u)
        ones += u == 1
    frac = ones / 2000
    assert 0.45 <= frac <= 0.55, frac
    report(7, f"u in {{0,1}} over 2000 samples, P(u=1) = {frac:.3f}")


def test_criterion_8_pvalue_validity():
    start = time.monotonic()
    n, w, reps, M = 20, 10, 1000, 200
    assert comb(n, w) > 10**5  # Monte-Carlo mode engages automatically
    rates = {}
    for spec, learner in [("ridge", RidgeLearner(1.0)), ("knn", KnnLearner(3))]:
        hits = 0
        for r in range(reps):
            data, lab = generate_data("null-gauss-10d", n, w, (4000, r))
            observed = int(learner.error_counts(data, [lab])[0])
            p = mc_null_pvalue(learner, data, w, observed, M, (4001, r))
            if p <= ALPHA:
                hits += 1
        rates[spec] = hits / reps
        assert rates[spec] <= 0.07, (spec, rates[spec])
    elapsed = time.monotonic() - start
    assert elapsed < 900
    report(8, f"P(p<=0.05): ridge {rates['ridge']:.3f}, knn {rates['knn']:.3f}, {elapsed:.0f}s")


SIZES = (12, 16, 20, 24, 28, 32, 36, 40)


def test_criterion_9_type2_trends():
    start = time.monotonic()
    reps = 500

    ridge = RidgeLearner(1.0)
    strong = type2_experiment(ridge, "linear-4sig", SIZES, "0.05", reps, 5000)
    curve = [float(strong[s]) for s in SIZES]
    inversions = sum(1 for a, b in zip(curve, curve[1:]) if b > a)
    assert inversions <= 1, curve

    ridge_nl = type2_experiment(ridge, "nonlinear-3mode", SIZES, "0.05", reps, 5001)
    knn_nl = type2_experiment(KnnLearner(3), "nonlinear-3mode", SIZES, "0.05", reps, 5002)
    gap = float(ridge_nl[40]) - float(knn_nl[40])
    assert gap >= 0.2, (float(ridge_nl[40]), float(knn_nl[40]))
    elapsed = time.monotonic() - start
    report(
        9,
        f"(a) linear-strong ridge curve {curve} has {inversions} inversion(s); "
        f"(b) nonlinear ridge {float(ridge_nl[40]):.2f} vs knn {float(knn_nl[40]):.2f} "
        f"at n=40, {elapsed:.0f}s",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "configs.txt"
    cfg.write_text("constant;feature=0;null-gauss-1d;7\n")
    code_file = tmp_path / "code.txt"
    cases = [
        ("bounds", "--n-range", "3..6", "--w-range", "1..3", "--W-range", "0..2",
         "--exact-when-small"),
        ("critical", "--test", "wmw", "--alpha", "0.05", "--max-size", "10"),
        ("critical", "--test", "lightcode-lower", "--max-size", "8"),
        ("critical", "--test", "empirical", "--configs", str(cfg),
         "--max-size", "2", "--reps", "60"),
        ("construct", "--method", "graham-sloane", "--n", "8", "--w", "3",
         "--W", "1", "--out", str(code_file), "--witness", str(tmp_path / "w.txt")),
        ("verify", "--code", str(code_file), "--W", "1"),
        ("simulate", "--mode", "null", "--learner", "constant", "--scenario",
         "null-gauss-1d", "--n", "7", "--w", "3", "--seed", "9"),
        ("simulate", "--mode", "null", "--learner", "ridge;lambda=1", "--scenario",
         "null-gauss-10d", "--n", "21", "--w", "10", "--permutations", "40",
         "--seed", "9"),
        ("simulate", "--mode", "null", "--learner", "parity", "--scenario",
         "parity", "--n", "10", "--w", "5", "--reps", "80", "--seed", "9",
         "--over-samples"),
        ("simulate", "--mode", "type2", "--learner", "knn;k=3", "--scenario",
         "linear-4sig", "--sizes", "12,16", "--reps", "25", "--seed", "9"),
        ("exact-l", "--n", "5", "--w", "2", "--W", "1", "--out",
         str(tmp_path / "opt.txt")),
    ]
    for argv in cases:
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            files = {
                p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                if p.suffix == ".txt" and p.name != "configs.txt"
            }
            outputs.append((code, captured.out, files))
        assert outputs[0] == outputs[1], argv
    report(10, f"{len(cases)} commands byte-identical across reruns")


def test_spot_reproduction_empirical_cells():
    # Reduced-scale stand-in for the full empirical table: three diagonal
    # cells, 2000 replications, checked against an independent
    # 10000-replication constant-learner run (whose truth is Wilcoxon).
    # At (10,10) the exact cumulative P(<=28) = 0.0526 sits almost on the
    # level, so estimates hover between 26 and 28 around the true 27; the
    # fixed seeds below are part of the frozen test vector, and the
    # estimates are additionally required to bracket the analytic truth.
    results = []
    for w in (5, 10, 15):
        n = 2 * w
        test_cfg = SimulationConfig("constant;feature=0", "null-gauss-1d",
                                    n, w, 2000, 6200 + w)
        ref_cfg = SimulationConfig("constant;feature=0", "null-gauss-1d",
                                   n, w, 10000, 7200 + w)
        got = empirical_critical_value(test_cfg, "0.05")
        ref = empirical_critical_value(ref_cfg, "0.05")
        truth = wmw_critical("0.05", n, w)
        assert got is not None and ref is not None, (w, got, ref)
        assert abs(got - ref) <= 1, (w, got, ref)
        assert abs(got - truth) <= 1 and abs(ref - truth) <= 1, (w, got, ref, truth)
        results.append((w, got, ref, truth))
    report(
        "8b",
        "spot cells (w, 2000-rep, 10000-rep, wilcoxon): "
        + ", ".join(str(t) for t in results),
    )
