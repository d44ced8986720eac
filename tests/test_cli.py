import hashlib
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from lightcodes import experiments, lpocv, wilcoxon
from lightcodes.cli import build_parser, main
from lightcodes.wilcoxon import wmw_critical
from lightcodes.words import Word, enumerate_words, read_word_file, write_word_file
from oracles import distance_two_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checkout_env():
    """The environment with this checkout's src first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_bounds_grid(capsys):
    code, out, _ = run(
        capsys, "bounds", "--n-range", "3..6", "--w-range", "1..3",
        "--W-range", "0..2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,w,W,lower,upper,exact"
    # Inclusive ranges: 11 valid (n,w) pairs times 3 values of W.
    assert len(lines) == 1 + 11 * 3
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 6
        assert int(parts[3]) <= int(parts[4])
    target = [l for l in lines if l.startswith("4,2,1,")]
    assert target and target[0].split(",")[5] == "4"


def test_bounds_rejects_bad_range(capsys):
    code, _, err = run(capsys, "bounds", "--n-range", "x", "--w-range", "1",
                       "--W-range", "0")
    assert code == 1 and "usage error" in err


def test_bounds_rejects_negative_W(capsys):
    code, out, err = run(capsys, "bounds", "--n-range", "4", "--w-range", "2",
                         "--W-range=-1..0")
    assert code == 1 and out == "" and "--W-range" in err


def test_critical_wmw_matches_library(capsys):
    code, out, _ = run(capsys, "critical", "--test", "wmw", "--alpha", "0.05",
                       "--max-size", "8")
    assert code == 0
    lines = out.strip().splitlines()
    grid = {}
    for line in lines[1:]:
        parts = line.split(",")
        w = int(parts[0])
        for n0, cell in enumerate(parts[1:], start=1):
            grid[(w, n0)] = None if cell == "" else int(cell)
    for w in range(1, 9):
        for n0 in range(1, 9):
            assert grid[(w, n0)] == wmw_critical("0.05", w + n0, w)


def test_critical_lightcode_upper_conservative(capsys):
    _, out_wmw, _ = run(capsys, "critical", "--test", "wmw", "--max-size", "6")
    _, out_up, _ = run(capsys, "critical", "--test", "lightcode-upper",
                       "--max-size", "6")

    def parse(out):
        cells = {}
        for line in out.strip().splitlines()[1:]:
            parts = line.split(",")
            for n0, cell in enumerate(parts[1:], start=1):
                cells[(int(parts[0]), n0)] = None if cell == "" else int(cell)
        return cells

    wmw, upper = parse(out_wmw), parse(out_up)
    for cell, crit in upper.items():
        if crit is not None:
            assert wmw[cell] is not None and crit <= wmw[cell]


def test_critical_empirical_requires_configs(capsys):
    code, _, err = run(capsys, "critical", "--test", "empirical")
    assert code == 1 and "configs" in err


def test_critical_empirical_small_grid(tmp_path, capsys):
    cfg = tmp_path / "configs.txt"
    cfg.write_text("constant;feature=0;null-gauss-1d;7\n")
    code, out, _ = run(
        capsys, "critical", "--test", "empirical", "--configs", str(cfg),
        "--max-size", "3", "--reps", "120", "--alpha", "0.05",
    )
    assert code == 0
    assert out.splitlines()[0] == "w,1,2,3"


def test_critical_grids_parse_alpha_once(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "configs.txt"
    cfg.write_text("constant;feature=0;null-gauss-1d;7\n")
    parsed = []
    as_fraction = wilcoxon.as_fraction
    monkeypatch.setattr(wilcoxon, "as_fraction", lambda a: parsed.append(a) or as_fraction(a))
    for test in ("lightcode-upper", "lightcode-lower", "empirical"):
        parsed.clear()
        code, out, _ = run(capsys, "critical", "--test", test, "--max-size", "4",
                           "--configs", str(cfg), "--reps", "20")
        assert code == 0 and out.startswith("w,1,2,3,4\n")
        assert [a for a in parsed if isinstance(a, str)] == ["0.05"], test


def test_critical_reports_a_bad_alpha_after_the_branchs_own_checks(tmp_path, capsys):
    cfg = tmp_path / "configs.txt"
    cfg.write_text("constant;feature=0;null-gauss-3d;7\n")
    for test in ("lightcode-upper", "lightcode-lower"):
        code, out, err = run(capsys, "critical", "--test", test, "--alpha", "2")
        assert (code, out, err) == (1, "", "usage error: alpha must be in (0,1), got 2\n")
    code, _, err = run(capsys, "critical", "--test", "empirical", "--alpha", "2")
    assert code == 1 and "requires --configs" in err
    code, _, err = run(capsys, "critical", "--test", "empirical", "--alpha", "2",
                       "--configs", str(cfg))
    assert code == 2 and "unknown scenario 'null-gauss-3d'" in err
    # ... and before any config is scored, so a data file that cannot be read is not reached.
    cfg.write_text(f"constant;feature=0;csv:{tmp_path / 'missing.csv'};7\n")
    code, _, err = run(capsys, "critical", "--test", "empirical", "--alpha", "2",
                       "--configs", str(cfg))
    assert code == 1 and "alpha must be in (0,1), got 2" in err, err


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.txt"
    wit = tmp_path / "wit.txt"
    code, stdout, _ = run(
        capsys, "construct", "--method", "orbit", "--n", "5", "--w", "2",
        "--W", "1", "--out", str(out), "--witness", str(wit),
    )
    assert code == 0 and "5 words" in stdout
    assert len(read_word_file(out)) == 5
    assert wit.read_text().splitlines()[0] == "5 2"
    code, stdout, _ = run(capsys, "verify", "--code", str(out), "--W", "1")
    assert code == 0 and "feasible: yes" in stdout


def test_construct_tournament_and_gs(tmp_path, capsys):
    out = tmp_path / "c.txt"
    code, stdout, _ = run(capsys, "construct", "--method", "tournament",
                          "--n", "7", "--w", "1", "--W", "1", "--out", str(out))
    assert code == 0 and len(read_word_file(out)) == 3
    code, _, err = run(capsys, "construct", "--method", "graham-sloane",
                       "--n", "7", "--w", "3", "--W", "2", "--out", str(out))
    assert code == 1 and "4W" in err
    code, _, _ = run(capsys, "construct", "--method", "graham-sloane",
                     "--n", "8", "--w", "3", "--W", "1", "--out", str(out))
    assert code == 0 and len(read_word_file(out)) >= 10


@pytest.mark.parametrize("method, w", [("tournament", 1), ("orbit", 2), ("graham-sloane", 3)])
def test_construct_rejects_negative_W(method, w, tmp_path, capsys):
    code, out, err = run(capsys, "construct", "--method", method, "--n", "9", "--w", str(w),
                         "--W", "-1", "--out", str(tmp_path / "c.txt"))
    assert code == 1 and out == "" and "nonnegative" in err, err
    assert not (tmp_path / "c.txt").exists()


def test_construct_graham_sloane_too_large_exits_3(monkeypatch, tmp_path, capsys):
    from lightcodes import codes

    def never(n, w):
        raise AssertionError(f"enumerated S({n},{w})")

    monkeypatch.setattr(codes, "enumerate_words", never)  # fail, not hang, if not refused
    code, out, err = run(capsys, "construct", "--method", "graham-sloane", "--n", "40",
                         "--w", "20", "--W", "2", "--out", str(tmp_path / "c.txt"))
    assert code == 3 and out == "" and "C(40,20) = 137846528820" in err, err


def test_verify_reports_infeasible(tmp_path, capsys):
    path = tmp_path / "all.txt"
    write_word_file(path, enumerate_words(4, 2))
    code, stdout, err = run(capsys, "verify", "--code", str(path), "--W", "1")
    assert code == 4
    assert "feasible: no" in stdout


def test_verify_input_errors(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1100\n110\n")
    code, _, err = run(capsys, "verify", "--code", str(path), "--W", "0")
    assert code == 2
    path.write_text("")
    code, _, _ = run(capsys, "verify", "--code", str(path), "--W", "0")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--code", str(tmp_path / "none.txt"), "--W", "0")
    assert code == 2


def test_simulate_null_constant_equals_wilcoxon(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code, _, _ = run(
        capsys, "simulate", "--mode", "null", "--learner", "constant",
        "--scenario", "null-gauss-1d", "--n", "8", "--w", "4",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    from lightcodes.wilcoxon import wmw_distribution

    rows = out.read_text().strip().splitlines()
    assert rows[0] == "errors,count"
    counts = tuple(int(r.split(",")[1]) for r in rows[1:])
    assert counts == wmw_distribution(8, 4).counts


def test_simulate_parity_over_samples(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code, _, _ = run(
        capsys, "simulate", "--mode", "null", "--learner", "parity",
        "--scenario", "parity", "--n", "8", "--w", "4", "--reps", "100",
        "--seed", "5", "--over-samples", "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    counts = [int(r.split(",")[1]) for r in rows]
    assert sum(counts) == 100
    assert all(c == 0 for c in counts[1:-1])
    assert counts[0] > 0 and counts[-1] > 0


def test_simulate_type2(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    code, _, _ = run(
        capsys, "simulate", "--mode", "type2", "--learner", "knn;k=3",
        "--scenario", "linear-4sig", "--sizes", "12,16", "--reps", "30",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "size,failure_proportion"
    assert len(rows) == 3


def test_simulate_type2_bad_alpha_fails_before_scoring(monkeypatch, capsys):
    scored = []
    replicate = experiments.replicate_error_counts

    def recording(learner, scenario, n, w, reps, seed):
        scored.append(n)
        return replicate(learner, scenario, n, w, reps, seed)

    monkeypatch.setattr(experiments, "replicate_error_counts", recording)
    code, out, err = run(capsys, "simulate", "--mode", "type2", "--learner", "knn;k=3",
                         "--alpha", "2", "--sizes", "12,16", "--reps", "50")
    assert code == 1 and out == "" and "alpha must be in (0,1)" in err, err
    assert scored == []


def test_simulate_unknown_learner_or_scenario(capsys):
    code, _, _ = run(capsys, "simulate", "--mode", "null", "--learner", "zzz")
    assert code == 1
    code, _, _ = run(capsys, "simulate", "--mode", "null", "--learner",
                     "constant", "--scenario", "zzz")
    assert code == 1


BAD_LEARNER_SPECS = [
    ("ridge;lamda=5", "unknown parameter 'lamda'"),
    ("constant;feature=1,feature=2", "repeated parameter 'feature'"),
    ("random-orientation;seed=9223372036854775808", "signed 64-bit range"),
]


@pytest.mark.parametrize("spec, message", BAD_LEARNER_SPECS)
def test_simulate_rejects_a_bad_learner_spec(spec, message, capsys):
    code, out, err = run(capsys, "simulate", "--mode", "null", "--learner", spec,
                         "--n", "6", "--w", "3")
    assert code == 1 and out == "" and err.startswith("usage error:") and message in err, err


@pytest.mark.parametrize("spec, message", BAD_LEARNER_SPECS)
def test_configs_file_rejects_a_bad_learner_spec(spec, message, tmp_path, capsys):
    name, params = spec.split(";")
    cfg = tmp_path / "configs.txt"
    cfg.write_text(f"constant;feature=0;null-gauss-1d;7\n{name};{params};null-gauss-1d;7\n")
    code, out, err = run(capsys, "critical", "--test", "empirical", "--configs", str(cfg),
                         "--max-size", "2", "--reps", "5")
    assert code == 2 and out == "" and f"{cfg}:2:" in err and message in err, err


@pytest.mark.parametrize("seed", ["-3", "x", "1.5"])
def test_configs_file_rejects_a_bad_seed_by_line(seed, tmp_path, capsys):
    cfg = tmp_path / "configs.txt"
    cfg.write_text(f"constant;feature=0;null-gauss-1d;7\nconstant;feature=0;null-gauss-1d;{seed}\n")
    code, out, err = run(capsys, "critical", "--test", "empirical", "--configs", str(cfg),
                         "--max-size", "2", "--reps", "5")
    assert code == 2 and out == "" and f"{cfg}:2: bad seed {seed!r}" in err, err


@pytest.mark.parametrize("line, message", [
    ("constant;feature=0;null-gauss-1d", "expected 'learner;params;scenario;seed'"),
    ("constant;feature=0;null-gauss-3d;7", "unknown scenario 'null-gauss-3d'"),
])
def test_configs_file_rejects_a_bad_line_by_line(line, message, tmp_path, capsys):
    cfg = tmp_path / "configs.txt"
    cfg.write_text(f"constant;feature=0;null-gauss-1d;7\n{line}\n")
    code, out, err = run(capsys, "critical", "--test", "empirical", "--configs", str(cfg),
                         "--max-size", "2", "--reps", "5")
    assert code == 2 and out == "" and f"{cfg}:2: {message}" in err, err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_non_finite_ridge_penalty(value, capsys):
    code, out, err = run(capsys, "simulate", "--mode", "null", "--learner",
                         f"ridge;lambda={value}", "--n", "6", "--w", "3")
    assert code == 1 and out == "" and "usage error" in err and "finite" in err, err


@pytest.mark.parametrize(
    "learner, message",
    [("constant;feature=20", "feature 20 out of range for d=10"),
     ("order-direction;feature=-1", "non-negative")],
)
def test_simulate_rejects_bad_feature_index(learner, message, capsys):
    code, out, err = run(capsys, "simulate", "--mode", "type2", "--learner", learner,
                         "--scenario", "nonlinear-3mode", "--sizes", "12", "--reps", "3")
    assert code == 1 and out == "" and "usage error" in err and message in err, err


def test_simulate_null_past_64_rows(capsys):
    code, out, err = run(capsys, "simulate", "--mode", "null", "--learner", "knn;k=3",
                         "--n", "100", "--w", "50", "--permutations", "3")
    assert code == 0, err
    counts = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert len(counts) == 50 * 50 + 1 and sum(counts) == 3


RIDGE_REFUSAL = "bytes of ridge(lambda=1)'s largest kernel array on 1 sample(s) of n=11600"


@pytest.mark.parametrize("extra", [("--permutations", "3"), ("--over-samples", "--reps", "1")])
def test_simulate_refused_by_bytes_exits_3(extra, capsys):
    # At n = 11600 the pair lists of several labelings take 1.08 GB, and so
    # does ridge's (n, n) hat matrix, which the replications refuse before
    # they list one labeling's pairs (538 MB).
    code, out, err = run(capsys, "simulate", "--mode", "null", "--learner", "ridge;lambda=1",
                         "--n", "11600", "--w", "5800", *extra)
    what = RIDGE_REFUSAL if "--over-samples" in extra else "bytes of the pair lists of n=11600"
    assert code == 3 and out == "" and what in err, err


def test_simulate_type2_refused_by_bytes_before_its_wmw_table():
    # The WMW critical value at n = 11600 would take hours; ridge's hat
    # matrix is refused before the value is needed, so the run ends at once.
    proc = subprocess.run(
        [sys.executable, "-m", "lightcodes", "simulate", "--mode", "type2", "--learner",
         "ridge;lambda=1", "--sizes", "11600", "--reps", "1"],
        env=checkout_env(), capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert RIDGE_REFUSAL in proc.stderr


def test_simulate_ridge_null_at_n_in_the_hundreds_in_bounded_memory():
    # A small parent process runs the CLI, so the child's peak RSS, read back
    # through RUSAGE_CHILDREN, does not start from this test process's own.
    def peak_mb(*argv):
        script = ("import resource, subprocess, sys; "
                  "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode; "
                  "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        proc = subprocess.run(
            [sys.executable, "-c", script, sys.executable, "-m", "lightcodes", "simulate",
             "--mode", "null", "--learner", "ridge;lambda=1", *argv],
            env=checkout_env(), capture_output=True, text=True, timeout=60,
        )
        code, kb = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        return kb / 1024

    assert peak_mb("--n", "400", "--w", "200", "--permutations", "200") < 200
    peak_mb("--n", "1000", "--w", "500", "--permutations", "20")


def test_simulate_ridge_without_training_rows(capsys):
    code, _, err = run(capsys, "simulate", "--mode", "null", "--learner",
                       "ridge;lambda=1", "--n", "2", "--w", "1")
    assert code == 1 and "no training rows" in err
    # The same refusal through the stacked replications.
    code, out, err = run(capsys, "simulate", "--mode", "null", "--learner", "ridge;lambda=1",
                         "--n", "2", "--w", "1", "--reps", "3", "--over-samples")
    assert code == 1 and out == "" and "no training rows" in err, err


def test_simulate_knn_without_enough_training_rows(capsys):
    code, out, err = run(capsys, "simulate", "--mode", "type2", "--learner", "knn;k=11",
                         "--sizes", "12")
    assert code == 1 and out == ""
    assert err == "usage error: k=11 too large for n=12 (train size 10)\n", err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--mode", "type2", "--sizes", "12,0"), "--sizes"),
        (("--mode", "type2", "--sizes", "12,x"), "--sizes"),
        (("--mode", "type2", "--sizes", "12,13"), "--sizes"),
        (("--mode", "null", "--over-samples", "--reps", "0"), "--reps"),
        (("--mode", "null", "--n", "40", "--w", "20", "--permutations", "0"),
         "--permutations"),
        (("--mode", "null", "--permutations", "-3"), "--permutations"),
    ],
)
def test_simulate_rejects_bad_counts(argv, flag, capsys):
    code, out, err = run(capsys, "simulate", "--learner", "constant", *argv)
    assert code == 1 and out == "" and flag in err, err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--test", "wmw", "--max-size", "0"), "--max-size"),
        (("--test", "empirical", "--reps", "0"), "--reps"),
        (("--test", "empirical", "--reps", "-2"), "--reps"),
    ],
)
def test_critical_rejects_bad_counts(argv, flag, capsys):
    code, out, err = run(capsys, "critical", *argv)
    assert code == 1 and out == "" and flag in err, err


def test_critical_wmw_grid_over_memory_limit_exits_3(capsys):
    size = 10**6
    estimate = (size + 1) * (size * size // 2 + 1) * (size // 4 + 1)
    code, out, err = run(capsys, "critical", "--test", "wmw", "--max-size", str(size))
    assert code == 3 and out == "" and str(estimate) in err, err


def test_simulate_mc_null_over_limit_exits_3_before_sampling(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("drew labelings")

    monkeypatch.setattr(lpocv, "sample_labelings", never)
    code, out, err = run(capsys, "simulate", "--mode", "null", "--learner", "constant",
                         "--n", "40", "--w", "20", "--permutations", "1000000000")
    assert code == 3 and out == "" and "resource limit" in err, err


def test_exact_l_command(tmp_path, capsys):
    out = tmp_path / "opt.txt"
    code, stdout, _ = run(capsys, "exact-l", "--n", "4", "--w", "2", "--W", "0",
                          "--out", str(out))
    assert code == 0 and ": 2" in stdout
    assert len(read_word_file(out)) == 2
    code, _, err = run(capsys, "exact-l", "--n", "10", "--w", "5", "--W", "1")
    assert code == 3 and "24" in err


@pytest.mark.parametrize("n, w, W, size", [(6, 3, 2, 11), (7, 2, 1, 7)])  # search, closed form
def test_exact_l_writes_a_witness_of_its_code(n, w, W, size, tmp_path, capsys):
    out, wit = tmp_path / "code.txt", tmp_path / "wit.txt"
    code, stdout, err = run(capsys, "exact-l", "--n", str(n), "--w", str(w), "--W", str(W),
                            "--out", str(out), "--witness", str(wit))
    assert code == 0 and f": {size}\n" in stdout and f"witness: {wit}" in stdout, err
    masks = [word.mask for word in read_word_file(out)]
    header, *lines = wit.read_text().splitlines()
    assert header == f"{n} {w}" and len(masks) == size
    arcs = [tuple(Word.from_string(bits).mask for bits in line.split(" -> ")) for line in lines]
    # Every induced edge once, in one direction, and no other arc.
    assert sorted(map(sorted, arcs)) == sorted(map(sorted, distance_two_pairs(masks)))
    assert max(Counter(src for src, _ in arcs).values()) <= W
    code, stdout, _ = run(capsys, "verify", "--code", str(out), "--W", str(W))
    assert code == 0 and "feasible: yes" in stdout


def test_exact_l_rejects_negative_W(capsys):
    code, _, err = run(capsys, "exact-l", "--n", "6", "--w", "3", "--W", "-1")
    assert code == 1 and "nonnegative" in err


def test_exact_l_verification_failure_exits_4(monkeypatch, capsys):
    from lightcodes import codes

    # The constructions certify through the same check, so seed with one unchecked word.
    monkeypatch.setattr(codes, "best_construction", lambda n, w, W: codes.LightCode(
        n, w, W, (Word((1 << w) - 1, n, w),)))
    monkeypatch.setattr(codes, "orientation_feasible", lambda g, W: (False, None))
    code, _, err = run(capsys, "exact-l", "--n", "6", "--w", "3", "--W", "1")
    assert code == 4 and "fails orientation verification" in err


def test_construct_builds_the_induced_graph_once(monkeypatch, tmp_path, capsys):
    from lightcodes import codes

    calls = []
    build = codes.build_induced
    monkeypatch.setattr(codes, "build_induced", lambda *a: calls.append(a) or build(*a))
    code, _, err = run(capsys, "construct", "--method", "graham-sloane", "--n", "10",
                       "--w", "4", "--W", "2", "--out", str(tmp_path / "c.txt"),
                       "--witness", str(tmp_path / "wit.txt"))
    assert code == 0, err
    assert len(calls) == 1


def test_construct_refused_exits_4(monkeypatch, tmp_path, capsys):
    from lightcodes import codes

    monkeypatch.setattr(codes, "orientation_feasible", lambda g, W: (False, None))
    code, out, err = run(capsys, "construct", "--method", "orbit", "--n", "7", "--w", "2",
                         "--W", "1", "--out", str(tmp_path / "c.txt"))
    assert code == 4 and out == "" and "internal verification failure" in err, err
    assert not (tmp_path / "c.txt").exists()


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


# sha256 of stdout, recorded before replications were scored as stacks of
# samples; any drift in a replication's bits changes these.  The ridge null
# histogram pins every count, where type2 proportions only see counts that
# cross a critical value.
REPLICATION_PINS = {
    "type2-ridge": (
        ("simulate", "--mode", "type2", "--learner", "ridge;lambda=1", "--scenario",
         "null-gauss-10d", "--sizes", "4,8,12,16", "--reps", "40", "--seed", "3"),
        "3bbdda444dc165ddeab33bf3b7d04167ef949444bba1fe89075d268542e29713",
    ),
    "type2-knn": (
        ("simulate", "--mode", "type2", "--learner", "knn;k=3", "--scenario",
         "nonlinear-3mode", "--sizes", "8,12,16", "--reps", "40", "--seed", "3"),
        "88afbd4bad4ce8169d4411b412b677c99171f89edda518b0b855ea769423dfa3",
    ),
    "parity-over-samples": (
        ("simulate", "--mode", "null", "--learner", "parity", "--scenario", "parity",
         "--n", "12", "--w", "6", "--reps", "200", "--over-samples", "--seed", "3"),
        "7c75a2ff4bbfcb803934ee8cc94b486a27ebd39c88ee1c1f2a21b1e269a4e687",
    ),
    "constant-empirical": (
        ("critical", "--test", "empirical", "--configs", "{configs}", "--max-size", "6",
         "--reps", "40"),
        "c0dfbbabe819396b3cc09b40c81fb0a2ffa81cc70603831a83cd287fe262aff3",
    ),
    "ridge-null-over-samples": (
        ("simulate", "--mode", "null", "--learner", "ridge;lambda=1", "--scenario",
         "null-gauss-10d", "--n", "14", "--w", "6", "--reps", "300", "--over-samples",
         "--seed", "3"),
        "db5b10ce66bc57d233ffcec9bae20858926c6ec936c7be69eca0bd0cc3087046",
    ),
    # Many labelings of one sample, recorded while ridge still summed every
    # score elementwise: the exact null, the Monte-Carlo null, and the exact
    # null of an integer grid whose scores often fall at or near 0.
    "ridge-exact-null": (
        ("simulate", "--mode", "null", "--learner", "ridge;lambda=1", "--scenario",
         "null-gauss-10d", "--n", "14", "--w", "7", "--seed", "3"),
        "0eb286c72e6132e4986f0781fb8d340546e2ddb3a854a95cf7d0f465dd3b40c5",
    ),
    "ridge-mc-null": (
        ("simulate", "--mode", "null", "--learner", "ridge;lambda=1", "--scenario",
         "null-gauss-10d", "--n", "20", "--w", "10", "--permutations", "200", "--seed", "3"),
        "e91f881d421ad024ed27e64aea1191fbd19cd1c0b090723f650efdcf389c3e92",
    ),
    "ridge-grid-exact-null": (
        ("simulate", "--mode", "null", "--learner", "ridge;lambda=1", "--scenario",
         "csv:{grid}", "--n", "12", "--w", "6", "--seed", "3"),
        "a414e143f5f3c01fb36777e2948b3dfde358c64ef17e396b1bd9c7bd72829541",
    ),
}

# Twelve rows of {0,1,2}^2 with duplicates, for the ridge-grid-exact-null pin.
GRID_ROWS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (0, 0),
             (1, 1), (2, 0), (0, 2), (1, 2), (2, 1), (1, 1)]


# sha256 of the bound tables' stdout and of the Graham-Sloane code and witness
# files, recorded while the tables still enumerated the tau classes; the
# second table is demos/out/bound_table.csv.  The verify and n = 70 pins were
# recorded while the listing still built a Word for every word of S(n,w) and
# the edges came from w(n-w) neighbor probes per vertex; the verify witness
# depends on the edge order.  Each pin runs its commands in order in a fresh
# directory and hashes their joined stdout and the files they wrote.
GS_18_6_3 = ("construct", "--method", "graham-sloane", "--n", "18", "--w", "6", "--W", "3",
             "--out", "code.txt", "--witness", "witness.txt")
TABLE_PINS = {
    "bounds-small": (
        [("bounds", "--n-range", "3..6", "--w-range", "1..3", "--W-range", "0..2",
          "--exact-when-small")],
        {"stdout": "d6770c2d516800f08f4051fab6925e69641b985742ab59582ebae5c539ae51e1"},
    ),
    "bounds-demo-table": (
        [("bounds", "--n-range", "6..8", "--w-range", "3", "--W-range", "0..2",
          "--exact-when-small")],
        {"stdout": "4a9f679572c17950d4022732dafcd16c63a73bc20ee73f4b9d4bf29fa2bf6a14"},
    ),
    "construct-graham-sloane": (
        [GS_18_6_3],
        {"code.txt": "1b43e5c9208bb583a968e6a532811524dec1c2c53f8ff0f9435aebdd668ceaf6",
         "witness.txt": "f393a6149484084fb5906c47700f925525a37c61955a6a89ef5fea903d25b2d8"},
    ),
    "verify-graham-sloane": (
        [GS_18_6_3, ("verify", "--code", "code.txt", "--W", "3", "--witness", "verified.txt")],
        {"stdout": "6a5a0f34a6220eccaf06df74c6de14990ff48dc8dfadc7b306eeb177b291e82c",
         "verified.txt": "f393a6149484084fb5906c47700f925525a37c61955a6a89ef5fea903d25b2d8"},
    ),
    "construct-graham-sloane-past-64": (
        [("construct", "--method", "graham-sloane", "--n", "70", "--w", "3", "--W", "1",
          "--out", "code.txt", "--witness", "witness.txt")],
        {"code.txt": "6b70c9e91762b83b2a01a46acc93541e888f4cfb067d87bf2b2d1a7597e16462",
         "witness.txt": "d1bf018a29162bee1983d6c07c649d163aa0392b2ffda2bd253362417a55f1be"},
    ),
}


@pytest.mark.parametrize("name", sorted(TABLE_PINS))
def test_table_outputs_are_pinned(name, tmp_path, monkeypatch, capsys):
    commands, want = TABLE_PINS[name]
    monkeypatch.chdir(tmp_path)
    stdout = ""
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        stdout += out
    got = {
        key: hashlib.sha256(stdout.encode() if key == "stdout" else (tmp_path / key).read_bytes())
        .hexdigest()
        for key in want
    }
    assert got == want


def test_bounds_at_large_n(capsys):
    code, out, err = run(capsys, "bounds", "--n-range", "1200", "--w-range", "3",
                         "--W-range", "1")
    assert code == 0, err
    assert out.splitlines()[1].startswith("1200,3,1,")


@pytest.mark.parametrize("name", sorted(REPLICATION_PINS))
def test_replication_outputs_are_pinned(name, tmp_path, capsys):
    configs = tmp_path / "configs.txt"
    configs.write_text("constant;feature=0;null-mix-1d;3\n")
    grid = tmp_path / "grid.csv"
    grid.write_text("x0,x1\n" + "".join(f"{a},{b}\n" for a, b in GRID_ROWS))
    argv, want = REPLICATION_PINS[name]
    code, out, err = run(capsys, *(a.format(configs=configs, grid=grid) for a in argv))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == want, out


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n-range", "3..5", "--w-range", "1..2", "--W-range", "0..1"),
        ("critical", "--test", "wmw", "--max-size", "5"),
        ("simulate", "--mode", "null", "--learner", "constant",
         "--scenario", "null-gauss-1d", "--n", "7", "--w", "3", "--seed", "12"),
    ],
)
def test_rerun_determinism(argv, capsys):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_module_runs_like_the_package():
    argv = ["bounds", "--n-range", "3..4", "--w-range", "1..1", "--W-range", "0..0"]
    package, module = (
        subprocess.run([sys.executable, "-m", name, *argv], env=checkout_env(),
                       capture_output=True, text=True, timeout=120)
        for name in ("lightcodes", "lightcodes.cli")
    )
    assert package.returncode == module.returncode == 0, module.stderr
    assert package.stdout.startswith("n,w,W,lower,upper,exact\n3,1,0,1,1,1\n")
    assert module.stdout == package.stdout


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # Commands that never draw skip numpy.random's import and its memory.
    code = "import sys, lightcodes.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_empirical_config_example_runs(tmp_path, capsys):
    (example,) = re.findall(r"Empirical config files hold.*?e\.g\. `([^`]+)`", README, re.S)
    cfg = tmp_path / "setups.txt"
    cfg.write_text(example + "\n")
    code, out, err = run(capsys, "critical", "--test", "empirical", "--configs", str(cfg),
                         "--max-size", "2", "--reps", "5")
    assert code == 0 and out.startswith("w,1,2"), err


def test_readme_shell_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    commands = [
        line for block in blocks for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("lightcodes ")
    ]
    assert len(commands) >= 10
    for command in commands:
        lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        assert not {";", "|", "&"} & set(tokens), command
        build_parser().parse_args(tokens[1:])
