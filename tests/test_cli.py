import pytest

from lightcodes.cli import main
from lightcodes.wilcoxon import wmw_critical
from lightcodes.words import enumerate_words, read_word_file, write_word_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_simulate_unknown_learner_or_scenario(capsys):
    code, _, _ = run(capsys, "simulate", "--mode", "null", "--learner", "zzz")
    assert code == 1
    code, _, _ = run(capsys, "simulate", "--mode", "null", "--learner",
                     "constant", "--scenario", "zzz")
    assert code == 1


def test_exact_l_command(tmp_path, capsys):
    out = tmp_path / "opt.txt"
    code, stdout, _ = run(capsys, "exact-l", "--n", "4", "--w", "2", "--W", "0",
                          "--out", str(out))
    assert code == 0 and ": 2" in stdout
    assert len(read_word_file(out)) == 2
    code, _, err = run(capsys, "exact-l", "--n", "10", "--w", "5", "--W", "1")
    assert code == 3 and "24" in err


def test_exact_l_rejects_negative_W(capsys):
    code, _, err = run(capsys, "exact-l", "--n", "6", "--w", "3", "--W", "-1")
    assert code == 1 and "nonnegative" in err


def test_exact_l_verification_failure_exits_4(monkeypatch, capsys):
    from lightcodes import codes

    monkeypatch.setattr(codes, "orientation_feasible", lambda g, W: (False, None))
    code, _, err = run(capsys, "exact-l", "--n", "6", "--w", "3", "--W", "1")
    assert code == 4 and "max-flow verification" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


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
