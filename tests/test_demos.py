"""The demos reproduce their checked-in outputs.

Demo 01 writes no file, so its stdout is pinned byte for byte instead.
Demos 02-05 write CSVs next to themselves in ``out/``; each runs from a copy
in a temporary directory, and what it writes must equal ``demos/out``.
"""

import runpy
import shutil
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


def test_demo_01_stdout_is_pinned(capsys):
    runpy.run_path(str(DEMOS / "01_words_and_orientations.py"))
    want = (TESTS / "demo_01_stdout.txt").read_bytes()
    assert capsys.readouterr().out.encode() == want


def test_demos_02_to_05_reproduce_demos_out(tmp_path):
    for name in ("02_wilcoxon_tables.py", "03_codes_and_bounds.py",
                 "04_learner_null_shapes.py", "05_empirical_tests.py"):
        runpy.run_path(str(shutil.copy(DEMOS / name, tmp_path)))
    want = sorted(path.name for path in (DEMOS / "out").iterdir())
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == want
    for name in want:
        assert (tmp_path / "out" / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name
