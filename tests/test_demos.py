"""Demo 01 writes no file, so its stdout is pinned byte for byte instead."""

import runpy
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_demo_01_stdout_is_pinned(capsys):
    runpy.run_path(str(TESTS.parent / "demos" / "01_words_and_orientations.py"))
    want = (TESTS / "demo_01_stdout.txt").read_bytes()
    assert capsys.readouterr().out.encode() == want
