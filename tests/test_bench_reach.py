"""The benchmark's modules still find every library name they read.

``bench/`` changes only with the benchmark itself, and it reads private
library names (``wilcoxon._q_memo``, ``bounds.johnson_upper.cache_info``,
``codes.tau_classes``, ``JohnsonGraph.neighbor_ranks`` and more).  A library
change that deletes one would otherwise surface only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: installing the spans rewires the library.
PROBE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import checks, child, run, spans, workloads
child._memo_sizes()
spans.install(spans.Tracer())
"""


def test_the_benchmark_finds_the_library_names_it_reads():
    probe = PROBE.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-B", "-c", probe], cwd=ROOT, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
