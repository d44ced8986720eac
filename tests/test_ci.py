"""The CI workflow, pyproject.toml and ROADMAP.md's Tier-1 command stay in step.

Each file is read as text, so the check needs no YAML or TOML parser.
"""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def _run_steps() -> list[str]:
    """The workflow's one-line ``run:`` commands."""
    return [cmd.strip() for cmd in re.findall(r"^\s+run: (.+)$", WORKFLOW, re.M)]


def _requirements(key: str) -> set[str]:
    """Normalized distribution names of the pyproject list ``key = [...]``."""
    (body,) = re.findall(rf"^{key} = \[(.*?)\]", PYPROJECT, re.M | re.S)
    return {_normalized(re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0])
            for req in re.findall(r'"([^"]+)"', body)}


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _tier1_command() -> str:
    roadmap = (ROOT / "ROADMAP.md").read_text()
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M)
    return command


def test_workflow_runs_the_documented_tier1_command():
    assert _tier1_command() in _run_steps()


def test_workflow_also_runs_tier1_on_the_declared_numpy_floor():
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', PYPROJECT)
    (entries,) = re.findall(r"^\s+numpy: \[(.*)\]$", WORKFLOW, re.M)
    assert re.findall(r'"([^"]+)"', entries) == ["latest", f"{floor}.*"]
    steps = _run_steps()
    (pin,) = [i for i, cmd in enumerate(steps) if "numpy==${{ matrix.numpy }}" in cmd]
    (extra,) = [i for i, cmd in enumerate(steps) if ".[test]" in cmd]
    # The pin goes after the test extra, which would otherwise upgrade numpy again.
    assert extra < pin < steps.index(_tier1_command())


def test_workflow_installs_the_test_extra():
    installs = [cmd for cmd in _run_steps() if "pip install" in cmd]
    assert any(re.search(r"""["']?\.\[test\]["']?""", cmd) for cmd in installs), installs


def test_every_third_party_import_in_the_tests_is_declared():
    local = {path.stem for path in (ROOT / "tests").rglob("*.py")}
    local |= {path.name for path in (ROOT / "src").iterdir() if path.is_dir()}
    imported = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest"} <= third_party
    declared = _requirements("dependencies") | _requirements("test")
    distributions = packages_distributions()
    missing = {module for module in third_party
               if not {_normalized(d) for d in distributions.get(module, [module])} & declared}
    assert not missing, f"imported under tests/ but not declared in pyproject.toml: {missing}"
