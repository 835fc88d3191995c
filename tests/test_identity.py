"""tools/identity.py: its --tiny corpus against the checked-out commit, and its verdict lines."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"
SECTIONS = [
    "ladder m_range from 0.01", "ladder m_range from 1e-05", "backtest grid n_jobs=1", "backtest grid n_jobs=2",
    "weekday calendar", "n_starts=1", "n_starts=200", "grid steps 1e-300 to 1e200", "cli synth", "cli fit", "cli scan jobs=1", "cli scan jobs=2",
]


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_corpus_against_head_prints_one_verdict_per_section():
    head = None if shutil.which("git") is None else subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True, text=True)
    if head is None or head.returncode:
        pytest.skip("not a git checkout")

    def worktrees():
        return subprocess.run(["git", "-C", str(ROOT), "worktree", "list"], capture_output=True, text=True).stdout

    before = worktrees()
    done = subprocess.run([sys.executable, str(TOOL), "--against", head.stdout.strip(), "--tiny"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    # whether a section is equal depends on the working tree's changes; each section gets one verdict
    lines = done.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines] == SECTIONS
    assert all(line.endswith(": equal") or ": differs (" in line for line in lines)
    assert worktrees() == before


def test_a_differing_section_names_its_largest_sse_change_and_flips():
    verdict = load_tool().verdict
    theirs = {"hash": "a", "sse": [1.0, 2.0, 4.0], "qualified": [True, False, True]}
    ours = {"hash": "b", "sse": [1.0, 2.0 * (1 + 1e-9), 4.0 * (1 - 3e-12)], "qualified": [True, True, True]}
    assert verdict("s", theirs, theirs) == "s: equal"
    assert verdict("s", ours, theirs) == "s: differs (largest relative sse change 1e-09, 1 verdict flips of 3 fits)"
    assert verdict("s", ours, None) == "s: differs (only in this tree)"
    files = {"hash": "c", "files": {"stdout": "1", "out.csv": "2"}}
    assert verdict("cli", {"hash": "d", "files": {"stdout": "1", "out.csv": "3"}}, files) == "cli: differs (outputs out.csv)"
