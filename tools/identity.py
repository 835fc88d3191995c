"""Compare lpplscan's results between the working tree and another commit, bit for bit.

    python tools/identity.py --against SHA [--tiny]

checks SHA out into a temporary `git worktree`, runs one seeded corpus with
each tree's `src/lpplscan` (each in a fresh interpreter) and prints one line
per section, "<section>: equal" or "<section>: differs". For a section of
fits that differs, the line adds the largest relative sse change and the
number of verdict flips (a fit qualified on one side only); for a CLI
section, the output files that differ. The worktree is removed afterwards.
The exit status is 0 whether or not the sections are equal.

The hashes depend on the platform and its BLAS, so only two trees run on one
machine can be compared. The corpus:

- the default window ladder of a 1000-day series at every 50th end date,
  on 2 workers, with m_range from 0.01 and from 1e-5;
- the benchmark's backtest grid, at n_jobs 1 and 2;
- a weekday calendar, whose time grids differ between end dates;
- single windows at n_starts 1 and 200;
- one seeded window of a noisy exponential at grid steps 1e-300, 1e-3, 1,
  1e150 and 1e200, which a fit that does not depend on the time unit fits
  alike at every step;
- the bytes of CLI `synth`, `fit` and `scan`, the last at --jobs 1 and 2.

`--tiny` runs a corpus of the same sections that takes a few seconds.

    python tools/identity.py --corpus [--tiny]

prints the corpus of the lpplscan that Python imports as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fits(fits) -> dict:
    """A section of fits: the hash of their reprs, and each one's sse and verdict for the mismatch report."""
    return {
        "hash": _digest("\n".join(repr(f) for f in fits).encode()),
        "sse": [f.sse for f in fits],
        "qualified": [f.qualified for f in fits],
    }


def _cli(tmp: Path, tiny: bool) -> dict:
    """CLI sections, run in tmp with relative paths: each the hash of its stdout, stderr, exit status and files written."""
    steps = 60 if tiny else 400
    csv = "bubble.csv"
    synth = ["synth", "--regime", "lppl", "--params", f"t_c={steps + 30}", "m=0.5", "omega=6.28", "B=-0.8",
             "A=8", "C=0.05", "--grid", f"0,{steps - 1},1", "--noise", "0.01", "--seed", "7", "--out", csv]
    fit = ["fit", "--input", csv, "--date-column", "time", "--t1", "0", "--t2", str(steps - 1), "--seed", "1"]
    if tiny:
        fit += ["--filters", "n_starts=1", "max_iter=20"]
    commands = {"cli synth": synth, "cli fit": fit}
    for jobs in (1, 2):
        scan = ["scan", "--input", csv, "--date-column", "time", "--windows", "30,45" if tiny else "60,90,120",
                "--every", "10" if tiny else "20", "--seed", "1", "--jobs", str(jobs), "--out", f"scan{jobs}"]
        if tiny:
            scan += ["--filters", "n_starts=1", "max_iter=20"]
        commands[f"cli scan jobs={jobs}"] = scan
    sections = {}
    for name, argv in commands.items():
        before = set(tmp.rglob("*"))
        done = subprocess.run([sys.executable, "-m", "lpplscan.cli", *argv], capture_output=True, cwd=tmp)
        files = {"stdout": _digest(done.stdout), "stderr": _digest(done.stderr), "exit": str(done.returncode)}
        for path in sorted(set(tmp.rglob("*")) - before):
            if path.is_file():
                files[path.relative_to(tmp).as_posix()] = _digest(path.read_bytes())
        sections[name] = {"hash": _digest(json.dumps(files, sort_keys=True).encode()), "files": files}
    return sections


def corpus(tiny: bool) -> dict:
    """Every section of the seeded corpus, computed with the lpplscan on the path."""
    import numpy as np

    import lpplscan as L

    def series(n, t_c, seed, days=None):
        spec = L.SynthSpec(regime=L.LpplParams(t_c=t_c, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-1.0, C=0.05),
                           t_start=0, t_end=n - 1, step=1.0, noise_sigma=0.01, seed=seed)
        s = L.generate(spec).series
        return s if days is None else L.PriceSeries(days, s.prices)

    def scan(s, **config):
        return L.scan(s, L.ScanConfig(**config)).fits

    out = {"module": L.__file__}
    small = L.SearchConfig(n_starts=1, max_iter=20)
    n = 300 if tiny else 1000
    ladder = series(n, n + 40.0, 11)
    for m_lo in (0.01, 1e-5):
        out[f"ladder m_range from {m_lo:g}"] = _fits(scan(
            ladder, end_every=50, n_jobs=2, filters=L.FilterConfig(m_range=(m_lo, 0.99)),
            window_lengths=(60.0, 78.0, 101.4) if tiny else L.scanner.default_window_ladder(),
            **({"search": small} if tiny else {})))
    history = series(120 if tiny else 250, (120 if tiny else 250) + 12.0, 2)
    for jobs in (1, 2):
        out[f"backtest grid n_jobs={jobs}"] = _fits(scan(
            history, window_lengths=(40.0, 60.0) if tiny else (40.0, 90.0, 150.0), end_every=20 if tiny else 10,
            search=small if tiny else L.SearchConfig(n_starts=6, max_iter=250), n_jobs=jobs))
    k = 150 if tiny else 500
    days = np.array([d for d in range(2 * k) if d % 7 < 5][:k], dtype=float)
    out["weekday calendar"] = _fits(scan(
        series(k, k + 40.0, 6, days), window_lengths=(44.0, 90.0), end_every=3 if tiny else 9, n_jobs=2,
        search=small if tiny else L.SearchConfig(n_starts=8, max_iter=300)))
    single = series(200, 220.0, 5)
    for starts in (1, 200):
        search = L.SearchConfig(n_starts=starts, max_iter=20 if tiny else 400)
        out[f"n_starts={starts}"] = _fits([
            L.fit_window(single, L.slice_window(single, t2 - length, t2), search, seed=3)
            for length in ((60.0,) if tiny else (60.0, 120.0, 180.0)) for t2 in (199.0, 150.0)])
    fits = []
    for step in (1e-300, 1e-3, 1.0, 1e150, 1e200):
        path = L.generate(L.SynthSpec(regime=L.GrowthSpec(kind="exponential", rate=0.002 / step, p0=10.0), t_start=0,
                                      t_end=199 * step, step=step, noise_sigma=0.01, seed=2)).series
        fits.append(L.fit_window(path, L.slice_window(path, 0, 199 * step), small if tiny else L.SearchConfig(6, 250),
                                 seed=4))
    out["grid steps 1e-300 to 1e200"] = _fits(fits)

    with tempfile.TemporaryDirectory() as tmp:
        out.update(_cli(Path(tmp), tiny))
    return out


def _tree_corpus(tree: Path, tiny: bool) -> dict:
    """The corpus of tree's src/lpplscan, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), "--corpus"] + (["--tiny"] if tiny else [])
    out = json.loads(subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout)
    if not Path(out.pop("module")).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"the corpus of {tree} imported another lpplscan")
    return out


def verdict(name: str, ours: dict | None, theirs: dict | None) -> str:
    """One line: the section equal or not, and for fits that differ the largest relative sse change and the flips."""
    if ours is None or theirs is None:
        return f"{name}: differs (only in {'this tree' if theirs is None else 'the other commit'})"
    if ours["hash"] == theirs["hash"]:
        return f"{name}: equal"
    if "files" in ours:
        changed = sorted(k for k in ours["files"].keys() | theirs["files"].keys()
                         if ours["files"].get(k) != theirs["files"].get(k))
        return f"{name}: differs (outputs {', '.join(changed)})"
    if len(ours["sse"]) != len(theirs["sse"]):
        return f"{name}: differs ({len(theirs['sse'])} fits, now {len(ours['sse'])})"
    change = max((abs(a - b) / max(abs(b), math.ulp(0)) for a, b in zip(ours["sse"], theirs["sse"]) if a != b),
                 default=0.0)
    flips = sum(a != b for a, b in zip(ours["qualified"], theirs["qualified"]))
    return (f"{name}: differs (largest relative sse change {change:.3g}, "
            f"{flips} verdict flips of {len(ours['sse'])} fits)")


def compare(sha: str, tiny: bool) -> list[str]:
    """The verdict lines of the working tree against commit sha, checked out in a temporary worktree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--quiet", "--detach", str(tree), sha],
                       check=True)
        try:
            theirs = _tree_corpus(tree, tiny)
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)], check=True)
    ours = _tree_corpus(REPO, tiny)
    return [verdict(name, ours.get(name), theirs.get(name)) for name in dict.fromkeys([*ours, *theirs])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--against", metavar="SHA", help="the commit to compare the working tree with")
    action.add_argument("--corpus", action="store_true", help="print the corpus of the lpplscan on the path")
    parser.add_argument("--tiny", action="store_true", help="a corpus of a few seconds")
    args = parser.parse_args(argv)
    if args.corpus:
        print(json.dumps(corpus(args.tiny)))
    else:
        for line in compare(args.against, args.tiny):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
