"""lpplscan benchmark: one workload, measured from outside the program.

    python3 benchmark/run.py --workload nowcast|backtest|replay --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/lpplscan`. The workload
runs in fresh interpreters (benchmark/workloads.py): the set-up is repeated
in several of them and its median reported; the last one also runs the timed
region and the checks. Resident memory of that process's workers is sampled
from here. The last line of stdout is the result as one JSON object; a run
that cannot measure prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-ups per run (2 with --tiny); setup_s is their median
DEADLINE_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerRss(threading.Thread):
    """Samples the children of one process; keeps the peak of their summed VmHWM."""

    def __init__(self, pid: int, every: float = 0.05):
        super().__init__(daemon=True)
        self.pid, self.every = pid, every
        self.peak_kb = 0
        self.halt = threading.Event()

    def children(self) -> list[str]:
        pids = []
        try:
            for task in os.listdir(f"/proc/{self.pid}/task"):
                with open(f"/proc/{self.pid}/task/{task}/children") as fh:
                    pids += fh.read().split()
        except OSError:
            pass
        return pids

    def run(self) -> None:
        hwm: dict[str, int] = {}
        while not self.halt.wait(self.every):
            live = self.children()
            for pid in live:
                try:
                    with open(f"/proc/{pid}/status") as fh:
                        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
                except (OSError, StopIteration):
                    continue
                hwm[pid] = max(hwm.get(pid, 0), kb)
            self.peak_kb = max(self.peak_kb, sum(hwm.get(pid, 0) for pid in live))


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 1


def start(argv: list[str], env: dict, deadline: float, sample: bool) -> tuple[dict, int]:
    """Run one workload process; its result JSON and the peak summed RSS of its workers."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *argv, "--t0", repr(t0)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sampler = WorkerRss(proc.pid) if sample else None
    if sampler:
        sampler.start()
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if sampler:
            sampler.halt.set()
            sampler.join()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1]), sampler.peak_kb if sampler else 0


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="lpplscan benchmark")
    parser.add_argument("--workload", required=True, choices=["nowcast", "backtest", "replay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lpplscan" / "__init__.py").is_file():
        return fail(f"no lpplscan sources under {src}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["per_layer"] + declared["end_to_end"]}
    # measured imports then read cached bytecode, as an installed package would
    compileall.compile_dir(str(src / "lpplscan"), quiet=1)

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.update({pin: "1" for pin in THREAD_PINS})
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    common = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    common += ["--tiny"] if args.tiny else []
    try:
        setups = [start([*common, "--mode", "setup", "--out", str(out / f"setup{i}")], env, deadline, False)[0]
                  for i in range((2 if args.tiny else SETUPS) - 1)]
        mode = "trace" if args.trace else "run"
        result, worker_kb = start([*common, "--mode", mode, "--out", str(out / mode)], env, deadline, True)
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))
    setups.append(result)

    if args.trace:
        metrics = dict(result["layers"])
        metrics["import.lpplscan_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["scanner.worker_peak_rss_mb"] = worker_kb / 1024
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "dates_per_s": result["dates_per_s"],
            "peak_rss_mb": (result["self_hwm_kb"] + worker_kb) / 1024,
        }
    missing = [n for n in names if n not in metrics]
    if missing and not args.tiny:
        return fail(f"no value for {missing}")
    for error in result["errors"]:
        print(f"benchmark: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
