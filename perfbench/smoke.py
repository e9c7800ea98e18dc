"""Smoke run of the benchmark: every workload, traced and untraced, at
the smoke input size, started from the benchmark's own directory (not
the repo root). It fails when

- a run exits non-zero, prints no result line, or reports other metric
  names than BENCHMARK.json declares, or ``correct`` false;
- a raylet, gcs_server or Ray worker that a run started is still alive
  after the run exited;
- the benchmark, copied without the library next to it, does not exit
  non-zero without a result line.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(msg: str) -> None:
    print(f"smoke: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def still_alive(pid_file: str) -> list[int]:
    import ray  # noqa: F401  (psutil is vendored by Ray)
    import psutil

    alive = []
    with open(pid_file, encoding="utf-8") as f:
        for pid, created in json.load(f):
            try:
                if psutil.Process(pid).create_time() == created:
                    alive.append(pid)
            except psutil.NoSuchProcess:
                pass
    return alive


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    work = os.path.join(HERE, ".work", "smoke")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for wl in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            pid_file = os.path.join(work, f"{wl}-{trace}.pids")
            p = subprocess.run(
                [sys.executable, RUN, "--workload", wl, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke", "--pid-file", pid_file],
                cwd=HERE, capture_output=True, text=True, timeout=600)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                fail(f"{wl} trace={trace} exited {p.returncode}:\n{p.stderr[-3000:]}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                fail(f"{wl} trace={trace}: {lines[-1]}")
            if set(res["metrics"]) != names[trace]:
                fail(f"{wl} trace={trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(res['metrics']) ^ names[trace])}")
            alive = still_alive(pid_file)
            if alive:
                fail(f"{wl} trace={trace}: Ray processes {alive} outlived the run")
            print(f"smoke: ok {wl} trace={trace} attempted={res['attempted']}")

    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".cache", ".work", ".ray", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crawl_snap", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    if p.returncode == 0 or p.stdout.strip():
        fail(f"without the library the benchmark exited {p.returncode} printing {p.stdout!r}")
    print("smoke: ok without the library: exit", p.returncode)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
