"""Benchmark of the crawl-to-street-graph engine, one workload per process.

    python3 perfbench/run.py --workload crawl_snap --seed 1 --seconds 10 --trace 0

Run from any directory. The process builds (or finds in its cache) the
input for the seed, starts Ray with a fixed CPU count, runs one
untimed round whose outputs are checked, then repeats whole rounds for
``--seconds``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the chain staged and
reports the per-layer metrics. A failed check makes ``correct`` false
and the exit code 1; a missing library makes the exit code 2 with no
result line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Ray CPUs: fixed, so runs on hosts of different widths do the same work
NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 << 20
#: longest AF_UNIX socket path Ray accepts under its temp dir
_SOCKET_ROOM = 107 - len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")


class ProcTree:
    """This process and every process below it (the Ray head processes
    and workers started by ``ray.init``)."""

    def __init__(self):
        import psutil  # importable only after ray: Ray vendors it

        self.psutil = psutil
        self.me = psutil.Process()

    def procs(self):
        return [self.me] + self.me.children(recursive=True)

    def cpu(self) -> float:
        total = 0.0
        for p in self.procs():
            try:
                t = p.cpu_times()
            except self.psutil.Error:  # ended between listing and reading
                continue
            total += t.user + t.system
        return total


#: inputs kept in the cache; the least recently used beyond this are removed
CACHE_KEEP = 12


def ensure_input(workload: str, seed: int, size: str) -> str:
    """Input directory for (workload, seed, size); generated in a child
    process so the Ray driver's memory never holds the generator's data."""
    from perfbench import gen

    root = os.path.join(HERE, ".cache")
    path = os.path.join(root, gen.input_key(workload, seed, size))
    if not os.path.exists(os.path.join(path, "meta.json")):
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                        "--seed", str(seed), "--size", size, "--root", root],
                       check=True, stdout=subprocess.DEVNULL)
    os.utime(path)
    kept = sorted((os.path.join(root, d) for d in os.listdir(root) if ".__tmp_" not in d),
                  key=os.path.getmtime, reverse=True)
    for old in kept[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def start_ray():
    import ray

    tmp = os.path.join(HERE, ".ray")
    kw = {"_temp_dir": tmp} if len(tmp) <= _SOCKET_ROOM else {}
    ray.init(num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, log_to_driver=False, logging_level="ERROR", **kw)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray(tree: ProcTree) -> None:
    """Shut Ray down and wait until every process below this one ended."""
    import ray

    session = None
    try:
        session = ray._private.worker._global_node.get_session_dir_path()
    except AttributeError:
        pass
    # listed before the shutdown: a worker whose raylet ended is no
    # longer below this process, yet still has to be waited for
    kids = tree.me.children(recursive=True)
    ray.shutdown()
    _, alive = tree.psutil.wait_procs(kids, timeout=20)
    for p in alive:
        p.kill()
    tree.psutil.wait_procs(alive, timeout=10)
    if session and session.startswith(HERE):
        shutil.rmtree(session, ignore_errors=True)


def timed_rounds(wl, seconds: float, tree: ProcTree):
    """Whole untraced rounds until ``seconds`` have passed; per-round wall
    times, output sizes, and the CPU seconds of all of them together."""
    from perfbench.workloads import Tracer

    walls, sizes = [], []
    c0 = tree.cpu()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        sizes.append(wl.round(Tracer(False)))
        walls.append(time.perf_counter() - t0)
    return walls, sizes, tree.cpu() - c0


def traced_rounds(wl, seconds: float, tree: ProcTree):
    """One fused round for reference, then staged rounds until ``seconds``
    have passed; the median of every per-layer quantity."""
    from perfbench.workloads import STAGES, QUANTITIES, Tracer

    t0 = time.perf_counter()
    wl.round(Tracer(False))
    fused = time.perf_counter() - t0
    recs, totals = [], []
    start = time.perf_counter()
    while not recs or time.perf_counter() - start < seconds:
        tr = Tracer(True, tree.cpu)
        t0 = time.perf_counter()
        wl.round(tr)
        totals.append(time.perf_counter() - t0)
        recs.append(tr.records)
    metrics = {}
    for stage, extra in STAGES.items():
        for q in QUANTITIES + extra:
            vals = [r[stage][q] for r in recs if stage in r and r[stage].get(q) is not None]
            metrics[f"{stage}.{q}"] = statistics.median(vals) if vals else 0
    staged = statistics.median(totals)
    metrics.update({"trace.staged_s": staged, "trace.fused_s": fused,
                    "trace.overhead_s": staged - fused})
    return metrics, len(recs) + 2  # + the checked round and the fused one


def declared_units() -> dict[str, str]:
    """metric name -> unit, as BENCHMARK.json at the repo root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark of the ophois_ray engine.")
    ap.add_argument("--workload", required=True,
                    choices=["crawl_snap", "tile_resume", "street_graph"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="input size; smoke is for a quick run of every check")
    ap.add_argument("--pid-file", help="write the pids of the Ray processes started here")
    return ap.parse_args(argv)


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "ophois_ray", "__init__.py")):
        print(f"perfbench: no ophois_ray package under {ROOT}", file=sys.stderr)
        return 2
    # Ray workers import ophois_ray and perfbench through PYTHONPATH
    # (they do not see this process's sys.path), whatever the cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    sys.path.insert(0, ROOT)
    inp = ensure_input(args.workload, args.seed, args.size)
    t_input = time.perf_counter() - T_START

    import ray  # noqa: F401  (before psutil, which Ray vendors)

    from perfbench import workloads

    with open(os.path.join(inp, "meta.json"), encoding="utf-8") as f:
        meta = json.load(f)
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    tree = ProcTree()
    try:
        start_ray()
        wl = workloads.WORKLOADS[args.workload](inp, work, meta)
        t_ray = time.perf_counter() - T_START
        out = wl.check_round()
        setup_s = time.perf_counter() - T_START
        print(f"perfbench: setup input {t_input:.2f} s, ray {t_ray - t_input:.2f} s, "
              f"warm-up {setup_s - t_ray:.2f} s", file=sys.stderr)
        if args.trace:
            metrics, attempted = traced_rounds(wl, args.seconds, tree)
            failed = 0
        else:
            walls, sizes, cpu = timed_rounds(wl, args.seconds, tree)
            # the kernel's high-water mark (KiB) of this process so far: the
            # checked round (same chain, plus the pull of its outputs) and
            # the timed rounds; the checks run later and are not in it
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(f"perfbench: round wall_s {[round(w, 3) for w in walls]}", file=sys.stderr)
            attempted = len(walls) + 1  # + the checked round
            failed = sum(s != sizes[0] for s in sizes)
            metrics = {
                "setup_s": setup_s,
                "items_per_s": wl.n_items() / statistics.median(walls),
                # the mean: one process's CPU time counts in 10 ms ticks
                "cpu_s": cpu / len(walls),
                "driver_rss_mb": peak_kib / 1024,
            }
        if args.pid_file:
            with open(args.pid_file, "w", encoding="utf-8") as f:
                json.dump([[p.pid, p.create_time()] for p in tree.procs()[1:]], f)
        t0 = time.perf_counter()
        try:
            summary = wl.check(out)
            summary["check_s"] = round(time.perf_counter() - t0, 2)
        except workloads.checks.CheckFailed as e:
            summary = {"check_failed": str(e)}
    finally:
        stop_ray(tree)
        shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0 and "check_failed" not in summary
    print(f"perfbench: {args.workload} seed={args.seed} {json.dumps(summary)}", file=sys.stderr)
    units = declared_units()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
