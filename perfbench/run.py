"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload {build,search,refresh,batch,dedup} \\
        --seed N --seconds S --trace {0,1}

One run starts its own Ray session (``num_cpus=4``), generates its
inputs from ``--seed``, sets up, warms up, measures for ``--seconds``
seconds, checks the outputs, and stops Ray.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A readable report (the workload's own
figures and the per-layer figures, each with its sample count) goes to
standard error and, with the spans of a traced run, to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import shutil
import signal
import sys
import time

OBJECT_STORE_BYTES = 512 << 20
# Ray's socket paths must stay under the 107-byte AF_UNIX limit
MAX_RAY_TMP_LEN = 40


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["build", "search", "refresh", "batch", "dedup"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input-size multiplier (1 = the benchmark's sizes)")
    return p.parse_args(argv)


# prctl option: orphaned descendants are re-parented to this process
PR_SET_CHILD_SUBREAPER = 36
# after Ray's shutdown: seconds before SIGTERM turns into SIGKILL, and
# seconds before giving up on descendants that will not die
TERM_GRACE_S = 3.0
REAP_LIMIT_S = 20.0


def guard_seconds(seconds: float) -> int:
    """Wall-time budget of one run, before shutdown."""
    return int(min(150, 90 + 3 * seconds))


def main(argv=None) -> int:
    args = _args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "coderag_ray", "__init__.py")):
        print("perfbench: coderag_ray/ not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    # Ray's workers outlive the raylet that forked them by a moment;
    # as subreaper this process inherits them and can stop and reap
    # every one before it exits
    _set_subreaper()
    _trap_stop_signals()
    # Ray workers import coderag_ray and perfbench from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    # stdout carries only the result line; anything else printed while
    # the run is live (Ray, libraries) lands on stderr
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        result = _run(args, root)
    finally:
        left = _stop_descendants()
        sys.stdout.flush()
        os.dup2(result_fd, 1)
        os.close(result_fd)
    if left:
        print(f"perfbench: processes {left} did not stop", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


class StopSignal(BaseException):
    """A termination signal arrived; unwinds through every ``finally``."""


def _trap_stop_signals() -> None:
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _on_stop_signal)


def _on_stop_signal(signum, frame):
    signal.signal(signum, signal.SIG_IGN)
    raise StopSignal(f"signal {signum}")


def _set_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("perfbench: prctl(PR_SET_CHILD_SUBREAPER) failed", file=sys.stderr)


def _descendants() -> list[int]:
    """Live (non-zombie) descendants of this process, read from /proc."""
    parent = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the fields after the parenthesised command name: state, ppid, ...
        state, ppid = stat[stat.rfind(")") + 2:].split()[:2]
        if state not in ("Z", "X"):
            parent[int(d)] = int(ppid)
    out, frontier = [], {os.getpid()}
    while frontier:
        kids = {p for p, pp in parent.items() if pp in frontier}
        out.extend(kids)
        frontier = kids
    return out


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_descendants() -> list[int]:
    """SIGTERM, then SIGKILL, every process this run left behind, and
    reap them; returns the pids still alive after ``REAP_LIMIT_S``."""
    t0 = time.monotonic()
    while True:
        _reap()
        pids = _descendants()
        waited = time.monotonic() - t0
        if not pids or waited > REAP_LIMIT_S:
            return pids
        sig = signal.SIGTERM if waited < TERM_GRACE_S else signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def _run(args, root: str) -> dict:
    from perfbench import workloads as W

    pid = os.getpid()
    base = os.path.join(root, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{pid}")
    ray_tmp = os.path.join(base, f"r{pid}")
    os.makedirs(work, exist_ok=True)
    ctx = W.Ctx(seed=args.seed, seconds=args.seconds, work=work,
                scale=args.scale, trace=bool(args.trace))

    def alarm(signum, frame):
        raise W.WallGuard(f"run exceeded {guard_seconds(args.seconds)} s")

    signal.signal(signal.SIGALRM, alarm)
    signal.alarm(guard_seconds(args.seconds))
    metrics: dict = {}
    import ray

    try:
        t0 = time.perf_counter()
        kw = {"_temp_dir": ray_tmp} if len(ray_tmp) <= MAX_RAY_TMP_LEN else {}
        ray.init(address="local", num_cpus=W.NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, **kw)
        # Ray's core worker installs its own (exiting) SIGTERM handler
        _trap_stop_signals()
        _quiet_ray()
        init_s = time.perf_counter() - t0
        ctx.report["phase_ray_init_s"] = (init_s, "s", 1)
        metrics = W.run(args.workload, ctx, init_s)
    except W.WallGuard as e:
        ctx.fail(str(e))
    except Exception as e:  # noqa: BLE001 - reported as a failed run
        ctx.fail(f"run aborted: {e!r}")
    finally:
        signal.alarm(0)
        t0 = time.perf_counter()
        try:
            ray.shutdown()
        finally:
            _stop_descendants()
        ctx.report["phase_shutdown_s"] = (time.perf_counter() - t0, "s", 1)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        # the build's run shuffle spills to /dev/shm under this process's pid
        for d in glob.glob(f"/dev/shm/coderag_runs_*_{pid}"):
            shutil.rmtree(d, ignore_errors=True)

    names = [m for m, _, _ in W.LAYER_METRICS] if args.trace else ["setup_s", "op_p50_ms", "work_per_s"]
    units = {m: u for m, u, _ in W.LAYER_METRICS} if args.trace else \
        {"setup_s": "s", "op_p50_ms": "ms", "work_per_s": "1/s"}
    out = {}
    for m in names:
        v = metrics.get(m, 0.0)
        out[m] = {"value": v if math.isfinite(v) else 0.0, "unit": units[m]}
    attempted = max(ctx.attempted, 1)
    failed = min(attempted, ctx.failed if ctx.attempted else max(ctx.failed, 1))
    _write_report(root, args, ctx, out)
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": out}


def _quiet_ray() -> None:
    import logging

    from ray.data import DataContext

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)
    DataContext.get_current().enable_progress_bars = False


def _write_report(root: str, args, ctx, metrics: dict) -> None:
    """Readable report on stderr, plus a JSON copy (and the spans of a
    traced run) under ``.perfbench_out/``."""
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}: attempted={ctx.attempted} failed={ctx.failed}"]
    for name, (v, unit, n) in sorted(ctx.report.items()):
        lines.append(f"  {name:<28} {v:>14.4f} {unit:<10} n={n}")
    for name, v in sorted(ctx.layers.items()):
        lines.append(f"  {name:<48} {v:>14.4f} n={ctx.layer_n[name]}")
    for p in ctx.problems:
        lines.append(f"  FAILED: {p}")
    print("\n".join(lines), file=sys.stderr, flush=True)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"report": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in ctx.report.items()},
                   "layers": {k: {"value": v, "n": ctx.layer_n[k]} for k, v in ctx.layers.items()},
                   "metrics": metrics, "problems": ctx.problems}, f, indent=1)
    if ctx.trace_log is not None:
        ctx.trace_log.dump(stem + ".spans.jsonl")


if __name__ == "__main__":
    # run as a script: import `perfbench` as a package from the checkout
    # root, never its modules as top-level names from the script's dir
    sys.path[0] = os.getcwd()
    raise SystemExit(main())
