"""circ2crn benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics; with `--trace 1` the ops are replayed layer by layer
and it carries the per-layer metrics.  Earlier lines, each starting with
`#`, record the environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
# BLAS/OpenMP pools are pinned before numpy loads: unpinned OpenBLAS threads
# make the first field evaluations of a process much slower than warm ones.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "ops_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "oracle_error_max": "1",
    "crn_reactions": "count",
    "crn_species": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def startup_s(repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports the program."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import circ2crn.cli"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Reference:
    """A fixed computation that uses no circ2crn code, timed next to each op.

    The CPU speed of the shared host swings by up to 2x within seconds, and
    not evenly: interpreter-bound and cache-bound code slow at different
    times.  The reference has one part of each kind, like the program's
    ops: RK4 steps of a 3-state ODE, and matrix-vector products with a
    2.4 MB operand, the size of a k=20 ladder's field.  An op's time divided
    by the reference runs just before and after it cancels most of the swing.
    """

    def __init__(self):
        import numpy as np

        self.a = np.array([[-1.0, 0.5, 0.0], [0.2, -2.0, 0.1], [0.0, 0.3, -0.5]])
        self.x0 = np.ones(3)
        self.m = np.random.default_rng(0).uniform(size=(90, 3300))
        self.v = np.ones(3300)

    def seconds(self) -> float:
        a, x, dt = self.a, self.x0, 1e-3
        t0 = time.perf_counter()
        for _ in range(1500):
            k1 = a @ x
            k2 = a @ (x + 0.5 * dt * k1)
            k3 = a @ (x + 0.5 * dt * k2)
            k4 = a @ (x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for _ in range(250):
            self.m @ self.v
        return time.perf_counter() - t0


class Runner:
    """Closed loop over a workload's ops: one client, no parallelism."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []
        self.reference = Reference()
        # (input key, op wall time, op time in reference runs) of passed ops
        self.times: list[tuple[str, float, float]] = []

    def run_op(self, op, timed: bool = True):
        from workloads import run_cli

        before = self.reference.seconds()
        t0 = time.perf_counter()
        outcomes = [run_cli(cmd) for cmd in op.commands]
        elapsed = time.perf_counter() - t0
        ref = 0.5 * (before + self.reference.seconds())
        if self.record(op, lambda: self.wl.check(op, outcomes)) and timed:
            self.times.append((op.key, elapsed, elapsed / ref))
        return outcomes, elapsed

    def record(self, op, check) -> bool:
        """Run one check; count the op as failed if it raises."""
        from oracles import CheckFailed

        self.attempted += 1
        try:
            self.errors.append(check())
            return True
        except CheckFailed as exc:
            print(f"# FAIL {op.key}: {exc}", file=sys.stderr)
            if math.isfinite(exc.error):
                self.errors.append(exc.error)
        except Exception as exc:  # a checker crash must not end the run
            print(f"# FAIL {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.failed += 1
        return False

    def loop(self, seconds: float, do_op) -> None:
        """Whole round-robin cycles until `seconds` have passed."""
        deadline = time.perf_counter() + seconds
        while True:
            for op in self.wl.cycle():
                do_op(op)
            if time.perf_counter() >= deadline:
                return


def untraced(wl, runner: Runner, seconds: float, setup: float) -> dict:
    runner.loop(seconds, runner.run_op)
    reactions, species = wl.counts()
    per_key = {}
    for key, t, _ in runner.times:
        per_key.setdefault(key, []).append(t)
    for key, ts in per_key.items():
        print(f"# op_p50_s[{key}] {statistics.median(ts):.6f} s over {len(ts)} ops")
    wall = [t for _, t, _ in runner.times] or [0.0]  # 0: every op failed
    ratio = [r for _, _, r in runner.times] or [0.0]
    print(f"# op_p50_s {statistics.median(wall)!r} s")
    print(f"# ops_per_s {len(runner.times) / max(sum(wall), 1e-300)!r} 1/s")
    print(f"# failed_frac {runner.failed / runner.attempted!r} 1 "
          f"({runner.failed} of {runner.attempted} ops)")
    return {
        "setup_s": setup,
        "op_p50_ref": statistics.median(ratio),
        "ops_per_ref": len(runner.times) / max(sum(ratio), 1e-300),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_error_max": max(runner.errors + [wl.resolution]),
        "crn_reactions": reactions,
        "crn_species": species,
    }


def traced(wl, runner: Runner, seconds: float):
    """Each op runs as the command, then as its layer-by-layer replica."""
    import tracing
    from oracles import CheckFailed
    from workloads import artifact, replay_op, run_cli, same_artifact

    tr = tracing.Tracer()

    def do_op(op):
        tr.op += 1
        tr.keys[tr.op] = op.key
        tr.compiles.clear()
        # The command runs before and after its replica, so that the
        # overhead compares the replica with both a colder and a warmer run.
        with tr.span("command"):
            for cmd in op.commands:
                run_cli(cmd)
        try:
            with tr.span("cli.main"):
                got = replay_op(tr, op)
            tracing.run_probes(tr)
        except Exception as exc:  # reported as this op's failure below
            got = exc
        with tr.span("command"):
            outcomes = [run_cli(cmd) for cmd in op.commands]

        def check():
            err = wl.check(op, outcomes)
            if isinstance(got, Exception):
                raise got
            for cmd, outcome, text in zip(op.commands, outcomes, got):
                if not same_artifact(cmd, text, artifact(cmd, outcome)):
                    raise CheckFailed(f"replica of {cmd.name} differs from the command")
            return err

        runner.record(op, check)

    runner.loop(seconds, do_op)
    metrics, absent = tracing.layer_metrics(tr)
    for name, why in absent.items():
        print(f"# absent {name}: {why}")
    print("# inputs " + json.dumps(tracing.input_table(tr, wl.key_counts)))
    return metrics


def setup(wl, runner: Runner, repeats: int) -> float:
    """Start-up, input preparation and one untimed warm-up op, in seconds.

    Interpreter start-up and preparation are medians of `repeats` runs; the
    warm-up op is the first op of the process and happens once.
    """
    startup = startup_s(repeats)
    prepare = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.prepare()
        prepare.append(time.perf_counter() - t0)
    _, warmup = runner.run_op(wl.cycle()[0], timed=False)
    prep = statistics.median(prepare)
    print(f"# setup_s = startup {startup:.6f} + prepare {prep:.6f} "
          f"+ warm-up op {warmup:.6f} (medians of {repeats} except the warm-up)")
    return startup + prep + warmup


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circ2crn" / "__init__.py").is_file():
        print(f"error: no circ2crn sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    import circ2crn
    import tracing
    from workloads import WORKLOADS

    if Path(circ2crn.__file__).resolve().parent != SRC / "circ2crn":
        print(f"error: circ2crn imported from {circ2crn.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(args)))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(wl)
        if args.trace:
            setup(wl, runner, repeats=1)
            metrics = traced(wl, runner, args.seconds)
            units = dict(tracing.PER_LAYER)
        else:
            metrics = untraced(wl, runner, args.seconds, setup(wl, runner, SETUP_REPEATS))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"# {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
