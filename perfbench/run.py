"""Benchmark of the vesture command line, one workload per invocation.

    python3 perfbench/run.py --workload kerr-bl --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from src/.
Each operation calls vesture.cli.main(argv) in this process, one at a time
(a closed loop with one client), with VESTURE_THREADS unset and BLAS threads
capped at the number of usable cores. With --trace 0 the end-to-end metrics
are printed; with --trace 1 untraced and traced operations alternate and the
per-stage metrics are printed. The last line of standard output is the
result; the line before it is the full record, which --out also appends to a
JSON-lines file that compare.py reads.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import stages
import workloads

WORKLOADS = ("kerr-bl", "su21-weyl", "verify-weyl", "selftest")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
#: the longest a child process (set-up probe, fixture writer) may take
CHILD_TIMEOUT_S = 120

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pin_environment(src: Path) -> int:
    """Cap BLAS threads at the usable cores and unset VESTURE_THREADS, for
    this process (before numpy loads) and every child. Returns the cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    os.environ.pop("VESTURE_THREADS", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return nproc


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(np, nproc: int, seed: int, src: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "vesture_threads": os.environ.get("VESTURE_THREADS"),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(src),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def measure_setup(probe_args: list[str]) -> float:
    """Seconds from spawning a fresh interpreter until vesture is imported and
    the workload's inputs are parsed."""
    start = time.monotonic()
    done = run_child([str(HERE / "probe.py"), *probe_args])
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def prepare(argv: list[str]) -> None:
    """Run the vesture CLI once in a child process, outside every timed region."""
    code = "import sys; from vesture.cli import main; sys.exit(main(sys.argv[1:]))"
    done = run_child(["-c", code, *argv])
    if done.returncode != 0:
        raise BenchError(f"preparing inputs failed (exit {done.returncode}): "
                         f"{done.stderr.strip()}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def run_op(cli, argv: list[str]) -> tuple[workloads.Outcome, float, float]:
    """One operation: (outcome, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        rc = exc.code
    except Exception:  # a crash fails this operation, not the run
        rc, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    outcome = workloads.Outcome(rc, out.getvalue(), err.getvalue(), error)
    return outcome, wall, time.process_time() - cpu0


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(values: list[float]) -> dict:
    """The highest of the usual percentiles with at least ten samples above it."""
    for p in (99, 95, 90, 75, 50):
        v = percentile(values, p)
        if sum(x > v for x in values) >= 10:
            return {"percentile": p, "value": v}
    return {"percentile": None, "value": None}


class Run:
    """One invocation: the workload, its reference outputs and the tallies."""

    def __init__(self, cli, vesture, wl: workloads.Workload) -> None:
        self.cli, self.vesture, self.wl = cli, vesture, wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None
        self.counts: dict | None = None

    def op(self, traced: bool):
        """Run and check one operation; returns (wall, cpu, tracer or None)."""
        for path in self.wl.outputs:
            path.unlink(missing_ok=True)
        tracer = None
        if traced:
            tracer = stages.Tracer(self.vesture)
            tracer.install()
        try:
            outcome, wall, cpu = run_op(self.cli, self.wl.argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            problems = self.wl.check(outcome)
            digest = hashlib.sha256(self.wl.payload(outcome)).digest()
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
            problems, digest = [f"unreadable output: {exc!r}"], None
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("output differs from the first operation")
        if tracer is not None:
            counts = tracer.exact_counts()
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                problems.append("exact counts differ from the first traced operation")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.extend(problems)
        return wall, cpu, tracer


def run_workload(args, src: Path, work: Path, nproc: int) -> tuple[dict, dict]:
    wl = workloads.make(args.workload, args.seed, work, args.smoke)
    if wl.prepare:
        prepare(wl.prepare)

    import numpy as np
    import vesture
    import vesture.cli as cli

    run = Run(cli, vesture, wl)
    # untimed warm-up, traced: it fixes the reference outputs and exact counts
    _, _, warm = run.op(traced=True)
    points = wl.points if wl.points is not None else warm.counts["dressing.points"]

    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    tracers = []
    rounds: list[float] = []
    setup: list[float] = []
    probes = 1 if args.smoke else SETUP_PROBES
    start = time.perf_counter()
    while True:
        # set-up probes are spread over the run, so that one slow spell of a
        # shared machine does not move all of them
        while (len(setup) < probes
               and time.perf_counter() - start >= len(setup) * args.seconds / probes):
            setup.append(measure_setup(wl.setup))
        t0 = time.perf_counter()
        wall, cpu, _ = run.op(traced=False)
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            wall, _, tracer = run.op(traced=True)
            traced_walls.append(wall)
            tracers.append((wall, tracer))
        rounds.append(time.perf_counter() - t0)
        # stop before a round that would overrun the measuring time
        if args.smoke or time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    while len(setup) < probes:
        setup.append(measure_setup(wl.setup))

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "provenance": provenance(np, nproc, args.seed, src),
        "params": wl.params, "points_per_op": points,
        "wall_s": {"median": statistics.median(walls), **tail(walls), "samples": len(walls)},
        "walls": walls,
        "setup_s": {"median": statistics.median(setup), "samples": setup},
        "exact_counts": run.counts,
        "absent_stages": warm.absent,
        "unreadable_results": sorted(warm.hook_failed),
        "error_rate": run.failed / run.attempted,
        "problems": run.problems,
    }
    if args.trace:
        metrics = layer_metrics(tracers, walls, cpus)
        metrics["error_rate"] = record["error_rate"]
        record["trace_wall_s"] = traced_walls
    else:
        # the fastest operation: the median moves with the load of a shared machine
        wall = min(walls)
        metrics = {
            "points_per_s": points / wall,
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record["metrics"] = metrics
    section = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in section}}
    return record, result


def layer_metrics(tracers, walls, cpus) -> dict[str, float]:
    """Per-stage metrics: exact counts of the first traced operation, times as
    means over the traced operations (so self times add up to the wall)."""
    per_op = [tracer.metrics() for _, tracer in tracers]
    out = {key: statistics.fmean(m[key] for m in per_op) for key in per_op[0]}
    for key, value in tracers[0][1].exact_counts().items():
        out[key] = value
    traced = [wall for wall, _ in tracers]
    stage_sum = [sum(t.self_s.values()) for _, t in tracers]
    out["proc.cpu_s"] = statistics.median(cpus)
    out["trace.wall_s"] = statistics.fmean(traced)
    out["trace.outside_s"] = statistics.fmean(w - s for w, s in zip(traced, stage_sum))
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one timed operation, one set-up probe")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "vesture" / "__init__.py").is_file():
        print(f"no vesture sources at {src}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = pin_environment(src)
    sys.path.insert(0, str(src))

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        record, result = run_workload(args, src, work, nproc)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    line = json.dumps(record, sort_keys=True)
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
