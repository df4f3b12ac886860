"""qmeasure benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times ops untraced and prints the end-to-end
metrics. With ``--trace 1`` it runs half the time untraced and half traced
(span wrappers installed) and prints the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import os

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

try:
    import qmeasure
    from spans import SIZED, TRACED, SpanTotals, Tracer
    from workloads import GATE_TOL, WORKLOADS, child_env
except (ImportError, OSError) as exc:  # e.g. a checkout without src/qmeasure
    sys.exit(f"perfbench: cannot load the program under test: {exc}")
if not Path(qmeasure.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: qmeasure imported from {qmeasure.__file__}, not {ROOT / 'src'}")

MIN_OPS = 100  # so at least 10 samples lie beyond p90 ...
MAX_STRETCH = 1.5  # ... unless that takes longer than MAX_STRETCH * --seconds
SETUP_PROBES = 5
IMPORT_PROBES = 5
SPAN_CAP = 200_000  # a traced segment stops at the next cycle boundary past this
IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import qmeasure, qmeasure.cli; "
    "t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

# End-to-end metrics in the result line. Op costs are op times in units of
# the workload's yardstick, timed in the same loop; the raw times are
# printed beside them but kept out of the result, because they swing with
# the machine's speed from run to run (see README.md). The failure ratio
# is carried as failed / attempted.
END_TO_END = (
    ("setup_s", "s"),
    ("op_mean_cost", "yardsticks"),
    ("op_p50_cost", "yardsticks"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
# Printed, not in the result: op_p90_cost sits where the costliest op kinds
# of a cycle meet the rest and spreads by up to 0.15 over ten seeds.
PRINTED_ONLY = (
    ("op_p90_cost", "yardsticks"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("yardstick_ms", "ms"),
    ("fail_ratio", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [("proc.interpreter_ms", "ms"), ("import.numpy_ms", "ms"),
           ("import.qmeasure_ms", "ms")]
    for module, names in TRACED.items():
        for attr in names:
            span = f"{module}.{attr}"
            out += [(f"{span}.calls_per_op", "calls/op"),
                    (f"{span}.self_ms_per_op", "ms/op")]
            if span in SIZED and span != "fileio.load_state_file":
                out.append((f"{span}.MB_per_s", "MB/s"))
    out += [(f"{module}.self_share", "ratio") for module in TRACED]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


@dataclass
class Segment:
    """Ops of one timed stretch: per-op latency, the yardstick time last
    taken before each op, failures, worst residual."""

    latencies: list[float] = field(default_factory=list)
    yardsticks: list[float] = field(default_factory=list)
    failed: int = 0
    worst: float = 0.0
    maxrss_kb: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.latencies)

    @property
    def mean_cost(self) -> float:
        return sum(self.latencies) / sum(self.yardsticks)


def measure(wl, seconds, min_ops, *, whole_cycles=False, tracer=None, totals=None,
            probes=None):
    """Closed loop: run ops until ``seconds`` have passed and ``min_ops``
    ops are done, or ``MAX_STRETCH * seconds`` have passed (and, with
    ``whole_cycles``, the op mix is back at its start). Only ``run_op`` is
    timed; the gate runs after it. ``probes`` runs between ops; the time it
    takes does not count toward ``seconds``."""
    seg = Segment()
    start = time.perf_counter()
    yardstick_at = -math.inf
    i = 0
    while True:
        if probes is not None:
            start += probes.due(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        enough = ((i >= min_ops or 0 < MAX_STRETCH * seconds <= elapsed)
                  and (elapsed >= seconds
                       or (tracer is not None and len(tracer.spans) >= SPAN_CAP)))
        if enough and (not whole_cycles or i % wl.cycle == 0):
            break
        if time.perf_counter() - yardstick_at >= wl.yardstick_every:
            timings = []
            for _ in range(wl.yardstick_repeats):
                t0 = time.perf_counter()
                wl.yardstick()
                timings.append(time.perf_counter() - t0)
            yardstick = statistics.median(timings)
            yardstick_at = time.perf_counter()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = wl.run_op(i, traced=totals is not None)
        except Exception:  # an op that raises is a failed op, not a crash
            result, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        seg.latencies.append(time.perf_counter() - t0)
        seg.yardsticks.append(yardstick)
        residual = math.inf
        if error is None:
            try:
                residual = wl.check(i, result)
                if not wl.in_process:
                    seg.maxrss_kb = max(seg.maxrss_kb, result.maxrss_kb)
                    if totals is not None:
                        totals.add(wl.take_spans())
            except Exception:
                residual, error = math.inf, traceback.format_exc(limit=3)
        if math.isnan(residual):
            residual = math.inf
        if error is not None or residual > GATE_TOL:
            seg.failed += 1
            if seg.failed <= 3:
                print(f"op {i} failed: residual {residual!r}\n{error or ''}",
                      file=sys.stderr)
        seg.worst = max(seg.worst, residual)
        i += 1
    return seg


def median_wall(argv, times) -> float:
    """Median wall time of ``times`` runs of ``argv``, one at a time."""
    walls = []
    for _ in range(times):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


class SetupProbes:
    """``setup_s`` samples: fresh processes doing interpreter start,
    imports, input generation, file writing and one warm-up op. They are
    spread evenly over the timed loop, so machine speed that drifts during
    a run weighs on them as it does on the ops."""

    def __init__(self, name, seed, workdir, seconds):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", "0", "--trace", "0",
                     "--setup-probe"]
        self.workdir = workdir
        self.at = [seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.walls: list[float] = []

    def due(self, elapsed: float) -> float:
        """Run the probes due by ``elapsed``; returns the seconds they took."""
        t0 = time.perf_counter()
        while self.at and self.at[0] <= elapsed:
            self.at.pop(0)
            probe = self.workdir / f"probe{len(self.walls)}"
            self.walls.append(median_wall([*self.argv, str(probe)], 1))
            shutil.rmtree(probe, ignore_errors=True)
        return time.perf_counter() - t0

    def median(self) -> float:
        self.due(math.inf)
        return statistics.median(self.walls)


def import_probes() -> dict[str, float]:
    interp = median_wall([sys.executable, "-c", "pass"], IMPORT_PROBES)
    numpy_s, qm_s = [], []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                             env=child_env(), check=True, capture_output=True,
                             text=True).stdout.split()
        numpy_s.append(float(out[0]))
        qm_s.append(float(out[1]))
    return {"proc.interpreter_ms": interp * 1e3,
            "import.numpy_ms": statistics.median(numpy_s) * 1e3,
            "import.qmeasure_ms": statistics.median(qm_s) * 1e3}


def accuracy_digits(worst: float) -> float:
    """-log10 of the worst scaled residual, 16 for an exact match."""
    if worst == 0.0:
        return 16.0
    return min(16.0, max(0.0, -math.log10(worst)))


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(wl, seg, setup_s):
    lat_ms = [t * 1e3 for t in seg.latencies]
    cost = [t / y for t, y in zip(seg.latencies, seg.yardsticks)]
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              if wl.in_process else seg.maxrss_kb)
    values = {
        "setup_s": setup_s,
        "op_mean_cost": seg.mean_cost,
        "op_p50_cost": statistics.median(cost),
        "op_p90_cost": p90(cost),
        "accuracy_digits": accuracy_digits(seg.worst),
        "peak_rss_mb": rss_kb / 1024.0,
        "ops_per_s": seg.ops_per_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90(lat_ms),
        "yardstick_ms": statistics.median(seg.yardsticks) * 1e3,
    }
    beyond = sum(1 for c in cost if c > values["op_p90_cost"])
    rss_of = "benchmark process" if wl.in_process else "largest CLI child"
    n = f"n={seg.ops}"
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh-process set-ups spread over the run",
        "op_mean_cost": f"{n}; op time / yardstick time taken before it",
        "op_p50_cost": n,
        "op_p90_cost": f"{n}, {beyond} beyond",
        "ops_per_s": f"{seg.ops} ops in {sum(seg.latencies):.3f} s of op time",
        "op_p50_ms": n,
        "op_p90_ms": n,
        "yardstick_ms": f"median of {len(set(seg.yardsticks))} yardstick timings",
        "fail_ratio": f"{seg.failed} of {seg.ops} ops failed their gate",
        "accuracy_digits": f"worst scaled residual {seg.worst:.3e}",
        "peak_rss_mb": rss_of,
    }
    values["fail_ratio"] = seg.failed / seg.ops
    return values, dict(END_TO_END + PRINTED_ONLY), notes


def per_layer(totals, traced, untraced, probes):
    ops = traced.ops
    wall = sum(traced.latencies)
    values = dict(probes)
    for name, _ in per_layer_metrics():
        span, _, kind = name.rpartition(".")
        if kind == "calls_per_op":
            values[name] = totals.calls.get(span, 0) / ops
        elif kind == "self_ms_per_op":
            values[name] = totals.self_s.get(span, 0.0) * 1e3 / ops
        elif kind == "MB_per_s":
            inside = totals.total_s.get(span, 0.0)
            values[name] = totals.nbytes.get(span, 0) / 1e6 / inside if inside else 0.0
        elif kind == "self_share":
            values[name] = sum(s for k, s in totals.self_s.items()
                               if k.startswith(span + ".")) / wall
    values["trace.overhead_ratio"] = untraced.mean_cost / traced.mean_cost
    notes = {"trace.overhead_ratio": f"traced {traced.ops} ops vs untraced {untraced.ops}"}
    for name in ("fileio.load_operator_file.MB_per_s", "fileio.save_operator_file.MB_per_s"):
        notes[name] = "computed: file sizes / time inside the call"
    return values, dict(per_layer_metrics()), notes


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:  # read only
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        top, _, head = git.stdout.partition("\n")
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in PINNED},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def report(header, env, values, units, notes, attempted, failed, keys):
    print(header)
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"{name:<52} {value:>14.6g} {units[name]:<9} {notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in keys},
    }))


def run(name, seed, seconds, trace, workdir):
    wl = WORKLOADS[name](seed, workdir)
    wl.setup()
    wl.references()
    wl.run_op(0)  # warm-up, as in every set-up probe
    header = f"perfbench {name} seed={seed} seconds={seconds} trace={trace}"
    if not trace:
        probes = SetupProbes(name, seed, workdir, seconds)
        seg = measure(wl, seconds, MIN_OPS, whole_cycles=True, probes=probes)
        values, units, notes = end_to_end(wl, seg, probes.median())
        report(header, environment(), values, units, notes, seg.ops, seg.failed,
               [k for k, _ in END_TO_END])
        return
    untraced = measure(wl, seconds / 2, wl.cycle, whole_cycles=True)
    totals = SpanTotals()
    tracer = None
    if wl.in_process:
        tracer = Tracer()
        tracer.install()
    try:
        traced = measure(wl, seconds / 2, wl.cycle, whole_cycles=True,
                         tracer=tracer, totals=totals)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        totals.add(tracer.spans)
    values, units, notes = per_layer(totals, traced, untraced, import_probes())
    report(header, environment(), values, units, notes,
           untraced.ops + traced.ops, untraced.failed + traced.failed,
           [k for k, _ in per_layer_metrics()])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None,
                        help=argparse.SUPPRESS)  # internal: one set-up, then exit
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        wl = WORKLOADS[args.workload](args.seed, args.setup_probe)
        args.setup_probe.mkdir(parents=True)
        wl.setup()
        wl.run_op(0)
        return 0
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0



if __name__ == "__main__":
    sys.exit(main())
