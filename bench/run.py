"""Benchmark runner: run one workload in this process, or every workload in turn.

    python3 bench/run.py --workload structured_scale --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One client runs a closed loop: the next op starts when the previous one
has returned.  ``--trace 0`` prints the end-to-end metrics; between
parts of its loop it times cold set-ups in child processes
(``setup_probe.py``).  ``--trace 1`` alternates untraced and traced ops
and prints the per-layer metrics and the tracing overhead.  A loop runs
until ``--seconds`` have passed, so ``--seconds 0`` runs one op per loop
part (one untraced and one traced op with ``--trace 1``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The library is imported from
``src/`` beside this directory and nowhere else.
"""

import time

_T0 = time.perf_counter()  # as close to process start as Python code gets

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["structured_scale", "dense_full", "dense_factorised", "separation"]
THREAD_VARS = [
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
]
# Cold set-ups timed in child processes, one after each part of the timed
# loop; setup_s is the median of these and the run's own set-up.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
# Never used while writing a change; re-check a claim on it before making it.
HELD_OUT_SEED = 20221021
END_TO_END = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("failed_fraction", "fraction"),
    ("peak_rss_mb", "MB"),
]
# The result line (and BENCHMARK.json) carries the metrics that hold a
# relative bound.  failed_fraction is 0 wherever every gate holds, so it
# cannot carry one; it travels as attempted/failed.  latency_ms_p50 is printed but not bounded: on a shared
# 2-vCPU host the same op runs in two speed modes that switch every few
# seconds (separation: ~9.5 ms and ~15.5 ms), the median lands on either
# mode, and its spread across runs reached 0.26 of the median.
RESULT_END_TO_END = [m for m in END_TO_END if m[0] not in ("failed_fraction", "latency_ms_p50")]


class LibraryMissing(Exception):
    pass


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_library():
    """Import pqdec from this checkout's src/, never from an installed copy."""
    if not (SRC / "pqdec" / "__init__.py").is_file():
        raise LibraryMissing(f"no pqdec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pqdec

    if SRC not in Path(pqdec.__file__).resolve().parents:
        raise LibraryMissing(f"pqdec imported from {pqdec.__file__}, not {SRC}")
    return pqdec


@dataclass
class Phase:
    """Latencies and gate outcomes of a set of timed ops.

    An outcome is one that ``workloads.py`` defines or ``"raised"``.
    """

    latencies: list[float] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    wall_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        """Ops that raised or failed their gate."""
        return self.ops - self.outcomes["pass"]

    @property
    def wrong(self) -> int:
        """Ops that raised or gave a wrong output."""
        return self.outcomes["wrong"] + self.outcomes["raised"]

    def percentile_ms(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(self.latencies, q)) * 1e3

    def run_op(self, op, inputs, i: int) -> float:
        """Time op ``i``, record it, and return the time it ended."""
        t0 = time.perf_counter()
        try:
            outcome = op(inputs, i)
        except Exception:  # a raising op counts as failed; the run goes on
            outcome = "raised"
            if not self.outcomes[outcome]:
                traceback.print_exc()
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.outcomes[outcome] += 1
        return t1

    def run_loop(self, op, inputs, seconds: float) -> None:
        """Closed loop, at least one op, until ``seconds`` have passed."""
        start = time.perf_counter()
        deadline = start + seconds
        while self.run_op(op, inputs, self.ops) < deadline:
            pass
        self.wall_s += time.perf_counter() - start


def cold_set_up(workload: str, seed: int, t0: float):
    """Load the library, build the inputs and run one untimed warm-up op.

    Returns the inputs and the seconds since ``t0``, the caller's first line.
    """
    pin_threads()
    load_library()
    import workloads

    build, op = workloads.WORKLOADS[workload]
    inputs = build(seed)
    Phase().run_op(op, inputs, 0)
    return inputs, time.perf_counter() - t0


def probe_set_up(workload: str, seed: int) -> float:
    """Seconds of one cold set-up in a child process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    return float(proc.stdout.split()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
    }


def run_traced(op, inputs, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Each op twice, untraced and traced, the order alternating between ops."""
    untraced, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if with_trace:
                tracer.install()
                try:
                    end = traced.run_op(op, inputs, i)
                finally:
                    tracer.uninstall()
            else:
                end = untraced.run_op(op, inputs, i)
        i += 1
        if end >= deadline:
            return untraced, traced


def run_workload(args) -> int:
    try:
        inputs, own_setup_s = cold_set_up(args.workload, args.seed, _T0)
    except (LibraryMissing, ImportError) as exc:
        print(f"bench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    _, op = workloads.WORKLOADS[args.workload]
    setup_times = [own_setup_s]

    if args.trace:
        from tracer import METRICS, Tracer

        tracer = Tracer()
        phases = run_traced(op, inputs, args.seconds, tracer)
        untraced, traced = phases
        values = tracer.metrics(traced.ops)
        values["trace.overhead_pct"] = (
            traced.percentile_ms(50) / untraced.percentile_ms(50) - 1.0
        ) * 100
        units = dict(METRICS, **{"trace.overhead_pct": "%"})
        reported = list(units)
    else:
        phase = Phase()
        for _ in range(SETUP_PROBES):
            phase.run_loop(op, inputs, args.seconds / SETUP_PROBES)
            setup_times.append(probe_set_up(args.workload, args.seed))
        phases = [phase]
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_ms_p50": phase.percentile_ms(50),
            "latency_ms_p90": phase.percentile_ms(90),
            "ops_per_s": phase.ops / phase.wall_s,
            "failed_fraction": phase.failed / phase.ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        reported = [name for name, _ in RESULT_END_TO_END]

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    outcomes = sum((p.outcomes for p in phases), Counter())
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "ops": [p.ops for p in phases],
        "attempted": attempted,
        "failed": failed,
        "outcomes": dict(outcomes),
        "setup_times_s": setup_times,
        "code_draws": inputs.code_draws,
        "input_digest": workloads.input_digest(inputs),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  ops {record['ops']}  "
          f"failed {failed}/{attempted}  outcomes {record['outcomes']}")
    for name in units:
        print(f"  {name:42s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({"record": record}))
    result = {
        "correct": sum(p.wrong for p in phases) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: record["metrics"][name] for name in reported},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if status:
        return status
    print(json.dumps(merged))
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
