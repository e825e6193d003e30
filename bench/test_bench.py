"""Self-tests of the benchmark.  Run with ``python3 -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.pin_threads()
run.load_library()

import pqdec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT = 300


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=TIMEOUT,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.RESULT_END_TO_END
    per_layer = tracer.METRICS + [("trace.overhead_pct", "%")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer


def test_inputs_are_identical_across_processes():
    script = (
        "import sys; sys.path.insert(0, 'bench'); import run; run.pin_threads(); "
        "run.load_library(); import workloads as w; "
        "print([w.input_digest(b(7)) for b, _ in w.WORKLOADS.values()])"
    )
    first, second = (_run("-c", script) for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    other = workloads.input_digest(workloads.build_structured(8))
    assert other not in first.stdout


def test_traced_counts_repeat_and_gates_pass():
    timed_units = {"ms/op", "%"}
    for name in run.WORKLOAD_NAMES:
        args = ["bench/run.py", "--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1"]
        first, second = (_result(_run(*args)) for _ in range(2))
        assert first["correct"] and first["failed"] == 0, name
        assert first["attempted"] == 2, name  # one op, untraced and traced
        counts = {k: v for k, v in first["metrics"].items() if v["unit"] not in timed_units}
        assert counts == {k: second["metrics"][k] for k in counts}, name
        share = first["metrics"]["decoder.full_path_share"]["value"]
        assert share == {"dense_full": 1.0}.get(name, 0.0), name


def test_every_workload_runs_untraced_and_passes_its_gate():
    result = _result(_run("bench/run.py", "--workload", "all", "--seed", "2", "--seconds", "0"))
    assert result["correct"] and result["failed"] == 0
    # one op per part of the loop; a set-up probe follows each part
    assert result["attempted"] == run.SETUP_PROBES * len(run.WORKLOAD_NAMES)
    expected = {f"{w}.{m}" for w in run.WORKLOAD_NAMES for m, _ in run.RESULT_END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _snapshot() -> dict:
    """Every attribute of every pqdec module and of every class defined in one."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "pqdec" or mod_name.startswith("pqdec.")):
            continue
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("pqdec"):
                for cattr, cvalue in vars(value).items():
                    out[(mod_name, attr, cattr)] = cvalue
    return out


def test_tracer_removes_every_wrapper():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert pqdec.decoder.decode_dense is not before[("pqdec.decoder", "decode_dense")]
        assert pqdec.baselines.manhattan_dist is not before[("pqdec.metrics", "manhattan_dist")]
        for name in ("dense_factorised", "separation"):
            build, op = workloads.WORKLOADS[name]
            assert op(build(4), 0) == workloads.PASS
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert t.stats["decoder"].calls > 0 and t.stats["baselines.separation"].calls == 1


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("bench/run.py", "--workload", "separation", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
