import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pqdec import cli
from pqdec.cli import main
from pqdec.errors import InvariantViolated


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read_json(path):
    return json.loads(Path(path).read_text())


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj))


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0


def test_usage_error_exit_code(capsys):
    assert main(["decode"]) == 2  # missing --instance
    assert main(["not-a-command"]) == 2


def test_field_subcommand(capsys):
    code, out = run(capsys, "field", "--p", "3", "--m", "2")
    assert code == 0
    assert json.loads(out) == {"m": 2, "p": 3, "poly": [1, 0]}


def test_field_rejects_reducible(capsys):
    assert main(["field", "--p", "2", "--m", "2", "--poly", "1,0"]) == 2


def test_gen_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["gen", "--p", "2", "--m", "2", "--n", "3", "--k", "1",
            "--w", "0", "--with-distance", "--seed", "29"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_gen_with_a_budget_past_q_per_coordinate_exits_zero(tmp_path, capsys):
    # w // n = 50 is past q - 1 = 3, so each error image is capped at 3
    path = str(tmp_path / "wide.json")
    argv = ["gen", "--p", "2", "--m", "2", "--n", "2", "--k", "1", "--w", "100"]
    for seed in "12345":
        assert main(argv + ["--seed", seed, "--out", path]) == 0
        assert read_json(path)["w"] == 100
        assert main(["oracle", "--instance", path]) == 0
    assert capsys.readouterr().err == ""


def test_gen_with_an_error_bound_past_int64_exits_two(tmp_path, capsys):
    # F_{2^64} at n = 2: w // n = 2^63 is past the int64 error draw, a
    # usage error; one less per coordinate (w = 2^64 - 2) still generates
    argv = ["gen", "--p", "2", "--m", "64", "--n", "2", "--k", "1", "--seed", "1"]
    assert main(argv + ["--w", str(2**64)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: per-coordinate error bound {2**63} is past 2^63 - 1, the error draw's range\n"
    )
    path = str(tmp_path / "edge.json")
    assert main(argv + ["--w", str(2**64 - 2), "--out", path]) == 0
    assert read_json(path)["w"] == 2**64 - 2


@pytest.fixture()
def good_instance(tmp_path):
    # seed 29 draws a q=4, n=3, k=1 code with d = 4 (sigma = 1 window holds)
    path = str(tmp_path / "inst.json")
    assert main(["gen", "--p", "2", "--m", "2", "--n", "3", "--k", "1",
                 "--w", "0", "--with-distance", "--seed", "29", "--out", path]) == 0
    obj = read_json(path)
    assert obj["d"] == 4
    return path, obj


def test_decode_dense_and_structured(capsys, good_instance):
    path, obj = good_instance
    code, out = run(capsys, "decode", "--instance", path, "--backend", "dense",
                    "--sigma-r", "0", "--seed", "7")
    assert code == 0
    result = json.loads(out)
    assert result["s_hat"] == obj["s_true"]
    assert result["verified"] is True
    assert result["backend"] == "dense"
    assert "wall_ms" not in result

    code, out = run(capsys, "decode", "--instance", path, "--backend", "structured",
                    "--sigma-r", "0", "--seed", "7")
    assert code == 0
    structured = json.loads(out)
    assert structured["s_hat"] == result["s_hat"]
    assert structured["rounds"] == result["rounds"]


def test_decode_search_and_timings(capsys, good_instance):
    path, obj = good_instance
    code, out = run(capsys, "decode", "--instance", path, "--search",
                    "--seed", "3", "--timings")
    assert code == 0
    result = json.loads(out)
    assert result["s_hat"] == obj["s_true"]
    assert result["sigma_r"] == 0
    assert "wall_ms" in result


def test_decode_reproducible_output(tmp_path, good_instance):
    path, _ = good_instance
    a, b = str(tmp_path / "ra.json"), str(tmp_path / "rb.json")
    argv = ["decode", "--instance", path, "--sigma-r", "0", "--seed", "5"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_decode_honest_failure_exit_one(capsys, tmp_path, good_instance):
    path, obj = good_instance
    # replace the target with something far from the code, keep w = 0
    obj2 = dict(obj)
    obj2["t"] = [1, 1, 2]
    obj2.pop("s_true")
    bad = str(tmp_path / "bad.json")
    write_json(bad, obj2)
    code, out = run(capsys, "decode", "--instance", bad, "--search", "--seed", "1")
    assert code == 1
    assert "error" in json.loads(out)


def test_decode_failed_invariant_is_not_an_input_error(monkeypatch, good_instance):
    path, _ = good_instance

    def broken(*args, **kwargs):
        raise InvariantViolated("statevector norm drifted by 1")

    monkeypatch.setattr(cli, "backend_decoder", lambda name: broken)
    with pytest.raises(InvariantViolated):  # not the bad-input exit 2
        main(["decode", "--instance", path, "--sigma-r", "0", "--seed", "1"])


def test_decode_malformed_instance_exit_two(capsys, tmp_path, good_instance):
    _, obj = good_instance
    short = str(tmp_path / "short.json")
    write_json(short, dict(obj, t=obj["t"][:-1]))  # the dense backend used to crash on it
    no_t = str(tmp_path / "no_t.json")
    write_json(no_t, {key: v for key, v in obj.items() if key != "t"})
    not_json = tmp_path / "not.json"
    not_json.write_text("{not json")
    infinite_w = str(tmp_path / "infinite_w.json")
    write_json(infinite_w, dict(obj, w=float("inf")))  # json writes it as Infinity
    wrong_k = str(tmp_path / "wrong_k.json")
    write_json(wrong_k, dict(obj, k=obj["k"] + 4))
    fractional_t = str(tmp_path / "fractional_t.json")
    write_json(fractional_t, dict(obj, t=[1.9] + obj["t"][1:]))  # int() would read image 1
    for bad in (short, no_t, str(not_json), infinite_w, wrong_k, fractional_t):
        for backend in ("dense", "structured"):
            code, out = run(capsys, "decode", "--instance", bad, "--backend", backend,
                            "--sigma-r", "0", "--seed", "1")
            assert code == 2
            assert out == ""
        assert run(capsys, "oracle", "--instance", bad) == (2, "")
        assert run(capsys, "baseline", "--instance", bad, "--r", "0") == (2, "")


def test_oracle_subcommand(capsys, good_instance):
    path, obj = good_instance
    code, out = run(capsys, "oracle", "--instance", path)
    assert code == 0
    result = json.loads(out)
    assert result["s_star"] == obj["s_true"]
    assert result["distance"] == 0
    assert result["matches_plant"] is True


def test_baseline_subcommand(capsys, good_instance):
    path, obj = good_instance
    code, out = run(capsys, "baseline", "--instance", path, "--r", "0")
    assert code == 0
    result = json.loads(out)
    assert result["status"] in {"recovered", "singular"}
    if result["status"] == "recovered":
        assert result["s_hat"] == obj["s_true"]


def test_an_instance_without_w_is_never_verified(capsys, tmp_path):
    # decoding still answers, but no bound was there to check
    path = str(tmp_path / "inst.json")
    assert main(["gen", "--p", "2", "--m", "4", "--n", "3", "--k", "1",
                 "--w", "3", "--seed", "5", "--out", path]) == 0
    obj = read_json(path)
    del obj["w"]
    write_json(path, obj)
    for backend in ("dense", "structured"):
        code, out = run(capsys, "decode", "--instance", path, "--backend", backend,
                        "--search", "--seed", "2")
        assert code == 0
        result = json.loads(out)
        assert result["s_hat"] == obj["s_true"]
        assert result["verified"] is False
    code, out = run(capsys, "baseline", "--instance", path, "--r", "1")
    assert code == 0
    assert json.loads(out)["status"] == "unverified"


def test_stats_subcommand(capsys):
    code, out = run(capsys, "stats", "--p", "2", "--T", "10", "--trials", "400",
                    "--seed", "0")
    assert code == 0
    result = json.loads(out)
    assert 0.15 < result["frequency"] < 0.45
    assert abs(result["product_formula"] - 0.288788) < 1e-4


BAD_STATS = [
    (["--p", "4", "--T", "3"], "p = 4 is not prime"),
    (["--p", "1", "--T", "3"], "p = 1 is not prime"),
    (["--p", "2", "--T", "-1"], "T must be >= 1"),
    (["--p", "2", "--T", "0"], "T must be >= 1"),
]


@pytest.mark.parametrize("argv,message", BAD_STATS, ids=["p4", "p1", "T-1", "T0"])
def test_stats_rejects_a_bad_field_or_size(capsys, argv, message):
    assert main(["stats", *argv, "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", BAD_STATS, ids=["p4", "p1", "T-1", "T0"])
def test_stats_rejects_a_bad_field_or_size_in_a_process(argv, message):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "pqdec.cli", "stats", *argv, "--trials", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_hardness_subcommand(capsys, tmp_path):
    sc = {"universe": 2, "sets": [[0], [1]], "K": 2, "c": 2}
    path = str(tmp_path / "sc.json")
    write_json(path, sc)
    code, out = run(capsys, "hardness", "--sc", path, "--p", "2", "--m", "1",
                    "--exact-cover", "0,1")
    assert code == 0
    result = json.loads(out)
    assert result["passed"] is True
    assert result["opt"] <= result["bound"]


def test_hardness_malformed_set_cover_exit_two(capsys, tmp_path):
    no_k = str(tmp_path / "no_k.json")
    write_json(no_k, {"universe": 2, "sets": [[0], [1]], "c": 2})
    not_json = tmp_path / "not.json"
    not_json.write_text("universe = 2")
    for bad in (no_k, str(not_json)):
        assert run(capsys, "hardness", "--sc", bad, "--p", "2", "--m", "1") == (2, "")
    # int() would read universe 2.7 as 2, under which this cover passes
    argv = ["hardness", "--p", "2", "--m", "1", "--exact-cover", "2"]
    sc = {"universe": 2, "sets": [[0], [1], [0, 1]], "K": 1, "c": 2}
    good, fractional = str(tmp_path / "good.json"), str(tmp_path / "fractional.json")
    write_json(good, sc)
    write_json(fractional, dict(sc, universe=2.7))
    assert run(capsys, *argv, "--sc", good)[0] == 0
    assert run(capsys, *argv, "--sc", fractional) == (2, "")


@pytest.mark.parametrize(
    "flags",
    [[], ["--exact-cover", "2", "--min-cover-size", "1"]],
    ids=["neither", "both"],
)
def test_hardness_needs_exactly_one_cover_flag(capsys, tmp_path, flags):
    sc = str(tmp_path / "sc.json")
    write_json(sc, {"universe": 2, "sets": [[0], [1], [0, 1]], "K": 1, "c": 2})
    assert main(["hardness", "--sc", sc, "--p", "2", "--m", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--exact-cover" in captured.err and "--min-cover-size" in captured.err


@pytest.mark.parametrize(
    "env,argv",
    [
        ({}, ["field", "--p", "2", "--m", "2", "--poly", "1,a"]),
        ({}, ["hardness", "--sc", "SC", "--p", "2", "--m", "1", "--exact-cover", "0,x"]),
        ({"PQDEC_SEED": "abc"}, ["stats", "--p", "2", "--T", "3", "--trials", "10"]),
    ],
    ids=["poly", "exact-cover", "seed-env"],
)
def test_malformed_number_exit_two(capsys, monkeypatch, tmp_path, env, argv):
    sc = str(tmp_path / "sc.json")
    write_json(sc, {"universe": 2, "sets": [[0], [1]], "K": 2, "c": 2})
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([sc if a == "SC" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_malformed_number_exit_two_in_a_process():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "pqdec.cli", "field", "--p", "2", "--m", "2", "--poly", "1,a"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_separation_with_fewer_than_one_trial_exits_two(capsys, trials):
    argv = ["separation", "--m", "4", "--n", "4", "--k", "1", "--trials", trials]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be >= 1\n"


@pytest.mark.parametrize("n,k", [("0", "1"), ("1", "0"), ("2", "3")], ids=["n0", "k0", "k>n"])
def test_separation_with_a_bad_shape_exits_two(capsys, n, k):
    argv = ["separation", "--p", "2", "--m", "4", "--n", n, "--k", k, "--trials", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need n >= k >= 1, got n={n}, k={k}\n"


def test_separation_past_int64_images_exits_two(capsys):
    argv = ["separation", "--p", "2", "--m", "64", "--n", "64", "--k", "1", "--trials", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q = 2^64 is past 2^63, the error draw's range\n"


def test_separation_subcommand(capsys):
    code, out = run(capsys, "separation", "--p", "2", "--m", "6", "--n", "6",
                    "--k", "2", "--trials", "10", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,m,n,k,promise")
    assert len(lines) == 4


@pytest.mark.parametrize(
    "env,argv,message",
    [
        ({}, ["stats", "--p", "2", "--T", "3", "--trials", "5", "--seed", "-1"], "--seed"),
        ({"PQDEC_SEED": "-1"}, ["stats", "--p", "2", "--T", "3", "--trials", "5"], "PQDEC_SEED"),
        ({}, ["separation", "--trials", "1", "--seed", "-3"], "--seed"),
        ({"PQDEC_SEED": "-3"}, ["separation", "--trials", "1"], "PQDEC_SEED"),
    ],
    ids=["stats-flag", "stats-env", "separation-flag", "separation-env"],
)
def test_negative_seed_exits_two(capsys, monkeypatch, env, argv, message):
    monkeypatch.delenv("PQDEC_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message} must be >= 0")
    assert captured.err.count("\n") == 1


def test_seed_env_fallback(capsys, monkeypatch, good_instance):
    path, _ = good_instance
    monkeypatch.setenv("PQDEC_SEED", "7")
    code, out = run(capsys, "decode", "--instance", path, "--sigma-r", "0")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_flag_overrides_env(capsys, monkeypatch, good_instance):
    path, _ = good_instance
    monkeypatch.setenv("PQDEC_SEED", "7")
    code, out = run(capsys, "decode", "--instance", path, "--sigma-r", "0",
                    "--seed", "11")
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_stats_out_file(tmp_path):
    out = str(tmp_path / "stats.json")
    assert main(["stats", "--p", "3", "--T", "5", "--trials", "200",
                 "--seed", "1", "--out", out]) == 0
    obj = read_json(out)
    assert obj["p"] == 3 and obj["trials"] == 200
