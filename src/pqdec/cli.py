"""Command-line driver: instance generation, decoding, experiments, reports.

Seed precedence is flags > PQDEC_SEED environment variable > 0, and the
seed in force is always recorded in the output, so identical invocations
produce byte-identical artifacts.  Timings are only emitted when
--timings is passed, keeping default output deterministic.

Exit codes: 0 success, 1 honest decode failure (promise violated or no
sigma succeeded), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import (
    SeparationConfig,
    direct_inversion_decode,
    invertibility_stats,
    separation_csv,
    separation_experiment,
    singularity_oracle,
)
from .codes import (
    gen_instance,
    instance_from_json,
    instance_to_json,
    min_distance_bruteforce,
    nearest_codeword_oracle,
    random_code,
)
from .decoder import BACKENDS, backend_decoder, sigma_search
from .errors import BadParams, BadShape, NoSigmaSucceeded, PqdecError, PromiseViolated
from .gf import Field
from .hardness import (
    SetCoverInstance,
    build_gadget,
    gap_report_json,
    verify_gap,
)
from .qsim import SigmaParam


def _seed_from(args: argparse.Namespace) -> int:
    seed, source = getattr(args, "seed", None), "--seed"
    if seed is None:
        env = os.environ.get("PQDEC_SEED")
        if env is None:
            return 0
        source = "PQDEC_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise BadParams(f"PQDEC_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise BadParams(f"{source} must be >= 0, got {seed}")
    return seed


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_ints(spec: str | None, flag: str) -> list[int] | None:
    if spec is None:
        return None
    try:
        return [int(x) for x in spec.split(",")]
    except ValueError:
        raise BadParams(f"{flag} takes comma-separated integers, got {spec!r}") from None


def _load_json(path: str, error: type[PqdecError]):
    """Parsed JSON file; ``error`` if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise error(f"{path} is not JSON: {exc}") from exc


def _load_instance(path: str):
    return instance_from_json(_load_json(path, BadShape))


def _cmd_field(args: argparse.Namespace) -> int:
    f = Field(args.p, args.m, _parse_ints(args.poly, "--poly"))
    _emit(args, json.dumps(f.to_json(), sort_keys=True))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    f = Field(args.p, args.m, _parse_ints(args.poly, "--poly"))
    rng = np.random.default_rng(seed)
    code = random_code(f, args.n, args.k, rng)
    if args.with_distance:
        min_distance_bruteforce(code, budget=args.budget)
    inst = gen_instance(code, args.w, rng)
    obj = instance_to_json(inst)
    obj["seed"] = seed
    _emit(args, json.dumps(obj, sort_keys=True))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    inst = _load_instance(args.instance)
    started = time.perf_counter()
    try:
        if args.search:
            result = sigma_search(inst, backend=args.backend, seed=seed)
        else:
            if args.sigma_r is None:
                raise PqdecError("pass --sigma-r or --search")
            sigma = SigmaParam.from_r(inst.field, args.sigma_r)
            result = backend_decoder(args.backend)(inst, sigma, seed=seed)
    except (PromiseViolated, NoSigmaSucceeded) as exc:
        _emit(args, json.dumps({"error": str(exc), "seed": seed}, sort_keys=True))
        return 1
    obj = {
        "s_hat": list(result.s_hat),
        "sigma_r": result.sigma_r,
        "backend": result.backend,
        "rounds": result.resample_rounds,
        "verified": result.verified,
        "seed": seed,
    }
    if args.timings:
        obj["wall_ms"] = (time.perf_counter() - started) * 1e3
    _emit(args, json.dumps(obj, sort_keys=True))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    s_star, dist = nearest_codeword_oracle(inst.code, inst.t, budget=args.budget)
    obj = {"s_star": [e.image for e in s_star], "distance": dist}
    if inst.s_true is not None:
        obj["matches_plant"] = [e.image for e in s_star] == [e.image for e in inst.s_true]
    _emit(args, json.dumps(obj, sort_keys=True))
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    report = direct_inversion_decode(inst, args.r)
    obj = {
        "r": report.r_used,
        "rows": report.system_shape[0],
        "cols": report.system_shape[1],
        "status": report.status,
        "s_hat": None if report.s_hat is None else list(report.s_hat),
    }
    _emit(args, json.dumps(obj, sort_keys=True))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    freq = invertibility_stats(args.p, args.T, args.trials, seed)
    obj = {
        "p": args.p,
        "T": args.T,
        "trials": args.trials,
        "frequency": freq,
        "product_formula": 1.0 - singularity_oracle(args.p),
        "seed": seed,
    }
    _emit(args, json.dumps(obj, sort_keys=True))
    return 0


def _cmd_hardness(args: argparse.Namespace) -> int:
    if (args.exact_cover is None) == (args.min_cover_size is None):
        raise BadParams("give exactly one of --exact-cover and --min-cover-size")
    sc = SetCoverInstance.from_json(_load_json(args.sc, BadParams))
    f = Field(args.p, args.m, _parse_ints(args.poly, "--poly"))
    gadget = build_gadget(sc, f)
    cover = _parse_ints(args.exact_cover, "--exact-cover")
    report = verify_gap(
        gadget, exact_cover=cover, min_cover_size=args.min_cover_size
    )
    _emit(args, gap_report_json(report))
    return 0


def _cmd_separation(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    config = SeparationConfig(
        p=args.p, m=args.m, n=args.n, k=args.k, trials=args.trials, seed=seed
    )
    rows = separation_experiment(config)
    _emit(args, separation_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqdec",
        description="Nearest-codeword decoding over prime-power fields under the "
        "Manhattan metric: quantum decoder simulation, classical baselines, "
        "hardness gadgets.",
    )
    parser.add_argument(
        "--version", action="version", version=f"pqdec {__version__} (formats v1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--out", help="write output to this path instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("field", help="validate and print a field description")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--poly", help="comma-separated low coefficients, constant first")
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("gen", help="generate a planted decoding instance")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--poly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, required=True, help="error budget (Manhattan)")
    p.add_argument("--with-distance", action="store_true", help="brute-force and cache d")
    p.add_argument("--budget", type=int, default=2**20)
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decode", help="run the decoder on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--backend", choices=BACKENDS, default="dense")
    p.add_argument("--sigma-r", type=int, default=None, help="exponent r with sigma = p^r")
    p.add_argument("--search", action="store_true", help="scan sigma = p^0, p^1, ...")
    p.add_argument("--timings", action="store_true", help="include wall_ms in output")
    add_common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("oracle", help="brute-force nearest codeword")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=2**20)
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("baseline", help="classical direct-inversion decode")
    p.add_argument("--instance", required=True)
    p.add_argument("--r", type=int, required=True, help="low-digit cutoff")
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("stats", help="random-matrix invertibility frequency")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("hardness", help="build a set-cover gadget and verify its gap")
    p.add_argument("--sc", required=True, help="set-cover instance JSON")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--poly")
    p.add_argument("--exact-cover", help="comma-separated set indices (YES witness)")
    p.add_argument("--min-cover-size", type=int, help="certified minimum cover (NO case)")
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_hardness)

    p = sub.add_parser("separation", help="quantum vs classical success-rate table")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=200)
    add_common(p)
    p.set_defaults(func=_cmd_separation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PqdecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
