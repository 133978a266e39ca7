"""chamberflow command-line interface.

One executable, one subcommand per module, each a row of the COMMANDS
table; deterministic seeded runs; JSON reports with a config hash and a
timestamp kept outside the hash. main loads the run, calls the row's
handler and writes the report it returns.
Exit codes: 0 success, 1 failed identity/check, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import verify as verify_mod
from .errors import ChamberflowError, NotDenseAtBudget
from .linalg_core import (
    CartanVector,
    Config,
    GroupElement,
    bruhat_lu,
    cartan_kak,
    iwasawa_kan,
    iwasawa_kan_minus,
    jordan_projection,
)
from .flag_boundary import Flag, boundary_margin_estimate, is_transverse
from .sections_cocycles import cocycle, compact_section
from .loxodromy import classify
from .schottky_dynamics import (
    build_schottky,
    chamber_coords,
    decorrelation_discret_check,
    jordan_line_density_probe,
    limit_cone,
    sign_group,
)
from .torus_density import (
    TorusPoint,
    select_dense_subgroup_generators,
    semigroup_cone_density,
    verify_certificate,
)
from .reportio import (
    cone_csv,
    cone_svg,
    config_hash,
    flag_to_json,
    matrix_from_json,
    matrix_to_json,
    to_json,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2


def _config_sections(config: Config) -> dict:
    """The config-file layout of a Config: `tol_*` fields under
    "tolerances", the budgets under "budgets"."""
    values = asdict(config)
    return {
        "tolerances": {k: v for k, v in values.items() if k.startswith("tol_")},
        "budgets": {k: v for k, v in values.items() if not k.startswith("tol_")},
    }


def _file_value(name: str, value, kind: type):
    """A config-file value as kind (int or float); else a configuration
    error naming the key. bool is an int subclass but no number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ValueError(f"config file: {name}: must be {kind.__name__}, not {value!r}")
    return kind(value)


@dataclass(frozen=True)
class _Run:
    """What main loads once per invocation: the run's Config, n and seed,
    the reported header (the "config" block and its "config_hash") and,
    for a family command, the Schottky family built under that Config."""

    config: Config
    n: int
    seed: int
    header: dict
    family: object = None


def _load_run(args) -> _Run:
    """The run of a parsed command line.
    Precedence: defaults < command-line flags < config file < env seed."""
    n, seed, overrides = 3, 42, {}
    if args.seed is not None:
        seed = args.seed
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file: the top level must be an object")
        sections = _config_sections(Config())
        for key, value in raw.items():
            if key in ("n", "seed"):
                continue
            if key not in sections:
                raise ValueError(f"config file: {key}: unknown key")
            if not isinstance(value, dict):
                raise ValueError(f"config file: {key}: must be an object")
            for field, v in value.items():
                if field not in sections[key]:
                    raise ValueError(f"config file: {key}.{field}: unknown key")
                overrides[field] = _file_value(f"{key}.{field}", v, type(sections[key][field]))
        n = _file_value("n", raw.get("n", n), int)
        if n < 2:
            raise ValueError(f"config file: n: must be at least 2, not {n}")
        seed = _file_value("seed", raw.get("seed", seed), int)
    env_seed = os.environ.get("CHAMBERFLOW_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    config = Config(**overrides)
    block = {"n": n, "seed": seed, **_config_sections(config)}
    family = _read_family(args.family, config) if args.reads_family else None
    return _Run(config, n, seed, {"config": block, "config_hash": config_hash(block)}, family)


def _read_family(path: str, config: Config):
    """The Schottky family of a family file, built under config."""
    with open(path) as fh:
        raw = json.load(fh)
    seeds = [matrix_from_json(m) for m in raw["seeds"]]
    r = float(raw.get("r", 0.2))
    eps = float(raw.get("eps", min(r, 0.05)))
    return build_schottky(seeds, r, eps, config=config)


def _read_matrix(path: str) -> GroupElement:
    with open(path) as fh:
        return GroupElement(matrix_from_json(json.load(fh)))


def _read_flag(path: str) -> Flag:
    with open(path) as fh:
        obj = json.load(fh)
    return Flag(matrix_from_json(obj["rep"]))


def _emit(report: dict, args, stamped: bool) -> None:
    """Write the report to --output or stdout; a stamped report is followed
    by a timestamp object, outside the reproducible body."""
    text = to_json(report) + "\n"
    if stamped:
        text += to_json({"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each handler takes the parsed arguments and the loaded _Run, and returns
# (report, passed); main writes the report and maps passed to the exit code.


def cmd_decompose(args, run: _Run) -> tuple:
    g = _read_matrix(args.matrix)
    kind = args.kind
    if kind in ("kan", "kan-minus"):
        t = iwasawa_kan(g) if kind == "kan" else iwasawa_kan_minus(g)
        report = {"k": matrix_to_json(t.k), "a": list(t.a.coords), "u": matrix_to_json(t.u)}
    elif kind == "cartan":
        k1, a, k2 = cartan_kak(g)
        report = {"k1": matrix_to_json(k1), "a": list(a.coords), "k2": matrix_to_json(k2)}
    elif kind == "bruhat":
        lower, x, upper = bruhat_lu(g, run.config)
        report = {
            "u_minus": matrix_to_json(lower),
            "a": list(x.a.coords),
            "m": list(x.m.signs),
            "u_plus": matrix_to_json(upper),
        }
    else:  # jordan
        report = {"lambda": list(jordan_projection(g).coords)}
    return report, True


def cmd_transverse(args, run: _Run) -> tuple:
    a = _read_flag(args.flag_a)
    b = _read_flag(args.flag_b)
    transverse = is_transverse(a, b, run.config)
    return {"transverse": transverse, "margin": boundary_margin_estimate(a, b, run.config)}, transverse


def cmd_cocycle(args, run: _Run) -> tuple:
    s1 = compact_section(_read_flag(args.s1))
    s0 = compact_section(_read_flag(args.s0))
    g = _read_matrix(args.g)
    xi = _read_flag(args.xi)
    beta = cocycle(s1, s0, g, xi, run.config)
    return {"a": list(beta.a.coords), "m": list(beta.m.signs)}, True


def cmd_lox(args, run: _Run) -> tuple:
    L = classify(_read_matrix(args.matrix), run.config)
    report = {
        "lambda": list(L.lam.coords),
        "attracting": flag_to_json(L.attracting),
        "repelling": flag_to_json(L.repelling),
        "gap": L.gap,
    }
    return report, True


# the family handlers' reports: main puts the run's config_hash first


def cmd_schottky_build(args, run: _Run) -> tuple:
    fam = run.family
    report = {
        "generators": len(fam.generators),
        "r": fam.r,
        "eps": fam.eps,
        "pairwise_margins": [list(row) for row in fam.pairwise_margins],
        "lambdas": [list(L.lam.coords) for L in fam.generators],
    }
    return report, True


def cmd_limit_cone(args, run: _Run) -> tuple:
    fam = run.family
    cone = limit_cone(fam, args.max_len, run.config)
    rays = cone.rays.coords
    planar = chamber_coords(rays)
    dir_y = planar[:, 1] if planar.shape[1] > 1 else np.zeros(len(planar))
    rows = [
        {
            "word_id": i,
            "length": cone.word_length,
            "lambda": list(ray),
            "dir_x": float(x),
            "dir_y": float(y),
        }
        for i, (ray, x, y) in enumerate(zip(rays, planar[:, 0], dir_y))
    ]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(cone_csv(rows))
    if args.svg:
        n = fam.generators[0].g.n
        if n == 3:
            points = [(r["dir_x"], r["dir_y"]) for r in rows]
            hull_planar = chamber_coords(np.array([h.coords for h in cone.hull]))
            with open(args.svg, "w") as fh:
                fh.write(cone_svg(points, hull_planar))
        else:
            sys.stderr.write("svg output requires n = 3; skipped\n")
    return {"rays": len(cone.rays), "hull": [list(h.coords) for h in cone.hull]}, True


def cmd_sign_group(args, run: _Run) -> tuple:
    report_sg = sign_group(run.family, args.max_len, run.config)
    report = {
        "p": report_sg.p,
        "order": report_sg.order,
        "basis": [list(b.signs) for b in report_sg.basis],
        "witnesses": [
            {"word": list(word), "signs": list(m.signs)} for word, m in report_sg.witnesses
        ],
    }
    return report, True


def cmd_decor_check(args, run: _Run) -> tuple:
    report_sg = sign_group(run.family, args.max_len, run.config)
    table = decorrelation_discret_check(run.family, report_sg, args.n_exp, config=run.config)
    all_pass = all(match for _, _, match in table.values())
    report = {
        "p": report_sg.p,
        "components": {
            "".join(map(str, nu)): {
                "attained": list(attained),
                "expected": list(expected),
                "match": match,
            }
            for nu, (attained, expected, match) in table.items()
        },
        "passed": all_pass,
    }
    return report, all_pass


def cmd_mix_probe(args, run: _Run) -> tuple:
    theta = CartanVector(np.asarray([float(x) for x in args.theta.split(",")]))
    window = tuple(float(x) for x in args.window.split(","))
    stats = jordan_line_density_probe(
        run.family, theta, window, args.max_len, delta0=args.delta0, config=run.config
    )
    return stats, True


def _read_points(path: str) -> list:
    with open(path) as fh:
        raw = json.load(fh)
    return [TorusPoint(np.asarray(p["v"], dtype=float), np.asarray(p.get("c", []), dtype=float)) for p in raw["points"]]


def cmd_density(args, run: _Run) -> tuple:
    # no density routine reads Config; main has only validated the file
    points = _read_points(args.input)
    window = [tuple(float(x) for x in pair.split(",")) for pair in args.window.split(";")]
    report = {"covered": True}
    try:
        if args.variant == "select":
            cert = select_dense_subgroup_generators(points, args.delta, window)
        else:
            v_f, cert = semigroup_cone_density(points, args.delta, window)
            report["v_F"] = list(np.atleast_1d(v_f))
    except NotDenseAtBudget as exc:
        # a failed covering still reports its certificate, when it has one
        report = {"covered": False, "reason": str(exc)}
        cert = exc.certificate
    if cert is not None:
        if args.variant == "select":
            report["subset_size"] = len(cert.subset)
        report["kind"] = cert.kind
        report["delta"] = cert.delta
        report["grid_step"] = cert.grid_step
        report["replayed"] = verify_certificate(cert)
        if cert.uncovered_farthest is not None:
            center, distance = cert.uncovered_farthest
            report["uncovered_farthest"] = {"center": list(center), "distance": distance}
    # a covering always comes with its certificate, so "replayed" is set when covered
    return report, report["covered"] and report["replayed"]


def cmd_verify(args, run: _Run) -> tuple:
    rows = verify_mod.run_all(run.seed, n=run.n, config=run.config)
    all_pass = all(r["passed"] for r in rows)
    return {**run.header, "identities": rows, "passed": all_pass}, all_pass


_MAX_LEN = (("--max-len",), {"dest": "max_len", "type": int, "default": 4})

# The command table: (name, handler, help, where, arguments), in help order.
# `where` names the subcommand lists the row joins: "top" is the top level,
# "schottky" the `schottky` group. A row under `schottky` is a family
# command: its first argument is the family file, built with the run.
COMMANDS = (
    ("decompose", cmd_decompose, "matrix decompositions", ("top",), (
        (("matrix",), {}),
        (("--kind",), {"choices": ("kan", "kan-minus", "cartan", "bruhat", "jordan"), "default": "kan"}),
    )),
    ("transverse", cmd_transverse, "flag transversality report", ("top",), (
        (("flag_a",), {}),
        (("flag_b",), {}),
    )),
    ("cocycle", cmd_cocycle, "signed AM cocycle", ("top",), tuple(
        ((flag,), {"required": True}) for flag in ("--s1", "--s0", "--g", "--xi")
    )),
    ("lox", cmd_lox, "loxodromic classification", ("top",), ((("matrix",), {}),)),
    ("build", cmd_schottky_build, None, ("schottky",), ()),
    ("limit-cone", cmd_limit_cone, None, ("schottky", "top"), (
        _MAX_LEN,
        (("--csv",), {"default": None}),
        (("--svg",), {"default": None}),
    )),
    ("sign-group", cmd_sign_group, None, ("schottky", "top"), (_MAX_LEN,)),
    ("decor-check", cmd_decor_check, None, ("schottky", "top"), (
        _MAX_LEN,
        (("--n-exp",), {"dest": "n_exp", "type": int, "default": 2}),
    )),
    ("mix-probe", cmd_mix_probe, None, ("schottky", "top"), (
        _MAX_LEN,
        (("--theta",), {"required": True}),
        (("--window",), {"default": "1,10"}),
        (("--delta0",), {"type": float, "default": 0.2}),
    )),
    ("density", cmd_density, "toral density certificates", ("top",), (
        (("variant",), {"choices": ("select", "cone")}),
        (("--input",), {"required": True}),
        (("--delta",), {"type": float, "required": True}),
        (("--window",), {"default": "-1,1"}),
    )),
    ("verify", cmd_verify, "run every identity suite", ("top",), ()),
)


def build_parser() -> argparse.ArgumentParser:
    # the global options are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", default=None)
    common.add_argument("--output", default=None)
    parser = argparse.ArgumentParser(prog="chamberflow", parents=[common])
    subcommands = {"top": parser.add_subparsers(dest="command", required=True)}
    for name, func, help_text, where, arguments in COMMANDS:
        if "schottky" in where and "schottky" not in subcommands:
            group = subcommands["top"].add_parser("schottky", parents=[common], help="Schottky family operations")
            subcommands["schottky"] = group.add_subparsers(dest="subcommand", required=True)
        reads_family = "schottky" in where
        for place in where:
            p = subcommands[place].add_parser(name, parents=[common], **({"help": help_text} if help_text else {}))
            if reads_family:
                p.add_argument("family")
            for flags, options in arguments:
                p.add_argument(*flags, **options)
            p.set_defaults(func=func, reads_family=reads_family)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        run = _load_run(args)
        report, passed = args.func(args, run)
        if run.family is not None:
            report = {"config_hash": run.header["config_hash"], **report}
        _emit(report, args, stamped=args.command == "verify")
        return EXIT_OK if passed else EXIT_FAILED
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except ChamberflowError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
