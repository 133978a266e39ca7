"""chamberflow command-line interface.

One executable, one subcommand per module; deterministic seeded runs;
JSON reports with a config hash and a timestamp kept outside the hash.
Exit codes: 0 success, 1 failed identity/check, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

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
from .flag_boundary import Flag, boundary_margin_estimate, is_transverse, minor_margin
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


def _load_run(args) -> tuple:
    """(config, n, seed, header) of a run, where header holds the reported
    "config" block and its "config_hash".
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
        seed = _file_value("seed", raw.get("seed", seed), int)
    env_seed = os.environ.get("CHAMBERFLOW_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    config = Config(**overrides)
    block = {"n": n, "seed": seed, **_config_sections(config)}
    return config, n, seed, {"config": block, "config_hash": config_hash(block)}


def _read_matrix(path: str) -> GroupElement:
    with open(path) as fh:
        return GroupElement(matrix_from_json(json.load(fh)))


def _read_flag(path: str) -> Flag:
    with open(path) as fh:
        obj = json.load(fh)
    return Flag(matrix_from_json(obj["rep"]))


def _emit(report: dict, args, stamped: bool = False) -> None:
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


def cmd_decompose(args) -> int:
    config = _load_run(args)[0]
    g = _read_matrix(args.matrix)
    kind = args.kind
    if kind == "kan":
        t = iwasawa_kan(g)
        report = {"k": matrix_to_json(t.k), "a": list(t.a.coords), "u": matrix_to_json(t.u)}
    elif kind == "kan-minus":
        t = iwasawa_kan_minus(g)
        report = {"k": matrix_to_json(t.k), "a": list(t.a.coords), "u": matrix_to_json(t.u)}
    elif kind == "cartan":
        k1, a, k2 = cartan_kak(g)
        report = {"k1": matrix_to_json(k1), "a": list(a.coords), "k2": matrix_to_json(k2)}
    elif kind == "bruhat":
        lower, x, upper = bruhat_lu(g, config)
        report = {
            "u_minus": matrix_to_json(lower),
            "a": list(x.a.coords),
            "m": list(x.m.signs),
            "u_plus": matrix_to_json(upper),
        }
    else:  # jordan
        report = {"lambda": list(jordan_projection(g).coords)}
    _emit(report, args)
    return EXIT_OK


def cmd_transverse(args) -> int:
    config = _load_run(args)[0]
    a = _read_flag(args.flag_a)
    b = _read_flag(args.flag_b)
    transverse = is_transverse(a, b, config)
    report = {
        "transverse": transverse,
        "margin": boundary_margin_estimate(a, b, config),
        "minor_margin": minor_margin(a, b),
    }
    _emit(report, args)
    return EXIT_OK if transverse else EXIT_FAILED


def cmd_cocycle(args) -> int:
    config = _load_run(args)[0]
    s1 = compact_section(_read_flag(args.s1))
    s0 = compact_section(_read_flag(args.s0))
    g = _read_matrix(args.g)
    xi = _read_flag(args.xi)
    beta = cocycle(s1, s0, g, xi, config)
    _emit({"a": list(beta.a.coords), "m": list(beta.m.signs)}, args)
    return EXIT_OK


def cmd_lox(args) -> int:
    config = _load_run(args)[0]
    g = _read_matrix(args.matrix)
    L = classify(g, config)
    report = {
        "lambda": list(L.lam.coords),
        "attracting": flag_to_json(L.attracting),
        "repelling": flag_to_json(L.repelling),
        "gap": L.gap,
    }
    _emit(report, args)
    return EXIT_OK


def _load_family(args) -> tuple:
    """(family, config, config hash) of a family subcommand: the family in
    args.family, built under the run's Config."""
    config, _, _, header = _load_run(args)
    with open(args.family) as fh:
        raw = json.load(fh)
    seeds = [matrix_from_json(m) for m in raw["seeds"]]
    r = float(raw.get("r", 0.2))
    eps = float(raw.get("eps", min(r, 0.05)))
    return build_schottky(seeds, r, eps, config=config), config, header["config_hash"]


def cmd_schottky_build(args) -> int:
    fam, _, digest = _load_family(args)
    report = {
        "config_hash": digest,
        "generators": len(fam.generators),
        "r": fam.r,
        "eps": fam.eps,
        "pairwise_margins": [list(row) for row in fam.pairwise_margins],
        "lambdas": [list(L.lam.coords) for L in fam.generators],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_limit_cone(args) -> int:
    fam, config, digest = _load_family(args)
    cone = limit_cone(fam, args.max_len, config)
    planar = chamber_coords(np.array([ray.coords for ray in cone.rays]))
    dir_y = planar[:, 1] if planar.shape[1] > 1 else np.zeros(len(planar))
    rows = [
        {
            "word_id": i,
            "length": cone.word_length,
            "lambda": list(ray.coords),
            "dir_x": float(x),
            "dir_y": float(y),
        }
        for i, (ray, x, y) in enumerate(zip(cone.rays, planar[:, 0], dir_y))
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
    report = {
        "config_hash": digest,
        "rays": len(cone.rays),
        "hull": [list(h.coords) for h in cone.hull],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_sign_group(args) -> int:
    fam, config, digest = _load_family(args)
    report_sg = sign_group(fam, args.max_len, config)
    report = {
        "config_hash": digest,
        "p": report_sg.p,
        "order": report_sg.order,
        "basis": [list(b.signs) for b in report_sg.basis],
        "witnesses": [
            {"word": list(word), "signs": list(m.signs)} for word, m in report_sg.witnesses
        ],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_decor_check(args) -> int:
    fam, config, digest = _load_family(args)
    report_sg = sign_group(fam, args.max_len, config)
    table = decorrelation_discret_check(fam, report_sg, args.n_exp, config=config)
    all_pass = all(match for _, _, match in table.values())
    report = {
        "config_hash": digest,
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
    _emit(report, args)
    return EXIT_OK if all_pass else EXIT_FAILED


def cmd_mix_probe(args) -> int:
    fam, config, digest = _load_family(args)
    theta = CartanVector(np.asarray([float(x) for x in args.theta.split(",")]))
    window = tuple(float(x) for x in args.window.split(","))
    stats = jordan_line_density_probe(
        fam, theta, window, args.max_len, delta0=args.delta0, config=config
    )
    _emit({"config_hash": digest, **stats}, args)
    return EXIT_OK


def _read_points(path: str) -> list:
    with open(path) as fh:
        raw = json.load(fh)
    return [TorusPoint(np.asarray(p["v"], dtype=float), np.asarray(p.get("c", []), dtype=float)) for p in raw["points"]]


def cmd_density(args) -> int:
    _load_run(args)  # no density routine reads Config; the file is only validated
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
    _emit(report, args)
    # a covering always comes with its certificate, so "replayed" is set when covered
    return EXIT_OK if report["covered"] and report["replayed"] else EXIT_FAILED


def cmd_verify(args) -> int:
    config, n, seed, header = _load_run(args)
    rows = verify_mod.run_all(seed, n=n, config=config)
    all_pass = all(r["passed"] for r in rows)
    _emit({**header, "identities": rows, "passed": all_pass}, args, stamped=True)
    return EXIT_OK if all_pass else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    # the global options are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", default=None)
    common.add_argument("--output", default=None)
    parser = argparse.ArgumentParser(prog="chamberflow", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(container, name, **kwargs):
        return container.add_parser(name, parents=[common], **kwargs)

    p = add_parser(sub, "decompose", help="matrix decompositions")
    p.add_argument("matrix")
    p.add_argument("--kind", choices=["kan", "kan-minus", "cartan", "bruhat", "jordan"], default="kan")
    p.set_defaults(func=cmd_decompose)

    p = add_parser(sub, "transverse", help="flag transversality report")
    p.add_argument("flag_a")
    p.add_argument("flag_b")
    p.set_defaults(func=cmd_transverse)

    p = add_parser(sub, "cocycle", help="signed AM cocycle")
    p.add_argument("--s1", required=True)
    p.add_argument("--s0", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--xi", required=True)
    p.set_defaults(func=cmd_cocycle)

    p = add_parser(sub, "lox", help="loxodromic classification")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_lox)

    schottky = add_parser(sub, "schottky", help="Schottky family operations")
    ssub = schottky.add_subparsers(dest="subcommand", required=True)
    p = add_parser(ssub, "build")
    p.add_argument("family")
    p.set_defaults(func=cmd_schottky_build)

    # one table for the family subcommands, registered under `schottky`
    # and as top-level aliases
    family_commands = [
        ("limit-cone", cmd_limit_cone, ["csv"]),
        ("sign-group", cmd_sign_group, []),
        ("decor-check", cmd_decor_check, ["n_exp"]),
        ("mix-probe", cmd_mix_probe, ["theta"]),
    ]
    for container in (ssub, sub):
        for name, func, extra in family_commands:
            sp = add_parser(container, name)
            sp.add_argument("family")
            sp.add_argument("--max-len", dest="max_len", type=int, default=4)
            if "csv" in extra:
                sp.add_argument("--csv", default=None)
                sp.add_argument("--svg", default=None)
            if "n_exp" in extra:
                sp.add_argument("--n-exp", dest="n_exp", type=int, default=2)
            if "theta" in extra:
                sp.add_argument("--theta", required=True)
                sp.add_argument("--window", default="1,10")
                sp.add_argument("--delta0", type=float, default=0.2)
            sp.set_defaults(func=func)

    p = add_parser(sub, "density", help="toral density certificates")
    p.add_argument("variant", choices=["select", "cone"])
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--window", default="-1,1")
    p.set_defaults(func=cmd_density)

    p = add_parser(sub, "verify", help="run every identity suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except ChamberflowError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
