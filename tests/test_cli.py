import json

import numpy as np
import pytest

from chamberflow.cli import main
from chamberflow.flag_boundary import opposite_flag, standard_flag
from chamberflow.reportio import flag_to_json, matrix_to_json

from conftest import conjugated, rotation2


@pytest.fixture()
def workdir(tmp_path):
    g = np.diag([4.0, 1.0, 0.25])
    (tmp_path / "g.json").write_text(json.dumps(matrix_to_json(g)))
    (tmp_path / "fa.json").write_text(json.dumps(flag_to_json(standard_flag(3))))
    (tmp_path / "fb.json").write_text(json.dumps(flag_to_json(opposite_flag(3))))
    pts = {"points": [{"v": [1.0], "c": []}, {"v": [np.sqrt(2.0)], "c": []}]}
    (tmp_path / "pts.json").write_text(json.dumps(pts))
    g1 = np.diag([9.0, 1 / 9.0])
    g2 = rotation2(np.pi / 4) @ g1 @ rotation2(np.pi / 4).T
    fam = {"seeds": [matrix_to_json(g1), matrix_to_json(g2)], "r": 0.18, "eps": 0.16}
    (tmp_path / "fam2.json").write_text(json.dumps(fam))
    return tmp_path


def _run(args, out=None):
    argv = list(args)
    if out is not None:
        argv += ["--output", str(out)]
    return main(argv)


@pytest.mark.parametrize("kind", ["kan", "kan-minus", "cartan", "bruhat", "jordan"])
def test_decompose_kinds(workdir, kind):
    out = workdir / f"{kind}.json"
    assert _run(["decompose", str(workdir / "g.json"), "--kind", kind], out) == 0
    report = json.loads(out.read_text())
    assert report


def test_decompose_jordan_values(workdir):
    out = workdir / "j.json"
    assert _run(["decompose", str(workdir / "g.json"), "--kind", "jordan"], out) == 0
    lam = json.loads(out.read_text())["lambda"]
    assert lam == pytest.approx([np.log(4.0), 0.0, -np.log(4.0)])


def test_transverse_exit_codes(workdir):
    out = workdir / "t.json"
    assert _run(["transverse", str(workdir / "fa.json"), str(workdir / "fb.json")], out) == 0
    assert json.loads(out.read_text())["transverse"] is True
    assert _run(["transverse", str(workdir / "fa.json"), str(workdir / "fa.json")], out) == 1


def test_lox_report(workdir):
    out = workdir / "lox.json"
    assert _run(["lox", str(workdir / "g.json")], out) == 0
    report = json.loads(out.read_text())
    assert report["lambda"] == pytest.approx([np.log(4.0), 0.0, -np.log(4.0)])
    assert report["gap"] == pytest.approx(np.log(4.0))


def test_density_subcommands(workdir):
    out = workdir / "d.json"
    code = _run(
        ["density", "select", "--input", str(workdir / "pts.json"), "--delta", "0.05", "--window=-1,1"],
        out,
    )
    assert code == 0
    assert json.loads(out.read_text())["covered"] is True
    assert json.loads(out.read_text())["replayed"] is True
    assert json.loads(out.read_text())["kind"] == "group"
    code = _run(
        ["density", "cone", "--input", str(workdir / "pts.json"), "--delta", "0.05", "--window", "0,2"],
        out,
    )
    assert code == 0
    assert json.loads(out.read_text())["covered"] is True
    assert json.loads(out.read_text())["replayed"] is True
    assert json.loads(out.read_text())["kind"] == "semigroup"


def test_density_select_reports_an_empty_subset(workdir):
    path = workdir / "origin.json"
    path.write_text(json.dumps({"points": [{"v": [0.0], "c": []}]}))
    out = workdir / "d.json"
    assert _run(["density", "select", "--input", str(path), "--delta", "1.0", "--window", "0,0"], out) == 0
    report = json.loads(out.read_text())
    assert report["covered"] is True
    assert report["replayed"] is True
    assert report["subset_size"] == 0


@pytest.mark.parametrize("variant", ["select", "cone"])
@pytest.mark.parametrize(
    "points",
    [[], [{"v": [1.0]}, {"v": [np.sqrt(2.0)], "c": [0.5]}]],
    ids=["empty", "mixed-shapes"],
)
def test_density_rejects_unusable_points(workdir, variant, points):
    path = workdir / "bad_pts.json"
    path.write_text(json.dumps({"points": points}))
    assert _run(["density", variant, "--input", str(path), "--delta", "0.05"]) == 2


@pytest.mark.parametrize("variant", ["select", "cone"])
def test_density_rejects_a_window_of_the_wrong_dimension(workdir, variant, capsys):
    path = workdir / "planar.json"
    path.write_text(json.dumps({"points": [{"v": [1.0, 0.0], "c": [0.3]}, {"v": [1.0, 1.0], "c": [0.6]}]}))
    out = workdir / "d.json"
    assert _run(["density", variant, "--input", str(path), "--delta", "0.6", "--window", "0,2"], out) == 2
    assert "shape (1, 2); points with d = 2 need shape (2, 2)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["select", "cone"])
@pytest.mark.parametrize("delta", ["0", "-0.1", "nan", "inf"])
def test_density_refuses_a_bad_delta(workdir, variant, delta, capsys):
    out = workdir / "d.json"
    argv = ["density", variant, "--input", str(workdir / "pts.json"), f"--delta={delta}", "--window", "0,2"]
    assert _run(argv, out) == 2
    assert "the covering radius must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["select", "cone"])
@pytest.mark.parametrize("window, shown", [("0,inf", "[0.0, inf]"), ("-inf,0", "[-inf, 0.0]")])
def test_density_refuses_an_infinite_window(workdir, variant, window, shown, capsys):
    out = workdir / "d.json"
    argv = ["density", variant, "--input", str(workdir / "pts.json"), "--delta", "0.1", f"--window={window}"]
    assert _run(argv, out) == 2
    assert f"configuration error: window row 0 = {shown} is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_density_failure_reports_farthest_cell(workdir):
    path = workdir / "lattice.json"
    path.write_text(json.dumps({"points": [{"v": [1.0]}]}))
    out = workdir / "d.json"
    assert _run(["density", "select", "--input", str(path), "--delta", "0.05"], out) == 1
    report = json.loads(out.read_text())
    assert report["covered"] is False
    assert report["replayed"] is False
    assert report["kind"] == "group"
    assert report["uncovered_farthest"]["distance"] > 0.05
    assert len(report["uncovered_farthest"]["center"]) == 1
    # the integer lattice is not dense: the cone variant fails before it has a certificate
    assert _run(["density", "cone", "--input", str(path), "--delta", "0.05"], out) == 1
    report = json.loads(out.read_text())
    assert report["covered"] is False
    assert "uncovered_farthest" not in report
    assert "replayed" not in report and "kind" not in report


def test_schottky_build_and_cone_csv(workdir):
    out = workdir / "b.json"
    assert _run(["schottky", "build", str(workdir / "fam2.json")], out) == 0
    assert json.loads(out.read_text())["generators"] == 2
    csv = workdir / "cone.csv"
    assert _run(["limit-cone", str(workdir / "fam2.json"), "--max-len", "3", "--csv", str(csv)], out) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("word_id,length,lambda_1")
    assert len(lines) == 1 + 2 + 4 + 8


@pytest.mark.parametrize(
    "command, extra",
    [
        ("sign-group", []),
        ("decor-check", []),
        ("mix-probe", ["--theta", "1,-1", "--window", "1,20", "--max-len", "6"]),
    ],
    ids=["sign-group", "decor-check", "mix-probe"],
)
def test_schottky_aliases_match(workdir, command, extra):
    family = str(workdir / "fam2.json")
    bodies = []
    for prefix in (["schottky"], []):
        out = workdir / f"{command}-{len(prefix)}.json"
        assert _run(prefix + [command, family] + extra, out) == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]
    assert json.loads(bodies[0])["config_hash"]


def test_svg_emission_is_deterministic(tmp_path):
    a = conjugated(168, list(np.exp([7.0, 2.0, -9.0])))
    b = conjugated(169, list(np.exp([9.0, -2.0, -7.0])))
    fam = {"seeds": [matrix_to_json(a), matrix_to_json(b)], "r": 0.15, "eps": 0.15}
    fam_path = tmp_path / "fam3.json"
    fam_path.write_text(json.dumps(fam))
    svgs = []
    for tag in ("one", "two"):
        svg = tmp_path / f"{tag}.svg"
        out = tmp_path / f"{tag}.json"
        assert _run(["limit-cone", str(fam_path), "--max-len", "2", "--svg", str(svg)], out) == 0
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]
    assert svgs[0].startswith(b"<svg")


def test_configuration_error_exit_codes(workdir):
    assert main(["decompose", str(workdir / "missing.json")]) == 2
    assert main(["no-such-command"]) == 2
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", str(bad)]) == 2


@pytest.mark.parametrize(
    "config, key",
    [
        ({"tolerances": {"tol_typo": 1e-9}}, "tolerances.tol_typo"),
        ({"tolerances": {"tol_det": 1e-9}}, "tolerances.tol_det"),
        ({"tolerances": {"tol_recon": "tight"}}, "tolerances.tol_recon"),
        ({"budgets": {"mc_samples": 1000}}, "budgets.mc_samples"),
        ({"budgets": {"max_words": 1e5}}, "budgets.max_words"),
        ({"budgets": {"max_words": True}}, "budgets.max_words"),
        ({"budget": {"max_words": 10}}, "budget"),
        ({"tolerances": [1e-9]}, "tolerances"),
        ({"n": None}, "n"),
        ({"n": 0}, "n"),
        ({"n": 1}, "n"),
    ],
    ids=[
        "unknown-tolerance", "removed-tol_det", "non-numeric-tolerance", "removed-mc_samples",
        "float-budget", "bool-budget", "unknown-top-level", "section-not-object", "null-n",
        "zero-n", "one-n",
    ],
)
def test_config_file_errors_name_the_key(workdir, capsys, config, key):
    path = workdir / "bad_config.json"
    path.write_text(json.dumps(config))
    assert main(["verify", "--config", str(path)]) == 2
    assert main(["sign-group", str(workdir / "fam2.json"), "--config", str(path)]) == 2
    assert capsys.readouterr().err.count(f"configuration error: config file: {key}: ") == 2


def test_config_file_word_budget_is_honoured(workdir, capsys):
    path = workdir / "budget.json"
    path.write_text(json.dumps({"budgets": {"max_words": 10}}))
    family = str(workdir / "fam2.json")
    assert main(["limit-cone", family, "--max-len", "3", "--config", str(path)]) == 1
    assert "max_words = 10" in capsys.readouterr().err
    # 2 + 4 words up to length 2 fit in the budget
    assert main(["limit-cone", family, "--max-len", "2", "--config", str(path)]) == 0


@pytest.mark.parametrize("command", ["limit-cone", "sign-group", "decor-check", "mix-probe"])
def test_word_commands_refuse_max_len_below_one(workdir, capsys, command):
    extra = ["--theta", "1,-1"] if command == "mix-probe" else []
    out = workdir / "w.json"
    assert _run([command, str(workdir / "fam2.json"), "--max-len", "0"] + extra, out) == 2
    assert "configuration error: max_len = 0: word lengths start at 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["limit-cone", "sign-group", "schottky build"])
def test_family_commands_refuse_an_empty_seed_list(tmp_path, capsys, command):
    fam_path = tmp_path / "empty.json"
    fam_path.write_text(json.dumps({"seeds": [], "r": 0.15, "eps": 0.15}))
    out = tmp_path / "f.json"
    assert _run(command.split() + [str(fam_path)], out) == 2
    assert "configuration error: a Schottky family needs at least one seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decor-check", "--n-exp", "-1"], "n_exp = -1"),
        (["mix-probe", "--theta", "1,-1", "--delta0", "-1"], "delta0 = -1.0 is not a finite positive number"),
        (["mix-probe", "--theta", "1,-1", "--delta0", "nan"], "delta0 = nan is not a finite positive number"),
    ],
    ids=["negative-n-exp", "negative-delta0", "nan-delta0"],
)
def test_word_commands_refuse_an_out_of_range_number(workdir, capsys, argv, message):
    out = workdir / "w.json"
    assert _run([argv[0], str(workdir / "fam2.json")] + argv[1:], out) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_mix_probe_refuses_theta_of_the_wrong_dimension(tmp_path, capsys):
    a = conjugated(168, list(np.exp([7.0, 2.0, -9.0])))
    b = conjugated(169, list(np.exp([9.0, -2.0, -7.0])))
    fam_path = tmp_path / "fam3.json"
    fam_path.write_text(json.dumps({"seeds": [matrix_to_json(a), matrix_to_json(b)], "r": 0.15, "eps": 0.15}))
    out = tmp_path / "p.json"
    assert _run(["mix-probe", str(fam_path), "--theta", "1,0,-1,0"], out) == 2
    message = "configuration error: theta = [1.0, 0.0, -1.0, 0.0] is not a finite nonzero vector of R^3"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "window, shown",
    [("1", "[1.0]"), ("20,1", "[20.0, 1.0]")],
    ids=["one-number", "lo-above-hi"],
)
def test_mix_probe_refuses_a_bad_window(workdir, capsys, window, shown):
    out = workdir / "p.json"
    assert _run(["mix-probe", str(workdir / "fam2.json"), "--theta", "1,-1", "--window", window], out) == 2
    assert f"configuration error: window = {shown} is not two finite numbers lo <= hi" in capsys.readouterr().err
    assert not out.exists()


def test_mix_probe_report_is_strict_json_below_two_hits(workdir):
    out = workdir / "p.json"
    args = ["mix-probe", str(workdir / "fam2.json"), "--theta", "1,-1", "--window", "1,1.5", "--max-len", "4"]
    assert _run(args, out) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["hits"] < 2
    assert report["max_gap"] is None and report["mean_gap"] is None


def test_verify_failure_reporting(workdir):
    cfg = workdir / "tight.json"
    cfg.write_text(json.dumps({"tolerances": {"tol_recon": 1e-15}}))
    out = workdir / "v.json"
    assert main(["verify", "--config", str(cfg), "--output", str(out)]) == 1
    body = out.read_text()
    assert '"passed": false' in body


@pytest.mark.parametrize("seed, n", [(1397140366, 3), (1963603343, 4)])
def test_verify_passes_at_seeds_where_the_power_cocycle_drifted(workdir, seed, n):
    # beta(g^3, xi) read from g^3 itself missed L(g)^3 by 6.28e-8 and
    # 2.07e-8 at these seeds, over tol_id = 1e-8
    cfg = workdir / "n.json"
    cfg.write_text(json.dumps({"n": n}))
    out = workdir / "v.json"
    assert main(["verify", "--seed", str(seed), "--config", str(cfg), "--output", str(out)]) == 0
    body = json.JSONDecoder().raw_decode(out.read_text())[0]
    assert body["config"]["n"] == n
    assert body["identities"] and all(row["passed"] for row in body["identities"])


def test_env_seed_overrides_flag(workdir, monkeypatch):
    out1 = workdir / "v1.json"
    out2 = workdir / "v2.json"
    monkeypatch.setenv("CHAMBERFLOW_SEED", "42")
    assert main(["verify", "--seed", "7", "--output", str(out1)]) == 0
    monkeypatch.delenv("CHAMBERFLOW_SEED")
    assert main(["verify", "--seed", "42", "--output", str(out2)]) == 0
    # identical bodies: the env seed won over the conflicting flag
    body1 = out1.read_text().splitlines()[:-3]
    body2 = out2.read_text().splitlines()[:-3]
    assert body1 == body2


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "g.json", "--kind", "bruhat"],
        ["transverse", "fa.json", "fb.json"],
        ["cocycle", "--s1", "fb.json", "--s0", "fb.json", "--g", "g.json", "--xi", "fa.json"],
        ["lox", "g.json"],
        ["density", "select", "--input", "pts.json", "--delta", "0.05"],
    ],
    ids=["decompose", "transverse", "cocycle", "lox", "density"],
)
def test_single_shot_commands_validate_the_config_file(workdir, capsys, argv):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    path = workdir / "bad_config.json"
    path.write_text(json.dumps({"tolerances": {"tol_typo": 1e-9}}))
    assert main(argv + ["--config", str(path)]) == 2
    assert "config file: tolerances.tol_typo: unknown key" in capsys.readouterr().err


def test_lox_honours_the_config_file_tolerance(workdir, capsys):
    path = workdir / "strict.json"
    path.write_text(json.dumps({"tolerances": {"tol_lox": 0.99}}))
    matrix = str(workdir / "g.json")
    assert main(["lox", matrix]) == 0
    # the relative modulus gaps of diag(4, 1, 1/4) are 0.75, below 0.99
    assert main(["lox", matrix, "--config", str(path)]) == 1
    assert "eigenvalue moduli not separated" in capsys.readouterr().err


def test_huge_entries_get_a_refusal_or_a_report(workdir, capsys):
    # max|entry|^3 = 1e360 overflows a float: GroupElement must not raise
    # OverflowError while it checks the determinant
    path = workdir / "huge.json"
    path.write_text(json.dumps(matrix_to_json(np.diag([1e120, 1e-60, 1e-60]))))
    assert main(["lox", str(path)]) == 1
    assert "eigenvalue moduli not separated" in capsys.readouterr().err
    out = workdir / "cartan.json"
    assert _run(["decompose", str(path), "--kind", "cartan"], out) == 0
    assert json.loads(out.read_text())["a"] == pytest.approx([120 * np.log(10), -60 * np.log(10), -60 * np.log(10)])
