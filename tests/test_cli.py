"""The command-line front end: artifacts, determinism, exit codes."""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import tempfile
import warnings
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import vexlab as vx
from vexlab.cli import _build_field, _csv_cell, _jsonable, _load_config, main
from vexlab.errors import config_number

BALL = {"kind": "ball_analytic", "center": [0, 0, 0], "radius": 1.0}
UNIT_INTERVAL = {"kind": "interval", "a": 0.0, "b": 1.0}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load_report(path):
    with open(path) as fh:
        data = json.load(fh)
    assert data.pop("meta")["created"]  # timestamp lives in its own block
    assert data.pop("schema") == "1"
    return data


def test_verdict_scenario(tmp_path):
    cfg = write_config(tmp_path, "verdict.json", {
        "domain": BALL,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 7.0},
    })
    out = tmp_path / "out"
    assert main(["verdict", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "verdict.json")
    assert rep["case"] == "i" and rep["applies"] is True
    assert rep["p_plus_star"] == pytest.approx(6.0)
    assert rep["coefficient"] == pytest.approx(0.5 - 3.0 / 7.0)


def test_verdict_determinism_modulo_meta(tmp_path):
    cfg = write_config(tmp_path, "verdict.json", {
        "domain": BALL,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 6.0},
    })
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verdict", "--config", cfg, "--out", str(out)]) == 0
        outs.append(load_report(out / "verdict.json"))
    assert outs[0] == outs[1]
    assert outs[0]["case"] == "ii"


def test_sweep_scenario(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", {
        "domain": BALL,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0},
        "sweep": {"parameter": "q", "values": [4.0, 5.0, 6.0, 7.0]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,case,applies,q_minus,p_plus,p_plus_star,coefficient"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["none", "none", "ii", "i"]
    assert [r[2] for r in rows] == ["0", "0", "1", "1"]
    coeffs = [float(r[6]) for r in rows]
    assert coeffs == sorted(coeffs)  # monotone in q

    rep = load_report(out / "sweep.json")
    assert len(rep["results"]) == 4
    assert rep["results"][3]["case"] == "i"


def test_sweep_determinism(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", {
        "domain": BALL,
        "p": {"kind": "constant", "value": 1.5},
        "q": {"kind": "constant", "value": 4.0},
        "sweep": {"parameter": "p", "values": [1.5, 2.0, 2.5]},
    })
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        texts.append((out / "sweep.csv").read_text())
    assert texts[0] == texts[1]


def solve_payload(extra_solver=None):
    payload = {
        "domain": UNIT_INTERVAL,
        "h": 0.02,
        "p": {"kind": "affine", "a": 2.0, "b": [0.5]},
        "q": {"kind": "affine", "a": 2.0, "b": [0.25]},
        "rhs": {"kind": "product_sin", "amplitude": 4.0},
        "solver": {"epsilon": 1e-4},
    }
    if extra_solver:
        payload["solver"].update(extra_solver)
    return payload


def test_solve_scenario_artifacts(tmp_path):
    cfg = write_config(tmp_path, "solve.json", solve_payload())
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "solve.json")
    assert rep["converged"] is True
    assert rep["el_residual"] <= 1e-8
    assert rep["solution_max"] > 0

    vals = np.loadtxt(out / "solution.txt")
    mesh = vx.read_mesh(out / "mesh.txt")
    assert len(vals) == mesh.nnodes
    assert abs(vals.max() - rep["solution_max"]) <= 1e-12


def test_solve_non_convergence_exits_3(tmp_path):
    cfg = write_config(tmp_path, "solve.json",
                       solve_payload({"max_iters": 1, "grad_tol": 1e-16}))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    rep = load_report(out / "solve.json")
    assert rep["converged"] is False  # artifacts still written


def test_cascade_scenario(tmp_path):
    cfg = write_config(tmp_path, "cascade.json", {
        "domain": UNIT_INTERVAL,
        "h": 0.05,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 2.0},
        "candidate": {"kind": "product_sin", "amplitude": 1.0},
        "origin": [0.5],
        "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.125,
                   "n_schedule": [1, 2]},
    })
    out = tmp_path / "out"
    assert main(["cascade", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "cascade.json")
    assert rep["candidate_stop"] is None  # a field given in the config
    assert rep["n_schedule"] == [1, 2]
    assert len(rep["gap_grad_modular"]) == 2
    assert rep["converged"] is True

    lines = (out / "cascade_series.csv").read_text().splitlines()
    assert lines[0] == "n,epsilon,grad_modular,q_modular,boundary_term"
    assert len(lines) == 1 + 2 * 3  # two n levels, three eps levels each


def test_pohozaev_scenario_with_remainder(tmp_path):
    cfg = write_config(tmp_path, "pohozaev.json", {
        "domain": UNIT_INTERVAL,
        "h": 0.05,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 2.0},
        "candidate": {"kind": "bump", "amplitude": 1.0},
        "origin": [0.5],
        "with_remainder": True,
        "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.25,
                   "n_schedule": [1, 2]},
    })
    out = tmp_path / "out"
    assert main(["pohozaev", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "pohozaev.json")
    assert {"t1", "t2", "t3", "t4", "r_proxy", "total",
            "star_min_xdotnu"} <= set(rep)
    assert rep["t3"] == 0.0 and rep["t4"] == 0.0
    assert rep["r_proxy"] >= 0.0

    lines = (out / "pohozaev.csv").read_text().splitlines()
    assert lines[0] == ("t1,t2,t3,t4,r_proxy,total,class_e,class_p,"
                        "identity_gap,p_dagger")
    assert len(lines) == 2 and len(lines[1].split(",")) == 10


CASCADE = {
    "domain": UNIT_INTERVAL,
    "h": 0.05,
    "p": {"kind": "constant", "value": 2.0},
    "q": {"kind": "constant", "value": 2.0},
    "candidate": {"kind": "product_sin", "amplitude": 1.0},
    "origin": [0.5],
    "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.125,
               "n_schedule": [1, 2]},
}


@pytest.mark.parametrize("scenario, amplitude, solves, reused, failed", [
    pytest.param("cascade", 1.5, 6, 0, [[1, 0.5]], id="cascade"),
    pytest.param("pohozaev", 1.5, 6, 0, [[1, 0.5]], id="pohozaev"),
    # max |u| = 1: n = 2 poses n = 1's problem and copies its failed level
    pytest.param("cascade", 1.0, 3, 3, [[1, 0.5], [2, 0.5]], id="cascade-untruncated"),
    pytest.param("pohozaev", 1.0, 3, 3, [[1, 0.5], [2, 0.5]],
                 id="pohozaev-untruncated"),
])
def test_failed_inner_level_turns_report_red(tmp_path, monkeypatch, scenario,
                                             amplitude, solves, reused, failed):
    # Only the first epsilon level of the first truncation level gets no
    # Newton step; every later level, the last one included, converges.
    solve = vx.solvers.solve_regularized
    calls = []

    def first_level_capped(v, p, q, cfg=None, z0=None):
        if not calls:
            cfg = dataclasses.replace(cfg, max_iters=0)
        calls.append(cfg.epsilon)
        return solve(v, p, q, cfg, z0=z0)

    monkeypatch.setattr(vx.solvers, "solve_regularized", first_level_capped)
    payload = dict(CASCADE, candidate={"kind": "product_sin", "amplitude": amplitude})
    if scenario == "pohozaev":
        payload["with_remainder"] = True
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 3
    assert len(calls) == solves
    assert json.loads((out / f"{scenario}.json").read_text())["meta"][
        "reused_levels"] == reused
    rep = load_report(out / f"{scenario}.json")
    assert rep["failed_levels"] == failed
    if scenario == "cascade":
        assert rep["converged"] is False


@pytest.mark.parametrize("scenario, candidate", [
    ("cascade", {"kind": "zero"}),
    ("pohozaev", {"kind": "constant", "value": 2}),
])
def test_config_field_candidates(tmp_path, scenario, candidate):
    cfg = write_config(tmp_path, "cfg.json", {**CASCADE, "candidate": candidate})
    out = tmp_path / "out"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 0
    assert load_report(out / f"{scenario}.json")["candidate_stop"] is None


def test_pohozaev_origin_from_star_center(tmp_path):
    cfg = write_config(tmp_path, "pohozaev.json", {
        "domain": {"kind": "polygon",
                   "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "h": 0.1,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0},
        "candidate": {"kind": "bump", "amplitude": 1.0},
    })
    out = tmp_path / "out"
    assert main(["pohozaev", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "pohozaev.json")
    assert rep["origin"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert rep["star_min_xdotnu"] == pytest.approx(0.5, abs=1e-12)


C_SHAPE = [[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [1.0, 1.0], [1.0, 2.0],
           [3.0, 2.0], [3.0, 3.0], [0.0, 3.0]]  # no point sees all of it


@pytest.mark.parametrize("scenario", ["cascade", "pohozaev"])
@pytest.mark.parametrize("domain, origin", [
    ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, [0.0]),
    ({"kind": "polygon", "vertices": C_SHAPE}, None),
], ids=["origin_wrong_dimension", "not_star_shaped"])
def test_bad_origin_exits_2_before_the_candidate(tmp_path, capsys, monkeypatch,
                                                 scenario, domain, origin):
    def no_candidate(*args, **kwargs):
        raise AssertionError("the Nehari candidate was built")

    monkeypatch.setattr(vx.cli, "nehari_candidate", no_candidate)
    payload = {"domain": domain, "h": 0.5,
               "p": {"kind": "constant", "value": 2.0},
               "q": {"kind": "constant", "value": 4.0},
               "candidate": {"kind": "nehari"}}
    if origin is not None:
        payload["origin"] = origin
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("domain, h", [
    (UNIT_INTERVAL, 1.0),
    ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}, 2.0),
], ids=["one_cell", "one_triangle"])
@pytest.mark.parametrize("kind, code", [("nehari", 3), ("bump", 0)])
def test_mesh_without_interior_node(tmp_path, capsys, domain, h, kind, code):
    # every node is on the boundary: the bump field is zero and the Nehari
    # candidate has no scaling root, and neither warns
    cfg = write_config(tmp_path, "cfg.json", {
        "domain": domain, "h": h, "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0}, "candidate": {"kind": kind}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exit_code = main(["pohozaev", "--config", cfg, "--out", str(tmp_path / "out")])
    assert exit_code == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    if kind == "bump":
        mesh = vx.build_mesh(vx.Domain.from_spec(domain), h)
        bump = _build_field({"kind": kind}, mesh, str(tmp_path)).values
        assert bump.tobytes() == np.zeros(mesh.nnodes).tobytes()


def test_library_error_exits_3(tmp_path, capsys):
    # p = q = 2 leaves the Nehari scaling projection without a root
    cfg = write_config(tmp_path, "cascade.json",
                       {**CASCADE, "candidate": {"kind": "nehari"}})
    assert main(["cascade", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(
        "vexlab: scaling projection needs q- > p+")


SPACES = {
    "domain": UNIT_INTERVAL,
    "h": 0.05,
    "p": {"kind": "affine", "a": 2.0, "b": [0.25]},
    "q": {"kind": "constant", "value": 3.0},
    "trials": 5,
    "pairs": 50,
}


def test_spaces_check_scenario(tmp_path):
    cfg = write_config(tmp_path, "spaces.json", SPACES)
    out = tmp_path / "out"
    assert main(["spaces-check", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "spaces_check.json")
    assert rep["all_passed"] is True
    assert rep["worst_unit_gap"] <= 1e-8
    assert "embedding_gap" not in rep  # p_plus >= N = 1 here

    cfg2 = write_config(tmp_path, "spaces3.json", {**SPACES, "N": 3})
    out2 = tmp_path / "out3"
    assert main(["spaces-check", "--config", cfg2, "--out", str(out2)]) == 0
    rep2 = load_report(out2 / "spaces_check.json")
    assert rep2["embedding_gap"] == pytest.approx(6.0 - 3.0, abs=0.1)


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["verdict", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err

    bad_solver = write_config(tmp_path, "bad.json",
                              solve_payload({"grad_toll": 1e-8}))
    assert main(["solve", "--config", bad_solver,
                 "--out", str(tmp_path)]) == 2

    bad_field = write_config(tmp_path, "badfield.json", {
        **solve_payload(), "rhs": {"kind": "wavelet"}})
    assert main(["solve", "--config", bad_field, "--out", str(tmp_path)]) == 2

    non_elliptic = write_config(tmp_path, "nonell.json", {
        "domain": BALL,
        "p": {"kind": "constant", "value": 0.5},
        "q": {"kind": "constant", "value": 7.0},
    })
    assert main(["verdict", "--config", non_elliptic,
                 "--out", str(tmp_path)]) == 2


VERDICT = {"domain": BALL, "p": {"kind": "constant", "value": 2.0},
           "q": {"kind": "constant", "value": 7.0}}
SWEEP = {**VERDICT, "sweep": {"parameter": "q", "values": [6.0, 7.0]}}


def polygon_solve(vertices):
    """A 2D solve payload on the polygon with these vertices."""
    return {**solve_payload(), "domain": {"kind": "polygon", "vertices": vertices},
            "h": 0.5, "p": {"kind": "constant", "value": 2.0},
            "q": {"kind": "constant", "value": 2.5}}


@pytest.mark.parametrize("scenario, payload", [
    ("solve", {**solve_payload(), "rhs": {"kind": "nodal_file"}}),
    ("solve", {**solve_payload(), "h": "abc"}),
    ("solve", solve_payload({"max_iters": "x"})),
    ("solve", {**solve_payload(), "solver": 5}),
    ("solve", [solve_payload()]),
    ("solve", {**solve_payload(), "p": {"kind": "affine", "a": "x", "b": [0.5]}}),
    ("solve", {**solve_payload(), "domain": {"kind": "interval", "a": "x", "b": 1.0}}),
    ("solve", {**solve_payload(), "rhs": {"kind": "product_sin", "amplitude": "x"}}),
    ("verdict", {**VERDICT, "N": "abc"}),
    ("verdict", {**VERDICT, "origin": "abc"}),
    ("sweep", {**VERDICT, "sweep": 5}),
    ("sweep", {**SWEEP, "sweep": {"parameter": "q", "values": [6.0, "a"]}}),
    ("solve", {**solve_payload(), "h": float("nan")}),
    ("solve", {**solve_payload(), "domain": {"kind": "disk", "center": [0, 0],
                                             "radius": float("nan")}}),
    ("solve", {**solve_payload(), "domain": {
        "kind": "polygon", "vertices": [[0, 0], [1, float("nan")], [0, 1]]}}),
    ("solve", {**solve_payload(), "domain": {"kind": "interval", "a": 0.0,
                                             "b": float("inf")}}),
    ("spaces-check", {**SPACES, "quad_degree": 2}),
    ("solve", {**solve_payload(), "hh": 0.02}),
    ("solve", solve_payload({"quad_degree": 2})),
    ("cascade", {**CASCADE, "with_remainder": True}),
    ("solve", {**solve_payload(), "domain": {**UNIT_INTERVAL, "radius": 3}}),
    ("solve", {**solve_payload(), "p": {"kind": "constant", "value": 2.0,
                                        "vlaue": 9}}),
    ("solve", {**solve_payload(), "rhs": {"kind": "constant", "value": 1.0,
                                          "amplitud": 5}}),
    ("cascade", {**CASCADE, "candidate": {"kind": "nehari", "seed": 1}}),
    ("sweep", {**SWEEP, "sweep": {**SWEEP["sweep"], "extra": 1}}),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "epsilon0": inf}}),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "eps_min": nan}}),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"],
                                       "eps_factor": 1 - 1e-9}}),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"],
                                       "n_schedule": [1, 2.5]}}),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "n_schedule": []}}),
    ("solve", {**solve_payload(), "rhs": {"kind": "constant", "value": nan}}),
    ("solve", {**solve_payload(), "p": {"kind": "affine", "a": 2.0,
                                        "b": [0.5, 0.0]}}),
    ("solve", {**solve_payload(), "p": {"kind": "constant", "value": 1.0}}),
    ("solve", {**solve_payload(), "q": {"kind": "constant", "value": nan}}),
    ("cascade", {**CASCADE, "origin": [0.5, 0.5]}),
    ("spaces-check", {**SPACES, "seed": -1}),
    ("spaces-check", {**SPACES, "seed": inf}),
    ("spaces-check", {**SPACES, "trials": 2.5}),
    ("spaces-check", {**SPACES, "seed": 1.5}),
    ("solve", {**solve_payload(), "h": "0.05"}),
    ("solve", {**solve_payload(), "h": True}),
    ("verdict", {**VERDICT, "tol": "1e-3"}),
    ("solve", {**solve_payload(), "domain": {**UNIT_INTERVAL, "a": False}}),
    ("solve", {**solve_payload(), "domain": {**UNIT_INTERVAL, "b": "1"}}),
    ("solve", {**solve_payload(), "q": {"kind": "constant", "value": "2.5"}}),
    ("solve", {**solve_payload(), "rhs": {"kind": "constant", "value": True}}),
    ("solve", {**solve_payload(), "p": 3}),
    ("solve", solve_payload({"n_schedule": [1, 2]})),
    ("solve", solve_payload({"epsilon0": 0.5})),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "epsilon": 1e-3}}),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "seed": 5}}),
    ("solve", solve_payload({"seed": 5})),
    ("solve", {**solve_payload(), "rhs": {"kind": "nodal_file",
                                          "file": "words.txt"}}),
    ("solve", {**solve_payload(), "rhs": {"kind": "nodal_file", "file": 5}}),
    ("solve", {**solve_payload(), "rhs": {"kind": "nodal_file",
                                          "file": "nan.txt"}}),
    ("solve", {**solve_payload(), "p": {"kind": "tabulated",
                                        "file": "nan.txt"}}),
    ("verdict", {**VERDICT, "tol": -1.0}),
    ("sweep", {**SWEEP, "tol": -1.0}),
    ("spaces-check", {**SPACES, "trials": 0}),
    ("spaces-check", {**SPACES, "trials": -3}),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "collapse_tol": 1e3}}),
    ("pohozaev", {**CASCADE, "with_remainder": "false"}),
    ("pohozaev", {**CASCADE, "with_remainder": 1}),
    ("pohozaev", {**CASCADE, "with_remainder": None}),
    ("solve", solve_payload({"grad_tol": 0.0})),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "grad_tol": -1e-8}}),
    ("solve", solve_payload({"max_iters": -1})),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "max_iters": -1}}),
    ("spaces-check", {**SPACES, "pairs": 0}),
    ("spaces-check", {**SPACES, "pairs": -5}),
    ("solve", polygon_solve([[3, 3], [3, 0], [0, 3], [1, 1], [3, 0]])),
    ("solve", polygon_solve([[0, 0], [2, 2], [2, 0], [0, 1]])),
    ("solve", polygon_solve([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [1, 1]])),
    ("solve", polygon_solve([[0, 0], [2, 0], [2, 2], [1, 2], [1, 3], [1, 1],
                             [0, 1]])),
    ("spaces-check", {**SPACES, "seed": 10**30}),
    ("solve", {**solve_payload(), "rhs": 3}),
    ("solve", polygon_solve([[0, 0, 0], [1, 0, 0], [0, 1, 0]])),
    ("solve", {**solve_payload(), "domain": {"kind": "disk", "center": [0, 0, 0],
                                             "radius": 1.0}}),
], ids=["nodal_file_without_file", "h_not_a_number", "max_iters_not_a_number",
        "solver_not_an_object", "config_not_an_object", "exponent_not_a_number",
        "domain_not_a_number", "amplitude_not_a_number", "N_not_a_number",
        "origin_not_a_number", "sweep_not_an_object", "sweep_value_not_a_number",
        "h_nan", "disk_radius_nan", "polygon_vertex_nan", "interval_b_infinity",
        "unknown_key_quad_degree", "unknown_key_typo", "solver_quad_degree",
        "cascade_with_remainder", "domain_stray_key", "exponent_stray_key",
        "field_stray_key", "candidate_stray_key", "sweep_stray_key",
        "epsilon0_infinity", "eps_min_nan", "eps_factor_near_one",
        "n_schedule_fraction", "n_schedule_empty", "field_value_nan",
        "exponent_wrong_dimension", "exponent_not_elliptic", "exponent_nan",
        "origin_wrong_dimension", "seed_negative", "seed_infinity",
        "trials_fraction", "seed_fraction", "h_string", "h_bool", "tol_string",
        "interval_a_bool", "interval_b_string", "exponent_value_string",
        "field_value_bool", "exponent_bare_number", "solve_n_schedule",
        "solve_epsilon0", "cascade_epsilon", "cascade_solver_seed",
        "solve_solver_seed", "nodal_file_text", "nodal_file_name_not_string",
        "nodal_file_nan", "tabulated_nan", "verdict_tol_negative",
        "sweep_tol_negative", "spaces_trials_zero", "spaces_trials_negative",
         "cascade_collapse_tol", "with_remainder_string", "with_remainder_number",
        "with_remainder_null", "solve_grad_tol_zero", "cascade_grad_tol_negative",
        "solve_max_iters_negative", "cascade_max_iters_negative",
        "spaces_pairs_zero", "spaces_pairs_negative", "polygon_self_touching",
        "polygon_bow_tie", "polygon_repeated_vertex", "polygon_spike",
        "seed_out_of_range", "field_not_an_object", "polygon_vertices_3d",
        "disk_center_3d"])
def test_malformed_config_exits_2(tmp_path, capsys, scenario, payload):
    write_bad_nodal_files(tmp_path)
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_polygon_with_overflowing_area_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json",
                       polygon_solve([[0, 0], [1e200, 0], [0, 1e200]]))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error: polygon area inf is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, payload, key", [
    ("verdict", {key: v for key, v in VERDICT.items() if key != "p"}, "p"),
    # every missing key named at once, the second one too
    ("verdict", {key: v for key, v in VERDICT.items() if key not in ("p", "q")},
     "q"),
    ("spaces-check", {**SPACES, "pairs": 0}, "pairs"),
    ("pohozaev", {**CASCADE, "with_remainder": "false"}, "with_remainder"),
    ("solve", solve_payload({"grad_tol": 0.0}), "grad_tol"),
    ("solve", solve_payload({"max_iters": -1}), "max_iters"),
], ids=["verdict_without_p", "verdict_without_p_and_q", "pairs_zero",
        "with_remainder_string", "grad_tol_zero", "max_iters_negative"])
def test_config_error_names_the_key(tmp_path, capsys, scenario, payload, key):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "any" not in err


def test_help_lists_the_scenarios_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "{spaces-check,solve,cascade,pohozaev,verdict,sweep}" in usage


def write_bad_nodal_files(directory):
    """51 values, one per node of solve_payload's mesh, one of them NaN; a
    file of words; and a file of 50 values."""
    (directory / "nan.txt").write_text("2.5\n" * 25 + "nan\n" + "2.5\n" * 25)
    (directory / "words.txt").write_text("two\n" * 51)
    (directory / "short.txt").write_text("2.5\n" * 50)


@pytest.mark.parametrize("key, spec", [
    ("rhs", {"kind": "nodal_file", "file": "words.txt"}),
    ("rhs", {"kind": "nodal_file", "file": "nan.txt"}),
    ("p", {"kind": "tabulated", "file": "nan.txt"}),
    ("rhs", {"kind": "nodal_file", "file": "missing.txt"}),
    ("rhs", {"kind": "nodal_file", "file": "short.txt"}),
], ids=["text", "nan", "tabulated_nan", "missing", "short"])
def test_nodal_file_error_names_the_file(tmp_path, capsys, key, spec):
    write_bad_nodal_files(tmp_path)
    cfg = write_config(tmp_path, "bad.json", {**solve_payload(), key: spec})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and spec["file"] in err
    assert "2.5" not in err and "two" not in err


def file_backed(payload):
    """The payload with p and rhs read from nodal files, and the texts of
    those files: the values of its analytic p and rhs at the mesh nodes."""
    mesh = vx.build_mesh(vx.Domain.from_spec(payload["domain"]), payload["h"])
    values = {"p.txt": vx.exponent_from_spec(payload["p"]).value_at(mesh.nodes),
              "rhs.txt": _build_field(payload["rhs"], mesh, None).values}
    texts = {name: "".join(f"{v!r}\n" for v in vals.tolist())
             for name, vals in values.items()}
    return ({**payload, "p": {"kind": "tabulated", "file": "p.txt"},
             "rhs": {"kind": "nodal_file", "file": "rhs.txt"}}, texts)


def test_file_backed_solve_matches_analytic(tmp_path):
    shipped = Path(__file__).parents[1] / "configs" / "solve_interval.json"
    analytic = json.loads(shipped.read_text())
    payload, texts = file_backed(analytic)
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    energies = []
    for name, cfg in (("analytic", analytic), ("files", payload)):
        path = write_config(tmp_path, f"{name}.json", cfg)
        out = tmp_path / name
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        energies.append(load_report(out / "solve.json")["energy"])
    assert energies[1] == pytest.approx(energies[0], rel=1e-12, abs=0)


def test_unconverged_candidate_exits_3(tmp_path):
    cfg = write_config(tmp_path, "pohozaev.json", {
        "domain": UNIT_INTERVAL,
        "h": 0.05,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0},
        "candidate": {"kind": "nehari"},
        "origin": [0.5],
        "solver": {"max_iters": 0},
    })
    out = tmp_path / "out"
    assert main(["pohozaev", "--config", cfg, "--out", str(out)]) == 3
    assert load_report(out / "pohozaev.json")["candidate_stop"] == "max_iters"


def test_nehari_candidate_stop_reported(tmp_path):
    cfg = write_config(tmp_path, "cascade.json", {
        "domain": UNIT_INTERVAL,
        "h": 0.05,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0},
        "candidate": {"kind": "nehari"},
        "origin": [0.5],
        "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.125,
                   "n_schedule": [4, 8]},
    })
    out = tmp_path / "out"
    assert main(["cascade", "--config", cfg, "--out", str(out)]) == 0
    assert load_report(out / "cascade.json")["candidate_stop"] == "converged"


@pytest.mark.parametrize("scenario", ["cascade", "pohozaev"])
def test_candidate_descent_in_meta(tmp_path, scenario):
    nehari = {"domain": UNIT_INTERVAL, "h": 0.05,
              "p": {"kind": "constant", "value": 2.0},
              "q": {"kind": "constant", "value": 4.0},
              "candidate": {"kind": "nehari"}, "origin": [0.5],
              "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.125,
                         "n_schedule": [4, 8]}}
    cfg = write_config(tmp_path, "cfg.json", nehari)
    reports = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main([scenario, "--config", cfg, "--out", str(out)]) == 0
        data = json.loads((out / f"{scenario}.json").read_text())
        meta = data.pop("meta")
        assert meta.pop("created")
        # max |u| < 4: the n = 8 levels copy the three n = 4 levels
        cascade_meta = ({"newton_fallbacks": 0, "reused_levels": 3}
                        if scenario == "cascade" else {})
        assert meta == {"descent_stop": "tolerance", "descent_iterations": 49,
                        "newton_iterations": 2, **cascade_meta}
        reports.append(data)
    assert reports[0] == reports[1]

    given = dict(nehari, candidate={"kind": "bump", "amplitude": 1.0})
    out = tmp_path / "given"
    assert main([scenario, "--config", write_config(tmp_path, "given.json", given),
                 "--out", str(out)]) == 0
    assert set(json.loads((out / f"{scenario}.json").read_text())["meta"]) \
        == {"created", *cascade_meta}


def test_seed_flag_replaces_the_config_seed(tmp_path):
    # the seed reaches only the Nehari candidate's random start
    def t1(config_seed, *flag):
        cfg = write_config(tmp_path, "pohozaev.json", {
            "domain": UNIT_INTERVAL, "h": 0.05, "seed": config_seed,
            "p": {"kind": "constant", "value": 2.0},
            "q": {"kind": "constant", "value": 4.0},
            "candidate": {"kind": "nehari"}, "origin": [0.5],
        })
        out = tmp_path / "out"
        assert main(["pohozaev", "--config", cfg, "--out", str(out), *flag]) == 0
        return load_report(out / "pohozaev.json")["t1"]

    assert t1(5, "--seed", "7") == t1(7) != t1(5)


def test_config_number_reads_numbers_only():
    assert config_number(3, "x", integer=True) == 3
    value = config_number(np.float64(0.5), "x")
    assert value == 0.5 and type(value) is float
    assert type(config_number(2, "x")) is float
    verts = config_number([(0, 0), (1.5, 0)], "x", ndim=2)
    assert verts.dtype == float and verts.tolist() == [[0.0, 0.0], [1.5, 0.0]]
    assert config_number(np.array([1.0, 2.0]), "x", ndim=1).tolist() == [1.0, 2.0]
    assert config_number([1, 2], "x", integer=True, ndim=1).tolist() == [1, 2]
    for bad, ndim in [(True, 0), (np.bool_(False), 0), ([1, True], 1), ("1", 0),
                      (None, 0), ([], 1), ([[0, 0], [1]], 2), (nan, 0),
                      (inf, 0), ([0.0, -inf], 1), ([1.0], 0), (1.0, 1)]:
        with pytest.raises(vx.ConfigError):
            config_number(bad, "x", ndim=ndim)
    for fraction in (2.5, 2.0, np.float64(3.0)):
        with pytest.raises(vx.ConfigError):
            config_number(fraction, "x", integer=True)


def test_csv_cells_and_json_values_are_plain():
    # numpy 2 reprs np.float64(0.1) with its type; a CSV cell holds the value
    cells = [np.float64(0.1), np.int64(3), np.bool_(True), False, 0.1, "x"]
    assert [_csv_cell(v) for v in cells] == ["0.1", "3", "1", "0", "0.1", "x"]
    # JSON has no inf or nan, so a non-finite number is written as null
    values = {"a": [np.float64(inf), nan, 1.5], "b": np.array([-inf, 2.0])}
    assert _jsonable(values) == {"a": [None, None, 1.5], "b": [None, 2.0]}


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_have_known_keys(path):
    scenario = path.stem.rsplit("_", 1)[0].replace("_", "-")
    cfg, _ = _load_config(str(path), scenario)
    assert cfg


# SHA-256 of every file each shipped config writes: JSON reports without
# their "meta" block, dumped with sorted keys; CSV and text files as bytes.
# The three interval solver configs were re-pinned when the quadrature
# gathers moved to matmul and the Newton step to the Gram-form Hessian and a
# direct gbsv call, after tests/repin_compare.py found every float within
# 1.5e-14 of max(1, |old|) and every count and stop reason equal.  The
# cascade and pohozaev reports were re-pinned again when the Nehari descent
# and l2_project moved to the pattern's band LU (within 2.7e-14 relative,
# every count and stop reason equal; solve_interval, pure Newton, kept its).
# spaces_check.json moved when the log-Holder ball form drew its centers in
# rounds (log_holder_ball_form_max by 3.1e-3 relative, every other float
# equal); sweep.json when its rows lost the "seed" key that nothing read.
CONFIG_DIGESTS = {
    "cascade_interval": {
        "cascade.json":
            "c5428b5aef150fc83510598c8975dbea544ece2cef0542f71559a4f5b49cdd8f",
        "cascade_series.csv":
            "f6818cba43fafbc0ffc6f627e98582ac66cd107f8386fba9f60838e3bd709148",
    },
    "pohozaev_interval": {
        "pohozaev.csv":
            "a46b61ad008d46f813285da4dcae55ba5684481fc313de3d466789243317bee2",
        "pohozaev.json":
            "491e1f27d1f61de6f532af39db469624e6739dd871dd193883a440f482ef9240",
    },
    "solve_interval": {
        "mesh.txt":
            "7159966012ea677f07df523dcbf78286e96be6fd10da0f1f42d073f3e06892e0",
        "solution.txt":
            "73317d4b8b82b52f65c6314a3b5dd6b92fb90ad68df7be42eb4eaeb17b802e68",
        "solve.json":
            "0c41ccbbe304ba5c59871d8c54d39bda73ceb6e299a0f76ae642b6e2056572dd",
    },
    "spaces_check_interval": {
        "spaces_check.json":
            "c63ae2384460c7f6d331ad1a259ea87f9d91da1cf212d05c7e7e734347e97c1a",
    },
    "sweep_ball": {
        "sweep.csv":
            "45d78e959a115ec741b7e703723be03399ba3fdb5d917206f6673d7724ae9026",
        "sweep.json":
            "bc125d4b000a12dff13f70e968e39f7e1a61d76a92f28a15891d10e6423f7abf",
    },
    "verdict_ball": {
        "verdict.json":
            "1abe07f9894c7a4634b26babee1f367abc097df9642b2e3af4e8bddddc9938a5",
    },
}


def report_digest(path):
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        del data["meta"]
        body = json.dumps(data, sort_keys=True).encode()
    else:
        body = path.read_bytes()
    return hashlib.sha256(body).hexdigest()


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_reports_pinned(tmp_path, path):
    scenario = path.stem.rsplit("_", 1)[0].replace("_", "-")
    out = tmp_path / "out"
    assert main([scenario, "--config", str(path), "--out", str(out)]) == 0
    assert {f.name: report_digest(f) for f in sorted(out.iterdir())} \
        == CONFIG_DIGESTS[path.stem]


def test_console_script_installed():
    exe = shutil.which("vexlab")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spaces-check" in proc.stdout


# -- fuzzing: one key of a small valid config replaced per example ----------

FUZZ_BASES = [
    ("solve", {
        "domain": UNIT_INTERVAL, "h": 0.1, "seed": 0,
        "p": {"kind": "affine", "a": 2.0, "b": [0.5]},
        "q": {"kind": "constant", "value": 3.0},
        "rhs": {"kind": "product_sin", "amplitude": 4.0},
        "solver": {"epsilon": 1e-3, "max_iters": 20},
    }),
    ("cascade", {
        "domain": UNIT_INTERVAL, "h": 0.1, "seed": 0,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0},
        "candidate": {"kind": "nehari"}, "origin": [0.5],
        "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.25,
                   "n_schedule": [1, 2], "max_iters": 20},
    }),
    ("pohozaev", {
        "domain": UNIT_INTERVAL, "h": 0.1, "seed": 0,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0},
        "candidate": {"kind": "bump", "amplitude": 2.0}, "origin": [0.5],
        "with_remainder": True,
        "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.25,
                   "n_schedule": [1, 2], "max_iters": 20},
    }),
]
# The solve base with its p and rhs read from files written next to the config.
_FILE_SOLVE, FUZZ_FILES = file_backed(FUZZ_BASES[0][1])
FUZZ_BASES.append(("solve", _FILE_SOLVE))


def _key_paths(node, prefix=()):
    """Paths to every dict entry and list item of a config, nested ones too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


_FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, -1, nan, inf, -inf]),
    st.sampled_from(["", "x", "kind", "nan", "inf", "-1", "1"]))
# No arbitrary magnitudes: no example may mesh finer or run longer than its
# base config.
_FUZZ_VALUES = st.one_of(
    _FUZZ_SCALARS,
    st.lists(_FUZZ_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "stray", "value"]), _FUZZ_SCALARS,
                    max_size=2),
)


@st.composite
def _fuzzed_configs(draw):
    scenario, base = draw(st.sampled_from(FUZZ_BASES))
    cfg = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_key_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(old, dict) and draw(st.booleans()):
        parent[path[-1]] = {**old, "stray": draw(_FUZZ_SCALARS)}
    else:
        parent[path[-1]] = draw(_FUZZ_VALUES)
    return scenario, cfg, old, parent[path[-1]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzzed_configs())
def test_fuzzed_config_exits_cleanly(case):
    scenario, payload, old, new = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FUZZ_FILES.items():
            (Path(tmp) / name).write_text(text)
        cfg = write_config(Path(tmp), "cfg.json", payload)
        code = main([scenario, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    # every number and bool of the base configs is read, and none is coerced
    if (isinstance(old, (int, float)) and not isinstance(old, bool)
            and (new is None or isinstance(new, (bool, str)))):
        assert code == 2
    if isinstance(old, bool) and not isinstance(new, bool):
        assert code == 2
