"""The command-line front end: artifacts, determinism, exit codes."""

import dataclasses
import json
import shutil
import subprocess
import tempfile
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import vexlab as vx
from vexlab.cli import _load_config, main

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
    assert lines[0] == vx.PohozaevReport.CSV_HEADER
    assert len(lines) == 2


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


@pytest.mark.parametrize("scenario", ["cascade", "pohozaev"])
def test_failed_inner_level_turns_report_red(tmp_path, monkeypatch, scenario):
    # Only the first epsilon level of the first truncation level gets no
    # Newton step; every later level, the last one included, converges.
    solve = vx.solvers.solve_regularized
    calls = []

    def first_level_capped(v, p, q, cfg=None, epsilon=None, z0=None):
        if not calls:
            cfg = dataclasses.replace(cfg, max_iters=0)
        calls.append(epsilon)
        return solve(v, p, q, cfg, epsilon=epsilon, z0=z0)

    monkeypatch.setattr(vx.solvers, "solve_regularized", first_level_capped)
    payload = dict(CASCADE)
    if scenario == "pohozaev":
        payload["with_remainder"] = True
    cfg = write_config(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 3
    assert len(calls) == 6
    rep = load_report(out / f"{scenario}.json")
    assert rep["failed_levels"] == [[1, 0.5]]
    if scenario == "cascade":
        assert rep["converged"] is False


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
    ("solve", solve_payload({"epsilon0": inf})),
    ("solve", solve_payload({"eps_min": nan})),
    ("solve", solve_payload({"eps_factor": 1 - 1e-9})),
    ("solve", solve_payload({"n_schedule": [1, 2.5]})),
    ("cascade", {**CASCADE, "solver": {**CASCADE["solver"], "n_schedule": []}}),
    ("solve", {**solve_payload(), "rhs": {"kind": "constant", "value": nan}}),
    ("solve", {**solve_payload(), "p": {"kind": "affine", "a": 2.0,
                                        "b": [0.5, 0.0]}}),
    ("solve", {**solve_payload(), "p": {"kind": "constant", "value": 1.0}}),
    ("solve", {**solve_payload(), "q": {"kind": "constant", "value": nan}}),
    ("cascade", {**CASCADE, "origin": [0.5, 0.5]}),
    ("spaces-check", {**SPACES, "seed": -1}),
    ("spaces-check", {**SPACES, "seed": inf}),
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
        "origin_wrong_dimension", "seed_negative", "seed_infinity"])
def test_malformed_config_exits_2(tmp_path, capsys, scenario, payload):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


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


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_have_known_keys(path):
    scenario = path.stem.rsplit("_", 1)[0].replace("_", "-")
    cfg, _ = _load_config(str(path), scenario)
    assert cfg


def test_console_script_installed():
    exe = shutil.which("vexlab")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spaces-check" in proc.stdout


# -- fuzzing: one key of a small valid config replaced per example ----------

FUZZ_BASES = {
    "solve": {
        "domain": UNIT_INTERVAL, "h": 0.1, "seed": 0,
        "p": {"kind": "affine", "a": 2.0, "b": [0.5]},
        "q": {"kind": "constant", "value": 3.0},
        "rhs": {"kind": "product_sin", "amplitude": 4.0},
        "solver": {"epsilon": 1e-3, "max_iters": 20},
    },
    "cascade": {
        "domain": UNIT_INTERVAL, "h": 0.1, "seed": 0,
        "p": {"kind": "constant", "value": 2.0},
        "q": {"kind": "constant", "value": 4.0},
        "candidate": {"kind": "nehari"}, "origin": [0.5],
        "solver": {"epsilon0": 0.5, "eps_factor": 0.5, "eps_min": 0.25,
                   "n_schedule": [1, 2], "max_iters": 20},
    },
}


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
    scenario = draw(st.sampled_from(sorted(FUZZ_BASES)))
    cfg = json.loads(json.dumps(FUZZ_BASES[scenario]))
    path = draw(st.sampled_from(list(_key_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if isinstance(old, dict) and draw(st.booleans()):
        parent[path[-1]] = {**old, "stray": draw(_FUZZ_SCALARS)}
    else:
        parent[path[-1]] = draw(_FUZZ_VALUES)
    return scenario, cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzzed_configs())
def test_fuzzed_config_exits_cleanly(case):
    scenario, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "cfg.json", payload)
        code = main([scenario, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
