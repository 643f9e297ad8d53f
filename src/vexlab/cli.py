"""Command-line front end: config-driven scenarios with JSON/CSV artifacts.

Usage: vexlab <scenario> --config cfg.json [--out DIR] [--seed S]

Scenarios: spaces-check, solve, cascade, pohozaev, verdict, sweep.
Exit codes: 0 success, 2 config error (an unknown top-level key included),
3 solver non-convergence (artifacts are still written, with converged =
false or a candidate_stop other than "converged").

Outputs are deterministic for a fixed (config, seed, BLAS thread count); the
timestamp and the counts of a Nehari candidate's descent and of a cascade's
Newton fallbacks and reused levels live in a "meta" block; diff reports modulo it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .domains import Domain, find_star_center, star_shape_report
from .errors import (ConfigError, ExponentTooLarge, NonElliptic, NotStarShaped,
                     VexlabError, check_keys, config_number, read_nodal_file)
from .exponents import (ConstantExponent, embedding_gap, exponent_from_spec,
                        log_holder_estimate)
from .fem import DiscreteField, _bump_profile
from .meshes import build_mesh, write_mesh
from .modular import (gradient_modular, holder_check, luxemburg_norm, modular,
                      verify_modular_relations)
from .pohozaev import nonexistence_verdict, pohozaev_terms, remainder_R, remainder_table
from .solvers import (SolveConfig, cascade, cascade_levels, nehari_candidate,
                      solve_regularized)

# The solver-block keys: solve runs at one fixed epsilon; cascade and
# pohozaev walk the epsilon schedule for each truncation level.
_SOLVE_SOLVER = {"epsilon", "grad_tol", "max_iters"}
_CASCADE_SOLVER = {"epsilon0", "eps_factor", "eps_min", "n_schedule",
                   "grad_tol", "max_iters"}


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _write_json(path, payload, meta):
    """Write payload with schema "1" and a "meta" block: the creation time
    plus the items of meta."""
    body = {str(k): _jsonable(v) for k, v in payload.items()}
    body["schema"] = "1"
    body["meta"] = {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **meta,
    }
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        v = v.item()
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _load_config(path, scenario):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _, allowed, required = SCENARIOS[scenario]
    check_keys(cfg, allowed, f"{scenario} config", required=required)
    return cfg, os.path.dirname(os.path.abspath(path))


def _number(cfg, key, default, integer=False, least=None):
    x = config_number(cfg.get(key, default), f"config key {key!r}", integer)
    if least is not None and x < least:
        raise ConfigError(f"config key {key!r} must be at least {least}, got {x}")
    return x


def _solver_config(cfg, keys, seed):
    """SolveConfig from the "solver" block, limited to keys, and the seed."""
    data = cfg.get("solver", {})
    if isinstance(data, dict):
        check_keys(data, keys, "solver")
        data = {**data, "seed": seed}
    return SolveConfig.from_dict(data)


def _build_field(spec, mesh, base_dir):
    """Nodal field from a JSON spec: zero, constant, bump (boundary-distance
    profile), product_sin (separable sine over the bounding box), or
    nodal_file (one value per node)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("field spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "zero":
        check_keys(spec, ("kind",), "zero field")
        return DiscreteField.zeros(mesh)
    if kind == "constant":
        check_keys(spec, ("kind", "value"), "constant field")
        vals = np.full(mesh.nnodes, _number(spec, "value", 1.0))
        return DiscreteField(mesh, vals)
    if kind == "bump":
        check_keys(spec, ("kind", "amplitude"), "bump field")
        prof = _bump_profile(mesh)
        return DiscreteField(mesh, _number(spec, "amplitude", 1.0) * prof,
                             zero_trace=True)
    if kind == "product_sin":
        check_keys(spec, ("kind", "amplitude"), "product_sin field")
        lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        vals = np.prod(np.sin(np.pi * (mesh.nodes - lo) / span), axis=1)
        return DiscreteField(mesh, _number(spec, "amplitude", 1.0) * vals,
                             zero_trace=True)
    if kind == "nodal_file":
        return DiscreteField(mesh, read_nodal_file(spec, base_dir, mesh.nnodes,
                                                   "nodal_file field"))
    raise ConfigError(f"unknown field kind {kind!r}")


def _exponent(cfg, key, domain, mesh, base_dir):
    """Exponent field from a spec, of the domain's dimension and with
    bounds in (1, inf) (NonElliptic otherwise)."""
    p = exponent_from_spec(cfg[key], mesh, base_dir)
    if p.dim not in (None, domain.dim):
        raise ConfigError(f"exponent {key!r} is {p.dim}-dimensional on a "
                          f"{domain.dim}-dimensional domain")
    p.bounds(domain)
    return p


def _setup(cfg, base_dir, need_mesh=True):
    domain = Domain.from_spec(cfg["domain"])
    mesh = build_mesh(domain, _number(cfg, "h", 0.05)) if need_mesh else None
    p = _exponent(cfg, "p", domain, mesh, base_dir)
    q = _exponent(cfg, "q", domain, mesh, base_dir)
    return domain, mesh, p, q


def _origin_for(cfg, domain):
    if "origin" in cfg:
        origin = config_number(cfg["origin"], "config key 'origin'", ndim=1)
        if origin.shape != (domain.dim,):
            raise ConfigError(f"config key 'origin' must be {domain.dim} "
                              f"numbers, got {cfg['origin']!r}")
        return origin
    return find_star_center(domain)


def _candidate(cfg, mesh, p, q, scfg, base_dir):
    """(field, stop, meta): stop is the Nehari candidate's
    diagnostics["stop"] and meta its descent counts for the report's meta
    block, or None and {} for a field given in the config."""
    spec = cfg["candidate"]
    if isinstance(spec, dict) and spec.get("kind") == "nehari":
        check_keys(spec, ("kind",), "nehari candidate")
        res = nehari_candidate(p, q, mesh, scfg)
        keys = ("descent_stop", "descent_iterations", "newton_iterations")
        return (res.field, res.diagnostics["stop"],
                {key: res.diagnostics[key] for key in keys})
    return _build_field(spec, mesh, base_dir), None, {}


# -- scenarios --------------------------------------------------------------


def _run_spaces_check(cfg, base_dir, out, seed):
    domain, mesh, p, q = _setup(cfg, base_dir)
    rng = np.random.default_rng(seed)
    trials = _number(cfg, "trials", 50, integer=True, least=1)
    pairs = _number(cfg, "pairs", 500, integer=True, least=1)

    rel_passed = 0
    worst_unit_gap = 0.0
    for _ in range(trials):
        u = DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
        rep = verify_modular_relations(u, p)
        rel_passed += int(rep.passed)
        worst_unit_gap = max(worst_unit_gap, rep.unit_gap)

    hold_passed = 0
    worst_slack = np.inf
    for _ in range(trials):
        u = DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
        v = DiscreteField(mesh, rng.standard_normal(mesh.nnodes))
        hrep = holder_check(u, v, p)
        hold_passed += int(hrep.passed)
        worst_slack = min(worst_slack, hrep.slack)

    p_minus, p_plus = p.bounds(domain)
    report = {
        "trials": trials,
        "relations_passed": rel_passed,
        "worst_unit_gap": worst_unit_gap,
        "holder_passed": hold_passed,
        "worst_holder_slack": float(worst_slack),
        "p_minus": p_minus,
        "p_plus": p_plus,
        "all_passed": rel_passed == trials and hold_passed == trials,
    }
    N = _number(cfg, "N", domain.dim)
    if p_plus < N:
        report["embedding_gap"] = embedding_gap(p, q, domain, N)
    lh = log_holder_estimate(p, domain, pairs=pairs, seed=seed)
    report["log_holder_c_hat"] = lh.c_hat
    report["log_holder_ball_form_max"] = lh.ball_form_max
    return report, {}, 0


def _run_solve(cfg, base_dir, out, seed):
    _, mesh, p, q = _setup(cfg, base_dir)
    scfg = _solver_config(cfg, _SOLVE_SOLVER, seed)
    v = _build_field(cfg["rhs"], mesh, base_dir)
    res = solve_regularized(v, p, q, scfg)
    u = res.field
    report = {
        "epsilon": res.diagnostics["epsilon"],
        "energy": res.energy,
        "el_residual": res.el_residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "solution_min": float(u.values.min()),
        "solution_max": float(u.values.max()),
        "solution_luxemburg_q": luxemburg_norm(u, q),
        "energy_history": res.diagnostics["energy_history"],
    }
    np.savetxt(os.path.join(out, "solution.txt"), u.values)
    write_mesh(mesh, os.path.join(out, "mesh.txt"))
    return report, {}, 0 if res.converged else 3


def _series_rows(runs, p, q, origin):
    """One CSV row per epsilon level: n, epsilon, and the gradient modular,
    q-modular and boundary term of the level's field."""
    rows = zip(cascade_levels(runs), remainder_table(runs, p, origin))
    return [(n, eps, gradient_modular(lv.field, p).value, modular(lv.field, q).value,
             term) for lv, (n, eps, term) in rows]


def _cascade_outcome(runs, meta):
    """[n, epsilon] of every epsilon level, of every truncation level, that
    did not converge.  Puts in meta the Newton steps of all levels that fell
    back to -g and the levels copied from an equal truncation level."""
    levels = cascade_levels(runs)
    meta["newton_fallbacks"] = sum(lv.diagnostics["newton_fallbacks"] for lv in levels)
    meta["reused_levels"] = sum("reused_from_n" in lv.diagnostics for lv in levels)
    return [[lv.diagnostics["n"], lv.diagnostics["epsilon"]]
            for lv in levels if not lv.converged]


def _run_cascade(cfg, base_dir, out, seed):
    domain, mesh, p, q = _setup(cfg, base_dir)
    scfg = _solver_config(cfg, _CASCADE_SOLVER, seed)
    origin = _origin_for(cfg, domain)
    u, candidate_stop, meta = _candidate(cfg, mesh, p, q, scfg, base_dir)
    runs = cascade(u, p, q, scfg)
    failed = _cascade_outcome(runs, meta)
    report = {
        "candidate_stop": candidate_stop,
        "origin": origin,
        "n_schedule": list(scfg.n_schedule),
        "gap_grad_modular": [r.diagnostics["gap_grad_modular"] for r in runs],
        "gap_q_modular": [r.diagnostics["gap_q_modular"] for r in runs],
        "converged": not failed,
        "failed_levels": failed,
        "final_energy": runs[-1].energy,
        "final_el_residual": runs[-1].el_residual,
    }
    _write_csv(
        os.path.join(out, "cascade_series.csv"),
        "n,epsilon,grad_modular,q_modular,boundary_term",
        _series_rows(runs, p, q, origin),
    )
    return report, meta, 3 if failed or candidate_stop not in (None, "converged") else 0


def _run_pohozaev(cfg, base_dir, out, seed):
    with_remainder = cfg.get("with_remainder", False)
    if not isinstance(with_remainder, bool):
        raise ConfigError("config key 'with_remainder' must be true or false, "
                          f"got {with_remainder!r}")
    domain, mesh, p, q = _setup(cfg, base_dir)
    scfg = _solver_config(cfg, _CASCADE_SOLVER, seed)
    origin = _origin_for(cfg, domain)
    u, candidate_stop, meta = _candidate(cfg, mesh, p, q, scfg, base_dir)
    report = pohozaev_terms(u, p, q, origin)
    failed = None
    if with_remainder:
        runs = cascade(u, p, q, scfg)
        report = report.with_remainder(remainder_R(runs, p, mesh, origin))
        failed = _cascade_outcome(runs, meta)
    row = asdict(report)
    payload = {"candidate_stop": candidate_stop, **row,
               "star_min_xdotnu": star_shape_report(domain, origin).min_xdotnu}
    if failed is not None:
        payload["failed_levels"] = failed
    del row["origin"]
    _write_csv(os.path.join(out, "pohozaev.csv"), ",".join(row), [row.values()])
    return payload, meta, (3 if failed or candidate_stop not in (None, "converged")
                           else 0)


def _run_verdict(cfg, base_dir, out, seed):
    domain, _, p, q = _setup(cfg, base_dir, need_mesh="h" in cfg)
    N = _number(cfg, "N", domain.dim)
    origin = _origin_for(cfg, domain) if "origin" in cfg else None
    rep = nonexistence_verdict(domain, p, q, N=N, origin=origin,
                               tol=_number(cfg, "tol", 1e-9))
    return asdict(rep), {}, 0


def _run_sweep(cfg, base_dir, out, seed):
    sw = cfg["sweep"] if isinstance(cfg["sweep"], dict) else {}
    check_keys(sw, ("parameter", "values"), "sweep")
    param = sw.get("parameter")
    if param not in ("p", "q"):
        raise ConfigError("sweep needs {'parameter': 'p'|'q', 'values': [..]}")
    values = config_number(sw.get("values"), "sweep values", ndim=1).tolist()
    domain, _, base_p, base_q = _setup(cfg, base_dir, need_mesh=False)
    N = _number(cfg, "N", domain.dim)
    tol = _number(cfg, "tol", 1e-9)

    results = []
    for k, val in enumerate(values):
        p = ConstantExponent(val) if param == "p" else base_p
        q = ConstantExponent(val) if param == "q" else base_q
        d = asdict(nonexistence_verdict(domain, p, q, N=N, tol=tol))
        d["value"] = val
        d["seed"] = seed + k + 1
        results.append(d)

    cols = "value case applies q_minus p_plus p_plus_star coefficient".split()
    _write_csv(os.path.join(out, "sweep.csv"), ",".join(cols),
               [[d[c] for c in cols] for d in results])
    return {"parameter": param, "results": results}, {}, 0


_SETUP = {"seed", "domain", "h", "p", "q"}
_CANDIDATE = _SETUP | {"solver", "candidate", "origin"}
_NEED = ("domain", "p", "q")
# Each scenario's runner, the top-level config keys it reads ("seed" is read
# by all) and those it requires, in the order --help lists them.  A runner
# writes its CSV and text files and returns (report, meta, exit code); main
# writes the report to <scenario>.json.
SCENARIOS = {
    "spaces-check": (_run_spaces_check, _SETUP | {"trials", "N", "pairs"}, _NEED),
    "solve": (_run_solve, _SETUP | {"solver", "rhs"}, _NEED + ("rhs",)),
    "cascade": (_run_cascade, _CANDIDATE, _NEED + ("candidate",)),
    "pohozaev": (_run_pohozaev, _CANDIDATE | {"with_remainder"},
                 _NEED + ("candidate",)),
    "verdict": (_run_verdict, _SETUP | {"N", "origin", "tol"}, _NEED),
    "sweep": (_run_sweep, {"seed", "domain", "p", "q", "sweep", "N", "tol"},
              _NEED + ("sweep",)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vexlab",
        description="Variable-exponent Dirichlet problem laboratory",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg, base_dir = _load_config(args.config, args.scenario)
        config_seed = _number(cfg, "seed", 0, integer=True)
        seed = config_seed if args.seed is None else args.seed
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        os.makedirs(args.out, exist_ok=True)
        report, meta, code = SCENARIOS[args.scenario][0](cfg, base_dir, args.out, seed)
        _write_json(os.path.join(args.out, args.scenario.replace("-", "_") + ".json"),
                    {"scenario": args.scenario, **report}, meta)
        return code
    except (ConfigError, NonElliptic, ExponentTooLarge, NotStarShaped) as exc:
        print(f"vexlab: config error: {exc}", file=sys.stderr)
        return 2
    except VexlabError as exc:
        print(f"vexlab: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
