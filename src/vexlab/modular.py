"""Modulars, Luxemburg norms, and the norm-modular relation checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteIntegrand
from .exponents import conjugate
from .fem import field_on_quadrature, gradient

_UNIT_BAND = 1e-12
# Pass tolerances of verify_modular_relations and of holder_check's slack.
_RELATIONS_TOL = 1e-8
_HOLDER_TOL = 1e-9
_EPS = np.finfo(float).eps


@dataclass
class ModularResult:
    value: float


@dataclass
class ModularRelationsReport:
    """Norm-modular consistency for one field.

    relation is "zero", "unit", "above" (norm > 1) or "below"; the slacks
    are the sandwich inequalities' margins (nonnegative when they hold) and
    unit_gap is |modular(u / norm) - 1|.
    """

    norm: float
    modular_value: float
    p_minus: float
    p_plus: float
    relation: str
    lower_slack: float
    upper_slack: float
    unit_gap: float
    sign_consistent: bool
    passed: bool


@dataclass
class HolderReport:
    lhs: float
    rhs: float
    constant: float
    norm_u: float
    norm_v: float
    slack: float
    passed: bool


def _samples(u, p):
    """|u|, p and the weights at the cell quadrature points."""
    w = u.mesh.quadrature()[1]
    vals = np.abs(field_on_quadrature(u))
    return vals, p.eval_on_quadrature(u.mesh), w


def _gradient_samples(u, p):
    """|grad u|, p and the weights at the cell quadrature points."""
    w = u.mesh.quadrature()[1]
    gmag = np.broadcast_to(np.linalg.norm(gradient(u), axis=1)[:, None], w.shape)
    return gmag, p.eval_on_quadrature(u.mesh), w


def modular(u, p):
    """rho_p(u) = integral of |u(x)|^p(x)."""
    vals, pq, w = _samples(u, p)
    return ModularResult(float(np.sum(w * vals**pq)))


def gradient_modular(u, p):
    """rho_p(grad u) = integral of |grad u(x)|^p(x)."""
    gmag, pq, w = _gradient_samples(u, p)
    return ModularResult(float(np.sum(w * gmag**pq)))


def _log_sum_exp(l, e, s):
    """log sum exp(l + e s), its first two derivatives in s (the weighted mean
    and variance of e) and its roundoff scale |max| + log(sum); no BLAS dot."""
    x = e * s  # one array, worked in place: l + e s, exp(x - max), times e
    x += l
    m = x.max()
    np.exp(np.subtract(x, m, out=x), out=x)
    tot = float(x.sum())
    r = float(np.log(tot))
    d1 = float(np.multiply(x, e, out=x).sum()) / tot
    d2 = float(np.multiply(x, e, out=x).sum()) / tot - d1 * d1
    return float(m) + r, d1, d2, abs(float(m)) + r


def _balance_root(la, pa, lb, qb):
    """The s solving log sum exp(la + pa s) = log sum exp(lb + qb s).

    Requires max pa < min qb.  The difference g of the two sides then has
    slope at most -gap, gap = min qb - max pa, so it decreases strictly and
    its root r lies within |g(0)| / gap of 0.  Halley steps (Newton's when
    |g g''| > g'^2) are kept inside that bracket, padded to twice the bound;
    a step leaving it bisects it.  As g'' and g''' are differences of the
    weighted variances and third central moments of pa and qb, with ranges
    da and db, |g''| <= m2 = max(da, db)^2 / 4 and |g'''| <= m3 = (da^3 +
    db^3) / 4.  By Taylor's theorem Halley's step from s = r + e lands on r
    + e^3 (g''^2/2 - g' g'''(t)/3 - e g'' g'''(t)/6) / (2 g'^2 - g g''), t
    between s and r, and |e| <= |g| / max(gap, |g'| - m2 |g| / gap).  Once
    that bound or the step is below g's roundoff over |g'|, s + step is the
    root.  For constant exponents the first step is Newton's and exact.
    """
    gap, da, db = float(qb.min() - pa.max()), float(np.ptp(pa)), float(np.ptp(qb))
    m2, m3 = max(da, db) ** 2 / 4.0, (da**3 + db**3) / 4.0
    s, lo, hi = 0.0, None, None
    for _ in range(100):
        A, dA, d2A, rA = _log_sum_exp(la, pa, s)
        B, dB, d2B, rB = _log_sum_exp(lb, qb, s)
        g = A - B
        slope = min(dA - dB, -gap)
        curv = min(max(d2A - d2B, -db * db / 4.0), da * da / 4.0)
        if lo is None:
            lo, hi = -2.0 * abs(g) / gap, 2.0 * abs(g) / gap
        if g > 0.0:
            lo = s
        elif g < 0.0:
            hi = s
        else:
            return s
        halley = abs(g * curv) <= slope * slope
        den = slope - g * curv / (2.0 * slope) if halley else slope
        step = -g / den
        e = abs(g) / max(gap, -slope - m2 * abs(g) / gap)
        tail = e * e * e * (curv * curv / 2.0 - slope * m3 / 3.0
                            + e * abs(curv) * m3 / 6.0) / (2.0 * slope * den)
        tol = 4.0 * _EPS * (rA + rB) / -slope
        if abs(step) <= tol or (halley and tail <= tol):
            return s + step
        s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
    return s


def _luxemburg_from_samples(vals, pq, w):
    """The mu > 0 with sum w (vals / mu)^p = 1, as exp of a balance root."""
    top = float(vals.max(initial=0.0))  # nan or inf if a sample (>= 0) is
    if not np.isfinite(top):
        raise NonFiniteIntegrand("Luxemburg norm of a non-finite field")
    if top == 0.0:
        return 0.0
    with np.errstate(divide="ignore"):
        la = (np.log(w) + pq * np.log(vals)).ravel()
    zero = np.zeros(1)
    return float(np.exp(_balance_root(la, -pq.ravel(), zero, zero)))


def luxemburg_norm(u, p):
    """inf { mu > 0 : rho_p(u / mu) <= 1 }, the root of rho_p(u / mu) = 1."""
    return _luxemburg_from_samples(*_samples(u, p))


def gradient_luxemburg_norm(u, p):
    """Luxemburg norm of |grad u| (the zero-trace Sobolev norm)."""
    return _luxemburg_from_samples(*_gradient_samples(u, p))


def verify_modular_relations(u, p):
    """Check the sign trichotomy and the p-/p+ sandwich inequalities.

    Exponent bounds are taken from the quadrature samples, which is exactly
    the range governing the discrete modular.
    """
    tol = _RELATIONS_TOL
    vals, pq, w = _samples(u, p)
    p_minus, p_plus = float(pq.min()), float(pq.max())

    rho = float(np.sum(w * vals**pq))
    norm = _luxemburg_from_samples(vals, pq, w)

    unit_gap = abs(float(np.sum(w * (vals / norm) ** pq)) - 1.0) if norm else 0.0
    if norm == 0.0:  # every sample is 0, so rho is 0 as well
        relation = "zero"
        lower_slack = upper_slack = 0.0
        sign_consistent = rho == 0.0
    elif norm > 1.0 + _UNIT_BAND:
        relation = "above"
        lower_slack = rho - norm**p_minus
        upper_slack = norm**p_plus - rho
        sign_consistent = rho > 1 - tol
    elif norm < 1.0 - _UNIT_BAND:
        relation = "below"
        lower_slack = rho - norm**p_plus
        upper_slack = norm**p_minus - rho
        sign_consistent = rho < 1 + tol
    else:
        relation = "unit"
        lower_slack = upper_slack = tol - abs(rho - 1.0)
        sign_consistent = abs(rho - 1) <= tol

    passed = bool(
        sign_consistent
        and lower_slack >= -tol
        and upper_slack >= -tol
        and unit_gap <= tol
    )
    return ModularRelationsReport(
        norm=float(norm), modular_value=rho, p_minus=p_minus, p_plus=p_plus,
        relation=relation, lower_slack=float(lower_slack),
        upper_slack=float(upper_slack), unit_gap=float(unit_gap),
        sign_consistent=bool(sign_consistent), passed=passed,
    )


def holder_check(u, v, p):
    """Variable-exponent Holder inequality:

        |int u v| <= (1/p- + 1/p'-) ||u||_p(.) ||v||_p'(.)

    Returns lhs, rhs, and the slack rhs - lhs (nonnegative on pass).
    """
    mesh = u.mesh
    w = mesh.quadrature()[1]
    uq = field_on_quadrature(u)
    vq = field_on_quadrature(v)
    pq = p.eval_on_quadrature(mesh)
    pcq = conjugate(p).eval_on_quadrature(mesh)
    # the norms first: they raise on a non-finite sample, before inf - inf
    norm_u = _luxemburg_from_samples(np.abs(uq), pq, w)
    norm_v = _luxemburg_from_samples(np.abs(vq), pcq, w)
    lhs = abs(float(np.sum(w * uq * vq)))

    constant = 1.0 / float(pq.min()) + 1.0 / float(pcq.min())
    rhs = constant * norm_u * norm_v
    slack = rhs - lhs
    return HolderReport(
        lhs=lhs, rhs=float(rhs), constant=float(constant),
        norm_u=float(norm_u), norm_v=float(norm_v), slack=float(slack),
        passed=bool(slack >= -_HOLDER_TOL * (1.0 + rhs)),
    )
