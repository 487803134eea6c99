"""Checks of each operation's output against the reference closed forms.

Every function returns a list of problems; an empty list means the output is
correct.  Nothing here imports sqzmzi.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference as ref

RTOL = 1e-9
CSV_HEADER = "phi,strategy,dphi,dphi_normalized,k_opt"
MAX_PROBLEMS = 5


def close(a: float, b: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


# -- sweep -----------------------------------------------------------------


def parse_sweep(text: str, fmt: str) -> list[tuple]:
    """Rows (phi, strategy, dphi, dphi_normalized, k_opt) of a CSV or JSON sweep."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"bad CSV header {lines[:1]!r}")
        rows = []
        for line in lines[1:]:
            phi, strategy, dphi, norm, k_opt = line.split(",")
            rows.append((float(phi), strategy, float(dphi), float(norm), float(k_opt) if k_opt else None))
        return rows

    def num(v):
        return math.inf if v == "inf" else v

    return [
        (num(r["phi"]), r["strategy"], num(r["dphi"]), num(r["dphi_normalized"]), num(r["k_opt"]))
        for r in json.loads(text)
    ]


def sweep_expectation(p: ref.Params, strategies: tuple[str, ...], points: int, phi_apr: float) -> list[tuple]:
    """Expected rows of a sweep over [0, 2 pi]: (phi, strategy, dphi, normalized,
    k_opt, singular), with the singular phases found by exact arithmetic."""
    step = 2.0 * math.pi / (points - 1)
    root_n = math.sqrt(p.n_photons)
    out = []
    for i in range(points):
        phi = i * step
        over_pi = Fraction(2 * i, points - 1)
        for s in strategies:
            singular = ref.singular_on_grid(s, over_pi, phi_apr)
            d = math.inf if singular else ref.dphi(s, p, phi, phi_apr)
            out.append((phi, s, d, d * root_n, ref.weight(s, phi, phi_apr), singular))
    return out


def check_sweep(rows: list[tuple], expected: list[tuple], n_strategies: int) -> list[str]:
    """Each row within 1e-9 of the reference; inf exactly at the singular phases;
    k_opt = cos phi (optimal) or cos phi_apr (suboptimal); optimal <= every
    other strategy at each phase; points x strategies rows."""
    problems: list[str] = []
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    for row, exp in zip(rows, expected):
        phi, strategy, dphi, norm, k_opt = row
        e_phi, e_strategy, e_dphi, e_norm, e_k, singular = exp
        where = f"phi={e_phi:.6f} {e_strategy}"
        if strategy != e_strategy or not close(phi, e_phi, atol=1e-12):
            problems.append(f"{where}: row is ({phi!r}, {strategy!r})")
        elif singular != math.isinf(dphi) or singular != math.isinf(norm):
            problems.append(f"{where}: dphi {dphi!r}, singular={singular}")
        elif not (close(dphi, e_dphi) and close(norm, e_norm)):
            problems.append(f"{where}: dphi {dphi!r} normalized {norm!r}, reference {e_dphi!r} {e_norm!r}")
        elif (k_opt is None) != (e_k is None) or (e_k is not None and abs(k_opt - e_k) > 1e-11):
            problems.append(f"{where}: k_opt {k_opt!r}, reference {e_k!r}")
        if len(problems) >= MAX_PROBLEMS:
            return problems
    for start in range(0, len(rows), n_strategies):
        at_phi = rows[start : start + n_strategies]
        best = [r[2] for r in at_phi if r[1] == ref.OPTIMAL]
        if best and any(best[0] > r[2] * (1.0 + 1e-12) for r in at_phi):
            problems.append(f"phi={at_phi[0][0]!r}: optimal {best[0]!r} exceeds another strategy")
            break
    return problems


# -- validate ----------------------------------------------------------------


def check_validate(text: str, points: int, threshold: float) -> list[str]:
    """A PASS line, one row per grid point at the grid phases, and every
    per-point and per-moment max |z| at or below the threshold."""
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("PASS"):
        return [f"no PASS line: {lines[-1:]!r}"]
    try:
        split = lines.index("per-moment max |z| over the grid:")
    except ValueError:
        return ["no per-moment table"]
    rows = [line.split() for line in lines[2:split]]
    problems = []
    if len(rows) != points:
        problems.append(f"{len(rows)} grid rows, expected {points}")
    for i, row in enumerate(rows):
        phi = 2.0 * math.pi * i / (points - 1)
        if abs(float(row[0]) - phi) > 1e-6 or float(row[1]) > threshold:
            problems.append(f"grid row {i}: {row!r}")
    worst = {name: float(z) for name, z in (line.split() for line in lines[split + 1 : -1])}
    if set(worst) != set(ref.MOMENTS):
        problems.append(f"moments {sorted(worst)}")
    if any(z > threshold for z in worst.values()):
        problems.append(f"per-moment max |z| above {threshold}: {worst}")
    if rows and worst and abs(max(float(r[1]) for r in rows) - max(worst.values())) > 2e-3:
        problems.append("per-point and per-moment maxima disagree")
    return problems


def check_oracle(closed: dict, empirical: dict, ses: dict, p: ref.Params, phi: float, n: int) -> list[str]:
    """One direct oracle run away from the fringes: closed forms within 1e-9 of
    the reference, empirical moments within 5 reference standard errors, and
    each reported standard error within a factor 2 of the Gaussian one."""
    m = ref.moments(p, phi)
    se = ref.gaussian_standard_errors(m, n)
    problems = []
    for name in ref.MOMENTS:
        if not close(closed[name], m[name]):
            problems.append(f"closed_form {name} {closed[name]!r} vs reference {m[name]!r}")
        if abs(empirical[name] - m[name]) > 5.0 * se[name]:
            problems.append(f"empirical {name} {empirical[name]!r} is beyond 5 SE of {m[name]!r}")
        if not 0.5 * se[name] <= ses[name] <= 2.0 * se[name]:
            problems.append(f"standard error {name} {ses[name]!r} vs Gaussian {se[name]!r}")
    return problems


# -- design ----------------------------------------------------------------


def check_report(text: str, expected: dict) -> list[str]:
    """Every field of a JSON report within 1e-9 of the reference; implied_eps2
    round-trips to the reference eps^2 within 1e-9 of e^(-2 r1) + eps^2."""
    got = json.loads(text)
    if set(got) != set(expected):
        return [f"report fields {sorted(set(got) ^ set(expected))} differ"]
    problems = []
    for key, want in expected.items():
        if key == "implied_eps2":
            scale = math.exp(-2.0 * expected["r1"]) + expected["eps2"]
            ok = abs(got[key] - expected["eps2"]) <= RTOL * scale
        else:
            ok = close(got[key], want, atol=1e-12)
        if not ok:
            problems.append(f"report {key} {got[key]!r}, reference {want!r}")
    return problems


def check_phase_result(res, strategy: str, p: ref.Params, phi: float, phi_apr: float | None) -> list[str]:
    """dphi, normalized, k_opt and fwhm of one SensitivityResult."""
    d = ref.dphi(strategy, p, phi, phi_apr)
    k = ref.weight(strategy, phi, phi_apr)
    problems = []
    if not (math.isfinite(res.dphi) and close(res.dphi, d) and close(res.normalized, d / ref.snl(p))):
        problems.append(f"{strategy} phi={phi!r}: dphi {res.dphi!r}, reference {d!r}")
    if (res.k_opt is None) != (k is None) or (k is not None and abs(res.k_opt - k) > 1e-12):
        problems.append(f"{strategy} phi={phi!r}: k_opt {res.k_opt!r}, reference {k!r}")
    if strategy in (ref.SINGLE, ref.DIFFERENTIAL) and not close(res.fwhm, ref.fwhm(strategy, p)):
        problems.append(f"{strategy}: fwhm {res.fwhm!r}, reference {ref.fwhm(strategy, p)!r}")
    return problems


def check_required_r2(answer: float | None, mu: float, eta: float, target: float) -> list[str]:
    """None exactly when the reference finds the target unattainable; otherwise
    the answer's eps^2 round-trips to the target."""
    want = ref.required_r2(mu, eta, target)
    if (answer is None) != (want is None):
        return [f"required_r2({mu!r}, {eta!r}, {target!r}) = {answer!r}, reference {want!r}"]
    if answer is None:
        return []
    if answer < 0.0 or abs(ref.eps2_of(mu, eta, answer) - target) > RTOL * max(target, 1e-300):
        return [f"required_r2 {answer!r} gives eps^2 {ref.eps2_of(mu, eta, answer)!r}, target {target!r}"]
    return []


def check_edge(outcome, p: ref.Params, strategy: str, phi: float, phi_apr: float | None, names: tuple[str, ...]) -> list[str]:
    """An edge query returns a finite dphi matching the reference, or raises a
    ParameterError (passed in as the outcome) whose message names the violation."""
    if isinstance(outcome, ValueError):
        text = str(outcome)
        return [] if any(n in text for n in names) else [f"error does not name {names}: {text}"]
    return check_phase_result(outcome, strategy, p, phi, phi_apr)
