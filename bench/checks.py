"""Output checks that decide whether a timed operation succeeded.

Every number on the exact path is compared with the benchmark's own
evaluation of the inversion formula

    lambda_j = (q_j - p1*t1j - p2*t2j) / (2*sqrt(p1*p2*t1j*t2j))

to 1e-12 (relative above magnitude one).  On counts input the point estimate
is recomputed from the tallies, each confidence interval must contain its
point estimate and ``failed_replicates`` may not exceed ``replicates``.
Verdicts on sampled data are deliberately not graded: they are statistical
and expected to change.  Checks read only the keys they need, so added report
fields do not count as failures.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

TOL = 1e-12
TOL_BORN = 1e-9
EPS_CLASS = 1e-6  # the CLI's default classification band on exact input


def close(actual, expected, tol: float = TOL) -> bool:
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def invert(prior, rows, outcome):
    """Interference coefficients, or None when a weight vanishes against a deviation."""
    p1, p2 = prior
    values = []
    for j in range(2):
        denominator = 2.0 * math.sqrt(p1 * p2 * rows[0][j] * rows[1][j])
        numerator = outcome[j] - (p1 * rows[0][j] + p2 * rows[1][j])
        if denominator <= TOL:
            if abs(numerator) > TOL:
                return None
            values.append(0.0)
        else:
            values.append(numerator / denominator)
    return values


def classify(lam, eps: float = EPS_CLASS) -> str:
    magnitudes = [abs(x) for x in lam]
    if max(magnitudes) <= eps:
        return "classical"
    below = [m <= 1.0 - eps for m in magnitudes]
    above = [m >= 1.0 + eps for m in magnitudes]
    if all(below):
        return "trigonometric"
    if all(above):
        return "hyperbolic"
    if (below[0] and above[1]) or (below[1] and above[0]):
        return "hyper-trigonometric"
    return "boundary"


def liftable(lam) -> bool:
    return classify(lam) in ("classical", "trigonometric")


def frequencies(counts: dict):
    """(prior, rows, outcome) relative frequencies of a counts payload."""
    nf = counts["n_filtration"]
    prior = (counts["b_counts"][0] / nf, counts["b_counts"][1] / nf)
    rows = tuple(
        (f["a_counts"][0] / f["n"], f["a_counts"][1] / f["n"]) for f in counts["filtered"]
    )
    nc = counts["n_context"]
    outcome = (counts["a_counts"][0] / nc, counts["a_counts"][1] / nc)
    return prior, rows, outcome


def residuals(rows):
    row = [abs(rows[0][0] + rows[0][1] - 1.0), abs(rows[1][0] + rows[1][1] - 1.0)]
    col = [abs(rows[0][0] + rows[1][0] - 1.0), abs(rows[0][1] + rows[1][1] - 1.0)]
    return row, col


def _pairs(problems, label, actual, expected, tol=TOL):
    if len(actual) != len(expected) or not all(
        close(a, e, tol) for a, e in zip(actual, expected)
    ):
        problems.append(f"{label} {actual} != recomputed {expected}")


def _balance(problems, payload, rows, graded: bool):
    row, col = residuals(rows)
    _pairs(problems, "row_residuals", payload["row_residuals"], row)
    _pairs(problems, "column_residuals", payload["column_residuals"], col)
    if graded:
        tol = payload["tolerance"]
        stochastic = max(row) <= tol
        if payload["is_stochastic"] != stochastic:
            problems.append("is_stochastic disagrees with the residuals")
        if payload["is_double_stochastic"] != (stochastic and max(col) <= tol):
            problems.append("is_double_stochastic disagrees with the residuals")


def _phase_coefficient(phase) -> float:
    if phase["kind"] == "trigonometric":
        return math.cos(phase["theta"])
    return phase.get("sign", 1) * math.cosh(phase["theta"])


def _amplitudes(problems, payload, prior, rows, outcome):
    p1, p2 = prior
    for j, (pair, phase) in enumerate(zip(payload["psi"], payload["phases"])):
        if phase["kind"] != "trigonometric":
            problems.append(f"amplitude phase {j + 1} is not trigonometric")
            continue
        a = math.sqrt(p1 * rows[0][j])
        b = math.sqrt(p2 * rows[1][j])
        expected = (a + b * math.cos(phase["theta"]), b * math.sin(phase["theta"]))
        _pairs(problems, f"psi{j + 1}", pair, list(expected))
        if abs(pair[0] ** 2 + pair[1] ** 2 - outcome[j]) > TOL_BORN:
            problems.append(f"|psi{j + 1}|^2 misses outcome {outcome[j]}")


def _parse(text: str, problems):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_analyze_exact(text: str, stats) -> list[str]:
    problems: list[str] = []
    payload = _parse(text, problems)
    if payload is None:
        return problems
    prior, rows, outcome = stats
    lam = invert(prior, rows, outcome)
    point = payload["lambda"]["point"]
    _pairs(problems, "lambda", point, lam)
    for j, phase in enumerate(payload["phases"]):
        if not close(_phase_coefficient(phase), point[j], 1e-9):
            problems.append(f"phase {j + 1} does not reproduce lambda{j + 1}")
    kind = classify(point)
    if payload["theory_class"]["kind"] != kind:
        problems.append(f"theory_class {payload['theory_class']['kind']} != {kind}")
    _balance(problems, payload["balance"], rows, graded=True)
    if liftable(point):
        if "amplitudes" not in payload:
            problems.append("liftable statistics without amplitudes")
        else:
            _amplitudes(problems, payload["amplitudes"], prior, rows, outcome)
            if payload["born_residual"] > TOL_BORN:
                problems.append(f"born_residual {payload['born_residual']}")
    return problems


def check_analyze_counts(text: str, counts: dict, replicates: int) -> list[str]:
    problems: list[str] = []
    payload = _parse(text, problems)
    if payload is None:
        return problems
    prior, rows, outcome = frequencies(counts)
    lam = payload["lambda"]
    _pairs(problems, "lambda", lam["point"], invert(prior, rows, outcome))
    for j in range(2):
        if not lam["ci_low"][j] <= lam["point"][j] <= lam["ci_high"][j]:
            problems.append(f"CI {j + 1} misses its point estimate")
    if lam["replicates"] != replicates:
        problems.append(f"replicates {lam['replicates']} != {replicates}")
    if not 0 <= lam["failed_replicates"] <= lam["replicates"]:
        problems.append(f"failed_replicates {lam['failed_replicates']} out of range")
    _balance(problems, payload["balance"], rows, graded=False)
    return problems


def check_reconstruct(text: str, stats) -> list[str]:
    problems: list[str] = []
    payload = _parse(text, problems)
    if payload is None:
        return problems
    prior, rows, outcome = stats
    _pairs(problems, "lambda", payload["lambda"], invert(prior, rows, outcome))
    _amplitudes(problems, payload["amplitudes"], prior, rows, outcome)
    if payload["born_residual"] > TOL_BORN:
        problems.append(f"born_residual {payload['born_residual']}")
    return problems


def check_balance(text: str, rows, graded: bool) -> list[str]:
    problems: list[str] = []
    payload = _parse(text, problems)
    if payload is not None:
        _balance(problems, payload, rows, graded)
    return problems


def check_simulate(text: str, n: int, seed: int, family: str) -> list[str]:
    problems: list[str] = []
    payload = _parse(text, problems)
    if payload is None:
        return problems
    counts = payload["counts"]
    sizes = [counts["n_context"], counts["n_filtration"]] + [f["n"] for f in counts["filtered"]]
    tallies = [counts["a_counts"], counts["b_counts"]] + [f["a_counts"] for f in counts["filtered"]]
    if sizes != [n] * 4:
        problems.append(f"ensemble sizes {sizes} != {n}")
    for size, pair in zip(sizes, tallies):
        if min(pair) < 0 or sum(pair) != size:
            problems.append(f"tallies {pair} do not sum to {size}")
    if counts["seed"] != seed:
        problems.append(f"seed {counts['seed']} != {seed}")
    if payload["model"]["family"] != family:
        problems.append(f"model family {payload['model']['family']} != {family}")
    return problems


SWEEP_COLUMNS = [
    "p1", "p2", "p11", "p12", "p21", "p22", "p1a", "p2a",
    "lambda1", "lambda2", "theta1", "theta2", "class", "col_residual_max",
]


def check_sweep(text: str, parameters: list[str], points: int) -> list[str]:
    problems: list[str] = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != parameters + SWEEP_COLUMNS:
        return [f"unexpected header {header}"]
    rows = list(reader)
    if len(rows) != points:
        problems.append(f"{len(rows)} rows != {points}")
    skip = len(parameters)
    for index, row in enumerate(rows):
        v = [float(x) for x in row[skip:skip + 12]]
        prior, trans, outcome = (v[0], v[1]), ((v[2], v[3]), (v[4], v[5])), (v[6], v[7])
        lam = v[8:10]
        expected = invert(prior, trans, outcome)
        row_problems: list[str] = []
        if expected is None:
            row_problems.append("degenerate statistics in a successful sweep")
        else:
            _pairs(row_problems, "lambda", lam, expected)
        for j in range(2):
            m = abs(lam[j])
            theta = math.acos(lam[j]) if m <= 1.0 else math.acosh(m)
            if not close(v[10 + j], theta):
                row_problems.append(f"theta{j + 1} {v[10 + j]} != {theta}")
        if row[skip + 12] != classify(lam):
            row_problems.append(f"class {row[skip + 12]} != {classify(lam)}")
        if not close(float(row[skip + 13]), max(residuals(trans)[1])):
            row_problems.append("col_residual_max != recomputed")
        problems.extend(f"row {index}: {p}" for p in row_problems)
        if len(problems) > 5:
            break
    return problems
