"""Columnar analysis: ``analyze_block`` equals ``analyze_exact`` row by row."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxprob import (TOL_EXACT, ContextStatistics, CtxprobError, ModelKind, TheoryKind,
                     TransitionMatrix, analyze_exact, exact_statistics, lambda_from_statistics,
                     random_model, report_to_dict)
from ctxprob.calculus import interference_terms
from ctxprob.report import analyze_block

# Probabilities with both signed zeros, both ends and values just outside
# [0, 1] that the tolerance clips.
PROBABILITY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -5e-10, 1.0 + 5e-10]),
    st.floats(0.0, 1.0),
    *[st.floats(0.05, 0.95)] * 4,
)
# Coefficients the outcome is built from: 0 and the band edges at the
# default band, then anything.
TARGET = st.one_of(
    st.sampled_from([0.0, 1e-6, -1e-6, 1.0, -1.0, 1.0 - 1e-6, 1.0 + 1e-6, 0.5, 1.25]),
    st.floats(-3.0, 3.0),
)
# Band half-widths: overlapping bands from 0.5 on, and wider than 1.
EPS = st.one_of(
    st.sampled_from([0.0, 1e-6, 0.05, 0.3, 0.5, 0.6, 1.0, 1.5, 2.5]),
    st.floats(0.0, 0.2),
    st.floats(0.0, 3.0),
)


@st.composite
def rows(draw):
    """One ``(p1, p2, t11, t12, t21, t22, q1, q2)`` row, mostly valid."""
    p1, t11, t21 = draw(PROBABILITY), draw(PROBABILITY), draw(PROBABILITY)
    if draw(st.integers(0, 3)):
        # q1 from a target coefficient, cut to [0, 1]; the classical value
        # when the weight vanishes (0/0)
        classical, weight = interference_terms(abs(p1), abs(1.0 - p1), abs(t11), abs(t21))
        q1 = min(max(classical + weight * draw(TARGET), 0.0), 1.0)
    else:
        q1 = draw(PROBABILITY)
    row = [p1, 1.0 - p1, t11, 1.0 - t11, t21, 1.0 - t21, q1, 1.0 - q1]
    if draw(st.integers(0, 9)) == 0:  # a value or a pair the scalar checks reject
        row[draw(st.integers(0, 7))] += draw(st.sampled_from([2e-9, -0.1, 0.3, math.inf]))
    return row


def statistics(row):
    p1, p2, t11, t12, t21, t22, q1, q2 = row
    return ContextStatistics((p1, p2), TransitionMatrix(((t11, t12), (t21, t22))), (q1, q2))


def bits(values):
    return [value.hex() if isinstance(value, float) else value for value in values]


@given(
    block=st.lists(rows(), min_size=1, max_size=3),
    eps=EPS,
    edge=st.sampled_from([None, "zero", "below-one", "above-one"]),
    tol=st.sampled_from([1e-9, 0.0, 1e-3]),
)
# Each branch of the phase rule: |lambda| = 1.1 inside a band above 1 (a
# boundary verdict), |lambda| == 1, a negative hyperbolic coefficient, and one
# coefficient of each kind.
@example(block=[[0.5, 0.5, 0.8, 0.2, 0.2, 0.8, 0.94, 0.06]], eps=1.5, edge=None, tol=1e-9)
@example(block=[[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 0.0]], eps=0.0, edge=None, tol=1e-9)
@example(block=[[0.5, 0.5, 0.8, 0.2, 0.2, 0.8, 0.0, 1.0]], eps=1e-6, edge=None, tol=1e-9)
@example(block=[[0.5, 0.5, 0.9, 0.1, 0.5, 0.5, 0.432, 0.568]], eps=1e-6, edge=None, tol=1e-9)
@settings(max_examples=600, deadline=None)
def test_rows_equal_analyze_exact(block, eps, edge, tol):
    # ``tol`` reaches only the reference's balance verdict, which no row holds.
    expected, error = [], None
    for row in block:
        try:
            report = analyze_exact(statistics(row), eps_class=eps, tol=tol)
        except CtxprobError as exc:
            error = exc
            break
        if edge is not None and not expected:
            # Put the band edge on row 0's first coefficient, then analyze again.
            magnitude = abs(report.lambda_point.lambda1)
            eps = {"zero": magnitude, "below-one": 1.0 - magnitude,
                   "above-one": magnitude - 1.0}[edge]
            eps = max(eps, 0.0)
            report = analyze_exact(statistics(row), eps_class=eps, tol=tol)
        expected.append(
            [
                *report.stats.prior, *report.stats.transition.rows[0],
                *report.stats.transition.rows[1], *report.stats.outcome,
                *report.lambda_point, *(phase.theta for phase in report.phases),
                report.theory_class.kind.value, max(report.balance.column_residuals),
            ]
        )

    def statistics_of(i):
        return statistics(block[i])

    if error is not None:
        with pytest.raises(type(error)) as raised:
            analyze_block(np.array(block), statistics_of, eps_class=eps)
        assert str(raised.value) == str(error)
    else:
        got = analyze_block(np.array(block), statistics_of, eps_class=eps)
        assert [bits(column.tolist()) for column in got] == [bits(c) for c in zip(*expected)]


@given(row=rows(), eps=st.floats(0.0, 3.0))
# |lambda| = 1.1 and 1.05 at eps 2.5: a band that reaches 1 once read them as classical.
@example(row=[0.5, 0.5, 0.8, 0.2, 0.2, 0.8, 0.94, 0.06], eps=2.5)
@example(row=[0.1, 0.9, 0.05, 0.95, 0.85, 0.15, 0.53, 0.47], eps=2.5)
@settings(max_examples=600, deadline=None)
def test_a_liftable_verdict_lies_in_the_unit_interval_and_lifts_exactly(row, eps):
    try:
        report = analyze_exact(statistics(row), eps_class=eps)
    except CtxprobError:
        return
    if report.theory_class.kind not in (TheoryKind.CLASSICAL, TheoryKind.TRIGONOMETRIC):
        assert report.amplitudes is None
        return
    assert max(map(abs, report.lambda_point)) <= 1.0
    norm = sum(abs(z) ** 2 for z in report.amplitudes.psi)
    assert abs(norm - 1.0) <= TOL_EXACT
    assert report.born_residual <= TOL_EXACT


@pytest.mark.parametrize(
    ("eps", "message"),
    [(-1.0, "eps_class must be >= 0"), (math.nan, "eps_class must be finite")],
)
def test_flags_are_checked_as_analyze_exact_checks_them(eps, message):
    row = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.75, 0.25]
    with pytest.raises(CtxprobError, match=message):
        analyze_block(np.array([row, row]), lambda i: statistics(row), eps_class=eps)


def test_first_failing_row_raises_before_later_rows():
    good = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.75, 0.25]
    degenerate = [1.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.75, 0.25]
    unnormalized = [0.5, 0.6, 0.5, 0.5, 0.5, 0.5, 0.75, 0.25]
    block = [good, degenerate, unnormalized]
    with pytest.raises(CtxprobError, match="component 1: interference weight 0.0 vanishes"):
        analyze_block(np.array(block), lambda i: statistics(block[i]))


def test_a_row_the_array_checks_reject_must_fail_its_scalar_check():
    good = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.75, 0.25]
    unnormalized = [0.5, 0.6, 0.5, 0.5, 0.5, 0.5, 0.75, 0.25]
    # statistics_of disagrees with the block, so row 1 passes its replay
    with pytest.raises(RuntimeError, match="^row 1 fails an array check but no scalar check$"):
        analyze_block(np.array([good, unnormalized]), lambda i: statistics(good))


def test_a_report_without_amplitudes_has_no_born_residual():
    hyperbolic = ContextStatistics(
        (0.5, 0.5), TransitionMatrix(((0.8, 0.2), (0.2, 0.8))), (1.0, 0.0)
    )
    report = analyze_exact(hyperbolic)
    assert report.amplitudes is None and report.born_residual is None


@pytest.mark.parametrize("transition, outcome, lifted", [
    (((0.5, 0.5), (0.5, 0.5)), (0.75, 0.25), True),
    (((0.8, 0.2), (0.2, 0.8)), (1.0, 0.0), False),
], ids=["e1", "e3"])
def test_the_report_holds_every_value_its_payload_writes(transition, outcome, lifted):
    report = analyze_exact(ContextStatistics((0.5, 0.5), TransitionMatrix(transition), outcome))
    fields, payload = vars(report), report_to_dict(report)
    assert fields["normalization_residual"] == payload["normalization_residual"]
    assert fields["born_residual"] == payload.get("born_residual")
    psi = report.amplitudes and [[z.real, z.imag] for z in report.amplitudes.psi]
    assert psi == payload.get("amplitudes", {}).get("psi")
    assert (psi is not None) is lifted


# ---------------------------------------------------------------------------
# Results that do not depend on outcome labels
# ---------------------------------------------------------------------------


def relabelled(stats, a, b):
    """``stats`` with the two outcomes of A swapped if ``a``, and those of B if ``b``."""
    prior, rows, outcome = stats.prior, stats.transition.rows, stats.outcome
    if b:
        prior, rows = prior[::-1], rows[::-1]
    if a:
        rows, outcome = tuple(row[::-1] for row in rows), outcome[::-1]
    return ContextStatistics(prior, TransitionMatrix(rows), outcome)


def scalar_analysis(stats, eps):
    """Coefficients, phases and verdict of ``analyze_exact``, floats as their bits."""
    report = analyze_exact(stats, eps_class=eps)
    verdict = report.theory_class
    return (
        bits(report.lambda_point),
        [(phase.kind, phase.theta.hex(), phase.sign) for phase in report.phases],
        (verdict.kind, verdict.hyper_component, verdict.boundary_components),
    )


def swapped_components(analysis):
    """What a scalar analysis becomes when the components 1 and 2 trade places."""
    lam, phases, (kind, hyper, boundary) = analysis
    hyper = None if hyper is None else 3 - hyper
    return lam[::-1], phases[::-1], (kind, hyper, tuple(sorted(3 - j for j in boundary)))


def block_row(stats):
    return [*stats.prior, *stats.transition.rows[0], *stats.transition.rows[1], *stats.outcome]


@pytest.mark.parametrize("a, b", [(False, True), (True, False), (True, True)],
                         ids=["relabel-b", "relabel-a", "relabel-both"])
@given(
    kind=st.sampled_from(list(ModelKind)),
    seed=st.integers(0, 2**32 - 1),
    edge=st.sampled_from([None, "zero", "below-one", "above-one"]),
)
@settings(max_examples=400, deadline=None)
def test_relabelled_outcomes_give_the_same_analysis_bit_for_bit(a, b, kind, seed, edge):
    """Which outcome of A or B is called the first is a naming choice.

    Relabelling B keeps the coefficients, phases and verdict bit for bit; relabelling
    A swaps them, with the component numbers of the verdict swapped too.  Both hold for
    ``analyze_exact`` and for the rows of ``analyze_block``.  The CIs of a counts report
    are out of scope: each bootstrap stream belongs to an experiment, so a relabelled
    counts file draws other replicates, and its CIs differ by sampling noise.
    """
    stats = exact_statistics(random_model(kind, seed))
    magnitude = abs(lambda_from_statistics(stats).lambda1)
    # A band edge on the first coefficient, where one bit decides the verdict.
    eps = max(0.0, {None: 1e-6, "zero": magnitude, "below-one": 1.0 - magnitude,
                    "above-one": magnitude - 1.0}[edge])
    other = relabelled(stats, a, b)
    expected = scalar_analysis(stats, eps)
    if a:
        expected = swapped_components(expected)
    assert scalar_analysis(other, eps) == expected

    block = np.array([block_row(stats), block_row(other)])
    columns = analyze_block(block, lambda i: (stats, other)[i], eps_class=eps)
    original, got = (bits(column[8:]) for column in zip(*(c.tolist() for c in columns)))
    if a:  # lambda1, lambda2, theta1, theta2, kind, residual
        original = [*original[1::-1], *original[3:1:-1], *original[4:]]
    assert got == original
