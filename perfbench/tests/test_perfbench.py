"""The benchmark's own checks: its checker rejects corrupted results, each
workload runs on a handful of inputs, and tracing repeats exactly."""

import os
import sys
from fractions import Fraction

import pytest
from mpmath import mpc, mpf, workprec

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import calib  # noqa: E402
import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import import_program  # noqa: E402

ow = import_program()

F = Fraction
# 2(x0 + x1)^3 - (x1 - 2 x2)^3 + 3 x2^3 + (x0 - x1 + x2)^3
TERMS = [(F(2), [F(1), F(1), F(0)]), (F(-1), [F(0), F(1), F(-2)]),
         (F(3), [F(0), F(0), F(1)]), (F(1), [F(1), F(-1), F(1)])]


def form_of(terms, n=3, d=3):
    coeffs = {}
    for c, l in terms:
        for e, v in check.power(l, d, n).items():
            coeffs[e] = coeffs.get(e, 0) + c * v
    return {e: v for e, v in coeffs.items() if v}


FORM = form_of(TERMS)


def approximate(terms, bits=256):
    with workprec(bits + 32):
        conv = lambda q: mpc(mpf(q.numerator) / q.denominator)  # noqa: E731
        return [(conv(c), [conv(x) for x in l]) for c, l in terms]


def test_checker_accepts_a_correct_decomposition():
    assert check.essential_count(FORM, 3) == 3
    assert check.problems(FORM, 3, 3, TERMS) == []
    assert check.problems(FORM, 3, 3, approximate(TERMS)) == []
    assert check.problems(FORM, 3, 3, TERMS, exact_rank=4) == []


def test_checker_rejects_a_perturbed_coefficient():
    bad = [(TERMS[0][0] + F(1, 10**9), TERMS[0][1])] + TERMS[1:]
    assert any("residual" in p for p in check.problems(FORM, 3, 3, bad))
    with workprec(288):
        approx = approximate(TERMS)
        approx[0] = (approx[0][0] * (1 + mpf(2) ** -100), approx[0][1])
    assert any("residual" in p for p in check.problems(FORM, 3, 3, approx))


def test_checker_rejects_a_dropped_term():
    assert any("residual" in p for p in check.problems(FORM, 3, 3, TERMS[1:]))
    assert check.problems(FORM, 3, 3, TERMS[1:], exact_rank=4)


def test_checker_rejects_a_term_on_a_forbidden_hyperplane():
    # l = x0 - x1 + x2 lies on the hyperplane l1 + l2 = 0
    found = check.problems(FORM, 3, 3, TERMS, forbidden=[(0, 1, 1)])
    assert found == ["term 3 lies on forbidden hyperplane (0, 1, 1)"]
    found = check.problems(FORM, 3, 3, approximate(TERMS), forbidden=[(0, 1, 1)])
    assert found == ["term 3 lies on forbidden hyperplane (0, 1, 1)"]
    assert check.problems(FORM, 3, 3, TERMS, forbidden=[(1, 2, 3)]) == []
    # moving term 0 onto the hyperplane l0 = 0 breaks the sum as well
    moved = [(TERMS[0][0], [F(0), F(1), F(0)])] + TERMS[1:]
    found = check.problems(FORM, 3, 3, moved, forbidden=[(1, 0, 0)])
    assert "term 0 lies on forbidden hyperplane (1, 0, 0)" in found
    assert any("residual" in p for p in found)


def test_checker_rejects_an_inexact_result_where_exact_is_required():
    found = check.problems(FORM, 3, 3, approximate(TERMS), exact_rank=4)
    assert found == ["result is not exact"]


def test_checker_rejects_too_many_terms():
    # x0^3 has one essential variable, so the bound is one term
    cube = {(3, 0, 0): F(1)}
    split = [(F(1, 2), [F(1), F(0), F(0)]), (F(1, 2), [F(1), F(0), F(0)])]
    assert check.problems(cube, 3, 3, split) == [
        "2 terms exceed the bound 1 at m=1"]


def test_paper_bound_table():
    assert [check.paper_bound(m, 3) for m in (2, 3, 4, 5)] == [3, 5, 9, 14]
    assert [check.paper_bound(m, 4) for m in (3, 4, 5)] == [9, 18, 32]
    assert check.paper_bound(7, 2) == 7


def test_grammar_round_trip():
    for text, n in workloads.RANK2_FORMS + workloads.ROOTS_FORMS:
        coeffs = workloads.parse(text, n)
        assert ow.parse_form(text, n).coeffs == coeffs
        assert ow.parse_form(workloads.render(coeffs), n).coeffs == coeffs


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        def make(seed, round_no=0):
            return workloads.round_cases(workload, seed, round_no)
        assert make(5) == make(5)
        assert make(5) != make(6) and make(5) != make(5, 1)
        def kinds(cases):
            return [(c.n, c.d, c.precision_bits, c.fault) for c in cases]
        assert kinds(make(5)) == kinds(make(6, 1))


def handful(workload):
    """A few inputs of the workload, including one of each known fault."""
    cases = workloads.round_cases(workload, 11, 0)
    faulty = [c for c in cases if c.fault][:1]
    return [c for c in cases if not c.fault][:3] + faulty


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, tmp_path):
    with calib.Calibrator() as cal:
        for case in handful(workload):
            o = workloads.run_case(ow, case, cal.cpu, str(tmp_path))
            if case.fault:
                assert workloads.FAULTS[case.fault] in str(o.problems)
            else:
                assert o.problems == [], case.label
                assert o.verify[1] >= o.verify[0] >= o.decompose[1]


def traced_counts(cases, workdir):
    with calib.Calibrator() as cal:
        tracer = spans.Tracer(ow, cal.now_ns)
        tracer.install()
        try:
            for case in cases:
                tracer.begin_op()
                workloads.run_case(ow, case, cal.cpu, workdir)
                tracer.end_op()
        finally:
            tracer.uninstall()
    metrics = tracer.metrics([1.0] * len(cases))
    return {k: v for k, v in metrics.items() if k.endswith((".calls", ".yield"))}


def test_traced_runs_repeat_their_call_counts(tmp_path):
    cases = handful("precision")[:2]
    first = traced_counts(cases, str(tmp_path))
    assert first == traced_counts(cases, str(tmp_path))
    assert first["verify.check_decomposition.calls"] == 2
    assert first["cli.calls"] > 0 and first["numerics.univariate_roots.calls"] > 0
    assert ow.decompose.__module__ == "openwaring.decompose"
    assert not hasattr(ow.decompose, "__wrapped__")
