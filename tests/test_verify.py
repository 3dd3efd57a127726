import random
from fractions import Fraction

import pytest
import sympy
from mpmath import mpf
from hypothesis import given, settings, strategies as st

from openwaring import (AppComplex, Decomposition, ForbiddenSet, Form,
                        InvalidInputError, LinearForm, VerifyReport,
                        catalecticant_lower_bound, check_decomposition,
                        decompose, is_forbidden, parse_form)
from openwaring.numerics import tolerance
from conftest import (assert_same_verdict, random_form, random_hyperplanes,
                      reference_check, reference_is_forbidden)


class TestCheckDecomposition:
    def test_exact_pass(self):
        f = parse_form("x0^3 + x1^3", 2)
        dec = Decomposition(3, 2, ((Fraction(1), LinearForm([1, 0])),
                                   (Fraction(1), LinearForm([0, 1]))), True)
        rep = check_decomposition(f, dec)
        assert rep.passed and rep.residual == 0 and rep.exact
        assert rep.residual_log2() is None

    def test_missing_term_fails(self):
        f = parse_form("x0^3 + x1^3", 2)
        dec = Decomposition(3, 2, ((Fraction(1), LinearForm([1, 0])),), True)
        rep = check_decomposition(f, dec)
        assert not rep.passed and rep.residual > 0

    def test_tampered_exact_report(self):
        # (x0 - x1)^2 + 3*x1^2 misses f on x1^2 by 1; the 1-norm of f is 6
        f = parse_form("x0^2 - 2*x0*x1 + 3*x1^2", 2)
        dec = Decomposition(2, 2, ((Fraction(1), LinearForm([1, -1])),
                                   (Fraction(3), LinearForm([0, 1]))), True)
        rep = check_decomposition(f, dec)
        assert rep == VerifyReport(Fraction(1, 6), 2, 2, (), True, False, False)
        assert type(rep.residual) is Fraction
        assert rep == reference_check(f, dec)

    def test_residual_ok_is_the_reconstruction_test_alone(self):
        # reconstructs exactly, but with a forbidden term and past the bound
        f = parse_form("x0^2", 2)
        terms = ((Fraction(2), LinearForm([1, 0])),
                 (Fraction(1), LinearForm([0, 1])),
                 (Fraction(-1), LinearForm([0, 1])),
                 (Fraction(-1), LinearForm([1, 0])))
        rep = check_decomposition(f, Decomposition(2, 2, terms, True),
                                  ForbiddenSet.from_text("l1", 2))
        assert rep.residual_ok and rep.residual == 0
        assert rep.forbidden_violations == (0, 3)
        assert rep.term_count > rep.bound_value
        assert not rep.passed
        missing = check_decomposition(f, Decomposition(2, 2, terms[:1], True))
        assert not missing.residual_ok and not missing.passed

    def test_term_permutation_invariance(self):
        f = parse_form("x0^3 + x1^3", 2)
        t1 = (Fraction(1), LinearForm([1, 0]))
        t2 = (Fraction(1), LinearForm([0, 1]))
        a = check_decomposition(f, Decomposition(3, 2, (t1, t2), True))
        b = check_decomposition(f, Decomposition(3, 2, (t2, t1), True))
        assert a.passed and b.passed and a.residual == b.residual

    def test_forbidden_terms_reported(self):
        f = parse_form("x0^3 + x1^3", 2)
        V = ForbiddenSet.from_text("l1", 2)
        dec = Decomposition(3, 2, ((Fraction(1), LinearForm([1, 0])),
                                   (Fraction(1), LinearForm([0, 1]))), True)
        rep = check_decomposition(f, dec, V)
        assert not rep.passed
        assert rep.forbidden_violations == (0,)

    def test_bound_violation_fails(self):
        # a correct but overlong presentation must fail the bound check
        f = parse_form("x0^2", 2)
        terms = ((Fraction(1, 2), LinearForm([1, 0])),
                 (Fraction(1, 2), LinearForm([1, 0])))
        rep = check_decomposition(f, Decomposition(2, 2, terms, True))
        assert rep.term_count == 2 and rep.bound_value == 1
        assert not rep.passed

    def test_shape_mismatch(self):
        f = parse_form("x0^2", 2)
        dec = Decomposition(3, 2, ((Fraction(1), LinearForm([1, 0])),), True)
        with pytest.raises(InvalidInputError):
            check_decomposition(f, dec)

    def test_pipeline_output_passes(self, rng):
        for trial in range(6):
            n = rng.randint(2, 3)
            d = rng.randint(2, 3)
            f = random_form(rng, n, d)
            if f.is_zero():
                continue
            V = random_hyperplanes(rng, n, 1)
            dec = decompose(f, V, seed=trial)
            assert check_decomposition(f, dec, V).passed


def expanded(terms, n, d):
    """sum c * (sum_i a_i x_i)^d as a Form, expanded by sympy."""
    xs = sympy.symbols(f"x0:{n}")
    expr = sympy.Integer(0)
    for c, coords in terms:
        l = sum(sympy.Rational(a.numerator, a.denominator) * x
                for a, x in zip(coords, xs))
        expr += sympy.Rational(c.numerator, c.denominator) * l ** d
    poly = sympy.Poly(sympy.expand(expr), *xs)
    return Form(n, d, {tuple(int(e) for e in expo):
                       Fraction(int(sympy.numer(v)), int(sympy.denom(v)))
                       for expo, v in poly.terms() if v != 0})


def exact_decomposition(terms, n, d):
    return Decomposition(d, n, tuple((c, LinearForm(coords))
                                     for c, coords in terms), True)


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@st.composite
def exact_terms(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    terms = draw(st.lists(
        st.tuples(RATIONALS.filter(bool),
                  st.lists(RATIONALS, min_size=n, max_size=n).filter(any)),
        min_size=1, max_size=3))
    return n, d, terms


class TestMonomialTreeCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), RATIONALS.filter(bool),
           st.data())
    def test_one_power_equals_the_sympy_expansion(self, n, d, c, data):
        coords = data.draw(st.lists(RATIONALS, min_size=n, max_size=n)
                           .filter(any))
        f = expanded([(c, coords)], n, d)
        rep = check_decomposition(f, exact_decomposition([(c, coords)], n, d))
        assert rep.exact and rep.residual_ok
        assert type(rep.residual) is Fraction and rep.residual == 0

    @settings(max_examples=60, deadline=None)
    @given(exact_terms(), st.data())
    def test_a_perturbed_or_dropped_term_fails(self, case, data):
        n, d, terms = case
        f = expanded(terms, n, d)
        if f.is_zero():
            return
        assert check_decomposition(f, exact_decomposition(terms, n, d)).residual_ok
        k = data.draw(st.integers(0, len(terms) - 1))
        delta = data.draw(RATIONALS.filter(bool))
        perturbed = list(terms)
        perturbed[k] = (terms[k][0] + delta, terms[k][1])
        dropped = terms[:k] + terms[k + 1:]
        for bad in (perturbed, dropped):
            rep = check_decomposition(f, exact_decomposition(bad, n, d))
            assert rep.residual > 0
            assert not rep.residual_ok and not rep.passed

    @pytest.mark.parametrize("bits", [64, 256, 1088])
    def test_agrees_with_the_reference_certificate(self, bits):
        # exact, approximate and mixed terms, passing and failing, against
        # the repeated-multiplication certificate it replaced
        rng = random.Random(bits)
        for _ in range(40):
            n, d = rng.randint(1, 4), rng.randint(1, 5)
            terms = [(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)),
                      [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(n)]) for _ in range(rng.randint(1, 3))]
            terms = [(c, a) for c, a in terms if any(a)]
            if not terms:
                continue
            f = expanded(terms, n, d)
            if f.is_zero():
                continue
            kind = rng.choice(["exact", "approx", "mixed", "flagged", "wrong"])
            use = list(terms)
            if kind == "wrong":
                use[0] = (use[0][0] + 1, use[0][1])
            dec_terms = []
            for i, (c, a) in enumerate(use):
                if kind == "approx" or (kind == "mixed" and i == 0):
                    c = AppComplex(c, 0, bits)
                    a = [AppComplex(x, 0, bits) if x else x for x in a]
                dec_terms.append((c, LinearForm(a)))
            dec = Decomposition(d, n, tuple(dec_terms), kind != "flagged")
            V = random_hyperplanes(rng, n, rng.randint(0, 1))
            rep = check_decomposition(f, dec, V, precision_bits=bits)
            assert_same_verdict(rep, reference_check(f, dec, V, bits), bits)
            assert rep.residual_ok == (kind != "wrong")

    def test_approximate_residual_is_carried_at_the_working_precision(self):
        # 1/3 is rounded at 256 bits, so the term misses f = x0/3 + x1 by
        # about 2^-258 of the norm; the residual must see that error, not a
        # cancellation at the terms' own precision
        f = parse_form("1/3*x0 + x1", 2)
        dec = Decomposition(1, 2, ((Fraction(1), LinearForm(
            [AppComplex(Fraction(1, 3), 0, 256), Fraction(1)])),), False)
        rep = check_decomposition(f, dec, precision_bits=256)
        assert rep.residual_ok and not rep.exact
        assert 0 < rep.residual < mpf(2) ** -250

    def test_wrong_number_of_variables_rejected(self):
        f = parse_form("x0^2 + x1^2", 2)
        dec = Decomposition(2, 2, ((Fraction(1), LinearForm([1, 0, 0])),), True)
        with pytest.raises(InvalidInputError):
            check_decomposition(f, dec)


class TestIsForbidden:
    @pytest.mark.parametrize("bits", [64, 256, 1088])
    @pytest.mark.parametrize("kind", ["exact", "approximate", "mixed"])
    def test_matches_the_reference(self, kind, bits):
        # the scale of l is built only once a constraint value is inexact
        rng = random.Random(f"{kind}/{bits}")

        def scalar(x):
            if kind == "approximate" or (kind == "mixed" and rng.random() < 0.5):
                return AppComplex(x, 0, bits)
            return x

        flagged = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            constraints = []
            for _ in range(rng.randint(0, 3)):
                g = random_form(rng, n, rng.randint(1, 3), -3, 3)
                constraints.append(Form(n, g.degree, {
                    e: scalar(c) for e, c in g.coeffs.items()}))
            V = ForbiddenSet(n, constraints)
            coords = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                      for _ in range(n)]
            if not any(coords):
                coords[0] = Fraction(1)
            l = LinearForm([scalar(x) for x in coords])
            for tol in (None, tolerance(bits)):
                want = reference_is_forbidden(l, V, tol)
                assert is_forbidden(l, V, tol) == want
                flagged += want
        assert flagged


class TestLowerBound:
    def test_two_cubes(self):
        assert catalecticant_lower_bound(parse_form("x0^3 + x1^3", 2)) == 2

    def test_rank_five_cubic_gap(self):
        # flattening rank 3 while the true rank is 5: the gap is expected
        assert catalecticant_lower_bound(parse_form("x0*x1^2 + x1*x2^2", 3)) == 3

    def test_binary_monomial(self):
        for d in range(3, 8):
            f = Form(2, d, {(d - 1, 1): Fraction(1)})
            assert catalecticant_lower_bound(f) == 2

    def test_never_exceeds_achieved_count(self, rng):
        for trial in range(8):
            n = rng.randint(2, 3)
            d = rng.randint(2, 4)
            f = random_form(rng, n, d)
            if f.is_zero():
                continue
            dec = decompose(f, seed=trial)
            assert catalecticant_lower_bound(f) <= dec.term_count

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            catalecticant_lower_bound(Form(2, 2, {}))
