from fractions import Fraction

import pytest

from openwaring import (Decomposition, ForbiddenSet, Form, InvalidInputError,
                        LinearForm, catalecticant_lower_bound,
                        check_decomposition, decompose, parse_form)
from conftest import random_form, random_hyperplanes


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
