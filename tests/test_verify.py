import random
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy
from mpmath import mpf, workprec
from mpmath.libmp import (finf, fnan, fninf, from_man_exp, fzero, mpc_abs,
                          mpf_le, round_nearest)
from hypothesis import given, settings, strategies as st

from openwaring import (AppComplex, Decomposition, ForbiddenSet, Form,
                        InvalidInputError, LinearForm, VerifyReport,
                        catalecticant_lower_bound, check_decomposition,
                        decompose, is_forbidden, parse_form)
from openwaring import verify
from openwaring.numerics import is_exact_scalar, tolerance
from conftest import (assert_same_verdict, random_form, random_hyperplanes,
                      reference_check, reference_is_forbidden,
                      reference_max_abs)


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
            # a flagged record's rational terms are still compared exactly
            assert rep.exact or kind != "flagged"

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

    def test_exactness_is_read_off_the_data(self):
        # rational terms are compared exactly whatever the flag says: an
        # error of one part in 10^60 is below the tolerance but not zero
        f = parse_form("x0^2 + 2*x1^2 + 3*x2^2 + x0*x1", 3)
        (c, l), *rest = decompose(f, seed=1).terms
        terms = ((c * (1 + Fraction(1, 10 ** 60)), l), *rest)
        for flag in (True, False):
            rep = check_decomposition(f, Decomposition(2, 3, terms, flag))
            assert rep.exact and rep.residual > 0
            assert not rep.residual_ok and not rep.passed

    def test_wrong_number_of_variables_rejected(self):
        f = parse_form("x0^2 + x1^2", 2)
        dec = Decomposition(2, 2, ((Fraction(1), LinearForm([1, 0, 0])),), True)
        with pytest.raises(InvalidInputError):
            check_decomposition(f, dec)


class TestResidualAtAFixedPrecision:
    """An approximate residual, and its log2, come out of the same libmp
    calls whatever ``mpmath.mp.prec`` the caller has set: rounded at 53
    bits, as the mpf operators round them at mpmath's default precision."""

    def outcomes(self, f, dec):
        """(raw residual, log2) at the default precision, then under
        workprec(20) and workprec(300)."""
        def outcome():
            report = check_decomposition(f, dec, precision_bits=256)
            assert report.residual > 0
            return report.residual._mpf_, report.residual_log2()

        out = [outcome()]
        for prec in (20, 300):
            with workprec(prec):
                out.append(outcome())
        return out

    def test_the_ambient_precision_changes_no_bit(self):
        f = parse_form("x0^3 + 2*x0^2*x1 - 1/3*x1^3", 2)
        dec = decompose(f, seed=1, precision_bits=256)
        assert not dec.exact
        # the same decomposition of f with a mixed, partly inexact norm
        g = Form(2, 3, {m: c if m[0] == 3 else AppComplex(c, 0, 256)
                        for m, c in f.coeffs.items()})
        for target in (f, g):
            outcomes = self.outcomes(target, dec)
            assert outcomes[1:] == outcomes[:1] * 2

    def test_scale_is_the_mpf_product_at_the_default_precision(self):
        rng = random.Random(5)
        for _ in range(300):
            coeffs = {}
            for m in ((3, 0), (2, 1), (1, 2), (0, 3)):
                q = Fraction(rng.randint(-10 ** 30, 10 ** 30),
                             rng.randint(1, 10 ** rng.randint(1, 30)))
                kind = rng.random()
                if kind < 0.4:
                    coeffs[m] = q
                elif kind < 0.9:
                    coeffs[m] = AppComplex(q, rng.choice((0, q / 7)),
                                           rng.choice((64, 256, 1024)))
            f = Form(2, 3, coeffs)
            norm = f.norm1()
            scale = norm if (not is_exact_scalar(norm) or norm > 0) else 1
            assert verify._raw_residual_scale(f) == (mpf(1) * scale)._mpf_

    def test_log2_is_the_mpmath_logarithm_at_the_default_precision(self):
        rng = random.Random(6)
        for _ in range(300):
            raw = from_man_exp(rng.getrandbits(rng.randint(1, 200)) | 1,
                               rng.randint(-3000, 300),
                               rng.choice((53, 64, 2000)), round_nearest)
            r = mpmath.mp.make_mpf(raw)
            report = VerifyReport(r, 1, 1, (), False, True, True)
            assert report.residual_log2() == float(mpmath.log(r, 2))


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


@st.composite
def leaf_lists(draw):
    """Raw pairs whose parts have tops within `spread` binades of a common
    one: zeros, powers of two, values either side of a power of two and
    random ones, rounded at 64..1100 bits; sometimes an inf or nan part."""
    base = draw(st.integers(-3000, 3000))
    spread = draw(st.sampled_from([0, 1, 2, 3, 40, 3000]))
    special = draw(st.booleans())

    def part():
        if special and draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from([finf, fninf, fnan]))
        kind = draw(st.sampled_from(["zero", "power", "near", "random"]))
        if kind == "zero":
            return fzero
        if kind == "power":
            man = 1
        elif kind == "near":  # 2**k - 1 or 2**k + 1
            man = ((1 << draw(st.integers(1, 200)))
                   + draw(st.sampled_from([-1, 1])))
        else:
            man = draw(st.integers(1, 1 << 300))
        top = base + draw(st.integers(-spread, spread))
        return from_man_exp(draw(st.sampled_from([1, -1])) * man,
                            top - man.bit_length(),
                            draw(st.integers(64, 1100)), round_nearest)

    return draw(st.lists(st.tuples(st.builds(part), st.builds(part)),
                         max_size=12))


class TestResidualMaximumByTops:
    @settings(max_examples=400, deadline=None)
    @given(leaf_lists(), st.integers(64, 1100))
    def test_equals_the_hypot_of_every_leaf(self, leaves, wp):
        assert verify._max_abs(leaves, wp) == reference_max_abs(leaves, wp)

    @pytest.mark.parametrize("wp", [96, 288, 1120])
    def test_fixed_cases(self, wp):
        one, two = from_man_exp(1, 0), from_man_exp(1, 1)
        three = from_man_exp(3, 0)
        half, tiny = from_man_exp(1, -1), from_man_exp(1, -5000)
        cases = [
            [],
            [(fzero, fzero)] * 3,
            [(one, fzero), (fzero, two), (half, half)],  # a binade apart
            [(three, three), (two, fzero), (fzero, two)],  # one top, three sizes
            [(tiny, fzero), (one, tiny), (tiny, tiny)],  # parts far apart
            [(fnan, one), (two, fzero), (one, one)],  # nan beside finite
            [(one, fzero), (fnan, fnan), (three, fzero)],
            [(one, fzero), (finf, fzero), (three, one)],
            [(one, fzero), (fzero, fninf), (fnan, finf)],
        ]
        for leaves in cases:
            assert verify._max_abs(leaves, wp) == reference_max_abs(leaves, wp)

    def test_a_residual_dominated_by_one_leaf_takes_one_hypot(self, monkeypatch):
        # f misses the reconstruction by 5 on x0*x1 and by 2^-200 on x0^2
        # and x1^2; only the x0*x1 leaf is within a binade of the largest
        calls = []
        real_abs = verify.mpc_abs
        monkeypatch.setattr(verify, "mpc_abs",
                            lambda *a: calls.append(a) or real_abs(*a))
        eps = Fraction(1, 2 ** 200)
        f = Form(2, 2, {(2, 0): 1 + eps, (1, 1): Fraction(5),
                        (0, 2): 1 - eps})
        dec = Decomposition(2, 2, ((AppComplex(1, 0, 256), LinearForm([1, 0])),
                                   (Fraction(1), LinearForm(
                                       [0, AppComplex(1, 0, 256)]))), False)
        rep = check_decomposition(f, dec)
        assert len(calls) == 1
        assert rep.residual == mpf(5) / (mpf(7))
        assert_same_verdict(rep, reference_check(f, dec))


def scaled(t, k, sign):
    """2**k * t * (1 + sign * 2**-60) for a raw mpf t, exactly."""
    _, man, exp, _ = t
    return from_man_exp(man * ((1 << 60) + sign), exp + k - 60)


class TestForbiddenByTops:
    @pytest.mark.parametrize("prec", [53, 96, 288, 1120])
    def test_a_decided_comparison_reads_as_the_hypot(self, prec):
        rng = random.Random(prec)
        decided = 0
        for _ in range(200):
            t = from_man_exp(rng.randint(1, 1 << 70), rng.randint(-400, 400))
            for k in range(-4, 5):
                for sign in (-1, 0, 1):
                    m = scaled(t, k, sign)
                    for z in ((m, fzero), (fzero, m), (m, m),
                              (m, scaled(m, -30, 1))):
                        got = verify._abs_at_most(z, t)
                        if got is not None:
                            decided += 1
                            assert got == mpf_le(
                                mpc_abs(z, prec, round_nearest), t)
            assert verify._abs_at_most((fzero, fzero), t) is True
        assert verify._abs_at_most((fzero, fzero), fzero) is True
        assert verify._abs_at_most((fnan, fzero), from_man_exp(1, 0)) is None
        assert decided > 200 * 9 * 3

    @pytest.mark.parametrize("bits", [64, 256, 1088])
    def test_is_forbidden_matches_the_reference_near_the_bound(self, bits,
                                                                monkeypatch):
        # val = l0 at 2^k * tol * (1 +- 2^-60), real or complex; with |l| <= 1
        # the bound is tol itself.  Only a value the tops leave open takes
        # a hypot inside is_forbidden.
        calls = []
        real_abs = AppComplex.__abs__

        def counting(z):
            if sys._getframe(1).f_code.co_name == "is_forbidden":
                calls.append(z)
            return real_abs(z)

        tol = tolerance(bits)
        V = ForbiddenSet.from_text("l0", 2)
        monkeypatch.setattr(AppComplex, "__abs__", counting)
        for k in range(-4, 5):
            for sign in (-1, 0, 1):
                x = mpf(scaled(tol._mpf_, k, sign))
                for re, im in ((x, 0), (0, -x), (x * 3 / 5, x * 4 / 5)):
                    l = LinearForm([AppComplex(re, im, bits), Fraction(1)])
                    before = len(calls)
                    assert is_forbidden(l, V, tol) == reference_is_forbidden(
                        l, V, tol), (k, sign, re, im)
                    if abs(k) >= 2:
                        assert len(calls) == before, (k, sign)
        assert 0 < len(calls) <= 3 * 3 * 3  # only |k| <= 1 can be open

    @pytest.mark.parametrize("bits", [64, 96])
    def test_default_tolerance_follows_the_precision(self, bits):
        # l = (a, b, (3a + 5b)/7) lies on 3 l0 + 5 l1 - 7 l2 = 0; stored at
        # `bits`, its constraint value is roundoff of about 2^-bits, which
        # the 256-bit tolerance 2^-128 does not cover
        rng = random.Random(bits)
        V = ForbiddenSet.from_text("3*l0 + 5*l1 - 7*l2", 3)
        missed_at_256 = 0
        for _ in range(200):
            a, b = (Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                    for _ in range(2))
            l = LinearForm([AppComplex(x, 0, bits)
                            for x in (a, b, (3 * a + 5 * b) / 7)])
            assert is_forbidden(l, V)
            assert is_forbidden(l, V) == is_forbidden(l, V, tolerance(bits))
            missed_at_256 += not is_forbidden(l, V, tolerance(256))
        assert missed_at_256 > 0


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


def test_forbidden_bound_ignores_the_ambient_precision():
    # the bound tol * |g|_1 * max(1, max|l_i|)^deg g is taken by libmp at 53
    # bits: tol * (1 + 2^-40) here, which rounds to tol at 20 bits, so a
    # value between the two is forbidden at every ambient precision
    bits = 256
    tol = tolerance(bits)
    V = ForbiddenSet.from_text("l0", 2)
    scale = AppComplex(Fraction(2**40 + 1, 2**40), 0, bits)
    inside = AppComplex(Fraction(2**41 + 1, 2**41) / 2**(bits // 2), 0, bits)
    outside = AppComplex(Fraction(2**39 + 1, 2**39) / 2**(bits // 2), 0, bits)
    for prec in (None, 20, 300):
        with workprec(prec or mpmath.mp.prec):
            assert is_forbidden(LinearForm([inside, scale]), V, tol)
            assert not is_forbidden(LinearForm([outside, scale]), V, tol)


def test_forbidden_set_takes_a_float_tolerance():
    # a float tol is read exactly, as the mpf operators read it: the same
    # verdicts as the mpf of the same value, in is_forbidden and through
    # check_decomposition, on approximate data
    bits = 128
    V = ForbiddenSet.from_text("l1", 2)
    for tol, v, want in ((1e-30, Fraction(1, 10**31), True),
                         (1e-30, Fraction(1, 10**29), False),
                         (2.0**-110, Fraction(1, 10**31), False),
                         (2.0**-110, 0, True)):
        l = LinearForm([AppComplex(1, 0, bits), AppComplex(v, 0, bits)])
        assert is_forbidden(l, V, tol) == is_forbidden(l, V, mpf(tol)) == want
    f = Form(2, 3, {(3, 0): AppComplex(1, 0, bits),
                    (0, 3): AppComplex(1, 0, bits)})
    dec = Decomposition(3, 2, (
        (AppComplex(1, 0, bits), LinearForm([AppComplex(1, 0, bits), 0])),
        (AppComplex(1, 0, bits), LinearForm([0, AppComplex(1, 0, bits)]))),
        False)
    rep = check_decomposition(f, dec, V, tol=1e-30, precision_bits=bits)
    assert rep.residual_ok and rep.forbidden_violations == (0,)
    assert not rep.passed
