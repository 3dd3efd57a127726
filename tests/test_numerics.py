import collections
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from mpmath import mpc, mpf, workprec
from mpmath.libmp import (finf, fnan, fninf, fone, from_int, from_man_exp,
                          fzero, mpc_abs, mpc_add, mpc_div, mpc_mpf_div,
                          mpc_mul, mpc_sub, mpf_add, mpf_div, mpf_gt, mpf_le,
                          mpf_neg, mpf_pos, mpf_shift, round_nearest)

from openwaring import ConsistencyError, InvalidInputError, numerics
from openwaring.numerics import (_CERT_PRIME, _CONE, GUARD_BITS, AppComplex,
                                 UniPoly, _aberth, _abs_exceeds, _abs_gt,
                                 _abs_le, _cadd, _cdiv, _certified_squarefree,
                                 _cmul, _cpos, _csub, _horner, _pos, _quo,
                                 _raw_mpf, _raw_pair, _within_stop,
                                 is_squarefree,
                                 max_abs_of, scalar_is_zero,
                                 squarefree_decomposition, squarefree_part,
                                 univariate_roots)
from conftest import (reference_squarefree_decomposition,
                      reference_squarefree_part)


def poly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


class TestAppComplex:
    def test_public_surface(self):
        # the value is stored once, as a raw pair; real and imag are mpfs
        # built from it, and every attribute is read-only
        x = AppComplex(Fraction(1, 3), -2, 64)
        third = (0, 12297829382473034411, -65, 64)
        assert x.parts == (third, (1, 1, 1, 1)) and x.precision_bits == 64
        assert type(x.real) is mpf and type(x.imag) is mpf
        assert (x.real._mpf_, x.imag._mpf_) == x.parts
        for name in ("real", "imag", "parts", "precision_bits"):
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
        # the converters, complex() and repr give what they gave when the
        # parts were held as two mpfs
        assert type(x.to_mpc()) is mpc and x.to_mpc()._mpc_ == x.parts
        assert complex(x) == complex(1 / 3, -2)
        assert repr(x) == "AppComplex(0.333333333333, -2.0, bits=64)"
        assert repr(AppComplex(0, Fraction(-5, 7), 256)) == \
            "AppComplex(0.0, -0.714285714286, bits=256)"
        assert AppComplex.from_raw(((0, 3, -1, 2), (1, 2 ** 80 + 1, -80, 81)),
                                   64).parts == ((0, 3, -1, 2), (1, 1, 0, 1))
        with workprec(200):
            z = mpc(mpf(1) / 3, -mpf(2) / 7)
        assert AppComplex.from_mpc(z, 64).parts == (
            third, (1, 10540996613548315209, -65, 64))
        assert AppComplex.from_mpc(1.5 - 0.25j, 64).parts == (
            (0, 3, -1, 2), (1, 1, -2, 1))
        assert AppComplex.from_mpc(2, 64).parts == ((0, 1, 1, 1), fzero)

    def test_precision_propagates_as_max(self):
        a = AppComplex(1, 0, 128)
        b = AppComplex(2, 1, 256)
        assert (a + b).precision_bits == 256
        assert (a * b).precision_bits == 256

    def test_mixed_arithmetic_with_rationals(self):
        a = AppComplex(Fraction(1, 3), 0, 128)
        out = Fraction(3) * a + 1
        assert abs(out.real - 2) < mpf(2) ** -100
        assert out.precision_bits == 128

    def test_high_precision_survives_negation(self):
        with mpmath.workprec(300):
            z = mpmath.mpf(2) ** mpmath.mpf("0.5")
        a = AppComplex(z, 0, 256)
        back = -(-a)
        assert abs(back.real - a.real) == 0

    def test_minimum_precision_enforced(self):
        with pytest.raises(InvalidInputError):
            AppComplex(1, 0, 32)


class TestUniPoly:
    def test_divmod_exact(self):
        p = poly(-2, 0, 0, 1)
        d = poly(-1, 1)
        q, r = p.divmod(d)
        assert q * d + r == p

    def test_gcd_and_squarefree_part(self):
        # (t-1)^2 (t+2) -> (t-1)(t+2) up to scalar
        p = poly(2, -3, 0, 1)
        sf = squarefree_part(p)
        assert sf.degree == 2
        q, r = p.divmod(sf)
        assert r.is_zero()

    def test_squarefree_already(self):
        p = poly(1, 0, 1)
        assert squarefree_part(p) == p
        assert is_squarefree(p)

    def test_cube_collapses(self):
        p = poly(0, 0, 0, 1)  # t^3
        sf = squarefree_part(p)
        assert sf.degree == 1
        assert not is_squarefree(p)

    def test_yun_decomposition(self):
        # (t-1)^2 (t+2)^3
        p = poly(-1, 1) * poly(-1, 1) * poly(2, 1) * poly(2, 1) * poly(2, 1)
        parts = squarefree_decomposition(p)
        assert sorted(m for _, m in parts) == [2, 3]
        recon = UniPoly([Fraction(1)])
        for g, m in parts:
            for _ in range(m):
                recon = recon * g
        assert squarefree_part(recon) == squarefree_part(p)

    def test_squarefree_divides_exactly(self, rng):
        for _ in range(20):
            deg = rng.randint(1, 8)
            p = UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(deg)]
                        + [Fraction(rng.randint(1, 9))])
            sf = squarefree_part(p)
            _, r = p.divmod(sf)
            assert r.is_zero()
            assert is_squarefree(p) == (sf.degree == p.degree)


def rationals(numerators=st.integers(-60, 60)):
    """Fractions with denominators up to 10**9, so that clearing them
    gives large integers."""
    return st.builds(Fraction, numerators,
                     st.integers(1, 10 ** 9) | st.sampled_from((1, 2, 3)))


@st.composite
def squarefree_inputs(draw):
    """Rational polynomials of degree 1-10, some with a planted repeated
    factor b^k, some with a leading coefficient (b's, when b is planted)
    that the prime of the certificate divides, which forces the rational
    fallback."""
    prime = draw(st.booleans())
    if draw(st.booleans()):
        base = draw(st.lists(rationals(), min_size=2, max_size=4)
                    .filter(lambda c: c[-1] != 0))
        k = draw(st.integers(2, 10 // (len(base) - 1)))
        rest = 10 - k * (len(base) - 1)
        other = draw(st.lists(rationals(), min_size=1, max_size=rest + 1)
                     .filter(lambda c: c[-1] != 0))
    else:
        base, k = [], 0
        other = draw(st.lists(rationals(), min_size=2, max_size=11)
                     .filter(lambda c: c[-1] != 0))
    if prime:
        lead = base or other
        lead[-1] *= _CERT_PRIME
    p = UniPoly(other)
    for _ in range(k):
        p = p * UniPoly(base)
    return p


def sympy_poly(p):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], x, domain="QQ")


def monic_coeffs(f):
    """A sympy polynomial over QQ, monic, as Fractions lowest term first."""
    return tuple(Fraction(int(c.p), int(c.q))
                 for c in reversed(f.monic().all_coeffs()))


class TestSquarefreeCertificate:
    """The modular squarefree certificate against sympy and against the
    rational Euclid and Yun it skips (`conftest.reference_squarefree_*`)."""

    @settings(max_examples=150, deadline=None)
    @given(squarefree_inputs())
    # squarefree over the rationals, but x^2 modulo the prime: the fallback
    @example(UniPoly([Fraction(-_CERT_PRIME), Fraction(0), Fraction(1)]))
    def test_against_sympy_and_the_rational_gcds(self, p):
        f = sympy_poly(p)
        if _certified_squarefree(p):
            # never calls a polynomial with a repeated factor squarefree
            assert sympy.gcd(f, f.diff()).degree() == 0
        sf = squarefree_part(p)
        assert sf == reference_squarefree_part(p)
        assert sf.coeffs == monic_coeffs(sympy.sqf_part(f))
        parts = squarefree_decomposition(p)
        assert parts == reference_squarefree_decomposition(p)
        _, factors = sympy.sqf_list(f)
        assert (sorted((g.coeffs, m) for g, m in parts)
                == sorted((monic_coeffs(g), m) for g, m in factors))

    def test_a_prime_in_the_leading_coefficient_is_undecided(self):
        # (P x + 1)^2 is 1 modulo the prime P, whose gcd with its derivative
        # there is a constant; the certificate must not read that as
        # squarefree, so the rational gcd decides it
        base = UniPoly([Fraction(1), Fraction(_CERT_PRIME)])
        p = base * base
        assert not _certified_squarefree(p)
        assert squarefree_part(p) == base.scale(Fraction(1, _CERT_PRIME))
        assert squarefree_decomposition(p) == [(squarefree_part(p), 2)]


class TestRoots:
    def test_factorable_quadratics(self):
        roots = univariate_roots(poly(-1, 0, 1), 256)
        vals = sorted(float(r.real) for r in roots)
        assert abs(vals[0] + 1) < 1e-30 and abs(vals[1] - 1) < 1e-30
        roots = univariate_roots(poly(1, 0, 1), 256)
        imags = sorted(float(r.imag) for r in roots)
        assert abs(imags[0] + 1) < 1e-30 and abs(imags[1] - 1) < 1e-30

    def test_cube_root_of_two_residuals(self):
        # oracle: every root must satisfy |r^3 - 2| below the 256-bit threshold
        roots = univariate_roots(poly(-2, 0, 0, 1), 256)
        assert len(roots) == 3
        for r in roots:
            z = r.to_mpc()
            assert abs(z ** 3 - 2) <= mpf(2) ** -128 * 2

    def test_multiplicities_reported(self):
        # (t-1)^2 (t+2)
        roots = univariate_roots(poly(2, -3, 0, 1), 256)
        near_one = [r for r in roots if abs(r.to_mpc() - 1) < 1e-40]
        assert len(roots) == 3 and len(near_one) == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InvalidInputError):
            univariate_roots(UniPoly([]), 256)
        with pytest.raises(InvalidInputError):
            univariate_roots(poly(5), 256)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_coefficients_rejected(self, bad):
        # a nan coefficient returned nan roots, which passed the certificate
        # because every comparison with nan is false; an inf one raised
        # "polynomial is zero within the working tolerance"
        for i in range(3):
            for part in (mpf(bad), 1j * mpf(bad)):
                coeffs = [AppComplex(c, 0, 128) for c in (2, -3, 1)]
                coeffs[i] = AppComplex.from_mpc(1 + part, 128)
                with pytest.raises(InvalidInputError,
                                   match="coefficients must be finite"):
                    univariate_roots(UniPoly(coeffs), 128)

    def test_reconstruction_from_roots(self):
        # product of (t - r_i), rescaled by the leading coefficient,
        # matches the input coefficientwise within 2^(-precision/2)
        rng = random.Random(7)
        for _ in range(12):
            deg = rng.randint(1, 12)
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)]
            coeffs.append(Fraction(rng.choice([1, 2, 3, -1, -2])))
            p = UniPoly(coeffs)
            roots = univariate_roots(p, 256)
            with mpmath.workprec(320):
                acc = [mpmath.mpc(1)]
                for r in roots:
                    z = r.to_mpc()
                    new = [mpmath.mpc(0)] * (len(acc) + 1)
                    for i, a in enumerate(acc):
                        new[i + 1] += a
                        new[i] -= a * z
                    acc = new
                lead = mpmath.mpf(p.coeffs[-1].numerator) / mpmath.mpf(
                    p.coeffs[-1].denominator)
                scale = max(abs(mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator))
                            for c in p.coeffs)
                for i, c in enumerate(p.coeffs):
                    want = mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                    got = acc[i] * lead
                    assert abs(got - want) <= mpf(2) ** -128 * max(scale, 1)

    @pytest.mark.parametrize("zeros", [0, 1])
    def test_leading_coefficient_threshold(self, zeros, monkeypatch):
        # an approximate leading coefficient at or below tol * max|coeff|
        # is rejected; with no zero root split off, that is the threshold
        # of the zero roots, taken without another max_abs
        bits = 256
        calls = []
        real = UniPoly.max_abs

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(UniPoly, "max_abs", counting)
        at = Fraction(3, 2 ** (bits // 2))
        for lead, rejected in ((at, True), (at * (1 + Fraction(1, 2 ** 40)), False)):
            calls.clear()
            p = UniPoly([AppComplex(c, 0, bits)
                         for c in [0] * zeros + [3, 1, lead]])
            if rejected:
                with pytest.raises(InvalidInputError,
                                   match="leading coefficient is numerically zero"):
                    univariate_roots(p, bits)
            else:
                assert len(univariate_roots(p, bits)) == 2 + zeros
            assert len(calls) == 1 + zeros

    def test_roots_deterministic(self):
        p = poly(3, -5, 0, 7, 2)
        a = univariate_roots(p, 256)
        b = univariate_roots(p, 256)
        assert [(x.real, x.imag) for x in a] == [(x.real, x.imag) for x in b]


# ---------------------------------------------------------------------------
# AppComplex and the root-finding loops run raw-tuple kernels that reproduce
# libmp's; the references below are the mpc-object formulas they replace,
# and results must agree bit for bit.


def ref_mpf(x, bits):
    with workprec(bits):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / mpf(x.denominator)
        return mpf(x)


def ref_mpc(x):
    with workprec(x.precision_bits):
        return mpc(x.real, x.imag)


def ref_round(z, bits):
    with workprec(bits):
        z = mpc(z)
        return (mpf(z.real)._mpf_, mpf(z.imag)._mpf_, bits)


def ref_binop(x, y, op):
    """x op y as (mpc at max bits + GUARD_BITS), rounded at max bits."""
    if isinstance(y, AppComplex):
        bits = max(x.precision_bits, y.precision_bits)
        yv = ref_mpc(y)
    else:
        bits = x.precision_bits
        with workprec(bits):
            yv = mpc(ref_mpf(y, bits), 0)
    with workprec(bits + GUARD_BITS):
        out = op(ref_mpc(x), yv)
    return ref_round(out, bits)


def raw(x):
    return (x.real._mpf_, x.imag._mpf_, x.precision_bits)


def random_mpf(rng, bits):
    kind = rng.random()
    if kind < 0.15:
        return mpf(0)
    # tiny and huge exponents as well as ordinary ones
    exp = rng.choice([0, -5, 7, -10**6, 10**6, rng.randint(-3000, 3000)])
    with workprec(bits + 64):
        m = mpf(rng.getrandbits(bits + 40) | 1) * mpf(2) ** (exp - bits)
    return -m if rng.random() < 0.5 else m


def random_app(rng, bits):
    return AppComplex(random_mpf(rng, bits), random_mpf(rng, bits), bits)


def random_operand(rng, bits):
    kind = rng.random()
    if kind < 0.25:
        return rng.randint(-10**rng.randint(0, 400), 10**rng.randint(0, 400))
    if kind < 0.5:
        return Fraction(rng.randint(-10**80, 10**80),
                        rng.randint(1, 10**rng.randint(1, 400)))
    return random_app(rng, bits)


BINOPS = [operator.add, operator.sub, operator.mul, operator.truediv]
PRECISIONS = (64, 256, 1088)


class TestKernelEquivalence:
    def test_construction_rounds_like_mpf(self):
        rng = random.Random(11)
        for _ in range(300):
            bits = rng.choice(PRECISIONS)
            x = rng.choice([random_operand(rng, bits), random_mpf(rng, 2 * bits)])
            if isinstance(x, AppComplex):
                x = x.real
            want = ref_mpf(x, bits)._mpf_
            assert AppComplex(x, x, bits).real._mpf_ == want
            assert AppComplex(0, x, bits).imag._mpf_ == want

    def test_binary_operators_both_orders(self):
        rng = random.Random(12)
        for _ in range(400):
            x = random_app(rng, rng.choice(PRECISIONS))
            y = random_operand(rng, rng.choice(PRECISIONS))
            for op in BINOPS:
                for a, b in ((x, y), (y, x)):
                    try:
                        want = (ref_binop(a, b, op) if isinstance(a, AppComplex)
                                else ref_binop(b, a, lambda u, v: op(v, u)))
                    except ZeroDivisionError:
                        with pytest.raises(ZeroDivisionError):
                            op(a, b)
                        continue
                    assert raw(op(a, b)) == want, (op, a, b)

    def test_operations_round_twice_through_the_guard_bits(self):
        # 1 + 2^-bits + 2^-(bits+40) lies just above the midpoint between 1
        # and the next value at `bits`: one rounding would go up, but the
        # rounding at bits + GUARD_BITS lands on the midpoint, which then
        # rounds to even
        for bits in PRECISIONS:
            with workprec(bits):
                y = AppComplex(mpf(2) ** -bits + mpf(2) ** -(bits + 40), 0, bits)
            assert (AppComplex(1, 0, bits) + y).real == 1
            assert (y + 1).real == 1
            assert ref_binop(y, 1, operator.add)[0] == mpf(1)._mpf_

    def test_unary_operations(self):
        rng = random.Random(13)
        for _ in range(300):
            x = random_app(rng, rng.choice(PRECISIONS))
            bits = x.precision_bits
            with workprec(bits):
                assert raw(-x) == ((-x.real)._mpf_, (-x.imag)._mpf_, bits)
                assert raw(x.conjugate()) == (x.real._mpf_, (-x.imag)._mpf_, bits)
            with workprec(bits + GUARD_BITS):
                assert abs(x)._mpf_ == abs(ref_mpc(x))._mpf_
                e = rng.randint(0, 9)
                assert raw(x ** e) == ref_round(ref_mpc(x) ** e, bits)

    def test_from_mpc_rounds_once(self):
        rng = random.Random(14)
        for _ in range(200):
            z = mpc(random_mpf(rng, 1200), random_mpf(rng, 1200))
            bits = rng.choice(PRECISIONS)
            assert raw(AppComplex.from_mpc(z, bits)) == ref_round(z, bits)
            assert AppComplex.from_mpc(z, bits).to_mpc()._mpc_ == ref_round(z, bits)[:2]

    def test_horner_matches_the_libmp_loop(self):
        # monic and other leading coefficients, x with more bits than prec,
        # exactly zero parts, and inf and nan parts, which the kernels hand
        # to libmp
        # 1 * x + c takes x rounded at prec, as mpc_mul rounds the product
        x = ((0, 2 ** 100 + 2 ** 36 + 1, -100, 101), (1, 3, -1, 2))
        for coeffs in ([(fzero, fzero), (fone, fzero)],
                       [((0, 1, -200, 1), fzero), (fone, fzero)], [(fone, fzero)]):
            assert _horner(coeffs, x, 64) == ref_horner(coeffs, x, 64)
        rng = random.Random(16)
        specials = (finf, fninf, fnan)
        for i in range(400):
            prec = rng.choice(PRECISIONS) + rng.choice((0, GUARD_BITS))
            coeffs = [raw_pair(random_app(rng, prec))
                      for _ in range(rng.randint(0, 8))]
            coeffs.append(rng.choice(((fone, fzero), (fone, fzero),
                                      raw_pair(random_app(rng, prec)))))
            x = raw_pair(random_app(rng, rng.choice((prec, 2 * prec + 7))))
            if i % 4 == 1:
                x = rng.choice(((x[0], fzero), (fzero, x[1]), (fzero, fzero)))
            if i % 8 == 3:
                where = rng.randrange(2 * len(coeffs) + 2)
                parts = [list(c) for c in coeffs] + [list(x)]
                parts[where // 2][where % 2] = rng.choice(specials)
                coeffs = [tuple(c) for c in parts[:-1]]
                x = tuple(parts[-1])
            assert _horner(coeffs, x, prec) == ref_horner(coeffs, x, prec), i

    def test_zero_divisors_still_raise(self):
        # also for a zero dividend, which needs no quotient bits
        for bits in PRECISIONS:
            for z in (((0, 3, -1, 2), (1, 5, 2, 3)), (fzero, fzero)):
                with pytest.raises(ZeroDivisionError):
                    _cdiv(z, (fzero, fzero), bits)
                with pytest.raises(ZeroDivisionError):
                    mpc_div(z, (fzero, fzero), bits, round_nearest)
            with pytest.raises(ZeroDivisionError):
                _cdiv(_CONE, (fzero, fzero), bits)
            for man in (3, 0):
                with pytest.raises(ZeroDivisionError):
                    _quo(0, man, 0, 0, 0, 0, bits)
            for x in (AppComplex(1, 2, bits), AppComplex(0, 0, bits), 0):
                with pytest.raises(ZeroDivisionError):
                    x / AppComplex(0, 0, bits)
                if isinstance(x, AppComplex):
                    with pytest.raises(ZeroDivisionError):
                        x / 0


def raw_pair(z):
    return (z.real._mpf_, z.imag._mpf_)


def ref_horner(coeffs, x, prec):
    """p(x) by the mpc operators, from the rounded leading coefficient."""
    with workprec(prec):
        xv = mpmath.mp.make_mpc(x)
        acc = +mpmath.mp.make_mpc(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * xv + mpmath.mp.make_mpc(c)
        return acc._mpc_


# ---------------------------------------------------------------------------
# the raw-tuple kernels against the libmp functions they reproduce


@st.composite
def kernel_part(draw, prec, anchor):
    """A raw mpf for the kernels at ``prec``: zero, or an odd mantissa of up
    to twice prec bits (an unrounded product) or one bit more than prec (a
    tie when rounded), at an exponent near ``anchor`` or more than 100 bits
    off it, where libmp's addition takes its shortcut."""
    if draw(st.integers(0, 7)) == 0:
        return fzero
    bits = draw(st.sampled_from((1, prec - 1, prec, prec + 1, 2 * prec,
                                 2 * prec + 2)))
    man = draw(st.one_of(st.integers(1, 2 ** bits - 1),
                         st.just(2 ** bits - 1))) | 1
    off = draw(st.one_of(st.integers(-8, 8), st.integers(101, prec + 200),
                         st.integers(-prec - 200, -101),
                         st.integers(-3000, 3000)))
    return from_man_exp(-man if draw(st.booleans()) else man, anchor + off)


@st.composite
def kernel_operands(draw):
    """(prec, z, w): two raw mpcs; half the time the real part of w is half
    a unit in the last place of a prec-bit real part of z, so that their
    sum or difference is a tie."""
    prec = draw(st.integers(64, 1120)) + draw(st.sampled_from((0, GUARD_BITS)))
    anchor = draw(st.integers(-300, 300))
    parts = [draw(kernel_part(prec, anchor)) for _ in range(4)]
    if draw(st.booleans()):
        man = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1)) | 1
        sign = draw(st.integers(0, 1))
        parts[0] = (sign, man, anchor, prec)
        parts[2] = (draw(st.integers(0, 1)), 1, anchor - 1, 1)
    return prec, (parts[0], parts[1]), (parts[2], parts[3])


def assert_kernels_match_libmp(prec, z, w):
    for kernel, libmp in ((_cadd, mpc_add), (_csub, mpc_sub), (_cmul, mpc_mul),
                          (_cdiv, mpc_div)):
        try:
            want = libmp(z, w, prec, round_nearest)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                kernel(z, w, prec)
        else:
            assert kernel(z, w, prec) == want, kernel.__name__
    for x in (z, w):
        for part in x:
            assert _pos(part, prec) == mpf_pos(part, prec, round_nearest)
        # one over x as apolarity._subspace_lift takes it, with x's parts
        # rounded at prec: mpc_mpf_div of one, bit for bit; an inf part
        # goes to mpc_div, which gives a nan part where mpc_mpf_div gives 0
        x = _cpos(x, prec)
        try:
            if finf in x or fninf in x:
                want = mpc_div(_CONE, x, prec, round_nearest)
            else:
                want = mpc_mpf_div(fone, x, prec, round_nearest)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _cdiv(_CONE, x, prec)
        else:
            assert _cdiv(_CONE, x, prec) == want


# prec 64: z's real part is 2^128 - 2^64 + 2^63 - 1, a 128-bit product whose
# low half lies just below a half unit; w's real part sits 101 bits below
# its exponent and 69 bits below its top, so libmp only nudges z's real
# part and rounds down, where the exact sum crosses the half unit
SHORTCUT = (64, ((0, 2 ** 128 - 2 ** 63 - 1, 0, 128), fzero),
            ((0, 2 ** 159 + 1, -101, 160), fzero))
# prec 64: (2^63 + 1) + 1/2 lies half way between two 64-bit values
TIE = (64, ((0, 2 ** 63 + 1, 0, 64), (1, 3, 5, 2)), ((0, 1, -1, 1), fzero))


def libmp_raw_mpf(x, bits):
    """An int or Fraction rounded by libmp itself: ``mpf_pos`` of the int,
    or ``mpf_div`` of the rounded numerator and denominator."""
    if isinstance(x, Fraction):
        return mpf_div(mpf_pos(from_int(x.numerator), bits, round_nearest),
                       mpf_pos(from_int(x.denominator), bits, round_nearest),
                       bits, round_nearest)
    return mpf_pos(from_int(x), bits, round_nearest)


def sized_int(draw, size):
    """A signed int of exactly ``size`` bits, often with a run of equal low
    bits (an exact value, or a tie on rounding)."""
    man = draw(st.integers(1 << (size - 1), (1 << size) - 1))
    if size > 2 and draw(st.booleans()):
        low = draw(st.integers(1, size - 1))
        man = (man >> low << low) | draw(st.sampled_from((0, 1 << (low - 1))))
    return -man if draw(st.booleans()) else man


class TestRawMpf:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from((53, 64, 256, 1088)), st.data())
    def test_ints_and_fractions_match_libmp(self, bits, data):
        p = sized_int(data.draw, data.draw(st.integers(1, 3000)))
        q = abs(sized_int(data.draw, data.draw(st.integers(1, 3000))))
        for x in (p, Fraction(p), Fraction(p, q)):
            assert _raw_mpf(x, bits) == libmp_raw_mpf(x, bits), (x, bits)

    @pytest.mark.parametrize("bits", [53, 64, 256, 1088])
    def test_every_size_and_edge(self, bits):
        rng = random.Random(bits)
        values = [0, 1, -1, Fraction(0), Fraction(1, 3), Fraction(-2, 3)]
        for size in range(1, 3001, 7):
            top = 1 << size
            for man in (top - 1, top >> 1, (top >> 1) + 1,
                        rng.randrange(top >> 1, top)):
                values += [man, -man, (top << 1) | 1,
                           top | (1 << max(size - bits, 0))]
                values += [Fraction(man, rng.randrange(1, top) | 1),
                           Fraction(-rng.randrange(1, 1 << 40), man)]
        for x in values:
            assert _raw_mpf(x, bits) == libmp_raw_mpf(x, bits), (x, bits)
        for x in values[:200:3]:
            y = mpf(x) if isinstance(x, int) else mpf(x.numerator) / x.denominator
            assert _raw_mpf(y, bits) == mpf_pos(y._mpf_, bits, round_nearest)


class TestRawKernels:
    @settings(max_examples=300, deadline=None)
    @given(kernel_operands())
    @example(SHORTCUT)
    @example(TIE)
    # zero parts on either side, and an exact quotient (w = 1)
    @example((96, (fzero, (1, 5, -3, 3)), ((0, 1, 0, 1), fzero)))
    def test_kernels_match_libmp(self, case):
        assert_kernels_match_libmp(*case)

    def test_the_shortcut_example_is_not_correctly_rounded(self):
        prec, (s, _), (t, _) = SHORTCUT
        exact = mpf_pos(mpf_add(s, t), prec, round_nearest)
        assert _cadd((s, fzero), (t, fzero), prec)[0] != exact
        assert _cadd((s, fzero), (t, fzero), prec)[0] == \
            mpf_add(s, t, prec, round_nearest)

    def test_the_tie_example_rounds_to_even(self):
        # (2^63 + 1) + 1/2 goes up to 2^63 + 2, (2^63 + 1) - 1/2 down to 2^63
        prec, (s, _), (t, _) = TIE
        assert _cadd((s, fzero), (t, fzero), prec)[0] == from_man_exp(2 ** 63 + 2, 0)
        assert _csub((s, fzero), (t, fzero), prec)[0] == from_man_exp(2 ** 63, 0)

    def test_inf_and_nan_go_to_libmp(self):
        big = (0, 3, 10, 2)
        for bad in (finf, fninf, fnan):
            for z, w in (((bad, fzero), (big, big)), ((big, big), (fone, bad))):
                assert_kernels_match_libmp(128, z, w)


WANDERING = UniPoly([Fraction(1061, 32), Fraction(-1069, 16), 1])


def critical_start(bits):
    """t^2 + a1 t + 1 with a1 = -2 z0, z0 the first Aberth start point at
    ``bits`` + 2 * GUARD_BITS working bits: the derivative 2 t + a1 is
    exactly zero at z0 (the ``dv == 0`` branch, which nudges the root)."""
    work = bits + 2 * GUARD_BITS
    one = AppComplex(1, 0, work)
    z0 = _aberth([one.parts, (fzero, fzero), one.parts], work, max_iters=0)[0]
    a1 = (mpf_neg(mpf_shift(z0[0], 1)), mpf_neg(mpf_shift(z0[1], 1)))
    return UniPoly([one, AppComplex.from_raw(a1, work), one])


def root_loop_cases():
    """(polynomial, bits): the wandering quadratic t^2 - 66.8125 t +
    33.15625, which takes 165 sweeps at 256 bits and runs to the iteration
    cap at 768; t^2 - 1, whose iterates land
    exactly on a root (the ``pv == 0`` branch); a quadratic whose
    derivative vanishes at a start point (the ``dv == 0`` branch); a cubic
    whose coefficients carry more bits than the loops work at, which they
    round first; and 40 random polynomials of degree 2-10 with rational or
    AppComplex coefficients."""
    cases = [(WANDERING, 256), (WANDERING, 768), (poly(-1, 0, 1), 128),
             (critical_start(128), 128),
             (UniPoly([AppComplex(Fraction(p, 7), Fraction(1, q), 400)
                       for p, q in ((1, 3), (-5, 11), (2, 9), (3, 13))]), 128)]
    rng = random.Random(15)
    for i in range(40):
        deg = rng.randint(2, 10)
        bits = (64, 128, 256, 512, 768, 1088)[i % 6]
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(deg)] + [Fraction(rng.randint(1, 9))]
        coeffs[0] = coeffs[0] or Fraction(1)
        if i % 2:
            p = UniPoly([AppComplex(c, rng.randint(-3, 3), bits + 40)
                         for c in coeffs])
        else:
            p = UniPoly(coeffs)
        cases.append((p, bits))
    return cases


def aberth_sweeps(monkeypatch, cs, work):
    """``_aberth``'s roots and the number of sweeps it ran, counted as its
    evaluations of the monic polynomial, one per root and sweep."""
    calls = []
    real = numerics._fixed_horner

    def counting(lead, *args):
        if lead == 1:
            calls.append(None)
        return real(lead, *args)

    with monkeypatch.context() as m:
        m.setattr(numerics, "_fixed_horner", counting)
        roots = _aberth(cs, work)
    return roots, len(calls) // (len(cs) - 1)


class TestRootLoopEquivalence:
    def test_wandering_quadratic_sweeps(self, monkeypatch):
        # the sweeps on integers take the libmp loop's iteration: about 165
        # sweeps at 256 bits, and the iteration cap at 768
        for bits, low, high in ((256, 155, 175), (768, 400, 400)):
            work = bits + 2 * GUARD_BITS
            cs = [_raw_pair(c, work) for c in WANDERING.coeffs]
            assert low <= aberth_sweeps(monkeypatch, cs, work)[1] <= high

    def test_roots_within_the_stop_rule_of_polyroots(self, monkeypatch):
        # every run that converges returns roots within 2^(2 - work)
        # max(1, |r|) of mpmath's roots r of the same rounded coefficients
        # at 2 work + 64 bits, one to one
        converged = 0
        for p, bits in root_loop_cases():
            work = bits + 2 * GUARD_BITS
            cs = [_raw_pair(c, work) for c in p.coeffs]
            roots, sweeps = aberth_sweeps(monkeypatch, cs, work)
            if sweeps == 400:
                continue
            converged += 1
            with workprec(2 * work + 64):
                want = mpmath.polyroots(
                    [mpmath.mp.make_mpc(c) for c in cs[::-1]],
                    maxsteps=200, extraprec=work)
                for z in roots:
                    z = mpmath.mp.make_mpc(z)
                    dist = [abs(z - w) for w in want]
                    i = dist.index(min(dist))
                    r = want.pop(i)
                    assert dist[i] <= mpf(2) ** (2 - work) * max(1, abs(r))
        assert converged == len(root_loop_cases()) - 1

    def test_critical_start_takes_the_nudge(self):
        # the derivative vanishes exactly at the first start point z0, so
        # the first sweep moves it by the nudge alone, (|z0| + 1) *
        # 2^-ceil(work / 4) along the real axis, where a Newton step would
        # divide by zero
        p = critical_start(128)
        work = 128 + 2 * GUARD_BITS
        cs = [c.parts for c in p.coeffs]
        z0 = _aberth(cs, work, max_iters=0)[0]
        z1 = _aberth(cs, work, max_iters=1)[0]
        assert z1[1] == z0[1]
        with workprec(2 * work):
            x0 = AppComplex.from_raw(z0, work).to_mpc()
            want = x0.real + (abs(x0) + 1) * mpf(2) ** (-work // 4)
            assert abs(mpf(z1[0]) - want) <= mpf(2) ** (1 - work)

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_certificate_scale_is_the_mpf_product(self, bits, monkeypatch):
        # tol * max|coeff| as the mpf operators give it at the certificate's
        # precision, where a Fraction converts rounded down
        tol = numerics.tolerance(bits)
        products = []
        real = numerics.mpf_mul

        def recording(x, y, *rest):
            out = real(x, y, *rest)
            if x == tol._mpf_ and rest[0] == bits + GUARD_BITS:
                products.append(out)
            return out

        monkeypatch.setattr(numerics, "mpf_mul", recording)
        # 4/3 and -8/7 round down to other bits than to nearest at these
        # precisions; with 1/5 the scale is the exact 1
        for top in (Fraction(4, 3), Fraction(-8, 7), Fraction(7, 3),
                    Fraction(1, 5), AppComplex(Fraction(5, 3), 1, bits)):
            products.clear()
            p = UniPoly([Fraction(1), Fraction(1, 2), top])
            univariate_roots(p, bits)
            with workprec(bits + GUARD_BITS):
                want = (tol * p.max_abs())._mpf_
            # the first product on tol at the certificate's precision is
            # tol * scale; the bounds that follow start from it and read as
            # tol when the scale is one (the zero thresholds before it are
            # taken at THRESHOLD_BITS)
            assert products[0] == want

    def test_wandering_quadratic_still_fails_at_768_bits(self):
        # t^2 - 66.8125 t + 33.15625 does not converge within the Aberth
        # iteration cap at 768 bits; the residual certificate rejects it
        with pytest.raises(ConsistencyError,
                           match="root residual exceeds the acceptance threshold"):
            univariate_roots(WANDERING, 768)

    def test_aberth_skips_the_magnitudes_once_a_sweep_is_decided(self, monkeypatch):
        # every sweep on the wandering quadratic moves a root by far more
        # than ``stop``; the sweeps and their stop test run on integers, so
        # libmp's magnitudes and the product kernel serve only the start
        # circle
        counts = collections.Counter()
        inside = [False]

        def counting(name, kernel):
            def wrapped(*args):
                if inside[0]:
                    counts[name] += 1
                return kernel(*args)
            return wrapped

        def aberth(*args):
            inside[0] = True
            try:
                return real_aberth(*args)
            finally:
                inside[0] = False

        real_aberth = numerics._aberth
        monkeypatch.setattr(numerics, "mpc_abs", counting("abs", numerics.mpc_abs))
        monkeypatch.setattr(numerics, "_cmul", counting("mul", numerics._cmul))
        monkeypatch.setattr(numerics, "_aberth", aberth)
        with pytest.raises(ConsistencyError,
                           match="root residual exceeds the acceptance threshold"):
            univariate_roots(WANDERING, 768)
        # two roots, 400 sweeps: the libmp loop made 1600 mpc_abs calls
        # for its stop test and 1600 products for its Horner steps
        assert counts["abs"] == 1
        assert counts["mul"] == 0


def raw_parts(draw, bits, top):
    """A raw mpf at ``bits`` with exp + bc == top, zero, or far below top."""
    kind = draw(st.sampled_from(("top", "top", "zero", "below")))
    if kind == "zero":
        return fzero
    if kind == "below":
        top -= draw(st.integers(1, 3000))
    man = draw(st.one_of(st.integers(1, 2 ** bits - 1),
                         st.sampled_from((1, 2 ** bits - 1))))
    man = -man if draw(st.booleans()) else man
    return from_man_exp(man, top - man.bit_length(), bits, round_nearest)


@st.composite
def raw_complex(draw, bits, top):
    """A raw mpc of two ``raw_parts``; half the time the real part is
    replaced by one with exp + bc == top exactly."""
    parts = [raw_parts(draw, bits, top), raw_parts(draw, bits, top)]
    if draw(st.booleans()):
        first = from_man_exp(draw(st.integers(1, 2 ** bits - 1)), 0,
                             bits, round_nearest)
        parts[0] = (first[0], first[1], top - first[3], first[3])
    return tuple(parts)


@st.composite
def step_near_stop(draw):
    """(work_bits, scale, step, z): fixed-point pairs at 2**-scale, |z|
    about 2**top, and |step| mostly within a few units of the stop bound
    2**(8 - work_bits) * (1 + |z|), in any direction."""
    bits = draw(st.integers(64, 1100))
    scale = bits + 8 + draw(st.integers(0, 64))
    top = draw(st.one_of(st.integers(-8, 8), st.integers(-scale, 2000)))
    size = max(scale + top, 0)
    z = tuple(draw(st.integers(-(1 << size), 1 << size)) for _ in range(2))
    bound = ((1 << scale) + math.isqrt(z[0] ** 2 + z[1] ** 2)) >> (bits - 8)
    a = draw(st.integers(0, bound))
    b = math.isqrt(bound * bound - a * a)
    b += draw(st.one_of(st.integers(-2, 2), st.integers(-bound, bound)))
    signs = draw(st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))))
    step = (signs[0] * a, signs[1] * b)
    if draw(st.booleans()):
        step = step[::-1]
    return bits, scale, step, z


@st.composite
def magnitude_and_threshold(draw):
    """(prec, z, t): a raw pair z and a raw mpf t >= 0 whose tops mostly lie
    within a few binades of each other, where the rule's answer turns."""
    bits = draw(st.integers(64, 1100))
    tt = draw(st.integers(-3000, 3000))
    tz = draw(st.one_of(st.integers(-3, 3).map(lambda o: tt + o),
                        st.integers(-4000, 4000)))
    kind = draw(st.sampled_from(("random", "random", "power", "pythagorean",
                                 "non-finite")))
    if kind == "random":
        z = draw(raw_complex(bits, tz))
    elif kind == "power":
        # |z| exactly 2^(tz - 1), on either axis, either sign
        part = (draw(st.integers(0, 1)), 1, tz - 1, 1)
        z = (part, fzero) if draw(st.booleans()) else (fzero, part)
    elif kind == "pythagorean":
        z = (from_man_exp(3, tz - 3), from_man_exp(4, tz - 3))  # |z| = 5 * 2^(tz-3)
    else:
        bad = draw(st.sampled_from((finf, fninf, fnan)))
        other = draw(raw_complex(bits, tz))[0]
        z = (bad, other) if draw(st.booleans()) else (other, bad)
    t_kind = draw(st.sampled_from(("power", "below power", "random", "zero")))
    if t_kind == "power":
        t = (0, 1, tt - 1, 1)
    elif t_kind == "below power":
        t = (0, 2 ** bits - 1, tt - bits, bits)  # 2^tt (1 - 2^-bits)
    elif t_kind == "random":
        man = draw(st.integers(1, 2 ** bits - 1))
        t = from_man_exp(man, tt - man.bit_length())
    else:
        t = fzero
    return draw(st.integers(64, 1100)), z, t


class TestStopRule:
    @settings(max_examples=300, deadline=None)
    @given(step_near_stop())
    def test_decided_exactly(self, case):
        bits, scale, (sr, si), (x, y) = case
        # gap = 2**scale + |z| - |s| 2**(bits - 8) has three conjugates
        # (other signs of the square roots) below 2**size in modulus, and
        # the product of all four is an integer, so a gap that is not zero
        # exceeds 2**(-3 * size); mpmath at 5 * size bits decides it
        size = max(sr.bit_length(), si.bit_length(), x.bit_length(),
                   y.bit_length(), scale) + bits + 4
        with workprec(5 * size):
            gap = (mpf(2) ** scale + mpmath.sqrt(x * x + y * y)
                   - mpmath.sqrt(sr * sr + si * si) * mpf(2) ** (bits - 8))
            want = gap >= 0 or -gap < mpf(2) ** (-3 * size)
        assert _within_stop(sr, si, x, y, scale, bits) == want

    def test_ties_settle(self):
        # |s| = 2**(8 - bits) (1 + |z|) exactly, for z = 0 and for
        # z = (3k, 4k); one unit more does not settle
        bits, scale = 256, 300
        one = 1 << scale
        for k in (0, 7 << (bits - 8)):
            s = (one + 5 * k) >> (bits - 8)
            assert _within_stop(s, 0, 3 * k, 4 * k, scale, bits)
            assert _within_stop(0, -s, -3 * k, 4 * k, scale, bits)
            assert not _within_stop(s + 1, 0, 3 * k, 4 * k, scale, bits)
            assert not _within_stop(s, 1, 3 * k, 4 * k, scale, bits)


class TestMagnitudeByExponent:
    @settings(max_examples=600, deadline=None)
    @given(magnitude_and_threshold())
    # |z| = t = 2^k: the tops are equal and the rule leaves it open
    @example((128, ((0, 1, 5, 1), fzero), (0, 1, 5, 1)))
    # |z| = 2^k just above t = 2^k (1 - 2^-64)
    @example((64, (fzero, (1, 1, 5, 1)), (0, 2 ** 64 - 1, 6 - 64, 64)))
    # parts 3000 binades apart, t one binade above the larger
    @example((256, ((0, 3, -3000, 2), (1, 5, 10, 3)), (0, 1, 13, 1)))
    @example((256, (fnan, fzero), fzero))
    @example((256, (fzero, fzero), fzero))
    def test_a_decided_answer_is_the_rounded_hypots(self, case):
        prec, z, t = case
        want = mpf_gt(mpc_abs(z, prec, round_nearest), t)
        got = _abs_exceeds(z, t)
        assert got is None or got == want
        assert _abs_gt(z, t, prec) == want
        assert _abs_le(z, t, prec) == mpf_le(mpc_abs(z, prec, round_nearest), t)

    def test_the_cuts(self):
        t = (0, 1, 9, 1)  # 2^9, top 10
        for top, want in ((12, True), (11, True), (10, None), (9, None),
                          (8, False), (-500, False)):
            for man in (1, 2 ** 100 - 1):
                part = from_man_exp(man, top - man.bit_length())
                assert _abs_exceeds((part, fzero), t) is want
                assert _abs_exceeds((part, part), t) is want
        assert _abs_exceeds((fzero, fzero), fzero) is False
        assert _abs_exceeds(((0, 1, -9000, 1), fzero), fzero) is True
        assert _abs_exceeds((finf, fzero), t) is None
        assert _abs_exceeds(((0, 1, 20, 1), fzero), fnan) is None
        assert _abs_exceeds(((0, 1, 20, 1), fzero), (1, 1, 0, 1)) is None

    def test_scalar_helpers_read_as_their_hypots(self):
        # the largest modulus can sit one top below the largest top
        w = AppComplex(Fraction(7, 8), Fraction(7, 8), 256)
        assert max_abs_of([AppComplex(1, 0, 256), w]) == abs(w) > 1
        rng = random.Random(5)
        for _ in range(300):
            bits = rng.choice((64, 256, 1024))
            values = [AppComplex(
                Fraction(rng.randint(-99, 99), 7) * Fraction(2) ** rng.choice(
                    (-400, -3, -1, 0, 1, 2, 300)),
                Fraction(rng.randint(-99, 99), 3) * Fraction(2) ** rng.choice(
                    (-400, -2, 0, 1)) * rng.randint(0, 1), bits)
                for _ in range(rng.randint(1, 6))]
            values += [Fraction(rng.randint(-9, 9), 4)] * rng.randint(0, 1)
            approx = [abs(v) for v in values if isinstance(v, AppComplex)]
            assert max_abs_of(values)._mpf_ == max(
                approx + [ref_mpf(Fraction(abs(v)), 64) for v in values
                          if isinstance(v, Fraction)])._mpf_
            tol = abs(values[0]) * rng.choice((mpf(1), mpf(2) ** -3, mpf(3)))
            for v in values:
                if isinstance(v, AppComplex):
                    assert scalar_is_zero(v, tol) == (abs(v) <= tol)


class TestThresholdsAtAFixedPrecision:
    # univariate_roots takes tol * max|coeff| and the leading coefficient's
    # modulus by libmp at THRESHOLD_BITS, mpmath's default precision, so
    # the ambient mpmath.mp.prec moves no root

    def test_zero_coefficient_threshold(self):
        # tol * scale is 2^-128 * (1 + 2^-30) at 53 bits, above the constant
        # term 2^-128 * (1 + 2^-31), so one root is an exact zero; at 20
        # bits the product rounds to 2^-128, below it
        p = UniPoly([AppComplex(Fraction(2**31 + 1, 2**159)),
                     AppComplex(Fraction(2**30 + 1, 2**30)), AppComplex(1)])
        want = [r.parts for r in univariate_roots(p, 256)]
        assert (fzero, fzero) in want
        for prec in (20, 300):
            with workprec(prec):
                assert [r.parts for r in univariate_roots(p, 256)] == want

    def test_leading_coefficient_threshold(self):
        # |lead| = 2^-128 * (1 + 2^-31) is above tol * scale = 2^-128 at 53
        # bits and rounds onto it at 20
        p = UniPoly([AppComplex(1), AppComplex(Fraction(2**31 + 1, 2**159))])
        want = [r.parts for r in univariate_roots(p, 256)]
        for prec in (20, 300):
            with workprec(prec):
                assert [r.parts for r in univariate_roots(p, 256)] == want
