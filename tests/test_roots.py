"""``univariate_roots`` against ``mpmath.polyroots`` at twice the precision.

The property draws degrees 3-10 at 64-1024 bits, exact and approximate
coefficients, dense integer polynomials and products over clusters of two
or three roots 10^-3 to 10^-8 apart, with coefficients of height 9, 10^12
and 10^400, beyond the double range.  Every returned root must lie within
the certificate's bound of its own reference root, one to one.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf, workprec

from openwaring.numerics import AppComplex, UniPoly, univariate_roots


def product(roots):
    """Ascending rational coefficients of the product of x - r over real
    rational r and of x^2 - 2a x + a^2 + b^2 over pairs (a, b)."""
    coeffs = [Fraction(1)]
    for r in roots:
        f = ([r[0] ** 2 + r[1] ** 2, -2 * r[0], 1] if isinstance(r, tuple)
             else [-r, 1])
        out = [Fraction(0)] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] += a * b
        coeffs = out
    return coeffs


def clustered_roots(rng, deg):
    """Two or three real roots 10^-s apart, s in 3..8, then real rationals
    and conjugate pairs up to degree ``deg``."""
    centre = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
    gap = Fraction(1, 10 ** rng.randint(3, 8))
    roots = [centre + j * gap for j in range(rng.randint(2, 3))]
    size = len(roots)
    while size < deg:
        if deg - size >= 2 and rng.random() < 0.5:
            roots.append((Fraction(rng.randint(-9, 9), 2),
                          Fraction(rng.randint(1, 9), 3)))
            size += 2
        else:
            roots.append(Fraction(rng.randint(-30, 30), rng.randint(1, 3)))
            size += 1
    return roots


@st.composite
def polynomials(draw):
    bits = draw(st.sampled_from((64, 128, 256, 512, 1024)))
    deg = draw(st.integers(3, 10))
    height = draw(st.sampled_from((9, 10 ** 12, 10 ** 400)))
    approximate = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        coeffs = [Fraction(rng.randint(-height, height)) for _ in range(deg + 1)]
        coeffs[0] = coeffs[0] or Fraction(1)
        coeffs[-1] = coeffs[-1] or Fraction(1)
    else:
        coeffs = [c * height for c in product(clustered_roots(rng, deg))]
    if approximate:
        # rounded at the working precision or above it, some with an
        # imaginary part
        at = rng.choice((bits, bits + 40))
        coeffs = [AppComplex(c, rng.choice((0, 0, c / 7)), at) for c in coeffs]
    return UniPoly(coeffs), bits


def as_mpc(c):
    return c.to_mpc() if isinstance(c, AppComplex) else mpf(c.numerator) / c.denominator


def one_to_one(candidates):
    """Whether each row of ``candidates`` (row i: the columns it may take)
    gets a column of its own, by augmenting paths."""
    owner = {}

    def place(i, seen):
        for j in candidates[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(candidates)))


def assert_matches_polyroots(p, bits):
    roots = univariate_roots(p, bits)
    assert len(roots) == p.degree
    with workprec(2 * bits):
        cs = [as_mpc(c) for c in p.coeffs]
        want = mpmath.polyroots(cs[::-1], maxsteps=2000, extraprec=2 * bits)
        scale = max(abs(c) for c in cs)
        lead = abs(cs[-1])
        candidates = []
        for r in roots:
            z = r.to_mpc()
            # the certificate: |p(z)| <= 2^-(bits/2) * max|c| * max(1, |z|)^deg,
            # with room for the rounding of its own evaluation
            bound = mpf(2) ** -(bits // 2) * scale * max(1, abs(z)) ** p.degree
            assert abs(mpmath.polyval(cs[::-1], z)) <= 2 * bound
            # so some root of p lies within (bound / |lead|)^(1/deg) of z
            radius = (bound / lead) ** (mpf(1) / p.degree)
            candidates.append([j for j, w in enumerate(want)
                               if abs(z - w) <= radius])
    assert one_to_one(candidates)
    return roots


def poly(*coeffs):
    return UniPoly([Fraction(c) for c in coeffs])


class TestAgainstPolyroots:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(polynomials())
    def test_roots_match_one_to_one(self, case):
        assert_matches_polyroots(*case)

    @pytest.mark.parametrize("p, near_one", [
        # x^3 + x + 10^400: the monic constant term is beyond doubles
        (poly(10 ** 400, 1, 0, 1), 0),
        # x^3 - 10^300 x^2 + 1: a root near 10^300, whose cube is beyond
        # doubles
        (poly(1, 0, -10 ** 300, 1), 0),
        # approximate (x - 1)^2 (x + 2), which is not split into squarefree
        # factors: both roots at 1 come back within 2^-100 of it
        (UniPoly([AppComplex(c, 0, 256) for c in (2, -3, 0, 1)]), 2),
        # x^3 - 2: three well separated roots, one real
        (poly(-2, 0, 0, 1), 0),
        # (x - 1)(x - 1 - 2^-20)(x + 2): two roots far closer to each other
        # than to the third, yet far wider apart than the match radius
        # (about 2^-42 here), so a root lost to two approximations drawn
        # to one shows
        (UniPoly(product([Fraction(1), 1 + Fraction(1, 2 ** 20),
                          Fraction(-2)])), 1),
    ], ids=["beyond-doubles", "huge-root", "double-root", "separated-cubic",
            "close-pair"])
    def test_hard_inputs(self, p, near_one):
        roots = assert_matches_polyroots(p, 256)
        assert sum(abs(r.to_mpc() - 1) < mpf(2) ** -100
                   for r in roots) == near_one


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the residual certificate of univariate_roots "
                          "scales with max|coeff|, so it accepts small roots "
                          "that are wrong beside a huge coefficient")
def test_small_roots_beside_a_huge_coefficient():
    # x^3 - 10^300 x^2 + 1 has roots near 10^300 and +-1.0e-150; at 256 bits
    # the two small ones come back as -6.6e-148 + 1.1e-147i and
    # 3.4e-148 - 5.8e-148i, since |p(r)| ~ 10^6 there is far below the
    # certificate's bound of about 2^-128 * 10^300
    roots = [r.to_mpc() for r in univariate_roots(poly(1, 0, -10 ** 300, 1), 256)]
    with workprec(2000):
        want = mpmath.polyroots([1, -mpf(10) ** 300, 0, 1], maxsteps=500,
                                extraprec=2000)
        assert len(roots) == len(want) == 3
        for w in want:
            assert min(abs(z - w) for z in roots) <= mpf(2) ** -128 * abs(w)
