import random
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from mpmath import mpf, workprec

from openwaring import (AppComplex, DualOp, Form, InvalidInputError,
                        LinearForm, NonHomogeneousError, ParseError,
                        change_coordinates, contract, evaluate_dual,
                        linear_power, parse_form, render_form)
from openwaring import poly
from openwaring.linalg import rational_det
from openwaring.numerics import is_exact_scalar
from openwaring.poly import (_substitute, _subtract_powers, dual_power,
                             evaluate, monomials_of_degree)
from conftest import (random_form, random_linear_form, reference_evaluate,
                      reference_sparse_sub)


def _sympy_vars(n):
    return sympy.symbols(f"x0:{n}")


def to_sympy(f, xs):
    expr = sympy.Integer(0)
    for expo, c in f.coeffs.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(xs, expo):
            term *= x ** e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr, xs, degree):
    poly = sympy.Poly(expr, *xs)
    coeffs = {}
    for expo, c in poly.terms():
        coeffs[tuple(int(e) for e in expo)] = Fraction(int(sympy.numer(c)),
                                                       int(sympy.denom(c)))
    return Form(len(xs), degree, coeffs)


class TestContract:
    def test_simple_partials(self):
        f = parse_form("x0^3", 2)
        op = DualOp(2, 1, {(1, 0): Fraction(1)})
        assert contract(op, f) == parse_form("3*x0^2", 2)
        op2 = DualOp(2, 1, {(0, 1): Fraction(1)})
        assert contract(op2, f).is_zero()

    def test_mixed_partial(self):
        f = parse_form("x0^2*x1", 2)
        op = DualOp(2, 2, {(1, 1): Fraction(1)})
        assert contract(op, f) == parse_form("2*x0", 2)

    def test_against_sympy_differentiation(self, rng):
        # oracle: iterated sympy derivatives
        for _ in range(15):
            n = rng.randint(2, 4)
            d = rng.randint(2, 5)
            e = rng.randint(1, d)
            f = random_form(rng, n, d)
            op_expo = random.Random(rng.random()).choices(range(n), k=e)
            expo = tuple(op_expo.count(i) for i in range(n))
            op = DualOp(n, e, {expo: Fraction(1)})
            xs = _sympy_vars(n)
            expr = to_sympy(f, xs)
            for i, k in enumerate(expo):
                for _ in range(k):
                    expr = sympy.diff(expr, xs[i])
            got = contract(op, f)
            want = from_sympy(expr, xs, d - e)
            assert got == want

    def test_degree_and_shape_errors(self):
        f = parse_form("x0^2", 2)
        with pytest.raises(InvalidInputError):
            contract(DualOp(2, 3, {(3, 0): Fraction(1)}), f)
        with pytest.raises(InvalidInputError):
            contract(DualOp(3, 1, {(1, 0, 0): Fraction(1)}), f)

    def test_composition(self, rng):
        for _ in range(10):
            n = rng.randint(2, 3)
            f = random_form(rng, n, 4)
            e1 = tuple(1 if i == 0 else 0 for i in range(n))
            e2 = tuple(1 if i == n - 1 else 0 for i in range(n))
            op1 = DualOp(n, 1, {e1: Fraction(2)})
            op2 = DualOp(n, 1, {e2: Fraction(3)})
            prod = DualOp(n, 2, {tuple(a + b for a, b in zip(e1, e2)): Fraction(6)})
            assert contract(op1, contract(op2, f)) == contract(prod, f)

    # rational op and f run on integers over den_op * den_f; the oracle is
    # sympy: sum over op's monomials c * (iterated partials of f)

    def sympy_contract(self, op, f):
        xs = _sympy_vars(f.num_vars)
        expr = to_sympy(f, xs)
        out = sympy.Integer(0)
        for a, c in op.coeffs.items():
            de = expr
            for x, k in zip(xs, a):
                de = sympy.diff(de, x, k) if k else de
            out += sympy.Rational(c.numerator, c.denominator) * de
        return from_sympy(sympy.expand(out), xs, f.degree - op.degree)

    def test_cancelled_coefficient_returns_at_the_end(self):
        # the x0*x1 coefficient: 2 * 1/2 * 3/4 from d0, then 2 * 3 * (-1/8)
        # from d1 cancels it, and -2/3 * 7/3 from d2 brings it back, after
        # every monomial met in between
        op = DualOp(3, 1, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(3),
                           (0, 0, 1): Fraction(-2, 3)})
        f = Form(3, 3, {(2, 1, 0): Fraction(3, 4), (3, 0, 0): Fraction(1, 5),
                        (1, 2, 0): Fraction(-1, 8), (1, 1, 1): Fraction(7, 3)})
        got = contract(op, f)
        assert list(got.coeffs) == [(2, 0, 0), (0, 2, 0), (0, 1, 1),
                                    (1, 0, 1), (1, 1, 0)]
        assert got.coeffs[(1, 1, 0)] == Fraction(-14, 9)
        assert all(type(c) is Fraction for c in got.coeffs.values())
        assert got == self.sympy_contract(op, f)

    def test_zero_entries_and_integral_fractions(self, rng):
        for _ in range(12):
            n = rng.randint(2, 4)
            d = rng.randint(2, 5)
            e = rng.randint(1, d)
            alpha = [rng.choice((0, Fraction(0), rng.randint(-4, 4),
                                 Fraction(rng.randint(-4, 4)),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
                     for _ in range(n)]
            alpha[rng.randrange(n)] = Fraction(rng.choice((-2, 1, 3)))
            op = dual_power(alpha, e)
            f = Form(n, d, {m: c / rng.randint(1, 7) for m, c
                            in random_form(rng, n, d).coeffs.items()})
            got = contract(op, f)
            assert all(type(c) is Fraction for c in got.coeffs.values())
            assert got == self.sympy_contract(op, f), (alpha, e)


class TestLinearPower:
    def test_square_of_sum(self):
        l = LinearForm([1, 1])
        assert linear_power(l, 2) == parse_form("x0^2 + 2*x0*x1 + x1^2", 2)

    def test_single_variable(self):
        assert linear_power(LinearForm([1, 0]), 3) == parse_form("x0^3", 2)

    def test_alternating_cube(self):
        l = LinearForm([1, -1])
        assert linear_power(l, 3) == parse_form(
            "x0^3 - 3*x0^2*x1 + 3*x0*x1^2 - x1^3", 2)

    def test_derivation_rule(self, rng):
        # d ( l^d ) under a degree-1 operator equals d * (op . l) * l^(d-1)
        for _ in range(12):
            n = rng.randint(2, 4)
            d = rng.randint(1, 8)
            l = random_linear_form(rng, n)
            alpha = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            if not any(alpha):
                alpha[0] = Fraction(1)
            op = DualOp(n, 1, {tuple(1 if j == i else 0 for j in range(n)): a
                               for i, a in enumerate(alpha) if a})
            lhs = contract(op, linear_power(l, d))
            dot = sum(a * c for a, c in zip(alpha, l.coords))
            rhs = linear_power(l, d - 1).scale(Fraction(d) * dot)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# The inductive step's remainder f - sum w * l^d: the leading rational terms
# of a rational f run in one pass on integers over one common denominator,
# the rest subtracts term by term; both must give the layout of the chained
# Form.__sub__ below.


def chained_remainder(f, terms):
    for w, l in terms:
        f = f - linear_power(l, f.degree).scale(w)
    return f


@st.composite
def remainder_cases(draw):
    """A rational f and terms (w, l), some of them built to cancel a
    monomial of the partial remainder so far, which a later term may bring
    back; now and then a term is approximate, and the rational terms
    after it must then be subtracted one at a time."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    f = Form(n, d, {e: draw(rational) for e in monomials_of_degree(n, d)
                    if draw(st.booleans())})
    terms, partial = [], f
    for _ in range(draw(st.integers(0, 5))):
        coords = [draw(rational) if draw(st.booleans()) else Fraction(0)
                  for _ in range(n)]
        if not any(coords):
            coords[draw(st.integers(0, n - 1))] = Fraction(draw(
                st.sampled_from((-2, 1, 3))))
        if draw(st.integers(0, 3)) == 0:
            coords = [AppComplex(x, 0, 128) if x else x for x in coords]
        l = LinearForm(coords)
        power = linear_power(l, d)
        shared = [e for e in power.coeffs if e in partial.coeffs]
        if shared and draw(st.booleans()):
            e = draw(st.sampled_from(shared))
            w = partial.coeffs[e] / power.coeffs[e]
        else:
            w = draw(st.one_of(rational, st.integers(-3, 3)))
        terms.append((w, l))
        partial = chained_remainder(partial, [(w, l)])
    return f, terms


class TestSubtractPowers:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(remainder_cases())
    def test_matches_the_chained_subtraction(self, case):
        f, terms = case
        got = _subtract_powers(f, terms)
        if all(l.is_exact() for _, l in terms):
            assert all(type(c) is Fraction for c in got.coeffs.values())
        assert layout(got) == layout(chained_remainder(f, terms))

    def test_cancelled_monomial_returns_at_the_end(self, monkeypatch):
        # x1^2, f's first monomial, cancels on the first term and comes
        # back on the second, after x0x1 and the new x0^2; no power is built
        # as a Form on the way
        f = Form(2, 2, {(0, 2): Fraction(1, 2), (1, 1): Fraction(3)})
        terms = [(Fraction(1, 8), LinearForm([0, 2])),
                 (Fraction(-1, 3), LinearForm([Fraction(1, 2), 1]))]
        monkeypatch.setattr(poly, "linear_power", None)
        got = _subtract_powers(f, terms)
        assert list(got.coeffs.items()) == [
            ((1, 1), Fraction(10, 3)), ((2, 0), Fraction(1, 12)),
            ((0, 2), Fraction(1, 3))]
        monkeypatch.undo()
        assert layout(got) == layout(chained_remainder(f, terms))

    def test_terms_from_an_approximate_one_on_go_one_at_a_time(
            self, monkeypatch):
        # the leading rational term runs on integers; the approximate term
        # and the rational one after it are built as Forms and subtracted
        f = Form(3, 3, {(3, 0, 0): Fraction(2, 3), (1, 1, 1): Fraction(-5)})
        terms = [(Fraction(2, 3), LinearForm([1, 0, 0])),
                 (AppComplex(Fraction(1, 7), 2, 128),
                  LinearForm([Fraction(1, 2), 3, AppComplex(-1, 0, 256)])),
                 (Fraction(-1, 5), LinearForm([1, 1, 1]))]
        built = []
        real = poly.linear_power
        monkeypatch.setattr(poly, "linear_power",
                            lambda l, d: built.append(l) or real(l, d))
        got = _subtract_powers(f, terms)
        assert built == [l for _, l in terms[1:]]
        assert not got.is_exact()
        monkeypatch.undo()
        assert layout(got) == layout(chained_remainder(f, terms))
        # an approximate f rounds from the first term on
        g = f.scale(AppComplex(1, 0, 128))
        built.clear()
        monkeypatch.setattr(poly, "linear_power",
                            lambda l, d: built.append(l) or real(l, d))
        got = _subtract_powers(g, terms)
        assert built == [l for _, l in terms]
        monkeypatch.undo()
        assert layout(got) == layout(chained_remainder(g, terms))


class TestChangeCoordinates:
    def test_identity(self, rng):
        f = random_form(rng, 3, 3)
        ident = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
        assert change_coordinates(f, ident) == f

    def test_swap(self):
        f = parse_form("x0^2*x1", 2)
        swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert change_coordinates(f, swap) == parse_form("x1^2*x0", 2)

    def test_shear(self):
        f = parse_form("x0^2", 2)
        m = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        assert change_coordinates(f, m) == parse_form("x0^2 + 2*x0*x1 + x1^2", 2)

    def test_inverse_round_trip(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            f = random_form(rng, n, 3)
            while True:
                m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                     for _ in range(n)]
                if rational_det(m) != 0:
                    break
            inv = sympy.Matrix(m).inv()
            h = change_coordinates(f, m)
            back = change_coordinates(h, [
                [Fraction(int(sympy.numer(x)), int(sympy.denom(x)))
                 for x in inv.row(i)] for i in range(n)])
            assert back == f

    def test_singular_rejected(self):
        f = parse_form("x0^2", 2)
        with pytest.raises(InvalidInputError):
            change_coordinates(f, [[Fraction(1), Fraction(1)],
                                   [Fraction(1), Fraction(1)]])


class TestEvaluateDual:
    def test_vanishing_cases(self):
        op = DualOp(3, 2, {(1, 1, 0): Fraction(1)})
        assert evaluate_dual(op, LinearForm([1, 0, 0])) == 0
        op2 = DualOp(3, 2, {(2, 0, 0): Fraction(1)})
        assert evaluate_dual(op2, LinearForm([1, 1, 1])) == 1

    def test_conic_at_point(self):
        # direct substitution oracle: y0*y1 - y2^2 at (0,1,0) is 0*1 - 0 = 0
        op = DualOp(3, 2, {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(-1)})
        assert evaluate_dual(op, LinearForm([0, 1, 0])) == 0


class TestParseRender:
    def test_known_forms(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        assert f.coeffs == {(1, 2, 0): Fraction(1), (0, 1, 2): Fraction(1)}
        g = parse_form("x0^3 + x1^3 + x2^3", 3)
        assert g.degree == 3 and len(g.coeffs) == 3

    def test_rational_coefficients_and_signs(self):
        f = parse_form("-2/3*x0^2 + x0*x1 - x1^2", 2)
        assert f.coeffs[(2, 0)] == Fraction(-2, 3)
        assert f.coeffs[(0, 2)] == Fraction(-1)

    def test_non_homogeneous_reports_offenders(self):
        with pytest.raises(NonHomogeneousError) as exc:
            parse_form("x0^2 + x1^3", 2)
        assert "x0^2" in str(exc.value)

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_form("x5^2", 2)

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_form("x0^2 + bogus", 2)
        with pytest.raises(ParseError):
            parse_form("", 2)

    def test_round_trip(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            d = rng.randint(1, 5)
            f = random_form(rng, n, d)
            assert parse_form(render_form(f), n) == f

    def test_whitespace_insensitive(self):
        assert parse_form(" x0 * x1 ^ 2".replace(" ", ""), 2) == \
            parse_form("x0*x1^2", 2)


# ---------------------------------------------------------------------------
# `_power_of_linear` takes its multinomials from a table per shape and each
# coordinate power once, and `_substitute` builds each (variable, exponent)
# piece once per call, runs rational input on integers over one common
# denominator and adds every other contribution straight into one dict; the
# references below are the per-monomial formulas, Fraction arithmetic and
# Form sums they replace, and results must agree bit for bit, in
# coefficient order.


def ref_power_of_linear(coords, d, cls):
    if d < 0:
        raise InvalidInputError("exponent must be non-negative")
    n = len(coords)
    out = {}
    for expo in monomials_of_degree(n, d):
        c = Fraction(factorial(d))
        for e in expo:
            c /= factorial(e)
        val = c
        skip = False
        for x, e in zip(coords, expo):
            if e == 0:
                continue
            if is_exact_scalar(x) and x == 0:
                skip = True
                break
            val = val * x ** e
        if skip or (is_exact_scalar(val) and val == 0):
            continue
        out[expo] = val
    return cls(n, d, out)


def ref_multiply(f, g):
    cls = type(f)
    n = f.num_vars
    out = {}
    for a, u in f.coeffs.items():
        for b, v in g.coeffs.items():
            t = tuple(a[i] + b[i] for i in range(n))
            s = out.get(t, Fraction(0)) + u * v
            if is_exact_scalar(s) and s == 0:
                out.pop(t, None)
            else:
                out[t] = s
    return cls(n, f.degree + g.degree, out)


def ref_substitute(f, matrix):
    n = f.num_vars
    cls = type(f)
    lin = [LinearForm(matrix[i]) for i in range(n)]
    out = cls(n, f.degree, {})
    for expo, c in f.coeffs.items():
        term = None
        for i, e in enumerate(expo):
            if e == 0:
                continue
            piece = ref_power_of_linear(lin[i].coords, e, cls)
            term = piece if term is None else ref_multiply(term, piece)
        if term is None:
            term = cls(n, 0, {(0,) * n: Fraction(1)})
        out = out + term.scale(c)
    return out


def raw_scalar(x):
    if isinstance(x, AppComplex):
        return ("AppComplex", x.real._mpf_, x.imag._mpf_, x.precision_bits)
    return (type(x).__name__, x)


def layout(p):
    """Everything a later step can see of a Form or DualOp, in dict order."""
    return (type(p).__name__, p.num_vars, p.degree,
            [(e, raw_scalar(c)) for e, c in p.coeffs.items()])


BIT_SIZES = (64, 256, 1088)


def random_scalar(rng, bits):
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.5:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    if kind < 0.6:
        return AppComplex(0, 0, bits)
    num = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
    return AppComplex(num, rng.choice([0, num / 7, -num]), bits)


def random_coords(rng, n, bits):
    coords = [random_scalar(rng, bits) for _ in range(n)]
    if all(is_exact_scalar(x) and x == 0 for x in coords):
        coords[rng.randrange(n)] = Fraction(rng.randint(1, 9))
    return coords


class TestPowerTablesKeepEveryBit:
    @pytest.mark.parametrize("bits", BIT_SIZES)
    def test_linear_and_dual_power(self, bits):
        rng = random.Random(bits)
        cleared = 0  # draws that take the rational branch of _power_coeffs
        for n in range(1, 9):
            for d in range(0, 7):
                coords = random_coords(rng, n, bits)
                l = LinearForm(coords)
                cleared += all(is_exact_scalar(x) for x in coords) and any(
                    x.denominator > 1 for x in coords)
                assert layout(linear_power(l, d)) == layout(
                    ref_power_of_linear(l.coords, d, Form)), (n, d)
                alpha = [rng.randint(-3, 3) if is_exact_scalar(x) else x
                         for x in coords]
                assert layout(dual_power(alpha, d)) == layout(
                    ref_power_of_linear(tuple(alpha), d, DualOp)), (n, d)
        assert cleared >= 3

    def test_rational_coordinates_are_cleared_to_integers(self, monkeypatch):
        # denominators above 1, and integral Fractions mixed with ints and
        # zeros: each power is taken once more on the cleared integers
        rng = random.Random(5)
        calls = []
        real = poly._power_coeffs
        monkeypatch.setattr(poly, "_power_coeffs",
                            lambda c, d: calls.append(tuple(c)) or real(c, d))
        for n in range(1, 6):
            for d in range(0, 6):
                for den in (1, 6):
                    coords = [rng.choice((0, rng.randint(-4, 4),
                                          Fraction(rng.randint(-9, 9), den)))
                              for _ in range(n)]
                    coords[rng.randrange(n)] = Fraction(rng.randint(1, 5), den)
                    calls.clear()
                    assert layout(dual_power(coords, d)) == layout(
                        ref_power_of_linear(tuple(coords), d, DualOp)), (n, d)
                    assert layout(linear_power(LinearForm(coords), d)) == \
                        layout(ref_power_of_linear(
                            LinearForm(coords).coords, d, Form)), (n, d)
                    assert len(calls) == 4 and all(
                        type(x) is int for x in calls[1] + calls[3])

    @pytest.mark.parametrize("bits", BIT_SIZES)
    @pytest.mark.parametrize("cls", [Form, DualOp])
    def test_change_coordinates(self, cls, bits):
        rng = random.Random(7 * bits + (cls is DualOp))
        for n in range(1, 5):
            for d in range(0, 5):
                coeffs = {e: random_scalar(rng, bits)
                          for e in monomials_of_degree(n, d)
                          if rng.random() < 0.6}
                f = cls(n, d, coeffs)
                while True:
                    m = [random_coords(rng, n, bits) for _ in range(n)]
                    if not all(is_exact_scalar(x) for row in m for x in row):
                        break
                    if rational_det(m) != 0:
                        break
                assert layout(change_coordinates(f, m)) == layout(
                    ref_substitute(f, m)), (n, d)


def scalar_of_kind(rng, kind, bits):
    """A random scalar: rational for "exact", AppComplex for "approximate",
    either for "mixed"."""
    x = random_scalar(rng, bits)
    if kind == "exact" and not is_exact_scalar(x):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == "approximate" and is_exact_scalar(x):
        return AppComplex(x, Fraction(rng.randint(-9, 9), 5), bits)
    return x


class TestEvaluateKeepsEveryBit:
    @pytest.mark.parametrize("bits", BIT_SIZES)
    @pytest.mark.parametrize("kind", ["exact", "approximate", "mixed"])
    def test_matches_the_reference(self, kind, bits):
        # a coordinate with exponent 1 is multiplied in without ** 1, and
        # the sum starts from its first term instead of Fraction(0)
        rng = random.Random(f"{kind}/{bits}")
        for _ in range(40):
            n, d = rng.randint(1, 5), rng.randint(0, 5)
            cls = rng.choice((Form, DualOp))
            f = cls(n, d, sparse_coeffs(
                rng, n, d, lambda: scalar_of_kind(rng, kind, bits)))
            coords = [scalar_of_kind(rng, kind, bits) for _ in range(n)]
            if rng.random() < 0.3:
                coords[rng.randrange(n)] = Fraction(0)
            assert raw_scalar(evaluate(f, coords)) == raw_scalar(
                reference_evaluate(f, coords)), (f, coords)


class TestSubtractionKeepsEveryBit:
    @pytest.mark.parametrize("kind", ["exact", "approximate", "mixed"])
    def test_matches_the_sum_with_the_negation(self, kind):
        # c1 - c2 per monomial in one pass against self + (-1) * other, in
        # dict order; shared, cancelling and one-sided monomials, and
        # operands of different precisions
        rng = random.Random(f"sub/{kind}")
        for _ in range(120):
            cls = rng.choice((Form, DualOp))
            n, d = rng.randint(1, 4), rng.randint(0, 4)
            bits = rng.choice(BIT_SIZES)
            a = cls(n, d, sparse_coeffs(
                rng, n, d, lambda: scalar_of_kind(rng, kind, bits)))
            b_bits = rng.choice(BIT_SIZES)
            coeffs = sparse_coeffs(
                rng, n, d, lambda: scalar_of_kind(rng, kind, b_bits))
            for e, c in a.coeffs.items():
                if rng.random() < 0.3:  # cancels exactly when c is rational
                    coeffs[e] = c
            b = cls(n, d, coeffs)
            for x, y in ((a, b), (b, a), (a, a)):
                assert layout(x - y) == layout(reference_sparse_sub(x, y))

    def test_an_exact_cancellation_is_dropped(self):
        f = parse_form("x0^2 + 2*x0*x1 - x1^2", 2)
        g = parse_form("x0^2 + 3*x1^2", 2)
        assert list((f - g).coeffs.items()) == [
            ((1, 1), Fraction(2)), ((0, 2), Fraction(-4))]
        assert (f - f).is_zero() and (f - f).coeffs == {}


def random_rational(rng, small=False):
    if rng.random() < 0.3:
        return Fraction(0)
    if small:
        return Fraction(rng.choice((-1, 1)))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                    rng.choice((1, 2, 3, 4, 6, 9, 10, 35)))


def rational_matrix(rng, n, small=False):
    """Mixed denominators (and some plain ints), zero entries, and now and
    then a singular row: zero, or a multiple of an earlier row."""
    m = [[random_rational(rng, small) for _ in range(n)] for _ in range(n)]
    for row in m:
        for j, x in enumerate(row):
            if x.denominator == 1 and rng.random() < 0.3:
                row[j] = int(x)
    if n > 1 and rng.random() < 0.3:
        i = rng.randrange(1, n)
        m[i] = [x * rng.choice((0, 1, Fraction(-2, 3))) for x in m[rng.randrange(i)]]
    return m


def sparse_coeffs(rng, n, d, scalar, cap=10):
    monos = list(monomials_of_degree(n, d))
    chosen = rng.sample(monos, min(cap, len(monos)))
    return {e: scalar() for e in monos if e in chosen}


class TestSubstituteKeepsEveryBit:
    @pytest.mark.parametrize("cls", [Form, DualOp])
    def test_exact_input_on_integers(self, cls):
        rng = random.Random(11 + (cls is DualOp))
        for n in range(1, 7):
            for d in range(0, 7):
                for small in (False, True):
                    f = cls(n, d, sparse_coeffs(
                        rng, n, d, lambda: random_rational(rng, small)
                        * rng.randint(1, 2)))
                    m = rational_matrix(rng, n, small)
                    got = _substitute(f, m)
                    assert all(isinstance(c, Fraction) for c in got.coeffs.values())
                    assert layout(got) == layout(ref_substitute(f, m)), (n, d)

    def test_cancelled_coefficient_returns_at_the_end(self):
        # 2(x1-x0)^2 + 2(x1-x0)x0 - x0^2: the x0^2 coefficient cancels on the
        # second monomial and comes back on the third, after x0*x1 and x1^2
        f = Form(2, 2, {(2, 0): Fraction(2), (1, 1): Fraction(2),
                        (0, 2): Fraction(-1)})
        m = [[-1, 1], [1, 0]]
        got = _substitute(f, m)
        assert list(got.coeffs.items()) == [
            ((1, 1), Fraction(-2)), ((0, 2), Fraction(2)), ((2, 0), Fraction(-1))]
        assert layout(got) == layout(ref_substitute(f, m))

    @pytest.mark.parametrize("bits", BIT_SIZES)
    @pytest.mark.parametrize("kind", ["approximate", "exact form", "exact matrix"])
    def test_approximate_input(self, kind, bits):
        rng = random.Random(bits + len(kind))

        def approximate():
            num = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            return AppComplex(num, rng.choice([0, num / 3, -num]), bits)

        form_scalar = (lambda: random_rational(rng)) if kind == "exact form" \
            else approximate
        for cls in (Form, DualOp):
            for n in range(1, 5):
                for d in range(0, 6):
                    f = cls(n, d, sparse_coeffs(rng, n, d, form_scalar))
                    if kind == "exact matrix":
                        m = rational_matrix(rng, n)
                    else:
                        m = [[Fraction(0) if rng.random() < 0.2 else approximate()
                              for _ in range(n)] for _ in range(n)]
                    assert layout(_substitute(f, m)) == layout(
                        ref_substitute(f, m)), (cls, n, d)


@st.composite
def rational_substitutions(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    coeffs = {e: draw(rational) for e in monomials_of_degree(n, d)
              if draw(st.booleans())}
    m = [[draw(rational) for _ in range(n)] for _ in range(n)]
    return Form(n, d, coeffs), m


@settings(max_examples=60, deadline=None)
@given(rational_substitutions())
def test_substitute_matches_sympy(case):
    f, m = case
    xs = _sympy_vars(f.num_vars)
    images = {x: sum((sympy.Rational(c.numerator, c.denominator) * y
                      for c, y in zip(row, xs)), sympy.Integer(0))
              for x, row in zip(xs, m)}
    expected = sympy.expand(to_sympy(f, xs).xreplace(images))
    assert sympy.expand(to_sympy(_substitute(f, m), xs) - expected) == 0


def test_norm1_ignores_the_ambient_precision():
    # an approximate 1-norm is summed by libmp at 53 bits: the sum the mpf
    # operators give at mpmath's default precision, whatever the ambient one
    rng = random.Random(11)
    for _ in range(50):
        bits = rng.choice((64, 256))
        coeffs = {}
        for expo in monomials_of_degree(3, 2):
            k = rng.randint(0, 2)
            if k == 1:
                coeffs[expo] = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
            elif k == 2:
                coeffs[expo] = AppComplex(
                    Fraction(2**40 + rng.randint(-9, 9), 2**40),
                    Fraction(rng.randint(-9, 9), 7), bits)
        f = Form(3, 2, coeffs)
        s = Fraction(0)
        for c in f.coeffs.values():
            s = s + abs(c)
        norm = f.norm1()
        assert type(norm) is type(s)
        raw = norm._mpf_ if type(norm) is mpf else norm
        assert raw == (s._mpf_ if type(s) is mpf else s)
        for prec in (20, 300):
            with workprec(prec):
                again = f.norm1()
                assert (again._mpf_ if type(again) is mpf else again) == raw
