import dataclasses
import hashlib
import importlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from mpmath import mpf, sqrt, workprec

from openwaring import (AppComplex, CommonComponentError, ConsistencyError,
                        Decomposition, DualOp, ForbiddenSet, Form,
                        InvalidInputError, LinearForm, NoFitError,
                        NonTransversalError, OpenWaringError,
                        RetryBudgetError, absorb_coefficients,
                        base_points, catalecticant_lower_bound,
                        check_decomposition, conic_intersection, decompose,
                        decompose_binary, decompose_inductive,
                        decompose_quadratic, decompose_ternary_cubic,
                        essential_variables, fit_coefficients, is_forbidden,
                        linear_power, parse_form, recursion_bound)
from openwaring import linalg
from openwaring.apolarity import _subspace_lift
from openwaring.decompose import (_Ctx, _coords_scale, _fold_cube,
                                  _inductive_essential, _map_terms_back,
                                  _power_of_two_near, _proportional_linear,
                                  _quadratic_essential, _restrict_forbidden)
from openwaring.numerics import (GUARD_BITS, is_exact_scalar, max_abs_of,
                                 scalar_is_zero, tolerance)
from openwaring.poly import contract, monomials_of_degree
from conftest import (AMBIENT_PRECISIONS, assert_same_verdict,
                      at_each_precision, random_essential_form, random_form,
                      random_hyperplanes, random_linear_form, reference_check,
                      reference_linear_divides, reference_map_terms_back,
                      reference_quadratic_essential)


def gram_rank(f):
    """Independent oracle: rank of the symmetric coefficient matrix by a
    local fraction elimination."""
    n = f.num_vars
    a = [[Fraction(0)] * n for _ in range(n)]
    for expo, c in f.coeffs.items():
        idx = [i for i, e in enumerate(expo) for _ in range(e)]
        i, j = idx[0], idx[1]
        if i == j:
            a[i][i] = c
        else:
            a[i][j] = a[j][i] = c / 2
    rank = 0
    rows = [row[:] for row in a]
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, n):
            if rows[r][col]:
                fct = rows[r][col] / rows[rank][col]
                rows[r] = [x - fct * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestForbiddenSet:
    def test_membership(self):
        V = ForbiddenSet.from_text("l0", 3)
        assert not is_forbidden(LinearForm([1, 1, 0]), V)
        assert is_forbidden(LinearForm([0, 1, 0]), V)

    def test_conservative_on_tiny_coordinates(self):
        V = ForbiddenSet.from_text("l1", 3)
        eps = AppComplex(0, 0, 256) + AppComplex(mpf(2) ** -200, 0, 256)
        l = LinearForm([AppComplex(1, 0, 256), eps, AppComplex(0, 0, 256)])
        assert is_forbidden(l, V)

    def test_file_round_trip(self):
        V = ForbiddenSet.from_text("l0\n2*l1^2 - l0*l2\n", 3)
        assert len(V.constraints) == 2
        again = ForbiddenSet.from_text(V.to_text(), 3)
        assert [g.coeffs for g in again.constraints] == \
            [g.coeffs for g in V.constraints]

    def test_rejects_zero_constraint(self):
        with pytest.raises(InvalidInputError):
            ForbiddenSet(2, (Form(2, 1, {}),))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_restriction_decides_whether_the_hyperplane_is_forbidden(self, data):
        # restricting V to the hyperplane alpha . x = 0 through the lift
        # `_subspace_lift` writes down for the column alpha fails exactly
        # when the substitution of the first nonzero coordinate says the
        # hyperplane lies in V(g)
        n = data.draw(st.integers(2, 5), label="n")
        alpha = data.draw(st.lists(st.integers(-7, 7), min_size=n, max_size=n)
                          .filter(any), label="alpha")
        d = data.draw(st.integers(1, 3), label="degree")
        multiple = data.draw(st.booleans(), label="multiple of alpha")
        coeff = st.fractions(-20, 20, max_denominator=12).filter(bool)
        monos = monomials_of_degree(n, d - 1 if multiple else d)
        h = data.draw(st.dictionaries(st.sampled_from(monos), coeff,
                                      min_size=1, max_size=6), label="h")
        if multiple:  # g = (alpha . x) * h, which the hyperplane must meet
            g = {}
            for expo, c in h.items():
                for i, a in enumerate(alpha):
                    if a:
                        e = tuple(x + (j == i) for j, x in enumerate(expo))
                        g[e] = g.get(e, 0) + a * c
            h = {e: c for e, c in g.items() if c}
        V = ForbiddenSet(n, [Form(n, d, h)])
        bits = 256
        _, A = _subspace_lift(n, [alpha], bits)
        restricted = _restrict_forbidden(V, A, n - 1, bits)
        assert (restricted is None) == reference_linear_divides(
            alpha, V.constraints[0], bits)
        if multiple:
            assert restricted is None


class TestQuadratic:
    def test_product_of_variables(self):
        f = parse_form("x0*x1", 2)
        dec = decompose_quadratic(f)
        assert dec.term_count == 2 and dec.exact
        assert check_decomposition(f, dec).passed

    def test_diagonal(self):
        f = parse_form("x0^2 + x1^2 + x2^2", 3)
        dec = decompose_quadratic(f)
        assert dec.term_count == 3 and dec.exact

    def test_rank_two_in_four_vars(self, rng):
        f = linear_power(LinearForm([1, 2, 0, 1]), 2) + \
            linear_power(LinearForm([0, 1, 1, -1]), 2)
        assert gram_rank(f) == 2
        dec = decompose_quadratic(f, seed=3)
        assert dec.term_count == 2 and dec.exact
        assert check_decomposition(f, dec).passed

    def test_term_count_equals_gram_rank(self, rng):
        for trial in range(12):
            n = rng.randint(2, 6)
            f = random_form(rng, n, 2)
            if f.is_zero():
                continue
            dec = decompose_quadratic(f, seed=trial)
            assert dec.term_count == gram_rank(f)
            assert dec.exact
            rep = check_decomposition(f, dec)
            assert rep.passed and rep.residual == 0

    def test_avoidance(self, rng):
        f = parse_form("x0^2 + x1^2", 2)
        V = ForbiddenSet.from_text("l0\nl1\nl0 - l1", 2)
        dec = decompose_quadratic(f, V, seed=1)
        assert dec.term_count == 2
        rep = check_decomposition(f, dec, V)
        assert rep.passed and not rep.forbidden_violations

    def test_wrong_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            decompose_quadratic(parse_form("x0^3", 2))


class TestBinary:
    def test_two_cubes(self):
        f = parse_form("x0^3 + x1^3", 2)
        dec = decompose_binary(f)
        assert dec.term_count == 2
        assert check_decomposition(f, dec).passed

    def test_product_quadric(self):
        f = parse_form("x0*x1", 2)
        dec = decompose_binary(f)
        assert dec.term_count == 2

    #: SHA-256 of the exact terms of x0^(d-1)*x1 at seed 5, per d
    MONOMIAL_TERMS = {
        2: "e10c17307a749acd2809490aa77221569d53326a95543538624aee6a84e827da",
        3: "f8fb30ddd422092ad64280df8029c9f46aa080dd01be208ea20560221e3d69bd",
        4: "b7a423d2af3c7c2963ca56a7d89dfccc1e3356c6f88e647eedff4e889b954488",
        5: "943f4c0185d4c446f6fc6a4ee899d3e6fe2ce535d8acfa8e4ece3a2266594b02",
        6: "dd276c82793ed64a3ee1b7c8936f404520e12545bea5585b6fc9bbe0031d39a0",
        7: "f03150f5440cc7bb6a0d97b492b8e45d2d13951ed68c8833f70f3974930368bb",
        8: "04b2c80a498aef0358cc97e8066ccd63823df7e3e6584ed895c38748766e0016",
        9: "f4f7f9330b9f7d6924599c8734ddb431a5652d13da66dcda41450b2079af2015",
        10: "d0779d697072feae1da2dc243743b9f0b3ec79984ff6655fb1c1596449d00f9d"}

    @pytest.mark.parametrize("d", range(2, 11))
    def test_monomial_needs_full_count(self, d):
        f = Form(2, d, {(d - 1, 1): Fraction(1)})
        dec = decompose_binary(f, seed=5)
        assert dec.term_count == d
        assert check_decomposition(f, dec).passed
        # the quadratic generator (y0^2 or y1^2) and the first sampled
        # element each have a double zero; rejecting them draws nothing,
        # so the second element and every bit of its terms stay pinned
        assert dec.trace == (f"binary: sampled degree-{d} element (attempt 1)",)

        def bits(x):
            if is_exact_scalar(x):
                return str(x)
            return (x.precision_bits,
                    [tuple(map(int, part.man_exp)) for part in (x.real, x.imag)])

        text = repr([(bits(c), [bits(x) for x in l.coords]) for c, l in dec.terms])
        assert hashlib.sha256(text.encode()).hexdigest() == self.MONOMIAL_TERMS[d]

    def test_avoidance(self, rng):
        f = parse_form("x0^3 + x1^3", 2)
        V = ForbiddenSet.from_text("l0\nl1", 2)  # forbids both obvious terms
        dec = decompose_binary(f, V, seed=2)
        rep = check_decomposition(f, dec, V)
        assert rep.passed and dec.term_count <= 3

    def test_embedded_binary(self):
        f = parse_form("x0^3 + x1^3", 4)
        dec = decompose_binary(f, seed=1)
        assert dec.num_vars == 4
        assert check_decomposition(f, dec).passed

    def test_requires_two_essential_variables(self):
        with pytest.raises(InvalidInputError):
            decompose_binary(parse_form("x0^3", 2))


class TestTernaryCubic:
    def test_rank_five_form(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        dec = decompose_ternary_cubic(f, seed=4)
        assert dec.term_count == 5
        assert check_decomposition(f, dec).passed

    def test_fermat_bad_path(self):
        f = parse_form("x0^3 + x1^3 + x2^3", 3)
        dec = decompose_ternary_cubic(f, seed=4)
        assert dec.term_count == 5
        assert any("perturb" in t for t in dec.trace)
        assert check_decomposition(f, dec).passed

    def test_fermat_cube_folds_into_a_fitted_term(self):
        # at seed 218 a fitted point is proportional to the perturbing l:
        # the cube folds into its term, whose coefficient cancels to zero
        f = parse_form("x0^3 + x1^3 + x2^3", 3)
        dec = decompose(f, seed=218)
        assert "ternary: perturbation l=(-3,-5,3)" in dec.trace
        assert dec.term_count == 3 and dec.report.passed
        assert reference_check(f, dec).passed

    def test_generic_cubic_four_terms(self, rng):
        f = random_essential_form(rng, 3, 3)
        assert base_points(f, 2) == []
        dec = decompose_ternary_cubic(f, seed=9)
        assert dec.term_count <= 4
        assert check_decomposition(f, dec).passed

    def test_avoidance(self, rng):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        V = ForbiddenSet.from_text("l0", 3)
        dec = decompose_ternary_cubic(f, V, seed=4)
        rep = check_decomposition(f, dec, V)
        assert rep.passed and dec.term_count == 5

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("scale", [Fraction(1, 10**3), Fraction(1, 10**6),
                                       Fraction(1, 10**9), Fraction(10**6),
                                       Fraction(10**12)])
    def test_perturbing_cube_scales_with_the_form(self, scale, bits):
        # an unscaled cube once buried small forms below the tolerance: at 64
        # bits 10^-6 drifted (ConsistencyError) and 10^-9 ran out of retries
        f = parse_form("x0*x1^2 + x1*x2^2", 3).scale(scale)
        dec = decompose(f, precision_bits=bits)
        assert dec.term_count == 5
        assert any("perturbation" in t for t in dec.trace)
        assert dec.report.passed
        assert check_decomposition(f, dec, precision_bits=bits).passed
        assert reference_check(f, dec, precision_bits=bits).passed
        c, l = dec.terms[-1]
        w = -c
        assert type(w) is Fraction and w > 0 and l.is_exact()
        assert w.numerator & (w.numerator - 1) == 0
        assert w.denominator & (w.denominator - 1) == 0
        ratio = f.norm1() / linear_power(l, 3).norm1()
        assert ratio / 2 ** Fraction(1, 2) <= w <= ratio * 2 ** Fraction(1, 2)

    def test_power_of_two_near(self):
        # nearest on a log scale: the boundary between 2^k and 2^(k+1) is
        # 2^(k+1/2), and approximate ratios are read exactly
        for r, w in ((Fraction(1), 1), (Fraction(8), 8), (Fraction(3), 4),
                     (Fraction(5, 2), 2), (Fraction(1, 3), Fraction(1, 4)),
                     (Fraction(2, 6859), Fraction(1, 4096)),
                     (mpf("0.3"), Fraction(1, 4)),
                     (mpf(2) ** -300, Fraction(1, 2**300)),
                     (Fraction(141421, 100000), 1), (Fraction(141422, 100000), 2)):
            assert _power_of_two_near(r) == w
            assert type(_power_of_two_near(r)) is Fraction

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            decompose_ternary_cubic(parse_form("x0^3", 3))
        with pytest.raises(InvalidInputError):
            decompose_ternary_cubic(parse_form("x0^4", 4))


def _values(coords):
    return tuple((c.real, c.imag) for c in coords)


def _hyperplane_through(p):
    """A linear constraint p_j x_i - p_i x_j that vanishes at the point p,
    on its two largest coordinates i and j."""
    i, j = sorted(range(3), key=lambda k: -abs(p.coords[k]))[:2]
    unit = [tuple(int(k == m) for k in range(3)) for m in range(3)]
    return Form(3, 1, {unit[i]: p.coords[j], unit[j]: -p.coords[i]})


class TestFitOnTheSearchPencil:
    """The base-point-free ternary step fits on the four points where the
    base-point search's last pencil met; ``conic_intersection`` serves only
    the fallback attempts."""

    @staticmethod
    def count_intersections(monkeypatch):
        calls = []
        real = DECOMPOSE.conic_intersection
        monkeypatch.setattr(DECOMPOSE, "conic_intersection",
                            lambda *a: calls.append(a) or real(*a))
        return calls

    @staticmethod
    def record_pencils(monkeypatch):
        pencils = []
        real = DECOMPOSE._base_points

        def recording(*args):
            out = real(*args)
            pencils.append(out[1])
            return out

        monkeypatch.setattr(DECOMPOSE, "_base_points", recording)
        return pencils

    def test_base_point_free_cubic_intersects_no_second_pencil(self,
                                                             monkeypatch):
        calls = self.count_intersections(monkeypatch)
        pencils = self.record_pencils(monkeypatch)
        for k in range(4):
            f = random_essential_form(random.Random(k), 3, 3)
            dec = decompose(f, seed=k)
            assert "ternary: base-point free" in dec.trace
            assert "ternary: pencil attempt 0 succeeded" in dec.trace
            assert dec.term_count <= 4 and dec.report.passed
            assert reference_check(f, dec).passed
            # the terms are the search pencil's four points
            assert {_values(p.coords) for p in pencils[-1]} == {
                _values(l.coords) for _, l in dec.terms}
        assert calls == []

    def test_forbidden_search_point_falls_back_to_a_fresh_pencil(
            self, monkeypatch):
        f = random_essential_form(random.Random(5), 3, 3)
        pencils = self.record_pencils(monkeypatch)
        decompose(f, seed=3)
        point = pencils[0][0]
        V = ForbiddenSet(3, [_hyperplane_through(point)])
        assert is_forbidden(point.to_linear_form(), V)
        calls = self.count_intersections(monkeypatch)
        pencils.clear()
        # the forbidden set moves no random choice before the ternary step,
        # so the search meets the same four points
        dec = decompose(f, V, seed=3)
        assert [len(p) for p in pencils] == [4]
        assert _values(pencils[0][0].coords) == _values(point.coords)
        assert len(calls) == 1
        assert "ternary: pencil attempt 0 succeeded" in dec.trace
        assert dec.term_count <= 4 and dec.report.passed
        assert check_decomposition(f, dec, V).passed

    def test_tangent_search_pencil_falls_back_to_a_fresh_pencil(
            self, monkeypatch):
        # the net of f holds Q0 = y1*y2 - y0^2 and Q0 + y1*(y0 + y1 + y2),
        # tangent at [0:0:1] (y1 = 0 is Q0's tangent there); at seed 524
        # the base-point search draws its pencil inside their span, so its
        # two conics meet in three points, and the net has no base point
        f = parse_form("9*x0^3 - 27*x0^2*x2 - 27*x0*x1^2 + 54*x0*x1*x2 "
                       "+ 18*x0*x2^2 + 9*x1^3 - 27*x1*x2^2 + x2^3", 3)
        for text in ("y1*y2 - y0^2", "y1*y2 - y0^2 + y0*y1 + y1^2 + y1*y2"):
            q = parse_form(text, 3, var="y")
            assert contract(DualOp(3, 2, dict(q.coeffs)), f).is_zero()
        calls = self.count_intersections(monkeypatch)
        pencils = self.record_pencils(monkeypatch)
        dec = decompose(f, seed=524)
        assert "ternary: base-point free" in dec.trace
        assert [len(p) for p in pencils] == [3] and len(calls) == 1
        assert "ternary: pencil attempt 0 succeeded" in dec.trace
        assert dec.term_count <= 4 and dec.report.passed
        assert reference_check(f, dec).passed

    def test_the_random_stream_is_kept(self):
        # every pencil attempt still draws its two weight vectors, so the
        # choices after a fit on the search's points are those of a fit on
        # a drawn pencil: these notes of a (4,4) form at seed 1, whose third
        # alpha is drawn after the first ternary fit, are those of a run
        # that fits every ternary cubic on a drawn pencil
        f = random_essential_form(random.Random(0), 4, 4)
        dec = decompose(f, seed=1)
        notes = [t for t in dec.trace if "alpha=" in t or "ternary:" in t]
        assert notes == [
            "inductive(n=4,d=4): alpha=(-4,-6,0,-5)",
            "inductive(n=4,d=3): alpha=(7,6,7,4)",
            "ternary: base-point free",
            "ternary: pencil attempt 0 succeeded",
            "inductive(n=3,d=4): alpha=(4,-2,5)",
            "ternary: base-point free",
            "ternary: pencil attempt 0 succeeded"]
        assert dec.report.passed


class TestConicIntersection:
    def test_sign_pattern(self):
        D0 = DualOp(3, 2, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)})
        D1 = DualOp(3, 2, {(2, 0, 0): Fraction(1), (0, 0, 2): Fraction(-1)})
        pts = conic_intersection(D0, D1)
        assert len(pts) == 4
        for p in pts:
            vals = [c / p.coords[0] for c in p.coords]
            assert abs(abs(vals[1]) - 1) < 1e-40
            assert abs(abs(vals[2]) - 1) < 1e-40

    def test_shared_component(self):
        D0 = DualOp(3, 2, {(1, 1, 0): Fraction(1)})
        D1 = DualOp(3, 2, {(1, 0, 1): Fraction(1)})
        with pytest.raises(CommonComponentError):
            conic_intersection(D0, D1)

    #: the circle x^2 + y^2 = z^2 and the parabola xz = z^2 - y^2 meet at
    #: (0 : +-1 : 1) and touch at (1 : 0 : 1)
    TANGENT = ({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1},
               {(1, 0, 1): 1, (0, 0, 2): -1, (0, 2, 0): 1})

    def test_exact_tangent_conics(self):
        # each chart's resultant has a double root, which univariate_roots
        # returns twice
        D0, D1 = (DualOp(3, 2, {k: Fraction(c) for k, c in op.items()})
                  for op in self.TANGENT)
        with pytest.raises(NonTransversalError):
            conic_intersection(D0, D1)

    @pytest.mark.parametrize("bits", [64, 256])
    def test_approximate_tangent_conics(self, bits):
        # the two roots of each double root lie within 2^-(bits/4)
        D0, D1 = (DualOp(3, 2, {k: AppComplex(Fraction(c, 3), 0, bits)
                                for k, c in op.items()})
                  for op in self.TANGENT)
        with pytest.raises(NonTransversalError):
            conic_intersection(D0, D1, bits)

    def test_random_pair_residuals(self, rng):
        from openwaring.poly import evaluate
        from openwaring.numerics import tolerance
        for _ in range(5):
            ops = []
            for _ in range(2):
                coeffs = {}
                from openwaring.poly import monomials_of_degree
                for expo in monomials_of_degree(3, 2):
                    c = rng.randint(-6, 6)
                    if c:
                        coeffs[expo] = Fraction(c)
                if not coeffs:
                    continue
                ops.append(DualOp(3, 2, coeffs))
            if len(ops) < 2:
                continue
            try:
                pts = conic_intersection(ops[0], ops[1])
            except CommonComponentError:
                continue
            assert len(pts) == 4
            for p in pts:
                for op in ops:
                    assert abs(evaluate(op, p.coords)) <= \
                        tolerance(256) * op.norm1()


class TestFitCoefficients:
    def test_two_cubes(self):
        f = parse_form("x0^3 + x1^3", 2)
        cs = fit_coefficients(f, [LinearForm([1, 0]), LinearForm([0, 1])])
        assert cs == [Fraction(1), Fraction(1)]

    def test_polarization_identity(self):
        f = parse_form("x0*x1", 2)
        cs = fit_coefficients(f, [LinearForm([1, 1]), LinearForm([1, -1])])
        assert cs == [Fraction(1, 4), Fraction(-1, 4)]

    def test_no_fit(self):
        f = parse_form("x0*x1", 2)
        with pytest.raises(NoFitError):
            fit_coefficients(f, [LinearForm([1, 0]), LinearForm([0, 1])])

    def test_proportional_points_rejected(self):
        f = parse_form("x0^2", 2)
        with pytest.raises(InvalidInputError):
            fit_coefficients(f, [LinearForm([1, 0]), LinearForm([2, 0])])

    def test_recovers_planted_coefficients(self, rng):
        for _ in range(10):
            n = rng.randint(2, 3)
            d = rng.randint(2, 4)
            points, seen = [], set()
            while len(points) < 3:
                l = random_linear_form(rng, n)
                key = tuple(l.coords)
                if key not in seen:
                    seen.add(key)
                    points.append(l)
            try:
                planted = [Fraction(rng.randint(1, 9)) for _ in points]
                f = Form(n, d, {})
                for c, l in zip(planted, points):
                    f = f + linear_power(l, d).scale(c)
                got = fit_coefficients(f, points)
            except InvalidInputError:
                continue  # proportional sample; try the next trial
            assert got == planted


class TestAbsorb:
    def test_perfect_cube(self):
        dec = Decomposition(3, 2, ((Fraction(8), LinearForm([1, 0])),), True)
        out = absorb_coefficients(dec)
        assert out.exact
        assert out.terms[0][0] == 1
        assert out.terms[0][1].coords == (Fraction(2), Fraction(0))

    def test_sign_absorbs_in_odd_degree(self):
        dec = Decomposition(3, 2, ((Fraction(-1), LinearForm([2, 1])),), True)
        out = absorb_coefficients(dec)
        assert out.exact
        assert out.terms[0][1].coords == (Fraction(-2), Fraction(-1))

    def test_irrational_square_root_goes_approximate(self):
        f = parse_form("2*x0^2", 2)
        dec = Decomposition(2, 2, ((Fraction(2), LinearForm([1, 0])),), True)
        out = absorb_coefficients(dec)
        assert not out.exact
        assert check_decomposition(f, out).passed

    @pytest.mark.parametrize("bits", [64, 256, 1000])
    def test_roots_are_the_mpc_power(self, bits):
        # c ** (1 / d) as mpc arithmetic at bits + GUARD_BITS gives it,
        # rounded at bits, for rational and approximate coefficients
        coeffs = [Fraction(2), Fraction(-5, 3), AppComplex(Fraction(7, 3), -2, bits),
                  AppComplex(Fraction(-1, 9), Fraction(1, 7), bits + 100)]
        for d in range(2, 10):
            terms = tuple((c, LinearForm([1, 0])) for c in coeffs)
            out = absorb_coefficients(Decomposition(d, 2, terms, False), bits)
            for c, (_, l) in zip(coeffs, out.terms):
                with workprec(bits + GUARD_BITS):
                    z = (AppComplex(c, 0, bits) if isinstance(c, Fraction)
                         else c).to_mpc()
                    want = AppComplex.from_mpc(z ** (mpf(1) / d), bits)
                assert l.coords[0].parts == want.parts


class TestInductive:
    @pytest.mark.parametrize("shape", [(4, 3), (3, 4), (4, 4), (5, 3)])
    def test_random_instances(self, shape, rng):
        n, d = shape
        f = random_essential_form(rng, n, d)
        dec = decompose_inductive(f, seed=17)
        assert dec.term_count <= recursion_bound(n, d, "improved")
        rep = check_decomposition(f, dec)
        assert rep.passed

    def test_remainder_must_be_annihilated_by_its_kernel(self, rng, monkeypatch):
        # the remainder is projected to its essential coordinates only once
        # its split's degree-one annihilator is checked to contract it to zero
        f = random_essential_form(rng, 4, 3)
        dec = decompose_inductive(f, seed=17)
        assert "essential-split: 4 -> 3" in dec.trace
        real = linalg.kernel_basis
        nudged_rows = []

        def nudged(rows, precision_bits, tol):
            kernel = real(rows, precision_bits, tol)
            # the remainder's is the only nonzero kernel of this run taken
            # on rows in four variables (f and its contraction are
            # essential, the conics of the ternary base case have six
            # coordinates); x0 is no free coordinate of that kernel
            if kernel and len(rows[0]) == 4:
                nudged_rows.append(rows)
                kernel[0][0] += Fraction(1, 3)
            return kernel

        monkeypatch.setattr(linalg, "kernel_basis", nudged)
        # a fresh f: each form keeps its kernels from its first reduction
        with pytest.raises(ConsistencyError,
                           match="^polynomial is not supported on the first variables$"):
            decompose_inductive(Form(4, 3, dict(f.coeffs)), seed=17)
        assert len(nudged_rows) == 1

    def test_remainder_essential_in_every_variable_raises(self, rng,
                                                          monkeypatch):
        # a remainder essential in all n variables would send the step back
        # to its own shape, so it raises before any split of the remainder
        f = random_essential_form(rng, 4, 3)
        dmod = importlib.import_module("openwaring.decompose")
        real_count, real_peel = dmod.essential_variables, dmod._peel
        peeled = []

        def count(g, precision_bits):
            if g.degree == f.degree:
                return g.num_vars
            return real_count(g, precision_bits)

        def counted_peel(g, *args, **kwargs):
            peeled.append(g)
            return real_peel(g, *args, **kwargs)

        monkeypatch.setattr(dmod, "essential_variables", count)
        monkeypatch.setattr(dmod, "_peel", counted_peel)
        with pytest.raises(ConsistencyError,
                           match="^remainder lost its degree-one annihilator$"):
            decompose_inductive(f, seed=17)
        assert peeled == [f]

    @pytest.mark.parametrize("build", ["padded", "chosen"])
    def test_degenerate_remainder_goes_through_the_essential_split(
            self, rng, monkeypatch, build):
        # the remainder of the step is a single cube m^3 with m . alpha = 0,
        # essential in one variable: it is split down to that variable, and
        # the answer still verifies
        dmod = importlib.import_module("openwaring.decompose")
        real_dispatch = dmod._dispatch_essential
        if build == "padded":
            f, V, seed, dispatch = _padded_inductive_case(rng, real_dispatch)
        else:
            f, V, seed, dispatch = _chosen_inductive_case(real_dispatch)
        monkeypatch.setattr(dmod, "_dispatch_essential", dispatch)
        dec = decompose_inductive(f, V, seed=seed)
        monkeypatch.setattr(dmod, "_dispatch_essential", real_dispatch)
        assert "essential-split: 4 -> 1" in dec.trace
        rep = check_decomposition(f, dec, V)
        assert rep.residual_ok and not rep.forbidden_violations
        if build == "chosen":
            # the padding deliberately wrecks term economy; the chosen
            # decomposition keeps within the bound
            assert rep.passed and rep.exact
            assert dec.term_count == 5 <= recursion_bound(4, 3, "improved")

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            decompose_inductive(parse_form("x0^3 + x1^3 + x2^3", 3))
        with pytest.raises(InvalidInputError):
            decompose_inductive(parse_form("x0^2 + x1^2 + x2^2 + x3^2", 4))


def _alpha_of(W):
    """The contraction direction of an inductive step: the constraint it
    adds last to the forbidden set of alpha∘f."""
    alpha = [Fraction(0)] * W.num_vars
    for expo, c in W.constraints[-1].coeffs.items():
        alpha[expo.index(1)] = c
    return alpha


def _in_alpha_hyperplane(alpha):
    """A nonzero m with m . alpha = 0 on two coordinates."""
    i1 = max(range(len(alpha)), key=lambda i: abs(alpha[i]))
    i0 = (i1 + 1) % len(alpha)
    m = [Fraction(0)] * len(alpha)
    m[i0], m[i1] = alpha[i1], -alpha[i0]
    return LinearForm(m)


def _padded_inductive_case(rng, real_dispatch):
    """(f, V, seed, dispatch): the inner decomposition of alpha∘f padded
    with extra lifted terms, so that the remainder collapses to a single
    cube inside the contraction hyperplane (the step hands the
    contraction, already tested essential, to _dispatch_essential)."""
    f = random_essential_form(rng, 4, 3)
    state = {"armed": True}

    def padded_dispatch(g, W, ctx):
        if not state["armed"] or g.degree != 2:
            return real_dispatch(g, W, ctx)
        state["armed"] = False
        alpha = _alpha_of(W)
        target = linear_power(_in_alpha_hyperplane(alpha), 3)
        inner = real_dispatch(g, W, ctx)
        lift_sum = Form(4, 3, {})
        for c, l in inner:
            dot = sum(a * x for a, x in zip(alpha, l.coords))
            lift_sum = lift_sum + linear_power(l, 3).scale(c / (3 * dot))
        # pad with a presentation of (remainder - target), re-scaled so
        # the lifting step reproduces it exactly; the remainder lives in
        # the contraction hyperplane, so shift it off by a generic cube
        h = f - lift_sum - target
        l0 = None
        for probe in ([1, 1, 1, 1], [1, 2, 1, 1], [2, 1, 1, 3], [1, 1, 2, 5]):
            cand = LinearForm([Fraction(x) for x in probe])
            if sum(a * x for a, x in zip(alpha, cand.coords)) == 0:
                continue
            if essential_variables(h + linear_power(cand, 3)) == 4:
                l0 = cand
                break
        assert l0 is not None
        extras = []
        for c, l in real_dispatch(h + linear_power(l0, 3), W, ctx):
            dot = sum(a * x for a, x in zip(alpha, l.coords))
            extras.append((c * 3 * dot, l))
        dot0 = sum(a * x for a, x in zip(alpha, l0.coords))
        extras.append((Fraction(-3) * dot0, l0))
        return inner + extras

    return f, None, 31, padded_dispatch


def _chosen_inductive_case(real_dispatch):
    """(f, V, seed, dispatch): f = l1^3 + ... + l4^3 + m^3 with m . alpha = 0
    for the alpha the step draws first at the seed, a forbidden hyperplane
    that none of them lies in, and a dispatch that hands back the
    decomposition sum 3 (alpha . l_i) l_i^2 of alpha∘f, which lifts to the
    l_i^3 and leaves m^3."""
    seed = 31
    alpha = _Ctx(random.Random(seed), 256, 1).int_vector(4, 8)
    m = _in_alpha_hyperplane([Fraction(a) for a in alpha])
    ls = [LinearForm([Fraction(x) for x in row])
          for row in ([1, 2, 0, 1], [0, 1, 3, 1], [2, 0, 1, 1], [1, 1, 1, 3])]
    assert linalg.rational_det([list(l.coords) for l in ls]) != 0
    dots = [sum(a * x for a, x in zip(alpha, l.coords)) for l in ls]
    assert all(dots)
    f = sum((linear_power(l, 3) for l in ls), linear_power(m, 3))
    h = LinearForm([Fraction(x) for x in (1, 2, -3, 5)])
    V = ForbiddenSet(4, [h.to_form()])
    assert not any(is_forbidden(l, V) for l in ls + [m])

    def chosen_dispatch(g, W, ctx):
        if g.degree != 2:
            return real_dispatch(g, W, ctx)
        assert _alpha_of(W) == list(alpha)
        sub = [(3 * dot, l) for dot, l in zip(dots, ls)]
        assert sum((linear_power(l, 2).scale(c) for c, l in sub),
                   Form(4, 2, {})) == g
        return sub

    return f, V, seed, chosen_dispatch


class TestDispatcher:
    def test_single_cube(self):
        f = parse_form("x0^3", 2)
        dec = decompose(f)
        assert dec.term_count == 1 and dec.exact

    def test_power_of_sum_after_split(self):
        f = linear_power(LinearForm([1, 1, 0]), 4)
        dec = decompose(f)
        assert dec.term_count == 1
        assert check_decomposition(f, dec).passed

    def test_rank_five_form_with_avoidance(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        V = ForbiddenSet.from_text("l0", 3)
        dec = decompose(f, V, seed=6)
        assert dec.term_count == 5
        for _, l in dec.terms:
            first = l.coords[0]
            assert not (isinstance(first, Fraction) and first == 0)
        assert check_decomposition(f, dec, V).passed

    def test_degree_one(self):
        f = parse_form("x0 + 2*x1", 2)
        dec = decompose(f)
        assert dec.term_count == 1

    def test_forbidden_single_term_raises(self):
        f = parse_form("x0^3", 2)
        V = ForbiddenSet.from_text("l1", 2)  # forbids anything with l1 = 0
        with pytest.raises(InvalidInputError):
            decompose(f, V)

    def test_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            decompose(Form(2, 2, {}))

    def test_end_to_end_random(self, rng):
        for trial in range(10):
            n = rng.randint(2, 4)
            d = rng.randint(2, 4)
            f = random_form(rng, n, d)
            if f.is_zero():
                continue
            V = random_hyperplanes(rng, n, rng.randint(0, 3))
            dec = decompose(f, V, seed=trial)
            m = essential_variables(f)
            assert dec.term_count <= recursion_bound(max(m, 1), d, "improved")
            rep = check_decomposition(f, dec, V)
            assert rep.passed
            assert catalecticant_lower_bound(f) <= dec.term_count

    def test_determinism(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        a = decompose(f, seed=123)
        b = decompose(f, seed=123)
        assert a.trace == b.trace
        assert [(repr(c), [repr(x) for x in l.coords]) for c, l in a.terms] == \
            [(repr(c), [repr(x) for x in l.coords]) for c, l in b.terms]


class TestCertificate:
    """`decompose` returns the verifier's report on its own result."""

    ROUTES = [
        # (form, n, forbidden set, trace entry that marks the route)
        ("x0^2 + 2*x1^2 - x2^2", 3, None, "dispatch: quadratic(m=3)"),
        ("x0^3 - 2*x0*x1^2 + x1^3", 2, None, "dispatch: binary(d=3)"),
        ("x0*x1^2 + x1*x2^2", 3, None, "perturbing by a cube"),
        ("x0^3 + 2*x1^3 - x2^3 + x0*x1*x2 + x1^2*x2", 3, None,
         "ternary: base-point free"),
        ("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", 4, None, "dispatch: inductive(n=4,d=3)"),
        ("x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3 + x2^3", 3, None,
         "essential-split: 3 -> 2"),
        ("x0^2*x1+x1^2*x2+x2^2*x3+x3^2*x0", 4, "l0\nl1 + 2*l3",
         "dispatch: inductive(n=4,d=3)"),
    ]

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("text,n,avoid,route", ROUTES)
    def test_report_is_a_fresh_check(self, text, n, avoid, route, bits):
        f = parse_form(text, n)
        V = ForbiddenSet.from_text(avoid, n) if avoid else ForbiddenSet.empty(n)
        dec = decompose(f, V, precision_bits=bits)
        assert any(route in t for t in dec.trace)
        fresh = check_decomposition(f, dec, V, precision_bits=bits)
        for fld in dataclasses.fields(fresh):
            mine = getattr(dec.report, fld.name)
            theirs = getattr(fresh, fld.name)
            assert type(mine) is type(theirs), fld.name
            assert mine == theirs, fld.name
        assert dec.report.passed and dec.report.residual_ok
        assert dec.report.exact == dec.exact

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("text,n,avoid,route", ROUTES)
    def test_report_agrees_with_the_reference_certificate(self, text, n, avoid,
                                                          route, bits):
        f = parse_form(text, n)
        V = ForbiddenSet.from_text(avoid, n) if avoid else ForbiddenSet.empty(n)
        dec = decompose(f, V, precision_bits=bits)
        assert_same_verdict(dec.report, reference_check(f, dec, V, bits), bits)

    def test_report_does_not_take_part_in_equality(self):
        dec = decompose(parse_form("x0^3 + x1^3", 2))
        assert dec.report is not None
        assert dataclasses.replace(dec, report=None) == dec

    def test_wrappers_carry_the_report(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        for run in (decompose_ternary_cubic, decompose):
            dec = run(f, seed=4)
            assert dec.report == check_decomposition(f, dec)

    def test_failed_reconstruction_raises(self, monkeypatch):
        import sys
        dmod = sys.modules["openwaring.decompose"]
        real_dispatch = dmod._dispatch
        monkeypatch.setattr(dmod, "_dispatch",
                            lambda f, V, ctx: real_dispatch(f, V, ctx)[1:])
        for text, n in (("x0^2 + 2*x1^2 - x2^2", 3),
                        ("x0^3 - 2*x0*x1^2 + x1^3", 2)):
            with pytest.raises(ConsistencyError,
                               match="reconstruction drifted beyond tolerance"):
                decompose(parse_form(text, n))

    def test_absorbed_decomposition_has_no_report(self):
        dec = absorb_coefficients(decompose(parse_form("x0^3 + 2*x1^3", 2)))
        assert dec.report is None


class TestKeptCatalecticant:
    """A rational Form keeps the integer rows and the rank of its first
    catalecticant (``apolarity._kept``); the pipeline and the certificate
    read them without changing them."""

    QUADRATICS = [
        ("1/3*x0^2 + 2/5*x0*x1 + 3/20*x1^2 + x2^2 - 7*x1*x2", 3),
        ("x0^2 - x1^2 + 4*x2^2 + 2*x0*x3 - 1/7*x3^2 + x1*x2", 4),
        ("x0*x1 + x2*x3 + 1/9*x4^2 - 3*x1*x4", 5),
    ]

    @pytest.mark.parametrize("text,n", QUADRATICS)
    def test_decomposing_a_quadratic_twice_keeps_its_rows(self, text, n):
        # the quadratic step updates its Hessian in place, on a copy of the
        # rows the form keeps
        f = parse_form(text, n)
        assert essential_variables(f) == n  # so the step runs on f itself
        first = decompose(f, seed=11)
        assert any("dispatch: quadratic" in t for t in first.trace)
        fresh = parse_form(text, n)
        assert APOLARITY._first_catalecticant_rows(f) == \
            APOLARITY._first_catalecticant_rows(fresh)
        second = decompose(f, seed=11)
        assert raw_terms(second.terms) == raw_terms(first.terms)
        assert [type(x) for _, l in second.terms for x in l.coords] == \
            [type(x) for _, l in first.terms for x in l.coords]
        assert second.trace == first.trace
        assert raw_terms(decompose(fresh, seed=11).terms) == \
            raw_terms(first.terms)
        assert APOLARITY._first_catalecticant_rows(f) == \
            APOLARITY._first_catalecticant_rows(parse_form(text, n))

    @pytest.mark.parametrize("text,n", [
        ("x0^2 + 2*x0*x1 + x1^2 + x2^2 + x3^2", 5),
        ("x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3 + x2^3", 3),
        ("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", 4),
    ])
    def test_bound_is_the_same_on_a_fresh_copy(self, text, n):
        f = parse_form(text, n)
        dec = decompose(f)
        fresh = parse_form(text, n)
        bound = check_decomposition(f, dec).bound_value
        assert bound == check_decomposition(fresh, dec).bound_value
        assert bound == dec.report.bound_value == recursion_bound(
            essential_variables(parse_form(text, n)), f.degree, "improved")


def ref_proportional_linear(a, b, precision_bits):
    tol = (tolerance(precision_bits) * (mpf(1) * max_abs_of(a.coords))
           * (mpf(1) * max_abs_of(b.coords)))
    n = a.num_vars
    for i in range(n):
        for j in range(i + 1, n):
            cross = a.coords[i] * b.coords[j] - a.coords[j] * b.coords[i]
            if is_exact_scalar(cross):
                if cross != 0:
                    return False
            elif not scalar_is_zero(cross, tol):
                return False
    return True


def raw_scalar(x):
    if is_exact_scalar(x):
        return Fraction(x)
    return (x.real._mpf_, x.imag._mpf_, x.precision_bits)


def raw_terms(terms):
    return [(raw_scalar(c), [raw_scalar(x) for x in l.coords]) for c, l in terms]


class TestMergeProportional:
    """Two terms are proportional in one place only: the ternary step's
    perturbing cube and the fitted term on a point proportional to l.
    ``_fold_cube`` folds the one into the other; ``_proportional_linear``
    decides which terms are proportional."""
    BITS = 256
    F = parse_form("x0^3 + x1^3 + x2^3", 3)
    L = LinearForm([Fraction(2), Fraction(-5), Fraction(1)])

    def fitted(self, lam, ck):
        """Three approximate terms, the second (ck, lam * L)."""
        def app(*xs):
            return LinearForm([AppComplex(x, Fraction(1, 7), self.BITS)
                               for x in xs])
        return [(AppComplex(3, 1, self.BITS), app(1, 0, 2)),
                (ck, LinearForm([lam * x for x in self.L.coords])),
                (AppComplex(-1, 2, self.BITS), app(0, 1, 1))]

    def total(self, terms):
        out = Form(3, 3, {})
        for c, l in terms:
            out = out + linear_power(l, 3).scale(c)
        return out

    def test_no_proportional_term(self):
        terms = self.fitted(AppComplex(1, 0, self.BITS), AppComplex(2, 0, self.BITS))
        terms[1] = (terms[1][0], LinearForm([AppComplex(2, 0, self.BITS),
                                             AppComplex(-5, 0, self.BITS),
                                             AppComplex(Fraction(101, 100), 0,
                                                        self.BITS)]))
        got = _fold_cube(terms, Fraction(-4), self.L, self.F, self.BITS)
        assert got == terms + [(Fraction(-4), self.L)]

    def test_a_fold(self):
        # the cube folds into the second term, at l's largest coordinate -5
        lam = AppComplex(Fraction(1, 3), Fraction(1, 5), self.BITS)
        terms = self.fitted(lam, AppComplex(2, 0, self.BITS))
        c = Fraction(-4)
        got = _fold_cube(terms, c, self.L, self.F, self.BITS)
        ck, lk = terms[1]
        folded = ck + c * (self.L.coords[1] / lk.coords[1]) ** 3
        assert raw_terms(got) == raw_terms([terms[0], (folded, lk), terms[2]])
        assert got[1][1] is lk
        diff = self.total(got) - self.total(terms + [(c, self.L)])
        assert diff.is_zero(tolerance(self.BITS))

    def test_a_cancelling_fold(self):
        # an approximate coefficient within the snap 2^-192 * max(1, |f|)
        # and an exact zero both drop the term
        lam = AppComplex(Fraction(1, 3), Fraction(1, 5), self.BITS)
        c = Fraction(-4)
        ck = -c / lam ** 3
        terms = self.fitted(lam, ck)
        got = _fold_cube(terms, c, self.L, self.F, self.BITS)
        assert raw_terms(got) == raw_terms([terms[0], terms[2]])
        exact = [(Fraction(1, 2), LinearForm([Fraction(1), Fraction(1), Fraction(0)])),
                 (Fraction(1, 2), LinearForm([Fraction(4), Fraction(-10), Fraction(2)]))]
        assert _fold_cube(exact, Fraction(-4), self.L, self.F, self.BITS) == exact[:1]
        # a coefficient of 2^-150 is kept
        ck = ck + AppComplex(Fraction(1, 2 ** 150), 0, self.BITS)
        terms = self.fitted(lam, ck)
        got = _fold_cube(terms, c, self.L, self.F, self.BITS)
        assert len(got) == 3 and got[1][1] is terms[1][1]

    @staticmethod
    def small_pair(bits, k):
        """(3, 5, 0) 2^-k and (5, 3, 1) 2^-k, which are not proportional,
        and (6, 10, 0) 2^-k, which is proportional to the first."""
        s = Fraction(1, 2 ** k)
        return [LinearForm([AppComplex(x * s, 0, bits) for x in coords])
                for coords in ((3, 5, 0), (5, 3, 1), (6, 10, 0))]

    def test_small_forms_that_are_not_proportional(self):
        # the scales are max|coord|, not clamped at 1, so the tolerance
        # 2^-128 * 5^2 * 2^-2k stays far below the cross products
        # 16 * 2^-2k at every k; with the clamp, 2^-70 tested proportional
        bits = 256
        scale = _coords_scale
        for k in (30, 70, 200):
            a, b, twice = self.small_pair(bits, k)
            assert not _proportional_linear(a, b, bits, scale(a), scale(b))
            assert not _proportional_linear(b, a, bits, scale(b), scale(a))
            assert _proportional_linear(a, twice, bits, scale(a), scale(twice))
            assert not ref_proportional_linear(a, b, bits)


class TestMapTermsBack:
    BITS = 256

    def scalar(self, rng, approximate):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if approximate:
            return AppComplex(x, Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                              self.BITS)
        return x

    @pytest.mark.parametrize("kind, seed", [("exact", 1), ("approximate", 2),
                                            ("mixed", 3), ("approximate A", 4)])
    def test_matches_mat_vec(self, kind, seed):
        # rational A and terms on integers give the Fractions mat_vec gives;
        # any approximate entry keeps mat_vec's rounding bit for bit, and an
        # n x m lift gives what the square change it is the first m columns
        # of gave on terms padded with zeros
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randint(2, 6)
            m = rng.randint(1, n)
            A = [[self.scalar(rng, kind == "approximate A" and rng.random() < 0.3)
                  for _ in range(m)] for _ in range(n)]
            # a lift's rows are rational or approximate throughout
            full = [row + [self.scalar(rng, not all(map(is_exact_scalar, row)))
                           for _ in range(n - m)] for row in A]
            terms = []
            for _ in range(rng.randint(1, 5)):
                approx = (kind == "approximate"
                          or (kind == "mixed" and rng.random() < 0.5))
                coords = [self.scalar(rng, approx and rng.random() < 0.7)
                          for _ in range(m)]
                terms.append((self.scalar(rng, approx), LinearForm(coords)))
            want = [(c, LinearForm(linalg.mat_vec(A, l.coords))) for c, l in terms]
            got = _map_terms_back(terms, A)
            for ref in (want, reference_map_terms_back(terms, full, n)):
                assert raw_terms(got) == raw_terms(ref)
                assert [type(x) for _, l in got for x in l.coords] == \
                    [type(x) for _, l in ref for x in l.coords]


# ---------------------------------------------------------------------------
# the quadratic step as Lagrange reduction on the Hessian


DECOMPOSE = importlib.import_module("openwaring.decompose")
APOLARITY = importlib.import_module("openwaring.apolarity")


def random_quadratic(rng, n, r):
    """A nonzero sum of r rational squares in n variables (rank r when the
    linear forms come out independent, which they nearly always do)."""
    while True:
        f = Form(n, 2, {})
        for _ in range(r):
            l = LinearForm([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(n)])
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            f = f + linear_power(l, 2).scale(c)
        if not f.is_zero():
            return f


def random_step_quadric(rng, n, coefficients):
    """An essential quadric in n variables: integer coefficients in
    [-4, 4] ("small"), p/q with |p| <= 10^12 and 1 <= q <= 10^6 ("wide"),
    or plain ints in [-9, 9] handed to ``Form`` ("int")."""
    if coefficients == "small":
        return random_essential_form(rng, n, 2, -4, 4)
    while True:
        if coefficients == "wide":
            coeffs = {e: Fraction(rng.randint(-10**12, 10**12),
                                  rng.randint(1, 10**6))
                      for e in monomials_of_degree(n, 2)}
        else:
            coeffs = {e: rng.randint(-9, 9) for e in monomials_of_degree(n, 2)}
        f = Form(n, 2, coeffs)
        if not f.is_zero() and essential_variables(f) == n:
            return f


# the parent's ids for the "small" cases, then the added coefficient ranges
STEP_CASES = ([("small", n) for n in range(1, 9)]
              + [(kind, n) for kind in ("wide", "int")
                 for n in (1, 2, 3, 5, 8)])


def outcome(monkeypatch, step, entry, f, V, **kw):
    """What ``entry`` returns with ``step`` as the quadratic step: every
    term bit for bit with the type of each scalar, and the trace; or the
    error class and text."""
    monkeypatch.setattr(DECOMPOSE, "_quadratic_essential", step)
    try:
        dec = entry(f, V, **kw)
    except OpenWaringError as exc:
        return type(exc), str(exc)
    return (raw_terms(dec.terms),
            [type(x) for c, l in dec.terms for x in (c,) + l.coords], dec.trace)


def step_outcome(step, f, V, seed, bits=256, max_retries=64):
    """The step run on its own: its terms, trace and the random generator's
    state afterwards, or the error class and text."""
    ctx = DECOMPOSE._Ctx(random.Random(seed), bits, max_retries)
    try:
        terms = step(f, V, ctx)
    except OpenWaringError as exc:
        return type(exc), str(exc), ctx.trace, ctx.rng.getstate()
    return raw_terms(terms), ctx.trace, ctx.rng.getstate()


class TestQuadraticHessianReduction:
    """`_quadratic_essential` against the recursive step it replaced
    (`conftest.reference_quadratic_essential`): on rational input, the same
    Fractions, term order, trace, random stream and errors."""

    NEW = staticmethod(DECOMPOSE._quadratic_essential)
    OLD = staticmethod(reference_quadratic_essential)

    def assert_same(self, monkeypatch, f, V, **kw):
        for entry in (decompose, decompose_quadratic):
            want = outcome(monkeypatch, self.OLD, entry, f, V, **kw)
            got = outcome(monkeypatch, self.NEW, entry, f, V, **kw)
            assert got == want, (entry.__name__, f, V)
        return got

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_rank_with_and_without_hyperplanes(self, monkeypatch, n):
        rng = random.Random(100 + n)
        for r in range(1, n + 1):
            f = random_quadratic(rng, n, r)
            for count in (0, (n + r) % 4):
                V = random_hyperplanes(rng, n, count) if count else None
                self.assert_same(monkeypatch, f, V, seed=rng.randrange(1 << 30))

    @pytest.mark.parametrize(
        "coefficients, n", STEP_CASES,
        ids=[str(n) if kind == "small" else f"{kind}-{n}"
             for kind, n in STEP_CASES])
    def test_the_step_alone_keeps_the_random_stream(self, coefficients, n):
        rng = random.Random(200 + n)
        for trial in range(3):
            f = random_step_quadric(rng, n, coefficients)
            V = random_hyperplanes(rng, n, trial, -2, 2)
            want = step_outcome(self.OLD, f, V, trial)
            assert step_outcome(self.NEW, f, V, trial) == want
            assert len(want[0]) == n

    @pytest.mark.parametrize("text, n", [("x0^2 + x1^2", 3),
                                         ("x0*x1 - x2^2 + x1*x2", 5),
                                         ("x1*x3 + x2^2", 4)])
    def test_rank_guard_on_a_form_that_is_not_essential(self, text, n):
        # the dispatcher only passes essential forms; given one of lower
        # rank, the remainder's rank gives it away after the first square
        f = parse_form(text, n)
        want = step_outcome(self.OLD, f, ForbiddenSet.empty(n), 3)
        assert want[:2] == (ConsistencyError,
                            "quadratic remainder has unexpected rank")
        assert step_outcome(self.NEW, f, ForbiddenSet.empty(n), 3) == want

    @pytest.mark.parametrize("text, n, avoid", [
        ("x0*x1 + x1^2", 3, "l2"),
        ("x0^2 - 3*x0*x1 + 2*x2^2", 4, "l3\nl0 + l1"),
        ("x0^2 + x1^2 + x2^2", 5, "l0 - l1\nl3 + 2*l4\nl4"),
    ])
    def test_forbidden_essential_subspace_raises_the_same_error(
            self, monkeypatch, text, n, avoid):
        # every listed set vanishes on the span of the forms' linear terms
        got = self.assert_same(monkeypatch, parse_form(text, n),
                               ForbiddenSet.from_text(avoid, n), seed=5)
        assert got[0] is InvalidInputError
        assert "contains the essential coordinate subspace" in got[1]

    @pytest.mark.parametrize("text, n, essential", [
        ("x0^2 + 3*x1^2 - x2^2 + x0*x2", 3, True),
        ("x0*x1 - x2^2 + x1*x2 + 2*x3^2 - x0*x3", 4, True),
        ("x0*x1 - x2^2 + x1*x2", 5, False)])
    def test_a_rational_step_takes_one_rank(self, monkeypatch, text, n,
                                            essential):
        # each square lowers the rank by exactly one, so the guard reads
        # the form's degree-one kernel, one exact reduction before the
        # first square
        calls = []
        for name in ("_reduce", "complex_rank"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        got = step_outcome(self.NEW, parse_form(text, n), ForbiddenSet.empty(n), 4)
        assert calls == ["_reduce"]
        assert (got[0] is ConsistencyError) is not essential

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_rational_input_builds_no_fraction_catalecticant(self, monkeypatch,
                                                             n):
        # the Hessian of a rational form is written down on integers; only
        # approximate input still builds the catalecticant
        calls = []
        real = APOLARITY.catalecticant

        def counting(f, e):
            calls.append(e)
            return real(f, e)

        for module in (APOLARITY, DECOMPOSE):
            monkeypatch.setattr(module, "catalecticant", counting)
        rng = random.Random(300 + n)
        f = random_essential_form(rng, n, 2)
        V = ForbiddenSet.empty(n)
        assert len(step_outcome(self.NEW, f, V, n)[0]) == n
        assert calls == []
        g = Form(n, 2, {e: AppComplex(c, 0, 256) for e, c in f.coeffs.items()})
        assert len(step_outcome(self.NEW, g, V, n)[0]) == n
        assert calls == [1]

    def test_retry_budget_error_at_one_attempt(self, monkeypatch):
        # one attempt per square: the drawn direction is dropped whenever
        # its square vanishes or its linear form lies on a coordinate
        # hyperplane, and then the budget is spent
        f = parse_form("x0*x1 + x2^2 - x1*x3", 4)
        V = ForbiddenSet.from_text("l0\nl1\nl2\nl3", 4)
        seen = set()
        for seed in range(12):
            got = self.assert_same(monkeypatch, f, V, seed=seed, max_retries=1)
            seen.add(got[0] if isinstance(got[0], type) else "ok")
        assert seen == {RetryBudgetError, "ok"}

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_approximate_quadratics_give_one_term_per_variable(self, bits):
        rng = random.Random(bits)
        for n in range(3, 7):
            f = random_essential_form(rng, n, 2)
            g = Form(n, 2, {e: AppComplex(c, Fraction(rng.randint(-3, 3), 7), bits)
                            for e, c in f.coeffs.items()})
            for entry in (decompose, decompose_quadratic):
                dec = entry(g, seed=n, precision_bits=bits)
                assert dec.term_count == n
                assert check_decomposition(g, dec, precision_bits=bits).passed
            # the step on its own finds as many terms as the recursion did
            V = ForbiddenSet.empty(n)
            assert len(step_outcome(self.NEW, g, V, n, bits)[0]) == \
                len(step_outcome(self.OLD, g, V, n, bits)[0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.dictionaries(st.sampled_from(
            [e for e in monomials_of_degree(n, 2)]),
            st.integers(-6, 6).filter(bool), min_size=1),
        st.integers(0, 1 << 20))))
    def test_terms_rebuild_the_form_in_sympy(self, case):
        n, coeffs, seed = case
        f = Form(n, 2, {e: Fraction(c) for e, c in coeffs.items()})
        dec = decompose_quadratic(f, seed=seed)
        xs = sympy.symbols(f"x0:{n}")
        target = sum(c * sympy.prod(x ** k for x, k in zip(xs, e))
                     for e, c in coeffs.items())
        rebuilt = sum(sympy.Rational(c.numerator, c.denominator)
                      * sum(sympy.Rational(a.numerator, a.denominator) * x
                            for a, x in zip(l.coords, xs)) ** 2
                      for c, l in dec.terms)
        assert dec.exact
        assert sympy.expand(rebuilt - target) == 0
        assert dec.term_count == sympy.hessian(target, xs).rank()


def test_proportionality_tolerance_ignores_the_ambient_precision():
    # the cross product 2^-128 * (1 + 2^-41) lies below the tolerance
    # tol * |a| * |b| = 2^-128 * (1 + 2^-40) taken at 53 bits, which rounds
    # to 2^-128 at 20 bits
    bits = 256
    a = LinearForm([AppComplex(Fraction(2**40 + 1, 2**40), 0, bits),
                    AppComplex(0, 0, bits)])
    b = LinearForm([AppComplex(1, 0, bits), AppComplex(
        Fraction(2**41 + 1, 2**41) / Fraction(2**40 + 1, 2**40) / 2**128, 0,
        bits)])
    for prec in (20, 53, 300):
        with workprec(prec):
            assert _proportional_linear(a, b, bits, _coords_scale(a),
                                        _coords_scale(b))


class _Ones:
    """A generator whose every draw is 1, so the step's first direction is
    all ones."""

    def randint(self, lo, hi):
        return 1


class TestThresholdsAtAFixedPrecision:
    # every tolerance is a libmp product at 53 bits.  Each input sits
    # between a threshold and its value at another ambient precision: a
    # scale of (1 + 2^-30) * 2^k rounds to 2^k at 20 bits, and a size of
    # (1 + 2^-30 + 2^-80) * 2^k keeps its last bit at 300
    BITS = 256
    S = 1 + Fraction(1, 2 ** 30)
    TOL = Fraction(1, 2 ** (BITS // 2))

    def app(self, x):
        return AppComplex(x, 0, self.BITS)

    def test_restrict_forbidden(self):
        # g(A b) = 2^-128 * (1 + 2^-31) * b, within tol * |g|_1
        g = Form(2, 1, {(1, 0): self.S})
        A = [[self.app(self.TOL * (1 + Fraction(1, 2 ** 31)) / self.S)],
             [Fraction(1)]]
        V = ForbiddenSet(2, [g])
        assert at_each_precision(
            lambda: _restrict_forbidden(V, A, 1, self.BITS)) == dict.fromkeys(
            AMBIENT_PRECISIONS, None)

    def test_fit_snap(self):
        # the coefficient 2^-192 * (1 + 2^-31) snaps to an exact zero
        tiny = Fraction(1, 2 ** 192) * (1 + Fraction(1, 2 ** 31))
        f = Form(2, 1, {(1, 0): self.S, (0, 1): tiny})
        pts = [LinearForm([self.app(1), self.app(0)]),
               LinearForm([self.app(0), self.app(1)])]
        assert at_each_precision(
            lambda: fit_coefficients(f, pts, self.BITS)[1]) == dict.fromkeys(
            AMBIENT_PRECISIONS, 0)

    def test_fold_snap(self):
        # the folded coefficient 2^-192 * (1 + 2^-31) snaps to zero, as the
        # fit's does
        f = Form(3, 3, {(3, 0, 0): self.S})
        l = LinearForm([Fraction(1), Fraction(2), Fraction(0)])
        terms = [(self.app(1 + Fraction(1, 2 ** 192) * (1 + Fraction(1, 2 ** 31))),
                  LinearForm([self.app(1), self.app(2), self.app(0)]))]
        assert at_each_precision(
            lambda: len(_fold_cube(terms, Fraction(-1), l, f, self.BITS))
        ) == dict.fromkeys(AMBIENT_PRECISIONS, 0)

    def test_quadratic_direction(self):
        # along (1, 1), c2 = 2b lies within tol * max|coeff| * |alpha|_1^2,
        # so the only direction the generator draws is refused
        b = Fraction(2, 2 ** 128) * (1 + Fraction(1, 2 ** 31))
        f = Form(2, 2, {(2, 0): self.app(self.S), (1, 1): self.app(b),
                        (0, 2): self.app(-self.S)})

        def outcome():
            with pytest.raises(RetryBudgetError) as exc:
                _quadratic_essential(f, ForbiddenSet.empty(2),
                                     _Ctx(_Ones(), self.BITS, 1))
            return str(exc.value)
        assert at_each_precision(outcome) == dict.fromkeys(
            AMBIENT_PRECISIONS, "quadratic step found no usable direction")

    def test_inductive_contraction(self):
        # f = S * (x0 - x1)^3 + (d / 3) * (x0^3 + x1^3 + x2^3): the
        # contraction by (1, 1, 1) is d * (x0^2 + x1^2 + x2^2), within
        # tol * max|f| = tol * 3S, so the only direction drawn is refused
        # before its essential count is taken
        S, d = self.S, 3 * self.TOL * (1 + Fraction(1, 2 ** 31))
        coeffs = {(3, 0, 0): S + d / 3, (2, 1, 0): -3 * S, (1, 2, 0): 3 * S,
                  (0, 3, 0): -S + d / 3, (0, 0, 3): d / 3}
        f = Form(3, 3, {k: self.app(v) for k, v in coeffs.items()})

        def outcome():
            with pytest.raises(RetryBudgetError) as exc:
                _inductive_essential(f, ForbiddenSet.empty(3),
                                     _Ctx(_Ones(), self.BITS, 1))
            return str(exc.value)
        assert at_each_precision(outcome) == dict.fromkeys(
            AMBIENT_PRECISIONS, "no usable contraction direction found")

    def test_power_of_two_near(self):
        # sqrt(2) * (1 + 2^-40) at 53 bits lies above sqrt(2), the boundary
        # between 1 and 2, and rounds below it at 20 bits
        with workprec(53):
            r = sqrt(2) * (1 + mpf(2) ** -40)
        assert at_each_precision(
            lambda: _power_of_two_near(r)) == dict.fromkeys(AMBIENT_PRECISIONS, 2)

    def test_resultant_lead(self):
        # the t^4 coefficient of the chart's resultant is 2w - w^2, within
        # tol * (|D0|_1 * |D1|_1)^2 = 2^-120 * (1 + 2^-30), so the
        # identity chart is left for the next one
        w = Fraction(1, 2 ** 121) * (1 + Fraction(1, 2 ** 31))
        D0 = DualOp(3, 2, {(2, 0, 0): 2 * self.S, (0, 2, 0): Fraction(-1),
                           (0, 0, 2): Fraction(1)})
        D1 = DualOp(3, 2, {(2, 0, 0): Fraction(2), (0, 1, 1): self.app(1 - w),
                           (0, 0, 2): Fraction(1)})
        points = at_each_precision(lambda: [
            [c.parts for c in p.coords]
            for p in conic_intersection(D0, D1, self.BITS)])
        assert len(points[53]) == 4
        assert points == dict.fromkeys(AMBIENT_PRECISIONS, points[53])
