import importlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from mpmath import mpf, workprec

from openwaring import (AppComplex, CommonComponentError, ConsistencyError,
                        DegenerateSystemError, DualOp, Form,
                        InvalidInputError, LinearForm, RetryBudgetError,
                        apolar_component, base_points, catalecticant,
                        change_coordinates, contract, essential_split,
                        check_decomposition, decompose, essential_variables,
                        linear_power, parse_form, power_witness)
from openwaring import linalg
from openwaring.apolarity import (DEFAULT_MAX_RETRIES, DEFAULT_SEED,
                                  ProjPoint, _back_substitute_l2,
                                  _base_points, _combine_ops,
                                  _coordinate_changes,
                                  _dedupe_points, _distinct_roots,
                                  _dual_as_unipoly_coeffs, _essential_split,
                                  _resultant_charts, _sylvester_resultant,
                                  _trim_leading)
from openwaring.linalg import rational_det, rational_rank
from openwaring.numerics import (DEFAULT_PRECISION_BITS, GUARD_BITS, UniPoly,
                                 tolerance)
from openwaring.poly import monomials_of_degree
from conftest import (AMBIENT_PRECISIONS, at_each_precision, random_form,
                      random_essential_form, random_linear_form,
                      reference_curve_pair_candidates,
                      reference_essential_split, reference_first_kernel,
                      reference_hyperplane_change, reference_rational_inverse,
                      reference_sylvester_resultant)


def sympy_catalecticant_rank(f, e):
    """Independent oracle: build the contraction matrix by sympy
    differentiation and take sympy's rank."""
    n, d = f.num_vars, f.degree
    xs = sympy.symbols(f"x0:{n}")
    expr = sympy.Integer(0)
    for expo, c in f.coeffs.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for x, k in zip(xs, expo):
            t *= x ** k
        expr += t
    from openwaring.poly import monomials_of_degree
    rows = []
    for a in monomials_of_degree(n, e):
        de = expr
        for i, k in enumerate(a):
            for _ in range(k):
                de = sympy.diff(de, xs[i])
        poly = sympy.Poly(de, *xs)
        row = [poly.coeff_monomial(sympy.prod([x ** k for x, k in zip(xs, b)]))
               for b in monomials_of_degree(n, d - e)]
        rows.append(row)
    return sympy.Matrix(rows).rank()


class TestCatalecticant:
    def test_cubic_monomial_rank_one(self):
        f = parse_form("x0^3", 2)
        assert catalecticant(f, 1).rank() == 1

    def test_diagonal_quadric(self):
        f = parse_form("x0^2 + x1^2", 2)
        assert catalecticant(f, 1).rank() == 2

    def test_fermat_cubic_middle_rank(self):
        f = parse_form("x0^3 + x1^3 + x2^3", 3)
        cat = catalecticant(f, 2)
        assert cat.rank() == 3
        assert cat.rank() == sympy_catalecticant_rank(f, 2)

    def test_entries_match_contraction(self, rng):
        f = random_form(rng, 3, 3)
        cat = catalecticant(f, 1)
        for label, row in zip(cat.row_labels, cat.entries):
            op = DualOp(3, 1, {label: Fraction(1)})
            img = contract(op, f)
            for mono, entry in zip(cat.col_labels, row):
                assert img.coeffs.get(mono, Fraction(0)) == entry

    def test_out_of_range(self):
        f = parse_form("x0^2", 2)
        with pytest.raises(InvalidInputError):
            catalecticant(f, 3)

    def test_rank_symmetry(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            d = rng.randint(2, 5)
            f = random_form(rng, n, d)
            for e in range(d + 1):
                assert catalecticant(f, e).rank() == catalecticant(f, d - e).rank()


class TestApolarComponent:
    def test_two_cubes(self):
        f = parse_form("x0^3 + x1^3", 2)
        basis = apolar_component(f, 2)
        assert len(basis) == 1
        assert basis[0].coeffs.keys() == {(1, 1)}

    def test_product_quadric(self):
        f = parse_form("x0*x1", 2)
        basis = apolar_component(f, 2)
        keys = {tuple(op.coeffs) for op in basis}
        assert keys == {((2, 0),), ((0, 2),)}

    def test_rank_five_cubic_kernel(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        basis = apolar_component(f, 2)
        assert len(basis) == 3
        # span equality with {d0^2, d0*d2, d0*d1 - d2^2}
        expected = [
            DualOp(3, 2, {(2, 0, 0): Fraction(1)}),
            DualOp(3, 2, {(1, 0, 1): Fraction(1)}),
            DualOp(3, 2, {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(-1)}),
        ]
        from openwaring.poly import monomials_of_degree
        monos = monomials_of_degree(3, 2)
        vecs = [[op.coeffs.get(m, Fraction(0)) for m in monos]
                for op in basis + expected]
        assert rational_rank(vecs) == 3

    def test_every_element_annihilates(self, rng):
        for _ in range(8):
            f = random_form(rng, 3, 3)
            for e in (1, 2):
                for op in apolar_component(f, e):
                    assert contract(op, f).is_zero()

    def test_kernel_dimension_count(self, rng):
        f = random_form(rng, 3, 4)
        for e in (1, 2):
            cat = catalecticant(f, e)
            assert len(apolar_component(f, e)) + cat.rank() == len(cat.row_labels)


class TestEssential:
    def test_power_of_linear(self):
        f = linear_power(LinearForm([1, 1, 0]), 3)
        assert essential_variables(f) == 1

    def test_two_squares_in_three_vars(self):
        f = parse_form("x0^2 + x1^2", 3)
        assert essential_variables(f) == 2

    def test_rank_five_cubic(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        assert essential_variables(f) == 3

    def test_invariance_under_coordinate_change(self, rng):
        from openwaring.linalg import rational_det
        for _ in range(8):
            n = rng.randint(2, 4)
            f = random_form(rng, n, 3)
            while True:
                m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                     for _ in range(n)]
                if rational_det(m) != 0:
                    break
            assert essential_variables(change_coordinates(f, m)) == \
                essential_variables(f)

    def test_split_round_trip(self, rng):
        f = linear_power(LinearForm([1, 1, 0]), 3)
        m, g = essential_split(f)
        assert g.num_vars == 1 and g.degree == 3
        h = change_coordinates(f, m)
        assert all(not any(expo[1:]) for expo in h.coeffs)

    def test_split_embedded_quadric(self, rng):
        f = parse_form("x0*x1", 4)
        m, g = essential_split(f)
        assert g.num_vars == 2
        assert essential_variables(g) == 2

    def test_identity_when_essential(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        m, g = essential_split(f)
        assert g == f

    def test_zero_form_rejected(self):
        with pytest.raises(InvalidInputError):
            essential_variables(Form(2, 2, {}))


class TestBasePoints:
    def test_fermat_coordinate_points(self):
        # hand oracle: common zeros of {y0*y1, y0*y2, y1*y2} are the three
        # coordinate points
        f = parse_form("x0^3 + x1^3 + x2^3", 3)
        pts = base_points(f, 2)
        assert len(pts) == 3
        for p in pts:
            big = [i for i, c in enumerate(p.coords) if abs(c) > 0.5]
            small = [i for i, c in enumerate(p.coords) if abs(c) < 1e-30]
            assert len(big) == 1 and len(small) == 2

    def test_rank_five_cubic_single_base_point(self):
        # oracle: zeros of {y0^2, y0*y2, y0*y1 - y2^2} force y0 = y2 = 0
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        pts = base_points(f, 2)
        assert len(pts) == 1
        p = pts[0]
        assert abs(p.coords[1]) > 0.5
        assert abs(p.coords[0]) < 1e-30 and abs(p.coords[2]) < 1e-30

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: decide base points exactly for "
                              "rational nets; both candidates near [0:1:0] "
                              "miss a conic's tolerance by a few ulps")
    def test_base_point_of_a_non_reduced_net(self):
        # the net d0*d2, -d0^2 + d1*d2, d2^2 vanishes at [0:1:0]; at this
        # seed the numeric search certifies neither candidate near it
        # (-d0^2 + d1*d2 takes 6.59e-39 there against a tolerance of
        # 5.88e-39) and returns []
        f = parse_form("x0^2*x1 + x1^2*x2", 3)
        pts = base_points(f, 2, seed=69975896)
        assert len(pts) == 1
        assert abs(pts[0].coords[0]) < 1e-30 and abs(pts[0].coords[2]) < 1e-30

    def test_generic_cubic_is_base_point_free(self, rng):
        for _ in range(5):
            f = random_essential_form(rng, 3, 3)
            assert base_points(f, 2) == []

    def test_binary_case(self):
        f = parse_form("x0^3*x1", 2)  # annihilator contains d1^2
        pts = base_points(f, 2)
        # d1^2 and d0^4 generate; degree-2 piece is spanned by d1^2 alone
        assert len(pts) == 1

    def test_positive_dimensional_rejected(self):
        f = parse_form("x0^4 + x1^4 + x0^2*x1^2", 3)
        # f ignores x2 entirely: the e=1 component is 1-dimensional (d2)
        with pytest.raises(DegenerateSystemError):
            base_points(f, 1)

    def test_a_pencil_of_proportional_weights_is_skipped(self, monkeypatch):
        # at seed 7268 the first pencil draws c0 = 2 * c1, one conic twice:
        # it is skipped with no intersection and no strike, so the next
        # three pencils are intersected, each sharing a component here,
        # before the search gives up
        basis = apolar_component(
            random_essential_form(random.Random(0), 3, 3), 2)
        seed = 7268
        pencils = []

        def sharing(d0, d1, bits, rng):
            rng.randrange(1 << 30)  # the draw of the routine's charts
            pencils.append((d0, d1))
            raise DegenerateSystemError("curve pair shares a component")

        monkeypatch.setattr(APOLARITY, "_curve_pair_candidates", sharing)
        with pytest.raises(DegenerateSystemError):
            _base_points(basis, 3, DEFAULT_PRECISION_BITS, seed,
                         DEFAULT_MAX_RETRIES)
        rng = random.Random(seed)

        def weights():
            return [Fraction(rng.randint(-8, 8)) for _ in basis]
        c0, c1 = weights(), weights()
        assert c0 == [2 * c for c in c1]
        want = []
        for _ in range(3):
            want.append((_combine_ops(basis, weights()),
                         _combine_ops(basis, weights())))
            rng.randrange(1 << 30)
        assert pencils == want

    def test_weights_decide_a_pencil_of_a_badly_scaled_net(self):
        # x^2 + B y^2, xy + B y^2, z^2 + B y^2 with B = 2^100 has no base
        # point.  At 128 bits the cross products of its first pencils sit
        # below tolerance * |d0|_1 * |d1|_1, but their weights are not
        # proportional, so each is intersected: they share a component
        # numerically, and the search says so rather than go on to a
        # pencil whose intersection gives four points that are not there
        B = 2 ** 100

        def net(c):
            return [DualOp(3, 2, {(2, 0, 0): c(1), (0, 2, 0): c(B)}),
                    DualOp(3, 2, {(1, 1, 0): c(1), (0, 2, 0): c(B)}),
                    DualOp(3, 2, {(0, 0, 2): c(1), (0, 2, 0): c(B)})]
        with pytest.raises(DegenerateSystemError,
                           match="curve pair shares a component"):
            _base_points(net(lambda v: AppComplex(v, 0, 128)), 3, 128,
                         DEFAULT_SEED, DEFAULT_MAX_RETRIES)


class TestPowerWitness:
    def test_cube_plus_binary(self):
        f = parse_form("x0^3 + x1^3 - 2*x1^2*x2 + x1*x2^2", 3)
        w = power_witness(f, LinearForm([1, 0, 0]), 2)
        assert w is not None
        img = contract(w, f)
        # proportional to x0^2
        assert set(img.coeffs) == {(2, 0, 0)}

    def test_rank_five_form_witness(self):
        f = parse_form("x0*x1^2 + x1*x2^2", 3)
        w = power_witness(f, LinearForm([0, 1, 0]), 2)
        assert w is not None
        img = contract(w, f)
        assert set(img.coeffs) == {(0, 2, 0)}

    def test_generic_no_witness(self, rng):
        f = random_essential_form(rng, 3, 3)
        assert base_points(f, 2) == []
        for _ in range(4):
            l = random_linear_form(rng, 3)
            assert power_witness(f, l, 2) is None

    def test_witness_iff_base_point(self):
        # base point <=> pure-power witness on the constructed examples
        for text in ("x0^3 + x1^3 + x2^3", "x0*x1^2 + x1*x2^2"):
            f = parse_form(text, 3)
            for p in base_points(f, 2):
                # snap the numeric point to the nearest rational vector
                coords = [Fraction(round(float(c.real))) for c in p.coords]
                w = power_witness(f, LinearForm(coords), 2)
                assert w is not None


# ---------------------------------------------------------------------------
# restrictions to subspaces: the lift written down from the columns, against
# the basis completion, inverse and substitution it replaced


APOLARITY = importlib.import_module("openwaring.apolarity")


def raw(x):
    if isinstance(x, AppComplex):
        return (x.real._mpf_, x.imag._mpf_, x.precision_bits)
    return (type(x), x)


def raw_matrix(rows):
    return [[raw(x) for x in row] for row in rows]


@st.composite
def non_essential_forms(draw):
    """g(Tx): a rational form g in k < n variables, seen in n variables
    through an invertible integer matrix T."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    d = draw(st.integers(1, 4 if n <= 4 else 3))
    coeff = st.fractions(-9, 9, max_denominator=4)
    g = {}
    for expo in monomials_of_degree(k, d):
        c = draw(coeff)
        if c:
            g[expo + (0,) * (n - k)] = c
    assume(g)
    T = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(rational_det(T) != 0)
    return change_coordinates(Form(n, d, g), [[Fraction(x) for x in row]
                                              for row in T])


@st.composite
def sparse_rational_forms(draw):
    """A rational form on a few of its monomials, so that its first
    catalecticant has zero rows and columns, with mixed and sometimes large
    denominators."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    support = draw(st.lists(st.sampled_from(monomials_of_degree(n, d)),
                            min_size=1, max_size=6, unique=True))
    coeff = st.one_of(st.integers(-9, 9).map(Fraction),
                      st.fractions(-99, 99, max_denominator=60),
                      st.fractions(max_denominator=10**15)).filter(bool)
    return Form(n, d, {expo: draw(coeff) for expo in support})


class TestFirstCatalecticantRows:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.one_of(sparse_rational_forms(), non_essential_forms()))
    def test_rank_kernel_and_split_match_the_fraction_catalecticant(self, f):
        m = sympy.Matrix(catalecticant(f, 1).entries).rank()
        assert essential_variables(f) == m
        kernel = APOLARITY._essential_split(f, DEFAULT_PRECISION_BITS)[0]
        assert raw_matrix(kernel) == raw_matrix(reference_first_kernel(f))
        M, g = essential_split(f)
        M_ref, g_ref = reference_essential_split(f, m)
        assert raw_matrix(M) == raw_matrix(M_ref)
        assert [(e, raw(c)) for e, c in g.coeffs.items()] == \
            [(e, raw(c)) for e, c in g_ref.coeffs.items()]

    @pytest.mark.parametrize("form, n", [("1/3*x0^2 + 2/5*x0*x1 + 3/20*x1^2 + x2^2", 4),
                                         ("x0^3 - 2/7*x0*x1*x2 + 5*x2^3", 3)])
    def test_rational_input_builds_no_fraction_catalecticant(
            self, monkeypatch, form, n):
        f = parse_form(form, n)
        dec = decompose(f)
        calls = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(APOLARITY, "catalecticant",
                            counted("catalecticant", APOLARITY.catalecticant))
        monkeypatch.setattr(linalg, "mat_vec", counted("mat_vec", linalg.mat_vec))
        essential_variables(f)
        essential_split(f)
        assert check_decomposition(f, dec).passed
        assert calls == []


@st.composite
def kept_forms(draw):
    """A rational form with n = 2..6 and d = 2..4: dense or on a few
    monomials, or g(Tx) in fewer essential variables."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, 4 if n <= 4 else 3))
    monomials = monomials_of_degree(n, d)
    support = draw(st.one_of(
        st.just(monomials),
        st.lists(st.sampled_from(monomials), min_size=1, max_size=6,
                 unique=True)))
    coeff = st.fractions(-99, 99, max_denominator=12).filter(bool)
    f = Form(n, d, {expo: draw(coeff) for expo in support})
    if draw(st.booleans()):
        return f
    return draw(non_essential_forms().filter(lambda g: g.degree >= 2))


#: the attribute of a Form on which ``apolarity._kept`` keeps its first
#: catalecticant's rows and its degree-one kernel
KEPT = "_first_catalecticant"


class TestKeptCatalecticant:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(kept_forms())
    def test_kept_kernel_matches_sympy_and_a_fresh_form(self, f):
        m = sympy.Matrix(catalecticant(f, 1).entries).rank()
        assert KEPT not in f.__dict__
        assert essential_variables(f) == m
        kept = f.__dict__[KEPT]
        assert len(kept["kernel"]) == f.num_vars - m
        assert all(type(v) is tuple for v in kept["kernel"])
        assert essential_variables(f) == m
        fresh = Form(f.num_vars, f.degree, dict(f.coeffs))
        assert KEPT not in fresh.__dict__
        assert essential_variables(fresh) == m
        assert fresh.__dict__[KEPT] is not kept
        assert fresh.__dict__[KEPT]["kernel"] == kept["kernel"]
        assert APOLARITY._first_catalecticant_rows(fresh) == kept["rows"]

    def test_each_form_reduces_its_first_catalecticant_once(self, monkeypatch):
        # the pipeline's split, its own certificate, the caller's check and
        # the degree-one annihilator share one kernel
        f = parse_form("x0^3 + x1^3 + x2^3 + x0*x1*x3 + x1*x3^2 + 2*x0*x1^2", 5)
        dec = decompose(f)
        reductions = []
        real = linalg._reduce

        def counted(rows):
            reductions.append(len(rows))
            return real(rows)

        monkeypatch.setattr(linalg, "_reduce", counted)
        assert check_decomposition(f, dec).passed
        assert essential_variables(f) == 4
        kernel, keep, _, g = _essential_split(f, DEFAULT_PRECISION_BITS)
        assert len(apolar_component(f, 1)) == len(kernel) == 1 and len(keep) == 4
        assert reductions == []
        essential_variables(g)
        assert len(reductions) == 1

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_approximate_forms_keep_one_kernel_per_precision(self, rng, bits):
        # their kernel depends on their coefficients and precision_bits
        other = 128 if bits == 64 else 64
        for n, d in ((3, 2), (3, 3), (4, 3)):
            exact = random_form(rng, n, d)
            f = Form(n, d, {e: AppComplex(c, 0, bits)
                            for e, c in exact.coeffs.items()})
            assert essential_variables(f, bits) == essential_variables(exact)
            kept = f.__dict__[KEPT]
            essential_split(f, bits)
            assert decompose(f, precision_bits=bits).report.passed
            assert list(kept) == [("kernel", bits)]
            assert essential_variables(f, other) == essential_variables(exact)
            assert list(kept) == [("kernel", bits), ("kernel", other)]


@st.composite
def degree_one_forms(draw):
    """A rational form with n = 1..6 and d = 1..4: dense, on a few
    monomials, or g(Tx) in fewer essential variables."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    monomials = monomials_of_degree(n, d)
    support = draw(st.one_of(
        st.just(monomials),
        st.lists(st.sampled_from(monomials), min_size=1, max_size=6,
                 unique=True)))
    coeff = st.fractions(-99, 99, max_denominator=12).filter(bool)
    f = Form(n, d, {expo: draw(coeff) for expo in support})
    if n == 1 or draw(st.booleans()):
        return f
    return draw(non_essential_forms())


def first_kernel_reductions(f, monkeypatch):
    """A list that, once f's rows are built, counts the ``linalg._reduce``
    calls made from now on upon exactly f's kept integer rows."""
    calls = []
    real = linalg._reduce

    def recorded(rows):
        calls.append(list(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "_reduce", recorded)

    def count():
        kept = list(APOLARITY._first_catalecticant_rows(f)[1].values())
        return sum(len(rows) == len(kept) and all(
            a is b for a, b in zip(rows, kept)) for rows in calls)
    return count


class TestDegreeOneKernel:
    """The degree-one kernel a form keeps, against the catalecticant it
    stands for."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(degree_one_forms())
    def test_kernel_and_count_match_the_catalecticant(self, f):
        n = f.num_vars
        rows = linalg.transpose([list(r) for r in catalecticant(f, 1).entries])
        want = APOLARITY._cleaned_kernel(rows, DEFAULT_PRECISION_BITS)
        units = monomials_of_degree(n, 1)
        got = [[op.coeffs.get(u, Fraction(0)) for u in units]
               for op in apolar_component(f, 1)]
        assert raw_matrix(got) == raw_matrix(want)
        assert raw_matrix(APOLARITY._degree_one_kernel(
            f, DEFAULT_PRECISION_BITS)) == raw_matrix(want)
        assert essential_variables(f) == \
            sympy.Matrix(catalecticant(f, 1).entries).rank() == n - len(want)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(degree_one_forms())
    def test_one_approximate_form_keeps_each_precision_apart(self, f):
        # the coefficients are rounded at 64 bits, so the kernel's entries
        # carry the precision asked for, and above 64 bits the rounding
        # may make the form essential
        n, d = f.num_vars, f.degree
        coeffs = {e: AppComplex(c, 0, 64) for e, c in f.coeffs.items()}
        g = Form(n, d, coeffs)
        assert essential_variables(g, 64) == essential_variables(f)
        for bits in (128, 256, 64):
            fresh = Form(n, d, coeffs)
            assert essential_variables(g, bits) == essential_variables(fresh, bits)
            assert raw_matrix(APOLARITY._degree_one_kernel(g, bits)) == \
                raw_matrix(APOLARITY._degree_one_kernel(fresh, bits))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.function_scoped_fixture])
    @given(degree_one_forms())
    def test_decompose_check_and_split_reduce_the_rows_once(self, monkeypatch, f):
        with monkeypatch.context() as patch:
            reductions = first_kernel_reductions(f, patch)
            dec = decompose(f)
            assert check_decomposition(f, dec).passed
            M, g = essential_split(f)
            assert g.num_vars == essential_variables(f)
            assert reductions() == 1


class TestSubspaceLift:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(non_essential_forms())
    def test_split_matches_the_basis_completion(self, f):
        m = essential_variables(f)
        M, g = essential_split(f)
        M_ref, g_ref = reference_essential_split(f, m)
        assert raw_matrix(M) == raw_matrix(M_ref)
        assert list(g.coeffs) == list(g_ref.coeffs)
        assert [raw(c) for c in g.coeffs.values()] == \
            [raw(c) for c in g_ref.coeffs.values()]
        _, keep, A, g_split = APOLARITY._essential_split(f, DEFAULT_PRECISION_BITS)
        assert g_split == g and len(keep) == m
        inverse = reference_rational_inverse(M_ref)
        assert raw_matrix(A) == [[raw(inverse[k][p]) for k in range(m)]
                                 for p in range(f.num_vars)]

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_approximate_hyperplane_lifts(self, bits):
        # a single column like the kernel vector ``_essential_split`` takes
        # from an approximate form: approximate entries, and exact zeros
        # where ``_cleaned_kernel`` cleared the noise
        rng = random.Random(bits)
        for _ in range(40):
            n = rng.randint(2, 6)
            beta = [Fraction(0) if rng.random() < 0.3 else
                    AppComplex(Fraction(rng.randint(-99, 99), rng.randint(1, 9)),
                               Fraction(rng.randint(-99, 99), rng.randint(1, 9)),
                               bits) for _ in range(n)]
            last = rng.randrange(n)
            beta[last] = (AppComplex(1, 0, bits) if rng.random() < 0.5 else
                          AppComplex(rng.randint(1, 9), rng.randint(-9, 9), bits))
            beta[last + 1:] = [Fraction(0)] * (n - last - 1)
            keep, A = APOLARITY._subspace_lift(n, [beta], bits)
            assert keep == [i for i in range(n) if i != last]
            _, A_ref = reference_hyperplane_change(beta, bits)
            assert raw_matrix(A) == raw_matrix([row[:n - 1] for row in A_ref])

    def test_rational_hyperplane_lifts(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            beta = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            if not any(beta):
                continue
            _, A = APOLARITY._subspace_lift(n, [beta], DEFAULT_PRECISION_BITS)
            _, A_ref = reference_hyperplane_change(beta, DEFAULT_PRECISION_BITS)
            assert raw_matrix(A) == raw_matrix([row[:n - 1] for row in A_ref])

    def test_columns_need_their_own_last_coordinate(self):
        for columns in ([[1, 2, 0], [Fraction(3), 1, 0]], [[0, 0, 0]]):
            with pytest.raises(InvalidInputError,
                               match="^coordinate change matrix is singular$"):
                APOLARITY._subspace_lift(3, columns, DEFAULT_PRECISION_BITS)

    @pytest.mark.parametrize("form, n, bits", [("x0^2 + 2*x0*x1 + x1^2", 3, 256),
                                               ("x0*x1^2 - x2^3", 5, 256),
                                               ("x0*x1^2 - x2^3", 5, 64),
                                               ("1/3*x0^2 + 2/5*x0*x1 + 3/20*x1^2",
                                                4, 256)])
    def test_a_kernel_vector_that_does_not_annihilate_is_caught(
            self, monkeypatch, form, n, bits):
        # the nudge is in place before f's first reduction, which f keeps
        f = parse_form(form, n)
        m = essential_variables(parse_form(form, n))
        real_kernel = linalg.kernel_basis

        def perturbed(rows, precision_bits, tol):
            kernel = real_kernel(rows, precision_bits, tol)
            # x0 is no free coordinate of these kernels, so the nudged
            # vectors keep their echelon form
            kernel[-1][0] += Fraction(1, 3)
            return kernel

        monkeypatch.setattr(linalg, "kernel_basis", perturbed)
        with pytest.raises(ConsistencyError) as got:
            essential_split(f, bits)
        with pytest.raises(ConsistencyError) as want:
            reference_essential_split(f, m, bits)
        assert str(got.value) == str(want.value) == \
            "polynomial is not supported on the first variables"

    @pytest.mark.parametrize("bits", [64, 256])
    def test_approximate_kernels_are_checked_within_tolerance(self, monkeypatch, bits):
        # x0^2 + x1^2 in three variables, with approximate coefficients:
        # the kernel is e2; a nudge below tolerance(bits) * max|f| passes,
        # one above it does not; each nudge reaches a fresh form's first
        # reduction, which that form keeps
        real_kernel = linalg.kernel_basis
        for nudge, fails in ((tolerance(bits) / 8, False), (tolerance(bits) * 8, True)):
            f = Form(3, 2, {(2, 0, 0): AppComplex(1, 0, bits),
                            (0, 2, 0): AppComplex(1, 0, bits)})

            def perturbed(rows, precision_bits, tol, nudge=nudge):
                kernel = real_kernel(rows, precision_bits, tol)
                kernel[0][0] = kernel[0][0] + AppComplex(nudge, 0, bits)
                return kernel

            monkeypatch.setattr(linalg, "kernel_basis", perturbed)
            if fails:
                with pytest.raises(ConsistencyError,
                                   match="polynomial is not supported"):
                    essential_split(f, bits)
            else:
                M, g = essential_split(f, bits)
                assert g.num_vars == 2 and set(g.coeffs) == {(2, 0), (0, 2)}


#: pairwise coprime denominators up to 10^15, 2^61 - 1 among them
LARGE_PRIMES = (1000003, 998244353, 10 ** 9 + 7, 10 ** 9 + 9, 2 ** 31 - 1,
                2 ** 61 - 1, 10 ** 12 + 39, 10 ** 15 + 37)


def random_conic(rng, zero_share, denominators=None):
    """A ternary dual conic with numerators in [-4, 4], each left out with
    probability ``zero_share``, over a denominator drawn from
    ``denominators`` (1 when it is None); never zero."""
    while True:
        coeffs = {expo: Fraction(c, rng.choice(denominators or (1,)))
                  for expo in monomials_of_degree(3, 2)
                  if (c := rng.randint(-4, 4)) and rng.random() >= zero_share}
        if coeffs:
            return DualOp(3, 2, coeffs)


class TestConicResultant:
    """The closed form of `_sylvester_resultant` on exact conics against the
    Sylvester determinant by interpolation it replaced
    (`conftest.reference_sylvester_resultant`)."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from((0.0, 0.3, 0.6, 0.85)),
           st.sampled_from((None, LARGE_PRIMES)))
    def test_closed_form_matches_the_interpolated_determinant(
            self, seed, zero_share, denominators):
        # with large coprime denominators, the integer closed form clears
        # each conic's and divides once at the end
        rng = random.Random(seed)
        D0, D1 = (random_conic(rng, zero_share, denominators)
                  for _ in range(2))
        for T in _coordinate_changes(3, 6):
            p = _dual_as_unipoly_coeffs(change_coordinates(D0, T))
            q = _dual_as_unipoly_coeffs(change_coordinates(D1, T))
            got = _sylvester_resultant(p, q, DEFAULT_PRECISION_BITS)
            want = reference_sylvester_resultant(p, q, DEFAULT_PRECISION_BITS)
            assert got == want
            assert all(type(c) is Fraction for c in got.coeffs)

    def test_the_closed_form_takes_no_determinant(self, monkeypatch):
        calls = []
        for name in ("rational_det", "complex_det"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        rng = random.Random(3)
        p = _dual_as_unipoly_coeffs(random_conic(rng, 0.2))
        q = _dual_as_unipoly_coeffs(random_conic(rng, 0.2))
        _sylvester_resultant(p, q, DEFAULT_PRECISION_BITS)
        # approximate conics take it too
        bits = 128
        q = [UniPoly([AppComplex(c, Fraction(1, 3), bits) for c in u.coeffs])
             for u in q]
        _sylvester_resultant(p, q, bits)
        assert calls == []
        # curves of another degree still take the determinant, at 10 nodes
        p3 = _dual_as_unipoly_coeffs(DualOp(3, 3, {
            (3, 0, 0): Fraction(1), (0, 1, 2): Fraction(2),
            (0, 0, 3): Fraction(-1)}))
        q3 = _dual_as_unipoly_coeffs(DualOp(3, 3, {
            (1, 2, 0): Fraction(3), (1, 0, 2): Fraction(1),
            (0, 0, 3): Fraction(2)}))
        assert (_sylvester_resultant(p3, q3, DEFAULT_PRECISION_BITS)
                == reference_sylvester_resultant(p3, q3,
                                                 DEFAULT_PRECISION_BITS))
        assert calls == ["rational_det"] * 20

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(64, 512))
    def test_approximate_conics_match_the_sylvester_determinant(self, seed,
                                                                bits):
        # the closed form on approximate conics: R(t) against
        # `linalg.complex_det` of the 4x4 Sylvester matrix at random t
        rng = random.Random(seed)

        def nudged(c):
            return AppComplex(c + Fraction(rng.randint(-999, 999), 1000),
                              Fraction(rng.randint(-999, 999), 1000), bits)

        p, q = ([UniPoly([nudged(c) for c in u.coeffs])
                 for u in _dual_as_unipoly_coeffs(random_conic(rng, 0.3))]
                for _ in range(2))
        R = _sylvester_resultant(p, q, bits)
        for _ in range(3):
            t = AppComplex(Fraction(rng.randint(-3000, 3000), 1000),
                           Fraction(rng.randint(-3000, 3000), 1000), bits)
            a0, a1, a2 = (c(t) for c in p)
            b0, b1, b2 = (c(t) for c in q)
            sylvester = [[a2, a1, a0, 0], [0, a2, a1, a0],
                         [b2, b1, b0, 0], [0, b2, b1, b0]]
            det = linalg.complex_det(sylvester, bits)
            scale = ((abs(a0) + abs(a1) + abs(a2))
                     * (abs(b0) + abs(b1) + abs(b2))) ** 2
            assert abs(R(t) - det) <= tolerance(bits) * scale


# `_dedupe_points`, `_distinct_roots` and the `ProjPoint` pivot as they were before the exponent rule: every distance an
# mpc hypot under workprec.


def reference_dedupe_points(points, precision_bits):
    with workprec(precision_bits + GUARD_BITS):
        sep = mpf(2) ** (-(precision_bits // 4))
        out = []
        for p in points:
            if all(p.distance(q) > sep for q in out):
                out.append(p)
    return out


def reference_distinct_roots(roots, precision_bits):
    with workprec(precision_bits):
        sep = mpf(2) ** (-(precision_bits // 4))
        uniq = []
        for r in roots:
            if all(abs(r.to_mpc() - u.to_mpc()) > sep for u in uniq):
                uniq.append(r)
    return uniq


def reference_pivot(coords):
    return max(range(len(coords)), key=lambda i: abs(coords[i]))


class TestSeparationsByExponent:
    """Point and root separations, and the pivot of a `ProjPoint`, decided
    by exponents read as the mpc hypots they replaced, on values near the
    separations and far from them."""

    BITS = 128

    def scalar(self, rng, top):
        """A complex scalar of size about 2^top, or zero."""
        if rng.random() < 0.1:
            return AppComplex(0, 0, self.BITS)
        part = lambda: (Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** 20)
                        * Fraction(2) ** top)
        return AppComplex(part(), part(), self.BITS)

    def offset(self, rng, tops):
        """A random offset of top about one of ``tops``, or a separation
        exactly, or a hair above it, on one axis."""
        bits = self.BITS
        if rng.random() < 0.3:
            sep = Fraction(1, 2 ** (bits // rng.choice((3, 4))))
            x = sep * rng.choice((1, 1 + Fraction(1, 2 ** 20)))
            x *= rng.choice((1, -1))
            return AppComplex(*((x, 0) if rng.random() < 0.5 else (0, x)), bits)
        return self.scalar(rng, rng.choice(tops))

    #: offsets about 2^-(bits/3) and 2^-(bits/4), and far from both
    TOPS = [k + o for k in (-(BITS // 3), -(BITS // 4)) for o in (-1, 0, 1)]
    TOPS += [-200, -2]

    def near(self, rng, points):
        """Each point moved by an ``offset``."""
        return [c + self.offset(rng, self.TOPS) for c in points]

    def roots(self, rng):
        """Roots near a few centres."""
        centres = [self.scalar(rng, 1) for _ in range(3)]
        return self.near(rng, [c for c in centres
                               for _ in range(rng.randint(1, 3))])

    def test_distinct_roots(self):
        rng = random.Random(11)
        bits = self.BITS
        for _ in range(40):
            ra = self.roots(rng)
            rb = self.near(rng, ra[::2]) + self.roots(rng)
            assert (_distinct_roots(ra + rb, bits)
                    == reference_distinct_roots(ra + rb, bits))

    def test_points_and_pivots(self):
        rng = random.Random(12)
        bits = self.BITS
        # the largest modulus on the smaller top: |7/8 + 7/8 i| > |1|
        coords = [AppComplex(1, 0, bits),
                  AppComplex(Fraction(7, 8), Fraction(7, 8), bits)]
        assert reference_pivot(coords) == 1
        pivot = ProjPoint(coords, bits).coords[1]
        assert (pivot.real, pivot.imag) == (1, 0)
        for _ in range(40):
            coords = [self.scalar(rng, rng.choice((-300, -3, 0, 1, 2)))
                      for _ in range(3)]
            if all(c.real == 0 and c.imag == 0 for c in coords):
                continue
            p = ProjPoint(coords, bits)
            pivot = coords[reference_pivot(coords)]
            assert [(c.real, c.imag) for c in p.coords] == [
                (q.real, q.imag) for q in (c / pivot for c in coords)]
            near = [ProjPoint([c + self.offset(rng, (
                -(bits // 4) - 1, -(bits // 4), -(bits // 4) + 1, -100, 0))
                for c in p.coords], bits) for _ in range(4)]
            points = [p] + near
            assert (_dedupe_points(points, bits)
                    == reference_dedupe_points(points, bits))


# ---------------------------------------------------------------------------
# Base-point candidates from one root search per resultant root, the pairing
# left to the certificate against the whole net, against the two-sided
# search they replaced.


def with_base_points(rng):
    """x0*x1^2 + x1*x2^2, whose net of apolar conics has a base point,
    under a random invertible integer change of coordinates."""
    f = parse_form("x0*x1^2 + x1*x2^2", 3)
    while True:
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if rational_det(M) != 0:
            return change_coordinates(f, M)


def approximate(f, bits):
    """f / 3 with every coefficient an AppComplex at ``bits``."""
    return Form(f.num_vars, f.degree, {m: AppComplex(c / 3, 0, bits)
                                       for m, c in f.coeffs.items()})


class TestBasePointsPairedByTheCertificate:
    def outcome(self, f, bits, seed):
        """The points as raw parts, or the error's class and text."""
        try:
            return [[c.parts for c in p.coords]
                    for p in base_points(f, 2, bits, seed=seed)]
        except (ConsistencyError, DegenerateSystemError, InvalidInputError,
                RetryBudgetError) as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_same_points_as_the_two_sided_search(self, bits, monkeypatch):
        rng = random.Random(bits)
        dense = [random_essential_form(rng, 3, 3) for _ in range(4)]
        pointed = [with_base_points(rng) for _ in range(3)]
        nets = (dense + pointed + [approximate(f, bits) for f in dense[:2]]
                + [approximate(f, bits) for f in pointed[:2]])
        found = []
        for f in nets:
            seed = rng.randrange(1 << 30)
            got = self.outcome(f, bits, seed)
            with monkeypatch.context() as m:
                m.setattr(APOLARITY, "_curve_pair_candidates",
                          reference_curve_pair_candidates)
                assert got == self.outcome(f, bits, seed)
            found.append(len(got) if isinstance(got, list) else None)
        # the rational cubics split as built: no base point, or one
        assert found[:7] == [0] * 4 + [1] * 3

    def test_no_rational_division_on_a_base_point_free_net(self,
                                                           monkeypatch):
        # the resultant of two conics of a base-point-free rational net is
        # certified squarefree modulo a prime, so no rational Euclid runs
        calls = []
        real = UniPoly.divmod
        monkeypatch.setattr(UniPoly, "divmod",
                            lambda a, b: calls.append(1) or real(a, b))
        for seed in range(3):
            f = random_essential_form(random.Random(seed), 3, 3)
            assert _base_points(apolar_component(f, 2), 3,
                                DEFAULT_PRECISION_BITS, DEFAULT_SEED,
                                DEFAULT_MAX_RETRIES)[0] == []
        assert calls == []

    def test_one_root_search_per_resultant_root(self, monkeypatch):
        # a rational cubic without base points: the quartic resultant, then
        # one conic of the pencil at each of its four roots
        degrees = []
        real = APOLARITY.univariate_roots

        def counting(p, bits):
            degrees.append(p.degree)
            return real(p, bits)

        monkeypatch.setattr(APOLARITY, "univariate_roots", counting)
        for seed in range(3):
            degrees.clear()
            f = random_essential_form(random.Random(seed), 3, 3)
            assert base_points(f, 2) == []
            assert degrees == [4, 2, 2, 2, 2]


class TestRootPathThresholdsAtAFixedPrecision:
    # each scale below is 1 + 2^-30 times a power of two: exact at mpmath's
    # default 53 bits, where the threshold sits just above a value of
    # 1 + 2^-31 times the same power, and rounded down to the power itself
    # at 20 bits, where it would fall below that value
    BITS = 256

    def app(self, x):
        return AppComplex(x, 0, self.BITS)

    def test_trim_threshold(self):
        scale = 1 + Fraction(1, 2 ** 30)
        lead = Fraction(1, 2 ** (self.BITS // 2)) * (1 + Fraction(1, 2 ** 31))
        values = [self.app(scale), self.app(lead)]
        assert _trim_leading(values, self.BITS).degree == 0
        for prec in (20, 300):
            with workprec(prec):
                assert _trim_leading(values, self.BITS).degree == 0

    def test_elimination_threshold(self):
        # mu = a1 lies just below 2^-(bits/4) * max|a| * max|b|, so the
        # elimination is refused and the chart gives no point
        a2 = 2 * (1 + Fraction(1, 2 ** 30))
        a1 = Fraction(2, 2 ** (self.BITS // 4)) * (1 + Fraction(1, 2 ** 31))
        p = [UniPoly([self.app(c)]) for c in (-a2, a1, a2)]
        q = [UniPoly([self.app(c)]) for c in (-1, 0, 1)]
        t = self.app(1)
        assert _back_substitute_l2(p, q, t, self.BITS) is None
        for prec in (20, 300):
            with workprec(prec):
                assert _back_substitute_l2(p, q, t, self.BITS) is None


class TestThresholdsAtAFixedPrecision:
    # each tolerance is a libmp product at 53 bits; each input below sits
    # just under it, with a scale of (1 + 2^-30) * 2^k that rounds to 2^k
    # at 20 bits
    BITS = 256
    S = 1 + Fraction(1, 2 ** 30)
    NEAR = Fraction(1, 2 ** (BITS // 2)) * (1 + Fraction(1, 2 ** 31))

    def app(self, x):
        return AppComplex(x, 0, self.BITS)

    def two_squares(self):
        # the Hessian of (x0 - e x2)^2 + (x1 - S x2)^2 annihilates
        # (e, S, 1), and e = 2^-128 * (1 + 2^-31) is cleaned away
        e, S = self.NEAR, self.S
        coeffs = {(2, 0, 0): 1, (1, 0, 1): -2 * e, (0, 2, 0): 1,
                  (0, 1, 1): -2 * S, (0, 0, 2): e * e + S * S}
        return Form(3, 2, {k: self.app(v) for k, v in coeffs.items()})

    def test_apolar_component_cleaning(self):
        # a form keeps its kernel, so each precision reduces a fresh one
        assert at_each_precision(lambda: [
            sorted(op.coeffs)
            for op in apolar_component(self.two_squares(), 1, self.BITS)]
        ) == dict.fromkeys(AMBIENT_PRECISIONS, [[(0, 0, 1), (0, 1, 0)]])

    def test_essential_split_cleans_its_kernel_as_apolar_component(self):
        # the split's kernel vector is the operator's coordinates, with an
        # exact zero where e was
        op, = apolar_component(self.two_squares(), 1, self.BITS)
        want = [raw(x) for x in LinearForm.from_form(op).coords]
        assert want[0] == (Fraction, 0)

        def split():
            kernel, keep, _, _ = _essential_split(self.two_squares(), self.BITS)
            return [raw(x) for x in kernel[0]], keep
        assert at_each_precision(split) == dict.fromkeys(
            AMBIENT_PRECISIONS, (want, [0, 1]))

    def test_essential_split_annihilation(self):
        # the kernel vector e1 contracts S x0^2 + (e / 2) x1^2 to e x1,
        # within tol * max|f|
        def f():
            return Form(2, 2, {(2, 0): self.app(self.S),
                               (0, 2): self.app(self.NEAR / 2)})
        assert at_each_precision(
            lambda: len(_essential_split(f(), self.BITS)[0])) == dict.fromkeys(
            AMBIENT_PRECISIONS, 1)

    def test_chart_leading_coefficient(self):
        # the l2^2 coefficient of D0 lies within tol * |D0|_1, so the
        # identity chart is skipped
        D0 = DualOp(3, 2, {(2, 0, 0): self.S, (0, 0, 2): self.app(self.NEAR)})
        D1 = DualOp(3, 2, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1),
                           (0, 0, 2): Fraction(1)})
        identity = next(_coordinate_changes(3, 0))
        assert at_each_precision(lambda: next(_resultant_charts(
            D0, D1, _coordinate_changes(3, 6), self.BITS,
            CommonComponentError("shared")))[0] != identity) == dict.fromkeys(
            AMBIENT_PRECISIONS, True)

    def test_power_witness_residual(self):
        # the least-squares residual of x0 against l = S x0 + e x1 is e,
        # within tol * max(|l|, |f|)
        f = Form(2, 1, {(1, 0): self.app(1)})
        l = LinearForm([self.S, self.NEAR])
        assert at_each_precision(
            lambda: power_witness(f, l, 1, self.BITS) is not None
        ) == dict.fromkeys(AMBIENT_PRECISIONS, True)
