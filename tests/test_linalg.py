"""Exact and approximate linear algebra: properties against sympy, and the
routines the single fraction-free reduction replaced, kept as references."""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mpf, workprec
from mpmath.libmp import from_man_exp, fzero

from openwaring import (InvalidInputError, LinearForm, NoFitError,
                        fit_coefficients, linalg, parse_form)
from openwaring.apolarity import _subspace_lift
from openwaring.linalg import (complex_echelon, complex_kernel,
                               complex_solve_lstsq, dot, mat_vec, matrix_rank,
                               rational_det, rational_kernel, rational_rank,
                               rational_solve)
from openwaring.numerics import (AppComplex, _make_mpf, scalar_is_zero,
                                 tolerance)
from conftest import (reference_complex_echelon, reference_complex_kernel,
                      reference_reduce, reference_subspace_lift)

# ---------------------------------------------------------------------------
# The elimination routines as they were before the fraction-free
# Gauss-Jordan reduction: Bareiss echelon form with Fraction
# back-substitution, and Fraction elimination for the determinant.


def reference_echelon(rows):
    int_rows = []
    for row in rows:
        row = [Fraction(x) for x in row]
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        int_rows.append([int(x * denom) for x in row])
    m = int_rows
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    piv_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return [[Fraction(x) for x in row] for row in m[:r]], piv_cols


def reference_kernel(rows):
    ncols = len(rows[0])
    ech, piv = reference_echelon(rows)
    basis = []
    for fc in [c for c in range(ncols) if c not in piv]:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i in range(len(piv) - 1, -1, -1):
            pc = piv[i]
            s = sum((ech[i][j] * v[j] for j in range(pc + 1, ncols)), Fraction(0))
            v[pc] = -s / ech[i][pc]
        basis.append(v)
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    ech, piv = reference_echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in piv:
        return None
    x = [Fraction(0)] * ncols
    for i in range(len(piv) - 1, -1, -1):
        pc = piv[i]
        s = sum((ech[i][j] * x[j] for j in range(pc + 1, ncols)), Fraction(0))
        x[pc] = (ech[i][ncols] - s) / ech[i][pc]
    return x


def reference_det(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] == 0:
                continue
            f = m[i][c] * inv
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


# ---------------------------------------------------------------------------
# rational matrices up to 8 x 9: dense, sparse, of low rank, with zero rows

ENTRIES = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 8))
    ncols = nrows if square else draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["dense", "sparse", "low rank"]))
    if kind == "low rank":
        k = draw(st.integers(0, min(nrows, ncols) - 1))
        left = draw(st.lists(st.lists(ENTRIES, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                              min_size=k, max_size=k))
        rows = [[sum((a * right[t][j] for t, a in enumerate(row)), Fraction(0))
                 for j in range(ncols)] for row in left]
    else:
        entry = ENTRIES if kind == "dense" else st.one_of(st.just(Fraction(0)),
                                                          ENTRIES)
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [Fraction(0)] * ncols
    return rows


@st.composite
def int_and_fraction_matrices(draw):
    """The matrices above as rows of plain ints (12 clears every
    denominator of ENTRIES), as ints mixed with Fractions, or with each row
    scaled by a large denominator."""
    rows = draw(matrices())
    kind = draw(st.sampled_from(["ints", "mixed", "large"]))
    if kind == "ints":
        scale = draw(st.integers(1, 10**12))
        return [[int(x * 12 * scale) for x in row] for row in rows]
    if kind == "mixed":
        return [[int(x) if x.denominator == 1 and draw(st.booleans()) else x
                 for x in row] for row in rows]
    scales = draw(st.lists(st.fractions(max_denominator=10**18).filter(bool),
                           min_size=len(rows), max_size=len(rows)))
    return [[x * s for x in row] for row, s in zip(rows, scales)]


def typed(x):
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return (type(x), x)


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def apply(rows, vec):
    return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in rows]


def assert_all_fractions(values):
    assert all(type(x) is Fraction for x in values)


class TestRational:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank(self, rows):
        rank = to_sympy(rows).rank()
        assert rational_rank(rows) == rank
        assert matrix_rank(rows, 256, tolerance(256)) == rank

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel(self, rows):
        ncols = len(rows[0])
        _, pivots = to_sympy(rows).rref()
        free = [c for c in range(ncols) if c not in pivots]
        basis = rational_kernel(rows)
        assert len(basis) == ncols - len(pivots)
        for fc, v in zip(free, basis):
            assert_all_fractions(v)
            assert apply(rows, v) == [0] * len(rows)
            assert [v[c] for c in free] == [int(c == fc) for c in free]
        assert basis == reference_kernel(rows)

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_solve_consistent(self, rows, data):
        x0 = data.draw(st.lists(ENTRIES, min_size=len(rows[0]),
                                max_size=len(rows[0])))
        rhs = apply(rows, x0)
        x = rational_solve(rows, rhs)
        assert x is not None
        assert_all_fractions(x)
        assert apply(rows, x) == rhs
        assert x == reference_solve(rows, rhs)

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_solve_any_rhs(self, rows, data):
        rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        a = to_sympy(rows)
        consistent = a.row_join(to_sympy([[b] for b in rhs])).rank() == a.rank()
        x = rational_solve(rows, rhs)
        assert (x is not None) == consistent
        if x is not None:
            assert apply(rows, x) == rhs
        assert x == reference_solve(rows, rhs)

    @settings(max_examples=60, deadline=None)
    @given(matrices(square=True))
    def test_det(self, rows):
        det = rational_det(rows)
        assert type(det) is Fraction
        assert det == to_fraction(to_sympy(rows).det())
        assert det == reference_det(rows)

    @settings(max_examples=80, deadline=None)
    @given(int_and_fraction_matrices(), st.data())
    def test_integer_rows_reduce_as_fraction_rows(self, rows, data):
        # the reduction takes ints as they are; the reference wraps every
        # entry in a Fraction first
        if data.draw(st.booleans()):
            x0 = data.draw(st.lists(ENTRIES, min_size=len(rows[0]),
                                    max_size=len(rows[0])))
            rhs = apply(rows, x0)
        else:
            rhs = data.draw(st.lists(st.one_of(st.integers(-9, 9), ENTRIES),
                                     min_size=len(rows), max_size=len(rows)))
        k = min(len(rows), len(rows[0]))
        square = [row[:k] for row in rows[:k]]

        def results():
            return (rational_rank(rows), rational_kernel(rows),
                    rational_solve(rows, rhs), rational_det(square))

        got = results()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_reduce", reference_reduce)
            want = results()
        assert typed(got) == typed(want)

    def test_empty_determinant_is_one(self):
        assert rational_det([]) == 1
        assert type(rational_det([])) is Fraction

    def test_determinant_needs_a_square_matrix(self):
        with pytest.raises(InvalidInputError,
                           match="determinant needs a square matrix"):
            rational_det([[1, 2, 3], [4, 5, 6]])

    def test_solve_needs_one_rhs_entry_per_row(self):
        for rows, rhs in (([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 2]),
                          ([], [1])):
            with pytest.raises(InvalidInputError,
                               match="right-hand side length must match"):
                rational_solve(rows, rhs)
        assert rational_solve([], []) is None
        with pytest.raises(InvalidInputError,
                           match="right-hand side length must match"):
            complex_solve_lstsq([[AppComplex(1, 0, 64)], [2]], [1], 64)


# ---------------------------------------------------------------------------
# the complex echelon form on hand-made cases, raw tuple for raw tuple


def app(re, im, bits):
    return AppComplex(Fraction(re), Fraction(im), bits)


def complex_cases(bits):
    swaps = [[app(Fraction((2 * i + 5 * j) % 7 + 1, 3), Fraction(i - 2 * j, 7), bits)
              for j in range(4)] for i in range(4)]
    zero_pivot = [[0, app(1, Fraction(1, 3), bits), 2],
                  [0, app(Fraction(2, 3), 0, bits), Fraction(1, 3)],
                  [app(5, -1, bits), 6, app(Fraction(1, 7), 2, bits)]]
    zero_column = [[0, app(1, 1, bits)], [0, app(Fraction(1, 3), 0, bits)]]
    singular = [[app(1, 0, bits), 2, 3], [2, app(4, 0, bits), 5],
                [1, 2, app(7, 0, bits)]]
    permutation = [[0, app(1, 0, bits), 0], [app(1, 0, bits), 0, 0],
                   [0, 0, app(1, 0, bits)]]
    rng = random.Random(7)
    dense = [[app(Fraction(rng.randint(-50, 50), rng.choice([3, 7, 11])),
                  Fraction(rng.randint(-50, 50), rng.choice([3, 7, 11])), bits)
              for _ in range(6)] for _ in range(6)]
    return {"swaps": swaps, "zero pivot": zero_pivot, "zero column": zero_column,
            "singular": singular, "permutation": permutation, "dense": dense,
            "empty": []}


def raw(z):
    return (z.real._mpf_, z.imag._mpf_, z.precision_bits)


class TestComplexEchelonCases:
    @pytest.mark.parametrize("bits", [64, 256, 1088])
    @pytest.mark.parametrize("case", ["swaps", "zero pivot", "zero column",
                                      "singular", "permutation", "dense",
                                      "empty"])
    def test_matches_the_mpc_echelon(self, bits, case):
        rows = complex_cases(bits)[case]
        for tol in (0, tolerance(bits)):
            assert_same_echelon(rows, bits, tol)

    def test_singular_loses_a_pivot(self):
        # with no threshold, an exactly singular matrix still takes no
        # pivot in a column that elimination zeroes
        cases = complex_cases(128)
        assert complex_echelon(cases["zero column"], 128, 0)[1] == [1]
        assert complex_echelon(cases["singular"], 128, 0)[1] == [0, 2]
        assert complex_echelon(cases["permutation"], 128, 0)[1] == [0, 1, 2]


def test_dot_and_mat_vec():
    assert dot([], []) == 0 and type(dot([], [])) is Fraction
    assert dot([1, 2], [Fraction(1, 2), 3]) == Fraction(13, 2)
    assert mat_vec([[1, 0], [2, 3]], [Fraction(1, 3), 1]) == [
        Fraction(1, 3), Fraction(11, 3)]


# ---------------------------------------------------------------------------
# the approximate elimination on raw tuples against the mpc-object routines
# it replaced (tests/conftest.py), bit for bit: echelon rows, pivots and
# scale, the kernel and the lift of `_subspace_lift`; and
# `complex_solve_lstsq` against mpmath at twice the precision


@st.composite
def approx_entries(draw, precisions):
    """Zero, an int or Fraction of up to 40 digits, or an AppComplex at one
    of ``precisions`` whose parts carry up to 40 bits more than it keeps."""
    kind = draw(st.sampled_from(("zero", "int", "fraction", "app", "app")))
    if kind == "zero":
        return draw(st.sampled_from((0, Fraction(0),
                                     AppComplex(0, 0, precisions[0]))))
    if kind == "int":
        return draw(st.integers(-10**40, 10**40))
    if kind == "fraction":
        return Fraction(draw(st.integers(-10**40, 10**40)),
                        draw(st.integers(1, 10**40)))
    prec = draw(st.sampled_from(precisions))
    parts = []
    for _ in range(2):
        if draw(st.integers(0, 4)) == 0:
            parts.append(0)
            continue
        man = draw(st.integers(1, 2 ** (prec + 40)))
        exp = draw(st.integers(-60, 20)) - man.bit_length()
        parts.append(_make_mpf(from_man_exp(-man if draw(st.booleans())
                                            else man, exp)))
    return AppComplex(parts[0], parts[1], prec)


@st.composite
def approx_matrices(draw):
    """(bits, rows, rhs): tall, wide or square, up to 6 x 6, at 64-1024
    bits, with entries of mixed kinds and precisions; dense, with zero
    columns, of low rank (repeated and scaled columns), or nearly so."""
    bits = draw(st.integers(64, 1024))
    precisions = [bits] + draw(st.lists(st.integers(64, 1100), max_size=2))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = approx_entries(precisions)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    kind = draw(st.sampled_from(("dense", "zero columns", "low rank",
                                 "nearly low rank")))
    if kind == "zero columns":
        for j in draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=2)):
            for row in rows:
                row[j] = 0
    elif kind != "dense" and ncols > 1:
        # repeated and scaled columns, or ill-conditioned ones nudged
        # 2^-(bits/3) apart
        src = draw(st.integers(0, ncols - 1))
        nudge = AppComplex(Fraction(1, 2 ** (bits // 3)), 0, bits)
        for j in draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3)):
            factor = draw(st.sampled_from((1, -1, -2, Fraction(1, 3))))
            for i, row in enumerate(rows):
                row[j] = row[src] * factor
                if kind == "nearly low rank" and (i + j) % 2:
                    row[j] = row[j] + nudge
    rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return bits, rows, rhs


def raw_app(values):
    return [raw(z) for z in values]


def assert_same_echelon(rows, bits, tol):
    ech, piv, scale = complex_echelon(rows, bits, tol)
    ref_ech, ref_piv, ref_scale = reference_complex_echelon(rows, bits, tol)
    assert ech == [[z._mpc_ for z in row] for row in ref_ech]
    assert (piv, scale) == (ref_piv, ref_scale._mpf_)


# a zero column has no pivot, so its variable is set to exactly zero
ZERO_COLUMN = (128, [[app(1, 2, 128), 0, 3], [app(Fraction(1, 3), 0, 128), 0, -1],
                     [2, 0, app(0, 1, 128)]],
               [1, app(0, 1, 128), Fraction(2, 7)])


class TestComplexElimination:
    @settings(max_examples=80, deadline=None)
    @given(approx_matrices())
    @example(ZERO_COLUMN)
    def test_matches_the_mpc_routines(self, case):
        bits, rows, rhs = case
        for tol in (0, tolerance(bits), mpf(2) ** -40):
            assert_same_echelon(rows, bits, tol)
        kernel = complex_kernel(rows, bits, tolerance(bits))
        assert [raw_app(v) for v in kernel] == [
            raw_app(v) for v in reference_complex_kernel(rows, bits,
                                                         tolerance(bits))]
        if kernel:
            n = len(rows[0])
            keep, A = _subspace_lift(n, kernel, bits)
            ref_keep, ref_A = reference_subspace_lift(n, kernel, bits)
            assert keep == ref_keep
            assert [raw_app(row) for row in A] == [raw_app(row) for row in ref_A]

    @settings(max_examples=40, deadline=None)
    @given(approx_matrices(), st.data())
    def test_one_column_lift_matches(self, case, data):
        # a single hyperplane vector, its last coordinate approximate
        bits, rows, _ = case
        last = data.draw(approx_entries([bits, 1100]).filter(
            lambda x: isinstance(x, AppComplex) and not scalar_is_zero(x)))
        col = rows[0] + [last]
        keep, A = _subspace_lift(len(col), [col], bits)
        ref_keep, ref_A = reference_subspace_lift(len(col), [col], bits)
        assert keep == ref_keep
        assert [raw_app(row) for row in A] == [raw_app(row) for row in ref_A]

    def test_ill_conditioned_systems_with_entries_beyond_the_working_bits(self):
        # columns 2^-(bits/3) apart make the elimination ill-conditioned
        # enough that a rounding changed anywhere in the working precision
        # shows in the echelon rows; the 1100-bit entries lie far beyond
        # it, so they test that conversion keeps them unrounded
        rng = random.Random(17)

        def wide():
            return AppComplex(*(_make_mpf(from_man_exp(rng.getrandbits(1150) | 1,
                                                       -1150 + rng.randint(-9, 9)))
                                for _ in range(2)), 1100)

        for _ in range(30):
            bits = rng.choice((64, 100, 256, 700))
            e = AppComplex(Fraction(1, 2 ** (bits // 3)), 0, bits)
            h, g = wide(), wide()
            rows = [[h, h + e, 2], [g, g, app(1, -1, bits)], [1, 1 - e, e]]
            assert_same_echelon(rows, bits, tolerance(bits))
            square = [row[:2] for row in rows[:2]]
            assert_same_echelon(square, bits, 0)


# ---------------------------------------------------------------------------
# complex_solve_lstsq against mpmath at twice the working precision


def to_mp(x):
    """An entry as an mpmath number at the ambient precision."""
    if isinstance(x, AppComplex):
        return x.to_mpc()
    return mpf(x.numerator) / x.denominator


def consistent_system(rng):
    """(bits, rows, rhs): a tall or square system of 1-5 columns at 64-1024
    bits, entries ints, Fractions and AppComplex values of magnitude at most
    1 whose parts carry up to 40 bits more than the working precision; rhs
    is A x for a random x, rounded at the working precision."""
    bits = rng.randint(64, 1024)
    ncols = rng.randint(1, 5)
    nrows = rng.randint(ncols, 7)

    def part(prec):
        return _make_mpf(from_man_exp(rng.randint(-2 ** prec, 2 ** prec), -prec))

    def entry():
        kind = rng.random()
        if kind < 0.15:
            return rng.choice((-1, 1)) * rng.randint(1, 9)
        if kind < 0.3:
            return Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        prec = rng.choice((bits, bits + 40))
        return AppComplex(part(prec + 8), part(prec + 8), prec)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    with workprec(2 * bits):
        x = [mpmath.mpc(part(bits), part(bits)) for _ in range(ncols)]
        rhs = [AppComplex.from_mpc(mpmath.fsum(to_mp(a) * xj
                                               for a, xj in zip(row, x)), bits)
               for row in rows]
    return bits, rows, rhs


def well_conditioned(rows, bits):
    """Whether the smallest singular value of A is at least 2^-16 of the
    largest."""
    with workprec(2 * bits):
        A = mpmath.matrix([[to_mp(a) for a in row] for row in rows])
        sv = mpmath.svd_c(A, compute_uv=False)
        return min(sv) >= mpf(2) ** -16 * max(sv)


def assert_residual_recomputed(rows, rhs, bits, x, resid):
    """The reported residual is max_k |(A x - b)_k| over all rows, as mpmath
    recomputes it at twice the precision from the returned x: within
    2^-(bits/2) * max(1, n * max|A| * max|x|, max|b|), which covers the
    rounding of x and of the sums."""
    with workprec(2 * bits):
        xs = [xj.to_mpc() for xj in x]
        a = [[to_mp(v) for v in row] for row in rows]
        b = [to_mp(v) for v in rhs]
        want = max(abs(mpmath.fsum(v * xj for v, xj in zip(row, xs)) - bk)
                   for row, bk in zip(a, b))
        size = max([mpf(1), max(map(abs, b))]
                   + [len(xs) * max(map(abs, row)) * abs(xj)
                      for row in a for xj in xs])
        assert type(resid) is mpf
        assert abs(resid - want) <= mpf(2) ** -(bits // 2) * size


class TestLeastSquaresOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_consistent_full_rank_systems_match_qr_solve(self, seed):
        bits, rows, rhs = consistent_system(random.Random(seed))
        assume(well_conditioned(rows, bits))
        x, resid = complex_solve_lstsq(rows, rhs, bits)
        with workprec(2 * bits):
            # mpmath's Householder step divides by zero at an exactly zero
            # diagonal entry (it takes sign(0) = 0), so the row with the
            # largest first entry goes first; the solution is the same
            order = sorted(zip(rows, rhs), key=lambda r: -abs(to_mp(r[0][0])))
            A = mpmath.matrix([[to_mp(a) for a in row] for row, _ in order])
            want, _ = mpmath.qr_solve(
                A, mpmath.matrix([to_mp(b) for _, b in order]))
            size = max([mpf(1)] + [abs(w) for w in want])
            err = max(abs(xj.to_mpc() - w) for xj, w in zip(x, want))
            assert err <= mpf(2) ** -(bits // 2) * size
        assert_residual_recomputed(rows, rhs, bits, x, resid)

    @settings(max_examples=60, deadline=None)
    @given(approx_matrices())
    @example(ZERO_COLUMN)
    def test_residual_matches_mpmath_on_any_system(self, case):
        # wide, rank-deficient and inconsistent systems too
        bits, rows, rhs = case
        x, resid = complex_solve_lstsq(rows, rhs, bits)
        assert_residual_recomputed(rows, rhs, bits, x, resid)

    def test_a_column_without_a_pivot_comes_back_zero(self):
        bits, rows, rhs = ZERO_COLUMN
        x, _ = complex_solve_lstsq(rows, rhs, bits)
        assert x[1].parts == (fzero, fzero)

    def test_inconsistent_fit_raises(self):
        # x0*x1 is not in the span of x0^2 and x1^2: the system is
        # inconsistent on the approximate path as on the exact one, and the
        # least-squares residual is the missing coefficient
        bits = 256
        one = AppComplex(1, 0, bits)
        for points in ([LinearForm([one, 0]), LinearForm([0, one])],
                       [LinearForm([1, 0]), LinearForm([0, 1])]):
            with pytest.raises(NoFitError):
                fit_coefficients(parse_form("x0*x1", 2), points, bits)
        # the rows x0^2, x0*x1 and x1^2 of that fit
        _, resid = complex_solve_lstsq([[one, 0], [0, 0], [0, one]], [0, 1, 0],
                                       bits)
        assert abs(resid - 1) <= mpf(2) ** -60
