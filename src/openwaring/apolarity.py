"""Graded pieces of the annihilator of a form, essential-variable analysis
and base-point detection for apolar linear systems.

The degree-e piece of the annihilator is computed as the left kernel of the
catalecticant matrix of the contraction pairing.  Everything stays in exact
rational arithmetic when the input form is rational (the first
catalecticant, behind the essential-variable count and split, on
integers); forms with approximate coefficients go through thresholded
complex elimination instead.

The plane-curve resultant machinery lives here too: ``_resultant_charts``
walks coordinate charts of a pair of ternary curves and eliminates the last
variable by a Sylvester resultant, and ``_curve_pair_candidates`` (for
``base_points``) and ``decompose.conic_intersection`` build their
intersections on it.  Since ``base_points`` certifies every candidate
against the whole annihilator basis, its candidates over a resultant root
are one curve's roots there, unpaired (``_curve_pair_candidates`` says why
that finds the same points).  ``_base_points`` also returns the
candidates on both conics of its last pencil: the ternary-cubic step fits
on them when there are four, so ``conic_intersection`` serves only its
fallback attempts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, zip_longest
from math import factorial, lcm

from mpmath import mpf, nstr
from mpmath.libmp import fone, mpf_gt, mpf_shift

from . import linalg
from .errors import (ConsistencyError, DegenerateSystemError,
                     InvalidInputError, RetryBudgetError)
from .numerics import (AppComplex, DEFAULT_PRECISION_BITS, GUARD_BITS,
                       UniPoly, _CONE, _CZERO, _abs_exceeds, _abs_gt,
                       _abs_max_candidates, _at_least_one, _box, _cdiv,
                       _cmul, _cneg, _csub, _div, _mul, _threshold,
                       _integer_rows, _threshold_pow, _unbox,
                       is_exact_scalar, max_abs_of, scalar_is_zero,
                       squarefree_part, tolerance, univariate_roots)
from .poly import (DualOp, Form, LinearForm, change_coordinates, evaluate,
                   linear_power, monomials_of_degree)

DEFAULT_SEED = 1729
DEFAULT_MAX_RETRIES = 64


@dataclass(frozen=True)
class CatMatrix:
    """Matrix of the contraction pairing in fixed degree.

    Row ``r`` (a dual monomial of degree e) expands ``r`` applied to the
    form over the degree d-e monomial basis, both in graded-lex order; the
    left kernel of ``entries`` is the degree-e piece of the annihilator.
    """

    row_labels: tuple
    col_labels: tuple
    entries: tuple
    e: int
    d: int

    def rank(self, precision_bits=DEFAULT_PRECISION_BITS):
        rows = [list(r) for r in self.entries]
        return linalg.matrix_rank(rows, precision_bits, tolerance(precision_bits))


class ProjPoint:
    """Point of projective space, normalized so the largest-modulus
    coordinate equals one: each coordinate divided by the first of largest
    modulus on raw values, a hypot taken only when the tops leave more than
    one candidate (``_abs_max_candidates``)."""

    __slots__ = ("coords",)

    def __init__(self, coords, precision_bits=DEFAULT_PRECISION_BITS):
        vals = [c if isinstance(c, AppComplex) else AppComplex(c, 0, precision_bits)
                for c in coords]
        if all(v.parts == _CZERO for v in vals):
            raise InvalidInputError("projective point cannot be all zero")
        candidates = _abs_max_candidates(vals)
        best = (candidates[0] if len(candidates) == 1
                else max(candidates, key=lambda i: abs(vals[i])))
        pivot = _unbox(vals[best])
        object.__setattr__(self, "coords", tuple(
            _box(_div(_unbox(v), pivot)) for v in vals))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def num_vars(self):
        return len(self.coords)

    def to_linear_form(self) -> LinearForm:
        return LinearForm(self.coords)

    def distance(self, other) -> mpf:
        """max-coordinate distance between the normalized representatives."""
        return max(abs(a - b) for a, b in zip(self.coords, other.coords))

    def __repr__(self):
        rendered = ":".join(
            f"{nstr(c.real, 8)}{'+' + nstr(c.imag, 8) + 'j' if c.imag != 0 else ''}"
            for c in self.coords)
        return f"[{rendered}]"


def catalecticant(f: Form, e: int) -> CatMatrix:
    """Matrix of contraction by degree-e dual monomials against f; each
    entry c * mult is taken on raw values."""
    if not 0 <= e <= f.degree:
        raise InvalidInputError(f"e must lie in [0, {f.degree}], got {e}")
    n = f.num_vars
    rows = monomials_of_degree(n, e)
    cols = monomials_of_degree(n, f.degree - e)
    coeffs = {expo: _unbox(c) for expo, c in f.coeffs.items()}
    entries = []
    for a in rows:
        row = []
        for b in cols:
            target = tuple(a[i] + b[i] for i in range(n))
            c = coeffs.get(target)
            if c is None:
                row.append(Fraction(0))
            else:
                mult = 1
                for i in range(n):
                    if a[i]:
                        mult *= factorial(a[i] + b[i]) // factorial(b[i])
                row.append(_box(_mul(c, mult)))
        entries.append(tuple(row))
    return CatMatrix(tuple(rows), tuple(cols), tuple(entries), e, f.degree)


def apolar_component(f: Form, e: int,
                     precision_bits=DEFAULT_PRECISION_BITS):
    """Basis of the degree-e annihilator of f, as DualOps.

    Exact rational vectors for rational f; each basis element contracts f
    to zero (exactly, or within tolerance for approximate input).  The
    degree-one piece is the kernel f keeps (``_degree_one_kernel``).
    """
    if e == 1:
        return [DualOp(f.num_vars, 1, dict(zip(monomials_of_degree(f.num_vars, 1), v)))
                for v in _degree_one_kernel(f, precision_bits)]
    cat = catalecticant(f, e)
    rows = linalg.transpose([list(r) for r in cat.entries])
    return [DualOp(f.num_vars, e, dict(zip(cat.row_labels, vec)))
            for vec in _cleaned_kernel(rows, precision_bits)]


def _cleaned_kernel(rows, precision_bits):
    """``linalg.kernel_basis`` of rows at tolerance(bits), each approximate
    vector v with its entries at or below tolerance(bits) * max|v| set to
    exact zeros: numerical noise would overstate supports downstream (an
    operator's monomials, the last nonzero coordinate of a
    ``_subspace_lift`` column).  Exact vectors come back as they are."""
    tol = tolerance(precision_bits)
    kernel = []
    for v in linalg.kernel_basis(rows, precision_bits, tol):
        if not all(is_exact_scalar(x) for x in v):
            cut = _threshold(tol, max_abs_of(v))
            v = [Fraction(0) if scalar_is_zero(x, cut) else x for x in v]
        kernel.append(v)
    return kernel


def essential_variables(f, precision_bits=DEFAULT_PRECISION_BITS) -> int:
    """Rank of the first catalecticant: the minimal number of variables f
    can be written in after a linear change of coordinates.

    It is n minus the dimension of the degree-one kernel f keeps
    (``_degree_one_kernel``), so the count, the split and
    ``apolar_component(f, 1)`` read one reduction.
    """
    if f.is_zero():
        raise InvalidInputError("the zero form has no essential variable count")
    if f.degree == 0:
        return 0
    return f.num_vars - len(_degree_one_kernel(f, precision_bits))


def _degree_one_kernel(f: Form, precision_bits):
    """``_cleaned_kernel`` of the first catalecticant's transpose, as
    tuples, kept on f (``_kept``) once, or once per ``precision_bits`` for
    approximate f.  Rational f reduces the rows of
    ``_first_catalecticant_rows`` (the zero form has none, and takes the
    catalecticant's zero matrix); for degree 0 ``catalecticant`` raises."""
    exact = f.is_exact()
    key = "kernel" if exact else ("kernel", precision_bits)
    kept = _kept(f)
    if key not in kept:
        if exact and f.degree > 0 and f.coeffs:
            rows = list(_first_catalecticant_rows(f)[1].values())
        else:
            rows = linalg.transpose([list(r) for r in catalecticant(f, 1).entries])
        kept[key] = tuple(tuple(v) for v in _cleaned_kernel(rows, precision_bits))
    return kept[key]


def _kept(f):
    """The dict that keeps, on f itself, "rows", the (L, rows) of
    ``_first_catalecticant_rows``, and the ``_degree_one_kernel``, under
    "kernel" for rational f and ("kernel", precision_bits) otherwise.

    It lives in f's own ``__dict__`` under ``_first_catalecticant``, so it
    lasts exactly as long as f, and an equal Form built apart computes its
    own.  This is sound because a Form's ``coeffs`` are never mutated after
    construction.  The kept values are shared tuples, never changed.
    """
    kept = f.__dict__.get("_first_catalecticant")
    if kept is None:
        kept = f.__dict__["_first_catalecticant"] = {}
    return kept


def _first_catalecticant_rows(f: Form):
    """The transpose of the first catalecticant of a rational f of positive
    degree, on integers: (L, rows).

    ``rows`` maps each degree-(d-1) monomial b of some first partial of f,
    in order of first occurrence, to its row; entry i is k * c * L, where c
    is the coefficient of x^(b+e_i), k = (b+e_i)_i and L the least common
    denominator of f's coefficients.  The zero rows are left out.  Neither
    the scale L nor the missing zero rows change the rank or the reduced
    row echelon form, so the kernel is the catalecticant's, bit for bit.
    For d = 2 the row of b = e_j is row j of L times the Hessian of f.

    The rows are kept on f (``_kept``), so a caller that updates rows in
    place must copy them first.
    """
    kept = _kept(f)
    if "rows" in kept:
        return kept["rows"]
    n = f.num_vars
    L = lcm(*(c.denominator for c in f.coeffs.values()))
    rows = {}
    for expo, c in f.coeffs.items():
        scaled = c.numerator * (L // c.denominator)
        for i, k in enumerate(expo):
            if k:
                b = expo[:i] + (k - 1,) + expo[i + 1:]
                row = rows.get(b)
                if row is None:
                    row = rows[b] = [0] * n
                row[i] = k * scaled
    rows = {b: tuple(row) for b, row in rows.items()}
    kept["rows"] = L, rows
    return L, rows


def essential_split(f: Form, precision_bits=DEFAULT_PRECISION_BITS):
    """Invertible M such that change_coordinates(f, M) uses only the first
    m = essential_variables(f) variables, plus that restriction g.

    M = [e_keep | K]: the standard vectors of the coordinates ``keep`` of
    ``_essential_split``, then its left-kernel basis K.  M is exact
    rational for rational f.
    """
    if f.is_zero():
        raise InvalidInputError("the zero form has no essential variable count")
    n = f.num_vars
    kernel, keep, _, g = _essential_split(f, precision_bits)
    units = [[Fraction(int(i == k)) for i in range(n)] for k in keep]
    return linalg.transpose(units + list(kernel)), g


def _essential_split(f: Form, precision_bits):
    """(K, keep, A, g) for f: K the ``_degree_one_kernel`` f keeps, so
    len(keep) = n - len(K) = essential_variables(f).

    A kernel vector's products with the catalecticant's transpose are the
    coefficients of its contraction with f, which g leaves out, so each
    must vanish, which certifies K: exactly, on the integer rows of
    ``_first_catalecticant_rows``, for rational f (the vector cleared of
    its denominators, its zero entries skipped), and within tolerance on
    ``catalecticant(f, 1)`` otherwise.  ``(keep, A) = _subspace_lift(K)``,
    and g is f on the coordinates ``keep``, the others set to zero.
    """
    n = f.num_vars
    kernel = _degree_one_kernel(f, precision_bits)
    if f.is_exact():
        rows = list(_first_catalecticant_rows(f)[1].values())
        cleared = [linalg._clear_denominators(v)[1] for v in kernel]
        supports = [[(i, x) for i, x in enumerate(v) if x] for v in cleared]
        annihilates = not any(sum(row[i] * x for i, x in support)
                              for support in supports for row in rows)
    else:
        rows = linalg.transpose([list(r) for r in catalecticant(f, 1).entries])
        tol = _threshold(tolerance(precision_bits), f.max_abs())
        annihilates = all(scalar_is_zero(x, tol)
                          for v in kernel for x in linalg.mat_vec(rows, v))
    if not annihilates:
        raise ConsistencyError("polynomial is not supported on the first variables")
    keep, A = _subspace_lift(n, kernel, precision_bits)
    return kernel, keep, A, _project(f, keep)


def _subspace_lift(n, columns, precision_bits):
    """(keep, A) for independent columns C_j in echelon form from the end.

    Each C_j has its last nonzero coordinate F_j where the other columns
    vanish: a ``kernel_basis`` basis, whose F_j are its free coordinates,
    or a single vector.  ``keep`` lists the coordinates outside the F_j in
    increasing order, so M = [e_keep | C] is invertible, and A, the first
    len(keep) columns of M^-T, is written down: A[keep_k][k] = 1 and
    A[F_j][k] = -(C_j[keep_k] * (1 / C_j[F_j])).  A maps coordinates on the
    subspace e_keep back to ambient linear forms.

    Approximate columns give AppComplex entries at the columns' matrix
    precision, computed on raw libmp tuples with GUARD_BITS more, as the
    mpc operators round them: the rounding of an inverse by Gauss-Jordan
    elimination when C is one column.  The reciprocal is ``_cdiv`` of one
    by C_j[F_j], whose parts carry at most the working bits: that is
    libmp's ``mpc_mpf_div(fone, C_j[F_j])`` bit for bit, as it is for any
    finite divisor whose parts have at most prec + 10 mantissa bits.
    """
    last = [max((i for i, c in enumerate(col) if not scalar_is_zero(c)), default=None)
            for col in columns]
    if None in last or len(set(last)) != len(last):
        raise InvalidInputError("coordinate change matrix is singular")
    keep = [i for i in range(n) if i not in last]
    exact = linalg.matrix_is_exact(columns)
    if exact:
        zero, one = Fraction(0), Fraction(1)
    else:
        bits = linalg._matrix_bits(columns, precision_bits)
        wb = bits + GUARD_BITS
        zero, one = (AppComplex.from_raw(z, bits) for z in (_CZERO, _CONE))
    A = [[zero] * len(keep) for _ in range(n)]
    for k, i in enumerate(keep):
        A[i][k] = one
    if exact:
        for col, p in zip(columns, last):
            inv = 1 / Fraction(col[p])
            A[p] = [-(Fraction(col[i]) * inv) for i in keep]
    else:
        for col, p in zip(linalg._raw_matrix(columns, wb), last):
            inv = _cdiv(_CONE, col[p], wb)
            A[p] = [AppComplex.from_raw(_cneg(_cmul(col[i], inv, wb), wb), bits)
                    for i in keep]
    return keep, A


def _project(f, keep):
    """f with every variable outside ``keep`` set to zero, as a polynomial
    in the variables ``keep``, in that order."""
    drop = [i for i in range(f.num_vars) if i not in keep]
    return type(f)(len(keep), f.degree,
                   {tuple(expo[i] for i in keep): c for expo, c in f.coeffs.items()
                    if not any(expo[i] for i in drop)})


# ---------------------------------------------------------------------------
# base points


def _binary_coeffs(op: DualOp):
    """Coefficients of a binary dual form dehomogenized at l0 = 1, lowest
    power of l1 first."""
    coeffs = [Fraction(0)] * (op.degree + 1)
    for expo, c in op.coeffs.items():
        coeffs[expo[1]] = c
    return coeffs


def _binary_dual_roots(op: DualOp, precision_bits):
    """Projective zeros [l0:l1] of a binary dual form, with multiplicity.

    A degree drop of the dehomogenization (exact, or below tolerance for
    approximate coefficients) contributes the point at infinity [0:1].
    A repeated zero of a rational form comes back as equal points."""
    p = _trim_leading(_binary_coeffs(op), precision_bits)
    pts = []
    deg_t = p.degree
    if deg_t >= 1:
        for r in univariate_roots(p, precision_bits):
            pts.append(ProjPoint((AppComplex(1, 0, precision_bits), r),
                                 precision_bits))
    elif p.is_zero():
        raise DegenerateSystemError("dual form vanishes identically")
    for _ in range(op.degree - max(deg_t, 0)):
        pts.append(ProjPoint((AppComplex(0, 0, precision_bits),
                              AppComplex(1, 0, precision_bits)), precision_bits))
    return pts


def _vanishing_tolerances(ops, precision_bits):
    """(op, tolerance(bits) * |op|_1) for each op, the product taken by
    libmp at THRESHOLD_BITS, once for every point `_op_vanishes_at` tests."""
    tol = tolerance(precision_bits)
    return [(op, _threshold(tol, op.norm1())) for op in ops]


def _op_vanishes_at(op: DualOp, point: ProjPoint, tol) -> bool:
    """Whether op vanishes at the point: exactly, or within ``tol`` (from
    `_vanishing_tolerances`) for an approximate value."""
    return scalar_is_zero(evaluate(op, point.coords), tol)


def _dedupe_points(points, precision_bits):
    """The points in order, leaving out each one whose ``ProjPoint.distance``
    to a point already kept is at most 2^-(bits/4)."""
    sep = mpf_shift(fone, -(precision_bits // 4))
    out = []
    for p in points:
        if all(_apart(p, q, sep) for q in out):
            out.append(p)
    return out


def _apart(p, q, sep):
    """``p.distance(q) > sep``: whether some coordinate difference exceeds
    sep, when the exponents decide each one; else the distance itself (a
    nan difference makes that max depend on the order of the coordinates,
    which ``any`` would not see)."""
    diffs = [a - b for a, b in zip(p.coords, q.coords)]
    above = [_abs_exceeds(d.parts, sep) for d in diffs]
    if None in above:
        return mpf_gt(max(abs(d) for d in diffs)._mpf_, sep)
    return True in above


def _sorted_points(points):
    def key(p):
        return tuple((c.real, c.imag) for c in p.coords)
    return sorted(points, key=key)


def base_points(f: Form, e: int, precision_bits=DEFAULT_PRECISION_BITS,
                seed=DEFAULT_SEED, max_retries=DEFAULT_MAX_RETRIES):
    """Common projective zeros of the degree-e annihilator (n <= 3 only).

    Candidates come from intersecting two random rational combinations of
    the kernel basis; each candidate is certified against the whole basis.
    An empty list means the system is base-point free within tolerance.
    A caller that holds ``apolar_component(f, e)`` calls ``_base_points``.
    """
    n = f.num_vars
    if n > 3:
        raise InvalidInputError("base point detection is implemented for n <= 3")
    return _base_points(apolar_component(f, e, precision_bits), n,
                        precision_bits, seed, max_retries)[0]


def _base_points(basis, n, precision_bits, seed, max_retries):
    """``(base points, pencil points)``: ``base_points`` on the annihilator
    basis of a form in n variables, and for n = 3 the deduplicated
    candidates of the last pencil (d0, d1) that lie on both d0 and d1
    (None for n < 3).  Two conics with four such points meet simply
    there, by Bezout, and the ternary base case fits on them.

    A pencil whose integer weights c0, c1 are proportional is skipped,
    tested exactly on the weights: the basis is a kernel basis, linearly
    independent with unit entries at its free monomials, so d0 and d1 are
    proportional, or zero, exactly when c0 and c1 are."""
    if not basis:
        raise InvalidInputError("the degree-e annihilator is zero")
    if n == 1:
        return [], None
    if n == 2:
        candidates = _binary_dual_roots(basis[0], precision_bits)
        return _certified(candidates, basis, precision_bits), None

    if len(basis) == 1:
        raise DegenerateSystemError(
            "a single curve cuts out a positive-dimensional zero set")

    rng = random.Random(seed)
    zero_resultants = 0
    for attempt in range(max_retries):
        c0 = [Fraction(rng.randint(-8, 8)) for _ in basis]
        c1 = [Fraction(rng.randint(-8, 8)) for _ in basis]
        if all(a * d == b * c for (a, c), (b, d)
               in combinations(zip(c0, c1), 2)):
            continue
        d0 = _combine_ops(basis, c0)
        d1 = _combine_ops(basis, c1)
        try:
            candidates = _curve_pair_candidates(d0, d1, precision_bits, rng)
        except DegenerateSystemError:
            zero_resultants += 1
            if zero_resultants >= 3:
                raise
            continue
        pencil = _dedupe_points(_common_zeros(candidates, (d0, d1),
                                              precision_bits), precision_bits)
        return _certified(candidates, basis, precision_bits), pencil
    raise RetryBudgetError("base point search exhausted its retry budget")


def _common_zeros(points, ops, precision_bits):
    """The points at which every op vanishes (``_op_vanishes_at``)."""
    tols = _vanishing_tolerances(ops, precision_bits)
    return [p for p in points
            if all(_op_vanishes_at(op, p, tol) for op, tol in tols)]


def _certified(candidates, basis, precision_bits):
    """The candidates on every curve of the basis, deduplicated and sorted."""
    return _sorted_points(_dedupe_points(
        _common_zeros(candidates, basis, precision_bits), precision_bits))


def _combine_ops(basis, weights):
    """sum w_i * basis_i over rational weights, or None when it is zero."""
    out = None
    for op, w in zip(basis, weights):
        if w == 0:
            continue
        term = op.scale(w)
        out = term if out is None else out + term
    if out is None or out.is_zero():
        return None
    return out


# ---------------------------------------------------------------------------
# plane-curve resultants


def _dual_as_unipoly_coeffs(op: DualOp):
    """Write a ternary dual form as a polynomial in l2 whose coefficients
    are UniPolys in t, after the substitution l0 = 1, l1 = t."""
    e = op.degree
    out = []
    for k in range(e + 1):
        coeffs = [Fraction(0)] * (e - k + 1)
        for expo, c in op.coeffs.items():
            if expo[2] == k:
                coeffs[expo[1]] = c
        out.append(UniPoly(coeffs))
    return out


def _sylvester_resultant(p_coeffs, q_coeffs, precision_bits):
    """Resultant in l2 of two polynomials with UniPoly-in-t coefficients,
    lowest power of l2 first, as ``_dual_as_unipoly_coeffs`` writes them.

    Two conics a2 l2^2 + a1 l2 + a0 and b2 l2^2 + b1 l2 + b0 take the
    closed form (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2) (a1 b0 - a0 b1), the
    determinant of their 4x4 Sylvester matrix: on integers for exact conics
    (``_conic_resultant_exact``), in UniPoly arithmetic for approximate
    ones.  Curves of degree >= 3 take that determinant at ep*eq + 1 integer
    nodes t (exact, or by ``linalg.complex_det``) and interpolate; with the
    coefficient of l2^k of degree at most e - k in t, as for a ternary form
    of degree e, the resultant has degree at most ep*eq, so both ways give
    the same polynomial on exact conics, Fraction for Fraction."""
    exact = all(c.is_exact() for c in p_coeffs + q_coeffs)
    if len(p_coeffs) == 3 and len(q_coeffs) == 3:
        if exact:
            return _conic_resultant_exact(p_coeffs, q_coeffs)
        a0, a1, a2 = p_coeffs
        b0, b1, b2 = q_coeffs
        c20 = a2 * b0 - a0 * b2
        return c20 * c20 - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)
    ep = len(p_coeffs) - 1
    eq = len(q_coeffs) - 1
    size = ep + eq
    rows = []
    for coeffs, shifts in ((p_coeffs, eq), (q_coeffs, ep)):
        for shift in range(shifts):
            row = [UniPoly([])] * size
            for j, c in enumerate(reversed(coeffs)):
                row[shift + j] = c
            rows.append(row)
    # the resultant of two forms is homogeneous of degree ep*eq in the
    # remaining variables, so ep*eq + 1 nodes pin it down
    deg_bound = ep * eq
    nodes = [Fraction(k) for k in range(deg_bound + 1)]
    values = []
    for t in nodes:
        m = [[c(t) for c in row] for row in rows]
        if exact:
            values.append(linalg.rational_det(m))
        else:
            values.append(linalg.complex_det(m, precision_bits))
    return _lagrange_interpolate(nodes, values)


def _conic_resultant_exact(p_coeffs, q_coeffs):
    """The conic closed form of ``_sylvester_resultant`` on exact conics,
    on integers: each conic over its common denominator (L_p, L_q), one
    division by (L_p L_q)^2 at the end, so the same Fractions come out."""
    (a0, a1, a2), lp = _integer_rows(p_coeffs)
    (b0, b1, b2), lq = _integer_rows(q_coeffs)
    c20 = _int_sub(_int_mul(a2, b0), _int_mul(a0, b2))
    c21 = _int_sub(_int_mul(a2, b1), _int_mul(a1, b2))
    c10 = _int_sub(_int_mul(a1, b0), _int_mul(a0, b1))
    den = (lp * lq) ** 2
    return UniPoly([Fraction(c, den) for c in
                    _int_sub(_int_mul(c20, c20), _int_mul(c21, c10))])


def _int_mul(a, b):
    """The product of two int lists, lowest term first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _int_sub(a, b):
    """The difference of two int lists, lowest term first."""
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def _lagrange_interpolate(nodes, values):
    acc = UniPoly([])
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if is_exact_scalar(yi) and yi == 0:
            continue
        basis = UniPoly([Fraction(1)])
        denom = Fraction(1)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = basis * UniPoly([-xj, Fraction(1)])
            denom *= xi - xj
        acc = acc + basis.scale(yi / denom)
    return acc


def _coordinate_changes(n, count, rng=None):
    """Deterministic sequence: identity, then ``count`` invertible integer
    matrices drawn from ``rng`` (a fixed seed by default)."""
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    yield ident
    rng = rng or random.Random(0x5EED + n)
    produced = 0
    while produced < count:
        M = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if linalg.rational_det(M) != 0:
            produced += 1
            yield M


def _leading_ok(coeffs_l2, tol_scale):
    lead = coeffs_l2[-1]
    if lead.is_zero():
        return False
    if lead.degree != 0:
        return False
    c = lead.coeffs[0]
    if is_exact_scalar(c):
        return c != 0
    return not scalar_is_zero(c, tol_scale)


def _resultant_charts(D0: DualOp, D1: DualOp, changes, precision_bits,
                      shared: Exception):
    """Charts of a pair of ternary curves of equal degree, one per change T
    whose l2-leading coefficients are nonzero constants.

    Yields ``(T, p, q, R, r_scale)``: the curves in the chart as polynomials
    in l2 over t (``_dual_as_unipoly_coeffs``), their resultant R(t) and the
    scale tol * max(1, (|d0|_1 * |d1|_1)^e) below which a coefficient of R
    counts as zero.  Raises ``shared`` when R vanishes, i.e. the curves
    share a component."""
    e = D0.degree
    tol = tolerance(precision_bits)
    for T in changes:
        d0 = change_coordinates(D0, T)
        d1 = change_coordinates(D1, T)
        p = _dual_as_unipoly_coeffs(d0)
        q = _dual_as_unipoly_coeffs(d1)
        n0, n1 = d0.norm1(), d1.norm1()
        if not (_leading_ok(p, _threshold(tol, n0))
                and _leading_ok(q, _threshold(tol, n1))):
            continue
        R = _sylvester_resultant(p, q, precision_bits)
        norms = (n0 * n1 if type(n0) is type(n1) is Fraction
                 else _threshold(n0, n1))
        r_scale = _threshold(tol, _at_least_one(_threshold_pow(norms, e)))
        if R.is_zero() or all(scalar_is_zero(c, r_scale) for c in R.coeffs):
            raise shared
        yield T, p, q, R, r_scale


def _chart_map(T, precision_bits):
    """The map (t, l2) -> the point (1, t, l2) of the chart of T, mapped
    back through T by ``linalg.mat_vec``, which rounds T's entries at the
    precision of each point's coordinates."""
    def point(t, l2):
        inner = ProjPoint((1, t, l2), precision_bits)
        return ProjPoint(linalg.mat_vec(T, inner.coords), precision_bits)

    return point


def _trim_leading(values, precision_bits):
    """UniPoly from evaluated coefficients, with numerically-zero leading
    entries removed so the stated degree is meaningful.  The threshold
    tolerance(bits) * max|value| is taken at THRESHOLD_BITS."""
    vals = list(values)
    if vals:
        tol = _threshold(_threshold(fone, max_abs_of(vals)),
                         tolerance(precision_bits))
        while vals and scalar_is_zero(vals[-1], tol):
            vals.pop()
    return UniPoly(vals)


def _distinct_roots(roots, precision_bits):
    """The roots in order, leaving out each one within 2^-(bits/4) of a
    root already kept."""
    bits = precision_bits
    sep = mpf_shift(fone, -(bits // 4))
    uniq = []
    for r in roots:
        if all(_abs_gt(_csub(r.parts, u.parts, bits), sep, bits)
               for u in uniq):
            uniq.append(r)
    return uniq


def _back_substitute_l2(p_coeffs, q_coeffs, t, precision_bits):
    """Common l2-root of two conics at parameter t, via the linear
    combination eliminating l2^2; None when its denominator is numerically
    zero.

    The denominator must be comfortably nonzero (a quarter of the working
    bits) or the division would eat the precision budget; its threshold
    2^-(bits/4) * max(1, max|a| * max|b|) is taken at THRESHOLD_BITS."""
    a = [c(t) for c in p_coeffs]
    b = [c(t) for c in q_coeffs]
    mu = b[2] * a[1] - a[2] * b[1]
    nu = b[2] * a[0] - a[2] * b[0]
    size = _threshold(_threshold(fone, max_abs_of(a)), max_abs_of(b))
    if scalar_is_zero(mu, mpf_shift(_at_least_one(size),
                                    -(precision_bits // 4))):
        return None
    return -nu / mu


def _curve_pair_candidates(D0: DualOp, D1: DualOp, precision_bits, rng):
    """Candidate common zeros of two ternary curves of equal degree.

    At each distinct root t of the resultant, every l2-root of D0 at t is a
    candidate (of D1 when D0 has degree < 1 in l2 there); a t whose root
    finding rejects that side gives none.  One root search per t, with no
    pairing against the roots of D1, is sound because ``base_points``
    certifies each candidate against the whole linear system, D1 among it:
    - the candidates contain those that pairing them with the roots of D1
      within 2^-(bits/3) would keep;
    - an extra one passes the certificate only where D1 vanishes too, and
      that puts it within the pairing radius of a root of D1 at t unless
      D1 has a near-double root there.
    So the certified points are the paired ones but at near-tangencies.
    Unlike conic_intersection this tolerates tangency (the squarefree part
    of the resultant is used).  Raises DegenerateSystemError when the
    curves share a component or no chart separates the points.
    """
    e = D0.degree
    changes = _coordinate_changes(3, 3, random.Random(rng.randrange(1 << 30)))
    for T, p, q, R, _ in _resultant_charts(
            D0, D1, changes, precision_bits,
            DegenerateSystemError("curve pair shares a component")):
        if R.degree < e * e:
            continue
        if R.is_exact():
            R = squarefree_part(R)
        to_point = _chart_map(T, precision_bits)
        pts = []
        for t in _distinct_roots(univariate_roots(R, precision_bits),
                                 precision_bits):
            side = _trim_leading([c(t) for c in p], precision_bits)
            if side.degree < 1:
                side = _trim_leading([c(t) for c in q], precision_bits)
            if side.degree < 1:
                continue
            try:
                l2s = univariate_roots(side, precision_bits)
            except InvalidInputError:
                continue
            pts += [to_point(t, l2) for l2 in l2s]
        return _sorted_points(pts)
    raise DegenerateSystemError("no usable chart for the curve pair")


# ---------------------------------------------------------------------------
# power witness (base point <=> some contraction is a pure power)


def power_witness(f: Form, l: LinearForm, e: int,
                  precision_bits=DEFAULT_PRECISION_BITS):
    """A dual operator of degree d-e contracting f to a multiple of l^e,
    or None when no such operator exists."""
    d = f.degree
    if e > d:
        raise InvalidInputError("e must not exceed the degree of f")
    if l.num_vars != f.num_vars:
        raise InvalidInputError("mismatched number of variables")
    n = f.num_vars
    cat = catalecticant(f, d - e)
    target_form = linear_power(l, e)
    target = [target_form.coeffs.get(b, Fraction(0)) for b in cat.col_labels]
    # solve (entries)^T is not needed: unknown row-combination x with
    # sum_r x_r * entries[r] = target, i.e. A^T x = target
    rows = linalg.transpose([list(r) for r in cat.entries])
    if linalg.matrix_is_exact(rows) and all(is_exact_scalar(t) for t in target):
        x = linalg.rational_solve(rows, target)
        if x is None:
            return None
    else:
        x, resid = linalg.complex_solve_lstsq(rows, target, precision_bits)
        # resid > tol * max(|target|, |f|): the threshold is monotone in
        # the scale, so the bound is exceeded when both products are
        if all(mpf_gt(resid._mpf_, _threshold(tolerance(precision_bits), s))
               for s in (target_form.max_abs(), f.max_abs())):
            return None
    coeffs = {expo: c for expo, c in zip(cat.row_labels, x)
              if not (is_exact_scalar(c) and c == 0)}
    if not coeffs:
        return None
    op = DualOp(n, d - e, coeffs)
    return op
