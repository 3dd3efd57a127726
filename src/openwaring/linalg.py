"""Exact rational and arbitrary-precision complex linear algebra.

Every exact routine (rank, kernel, solve, determinant) reads its answer off
one fraction-free Gauss-Jordan reduction (Bareiss) of an integer-cleared
copy of the matrix, so no rank decision ever depends on rounding.  Entries
are ints or Fractions, each read through its ``numerator`` and
``denominator``: an integer row is taken as it is, with no Fraction built.
On the complex side, ``complex_echelon`` (partial pivoting with a relative
magnitude threshold for rank decisions) serves rank and kernel, and
``complex_solve_lstsq`` reads its solution off the echelon form of [A | b]
by the back-substitution of the kernel.  They hold every entry as a raw
libmp (real, imag) pair from conversion to the rounding of the result and
run ``numerics``' raw-tuple kernels in the operand order of the mpc
operators they replaced, with pivot magnitudes from libmp's ``mpc_abs``,
so every bit is what mpc arithmetic under ``workprec`` gave.  A magnitude
whose exponents already put it at or below the running maximum
(``numerics._abs_exceeds``) takes no hypot.  There is no matrix inverse:
the pipeline restricts forms only to subspaces whose lift back is written
down from the spanning columns (``apolarity._subspace_lift``).

Matrices are plain lists of row lists; vectors are lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from mpmath import mpf
from mpmath.libmp import (from_int, fzero, mpc_abs, mpf_gt, mpf_mul,
                          round_nearest as _RND)

from .errors import InvalidInputError
from .numerics import (AppComplex, GUARD_BITS, _CONE, _CZERO, _abs_exceeds,
                       _add, _box, _cadd, _cdiv, _cmul, _cneg, _csub,
                       _make_mpf, _mul, _raw_pair, _unbox, is_exact_scalar,
                       values_precision)


# ---------------------------------------------------------------------------
# exact rational elimination


def _clear_denominators(row):
    """(d, d * row) for a row of ints and Fractions, d its least common
    denominator."""
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    return denom, [x.numerator * (denom // x.denominator) for x in row]


def _reduce(rows):
    """Fraction-free Gauss-Jordan reduction of a matrix of ints and
    Fractions; integer rows are taken as they are.

    Returns (reduced, pivot_cols, sign, denoms).  ``reduced`` holds the
    nonzero integer rows of the reduction of the cleared rows d_i * row_i
    (``denoms`` lists the d_i); row i has its pivot in column pivot_cols[i]
    and zeros in every other pivot column, and every pivot equals the last
    one.  ``sign`` is the parity of the row swaps.  Each division by the
    previous pivot is exact (Bareiss).
    """
    denoms, m = [], []
    for row in rows:
        d, ints = _clear_denominators(row)
        denoms.append(d)
        m.append(ints)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    piv_cols = []
    sign = prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        k = next((i for i in range(r, nrows) if m[i][c]), None)
        if k is None:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        piv_cols.append(c)
        r += 1
    return m[:r], piv_cols, sign, denoms


def rational_rank(rows) -> int:
    return len(_reduce(rows)[1])


def rational_kernel(rows):
    """Basis of the right kernel {v : A v = 0} of a Fraction matrix.

    Returned vectors are exact Fractions with the free variable set to 1.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, piv, _, _ = _reduce(rows)
    basis = []
    for fc in range(ncols):
        if fc in piv:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, piv):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def rational_solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent."""
    if len(rhs) != len(rows):
        raise InvalidInputError("right-hand side length must match the rows")
    if not rows:
        return None
    ncols = len(rows[0])
    red, piv, _, _ = _reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    # a pivot in the rhs column means inconsistency
    if ncols in piv:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, piv):
        x[pc] = Fraction(row[ncols], row[pc])
    return x


def rational_det(rows) -> Fraction:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    red, piv, sign, denoms = _reduce(rows)
    if len(piv) < n:
        return Fraction(0)
    return Fraction(sign * red[-1][-1], prod(denoms))


# ---------------------------------------------------------------------------
# approximate complex elimination


def _raw_matrix(rows, bits):
    """Each entry as a raw libmp (real, imag) pair (``numerics._raw_pair``)."""
    return [[_raw_pair(x, bits) for x in row] for row in rows]


def _matrix_bits(rows, precision_bits):
    flat = [x for row in rows for x in row]
    return max(values_precision(flat, precision_bits), precision_bits)


def complex_echelon(rows, precision_bits, tol):
    """Row echelon with partial pivoting; pivots below tol*scale count as 0.

    ``tol`` is an mpf or an int.  Returns (echelon rows, pivot_cols,
    scale): the rows hold raw libmp (real, imag) pairs at the working
    precision, and scale is the largest entry magnitude as a raw mpf.
    """
    bits = _matrix_bits(rows, precision_bits) + GUARD_BITS
    m = _raw_matrix(rows, bits)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    scale = fzero
    for row in m:
        for x in row:
            if _abs_exceeds(x, scale) is not False:
                a = mpc_abs(x, bits, _RND)
                if mpf_gt(a, scale):
                    scale = a
    tol = tol._mpf_ if isinstance(tol, mpf) else from_int(tol)
    thresh = mpf_mul(tol, scale, bits, _RND) if mpf_gt(scale, fzero) else tol
    piv_cols = []
    r = 0
    for c in range(ncols):
        best, best_abs = None, thresh
        for i in range(r, nrows):
            x = m[i][c]
            if _abs_exceeds(x, best_abs) is not False:
                a = mpc_abs(x, bits, _RND)
                if mpf_gt(a, best_abs):
                    best, best_abs = i, a
        if best is None:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
        top = m[r]
        pivot = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            if row[c] == _CZERO:
                continue
            f = _cdiv(row[c], pivot, bits)
            row[c] = _CZERO
            for j in range(c + 1, ncols):
                row[j] = _csub(row[j], _cmul(f, top[j], bits), bits)
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], piv_cols, scale


def complex_rank(rows, precision_bits, tol) -> int:
    return len(complex_echelon(rows, precision_bits, tol)[1])


def _back_substitute(ech, piv, v, bits):
    """Fill in v's entries at the pivot columns, last pivot first, so that
    every echelon row r has r . v = 0; the other entries are taken as set."""
    for row, pc in zip(reversed(ech[:len(piv)]), reversed(piv)):
        s = _CZERO
        for j in range(pc + 1, len(v)):
            s = _cadd(s, _cmul(row[j], v[j], bits), bits)
        v[pc] = _cdiv(_cneg(s, bits), row[pc], bits)


def complex_kernel(rows, precision_bits, tol):
    """Right-kernel basis of an approximate matrix, as AppComplex vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    bits = _matrix_bits(rows, precision_bits)
    ech, piv, _ = complex_echelon(rows, precision_bits, tol)
    piv_set = set(piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [_CZERO] * ncols
        v[fc] = _CONE
        _back_substitute(ech, piv, v, bits + GUARD_BITS)
        basis.append([AppComplex.from_raw(x, bits) for x in v])
    return basis


def complex_solve_lstsq(rows, rhs, precision_bits):
    """A solution of A x = b read off the echelon form of [A | b].

    ``complex_echelon`` reduces [A | b] with no threshold; x is the kernel
    vector of the pivot rows in A's columns whose b entry is -1, with 0 at
    every column of A without a pivot.  A consistent system is solved; for
    an inconsistent one, the residual says so.  Returns (x as AppComplex
    list, residual_max as mpf): residual_max is the max coefficient
    magnitude of A x - b over all rows.
    """
    if len(rhs) != len(rows):
        raise InvalidInputError("right-hand side length must match the rows")
    aug = [list(row) + [bk] for row, bk in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    bits = _matrix_bits(aug, precision_bits) + GUARD_BITS
    ech, piv, _ = complex_echelon(aug, precision_bits, 0)
    v = [_CZERO] * ncols + [_cneg(_CONE, bits)]
    _back_substitute(ech, [c for c in piv if c < ncols], v, bits)
    x = v[:ncols]
    resid = fzero
    for row in _raw_matrix(aug, bits):
        s = _CZERO
        for akj, xj in zip(row, x):
            s = _cadd(s, _cmul(akj, xj, bits), bits)
        diff = _csub(s, row[ncols], bits)
        if _abs_exceeds(diff, resid) is not False:
            r = mpc_abs(diff, bits, _RND)
            if mpf_gt(r, resid):
                resid = r
    return ([AppComplex.from_raw(xj, bits - GUARD_BITS) for xj in x],
            _make_mpf(resid))


# ---------------------------------------------------------------------------
# kind-dispatching front ends


def matrix_is_exact(rows) -> bool:
    return all(is_exact_scalar(x) for row in rows for x in row)


def kernel_basis(rows, precision_bits, tol):
    """Right-kernel basis; exact Fractions when the matrix is exact."""
    if not rows:
        return []
    if matrix_is_exact(rows):
        return rational_kernel(rows)
    return complex_kernel(rows, precision_bits, tol)


def matrix_rank(rows, precision_bits, tol) -> int:
    if not rows or not rows[0]:
        return 0
    if matrix_is_exact(rows):
        return rational_rank(rows)
    return complex_rank(rows, precision_bits, tol)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def dot(u, v):
    """sum u_i * v_i on raw values, added left to right onto the first
    product; Fraction(0) for empty vectors."""
    s = None
    for a, b in zip(u, v):
        term = _mul(_unbox(a), _unbox(b))
        s = term if s is None else _add(s, term)
    return Fraction(0) if s is None else _box(s)


def mat_vec(rows, vec):
    return [dot(row, vec) for row in rows]
