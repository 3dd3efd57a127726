"""Exact rational and arbitrary-precision complex linear algebra.

Every exact routine (rank, kernel, solve, determinant) reads its answer off
one fraction-free Gauss-Jordan reduction (Bareiss) of an integer-cleared
copy of the matrix, so no rank decision ever depends on rounding.  Entries
are ints or Fractions, each read through its ``numerator`` and
``denominator``: an integer row is taken as it is, with no Fraction built.
On the complex side, ``complex_echelon`` (partial pivoting with a relative
magnitude threshold for rank decisions) serves rank, kernel and
determinant.  There is no matrix inverse: the pipeline restricts forms only
to subspaces whose lift back is written down from the spanning columns
(``apolarity._subspace_lift``).

Matrices are plain lists of row lists; vectors are lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from mpmath import mpc, mpf, workprec

from .errors import InvalidInputError
from .numerics import AppComplex, GUARD_BITS, is_exact_scalar, values_precision


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


def _unwrap(rows, bits):
    with workprec(bits):
        out = []
        for row in rows:
            wrow = []
            for x in row:
                if isinstance(x, AppComplex):
                    wrow.append(x.to_mpc())
                elif isinstance(x, Fraction):
                    wrow.append(mpc(mpf(x.numerator) / mpf(x.denominator)))
                else:
                    wrow.append(mpc(x))
            out.append(wrow)
        return out


def _matrix_bits(rows, precision_bits):
    flat = [x for row in rows for x in row]
    return max(values_precision(flat, precision_bits), precision_bits)


def complex_echelon(rows, precision_bits, tol):
    """Row echelon with partial pivoting; pivots below tol*scale count as 0.

    Returns (echelon mpc rows, pivot_cols, scale, sign), sign being the
    parity of the row swaps.
    """
    bits = _matrix_bits(rows, precision_bits) + GUARD_BITS
    m = _unwrap(rows, bits)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    with workprec(bits):
        scale = mpf(0)
        for row in m:
            for x in row:
                if abs(x) > scale:
                    scale = abs(x)
        thresh = tol * scale if scale > 0 else tol
        piv_cols = []
        sign = 1
        r = 0
        for c in range(ncols):
            best, best_abs = None, thresh
            for i in range(r, nrows):
                a = abs(m[i][c])
                if a > best_abs:
                    best, best_abs = i, a
            if best is None:
                continue
            if best != r:
                m[r], m[best] = m[best], m[r]
                sign = -sign
            for i in range(r + 1, nrows):
                if m[i][c] == 0:
                    continue
                f = m[i][c] / m[r][c]
                m[i][c] = mpc(0)
                for j in range(c + 1, ncols):
                    m[i][j] -= f * m[r][j]
            piv_cols.append(c)
            r += 1
            if r == nrows:
                break
        return m[:r], piv_cols, scale, sign


def complex_rank(rows, precision_bits, tol) -> int:
    return len(complex_echelon(rows, precision_bits, tol)[1])


def complex_det(rows, precision_bits):
    """Determinant of an approximate square matrix: the signed product of
    the pivots of ``complex_echelon`` with no threshold."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("determinant needs a square matrix")
    ech, piv, _, sign = complex_echelon(rows, precision_bits, 0)
    if len(piv) < n:
        return AppComplex(0, 0, precision_bits)
    with workprec(_matrix_bits(rows, precision_bits) + GUARD_BITS):
        det = sign
        for i, row in enumerate(ech):
            det = det * row[i]
    return AppComplex.from_mpc(det, precision_bits)


def complex_kernel(rows, precision_bits, tol):
    """Right-kernel basis of an approximate matrix, as AppComplex vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    bits = _matrix_bits(rows, precision_bits)
    ech, piv, _, _ = complex_echelon(rows, precision_bits, tol)
    piv_set = set(piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    with workprec(bits + GUARD_BITS):
        for fc in free:
            v = [mpc(0)] * ncols
            v[fc] = mpc(1)
            for i in range(len(piv) - 1, -1, -1):
                pc = piv[i]
                s = mpc(0)
                for j in range(pc + 1, ncols):
                    s += ech[i][j] * v[j]
                v[pc] = -s / ech[i][pc]
            basis.append([AppComplex.from_mpc(x, bits) for x in v])
    return basis


def complex_solve_lstsq(rows, rhs, precision_bits):
    """Least-squares solution of A x = b via the normal equations.

    Returns (x as AppComplex list, residual_max as mpf): residual_max is the
    max coefficient magnitude of A x - b.
    """
    bits = _matrix_bits(rows, precision_bits) + GUARD_BITS
    a = _unwrap(rows, bits)
    b = _unwrap([[x] for x in rhs], bits)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    with workprec(bits):
        # normal equations A^H A x = A^H b
        ata = [[mpc(0)] * ncols for _ in range(ncols)]
        atb = [mpc(0)] * ncols
        for i in range(ncols):
            for j in range(ncols):
                s = mpc(0)
                for k in range(nrows):
                    s += a[k][i].conjugate() * a[k][j]
                ata[i][j] = s
            s = mpc(0)
            for k in range(nrows):
                s += a[k][i].conjugate() * b[k][0]
            atb[i] = s
        # solve by elimination with partial pivoting
        aug = [ata[i] + [atb[i]] for i in range(ncols)]
        for c in range(ncols):
            best, best_abs = c, abs(aug[c][c])
            for i in range(c + 1, ncols):
                if abs(aug[i][c]) > best_abs:
                    best, best_abs = i, abs(aug[i][c])
            if best_abs == 0:
                # rank-deficient normal matrix: set this variable to zero
                aug[c][c] = mpc(1)
                aug[c][ncols] = mpc(0)
                for i in range(ncols):
                    if i != c:
                        aug[i][c] = mpc(0)
                continue
            aug[c], aug[best] = aug[best], aug[c]
            for i in range(ncols):
                if i != c and aug[i][c] != 0:
                    f = aug[i][c] / aug[c][c]
                    for j in range(c, ncols + 1):
                        aug[i][j] -= f * aug[c][j]
        x = [aug[i][ncols] / aug[i][i] for i in range(ncols)]
        resid = mpf(0)
        for k in range(nrows):
            s = mpc(0)
            for j in range(ncols):
                s += a[k][j] * x[j]
            r = abs(s - b[k][0])
            if r > resid:
                resid = r
        return [AppComplex.from_mpc(v, bits - GUARD_BITS) for v in x], resid


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
    """sum u_i * v_i, added left to right onto the first product;
    Fraction(0) for empty vectors."""
    s = None
    for a, b in zip(u, v):
        term = a * b
        s = term if s is None else s + term
    return s if s is not None else Fraction(0)


def mat_vec(rows, vec):
    return [dot(row, vec) for row in rows]
