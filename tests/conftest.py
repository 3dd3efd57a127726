import math
import random
from fractions import Fraction

import pytest
from mpmath import mpc, mpf, workprec
from mpmath.libmp import fzero, mpc_abs, mpf_gt, round_nearest

from openwaring import (ForbiddenSet, Form, LinearForm, VerifyReport,
                        essential_variables, is_forbidden, recursion_bound)
from openwaring import linalg
from openwaring.apolarity import (_chart_map, _coordinate_changes,
                                  _distinct_roots, _resultant_charts,
                                  _sorted_points, _trim_leading,
                                  catalecticant)
from openwaring.decompose import _forced_single_term
from openwaring.errors import (ConsistencyError, DegenerateSystemError,
                               InvalidInputError, RetryBudgetError)
from openwaring.numerics import (DEFAULT_PRECISION_BITS, GUARD_BITS,
                                 AppComplex, UniPoly, is_exact_scalar,
                                 max_abs_of, poly_gcd, scalar_is_zero,
                                 squarefree_part, tolerance, univariate_roots,
                                 values_precision)
from openwaring.poly import (_substitute, change_coordinates, contract,
                             dual_power, linear_power, monomials_of_degree)


def random_form(rng, n, d, lo=-9, hi=9):
    coeffs = {}
    for expo in monomials_of_degree(n, d):
        c = rng.randint(lo, hi)
        if c:
            coeffs[expo] = Fraction(c)
    return Form(n, d, coeffs) if coeffs else random_form(rng, n, d, lo, hi)


def random_essential_form(rng, n, d, lo=-9, hi=9):
    while True:
        f = random_form(rng, n, d, lo, hi)
        if essential_variables(f) == n:
            return f


def random_hyperplanes(rng, n, count, lo=-5, hi=5):
    constraints = []
    for _ in range(count):
        while True:
            v = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
            if any(v):
                break
        constraints.append(LinearForm(v).to_form())
    return ForbiddenSet(n, constraints)


def random_linear_form(rng, n, lo=-6, hi=6):
    while True:
        v = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
        if any(v):
            return LinearForm(v)


#: the ambient ``mpmath.mp.prec`` values a decision must not follow
AMBIENT_PRECISIONS = (20, 53, 300)


def at_each_precision(outcome):
    """outcome() with ``mpmath.mp.prec`` set to each of AMBIENT_PRECISIONS,
    keyed by that precision."""
    out = {}
    for prec in AMBIENT_PRECISIONS:
        with workprec(prec):
            out[prec] = outcome()
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)


# ---------------------------------------------------------------------------
# The certificate as it was before the monomial tree: powers of linear forms
# by repeated sparse multiplication, summed as scalars at the terms' own
# precision.  Kept as a reference for `check_decomposition`.


def reference_expand_power(coords, d, n):
    """(sum_i coords[i] x_i)^d by repeated sparse multiplication."""
    acc = {(0,) * n: Fraction(1)}
    base = {}
    for i, c in enumerate(coords):
        if is_exact_scalar(c) and c == 0:
            continue
        base[tuple(1 if j == i else 0 for j in range(n))] = c
    for _ in range(d):
        nxt = {}
        for ea, ca in acc.items():
            for eb, cb in base.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                val = nxt.get(key, Fraction(0)) + ca * cb
                if is_exact_scalar(val) and val == 0:
                    nxt.pop(key, None)
                else:
                    nxt[key] = val
        acc = nxt
    return acc


def reference_check(f, dec, V=None, precision_bits=DEFAULT_PRECISION_BITS):
    if V is None:
        V = ForbiddenSet.empty(f.num_vars)
    tol = tolerance(precision_bits)
    n, d = f.num_vars, f.degree
    total = {}
    for c, l in dec.terms:
        for expo, v in reference_expand_power(l.coords, d, n).items():
            s = total.get(expo, Fraction(0)) + c * v
            if is_exact_scalar(s) and s == 0:
                total.pop(expo, None)
            else:
                total[expo] = s
    # exactness is read off the data, whatever the record's flag says
    all_exact = (f.is_exact()
                 and all(is_exact_scalar(v) for v in total.values()))
    norm = f.norm1()
    scale = norm if (not is_exact_scalar(norm) or norm > 0) else Fraction(1)
    deltas = dict(total)
    for expo, v in f.coeffs.items():
        s = deltas.get(expo, Fraction(0)) - v
        if is_exact_scalar(s) and s == 0:
            deltas.pop(expo, None)
        else:
            deltas[expo] = s
    if all_exact:
        residual = max((abs(v) for v in deltas.values()), default=Fraction(0))
        residual = residual / scale
        residual_ok = residual == 0
    else:
        residual = mpf(0)
        for v in deltas.values():
            mag = mpf(1) * (abs(Fraction(v)) if is_exact_scalar(v) else abs(v))
            if mag > residual:
                residual = mag
        residual = residual / (mpf(1) * scale)
        residual_ok = residual <= tol
    violations = tuple(i for i, (c, l) in enumerate(dec.terms)
                       if is_forbidden(l, V, tol))
    bound_value = recursion_bound(
        max(essential_variables(f, precision_bits), 1), d, "improved")
    passed = residual_ok and not violations and dec.term_count <= bound_value
    return VerifyReport(residual, dec.term_count, bound_value, violations,
                        all_exact, passed, residual_ok)


def assert_same_verdict(report, ref, precision_bits=DEFAULT_PRECISION_BITS):
    """Every field equal; the residual exactly on exact data and within the
    tolerance otherwise."""
    for name in ("passed", "residual_ok", "exact", "bound_value",
                 "term_count", "forbidden_violations"):
        assert getattr(report, name) == getattr(ref, name), name
    assert type(report.residual) is type(ref.residual)
    if ref.exact:
        assert report.residual == ref.residual
    else:
        assert abs(report.residual - ref.residual) <= tolerance(precision_bits)


# ---------------------------------------------------------------------------
# Evaluation and the forbidden-set test as they were before their trims:
# every coordinate raised to its exponent, 1 included, the sum started from
# Fraction(0), the scale of l built before the first constraint and every
# constraint value compared by its hypot.  Kept as references for
# `poly.evaluate` and `verify.is_forbidden`.  The one change since is the
# default tolerance, that of the smallest precision among l's inexact
# coordinates and the constraints' inexact coefficients (it was always the
# 256-bit one, which misses forms that are forbidden at lower precision).


def reference_evaluate(f, coords):
    total = Fraction(0)
    for expo, c in f.coeffs.items():
        val = c
        skip = False
        for x, e in zip(coords, expo):
            if e == 0:
                continue
            if is_exact_scalar(x) and x == 0:
                skip = True
                break
            val = val * x ** e
        if not skip:
            total = total + val
    return total


def reference_is_forbidden(l, V, tol=None):
    if not V.constraints:
        return False
    if tol is None:
        tol = tolerance(values_precision(
            [*l.coords, *(c for g in V.constraints for c in g.coeffs.values())]))
    l_scale = max_abs_of(l.coords)
    for g in V.constraints:
        val = reference_evaluate(g, l.coords)
        if is_exact_scalar(val):
            if val == 0:
                return True
        else:
            bound = tol * g.norm1() * max(mpf(1), mpf(1) * l_scale) ** g.degree
            if abs(val) <= bound:
                return True
    return False


# ---------------------------------------------------------------------------
# The hyperplane test as it was before the restriction of the forbidden set
# decided it: substitute the first nonzero coordinate of alpha and test the
# restricted constraint for zero, within a tolerance grown by
# (1 + |alpha| / |alpha_pivot|)^deg when it is approximate.  Kept as a
# reference for `decompose._restrict_forbidden`.


def reference_linear_divides(alpha, g, precision_bits):
    """Whether the hyperplane sum alpha_i x_i = 0 lies in V(g)."""
    n = g.num_vars
    pivot = next(i for i, a in enumerate(alpha) if a != 0)
    rows = []
    for i in range(n):
        if i == pivot:
            rows.append([-Fraction(alpha[j], alpha[pivot]) if j != pivot else Fraction(0)
                         for j in range(n)])
        else:
            rows.append([Fraction(1 if j == i else 0) for j in range(n)])
    restricted = _substitute(g, rows)
    if restricted.is_exact():
        return restricted.is_zero()
    ratio = 1 + sum(abs(Fraction(a, alpha[pivot])) for a in alpha)
    tol = tolerance(precision_bits) * g.norm1() * mpf(1) * ratio ** g.degree
    return restricted.is_zero(tol)


# ---------------------------------------------------------------------------
# The quadratic step as it was before the Hessian reduction: peel off one
# square, change coordinates to the hyperplane alpha annihilates, rebuild
# the restricted form and recurse, mapping the terms back level by level.
# Kept as a reference for `decompose._quadratic_essential`.


def reference_quadratic_essential(f, V, ctx):
    n = f.num_vars
    scale = max(mpf(1), mpf(1) * f.max_abs())
    if f.is_zero(ctx.tol * scale):
        return []
    if n == 1:
        return _forced_single_term(f.coeffs[(2,)], LinearForm((Fraction(1),)),
                                   V, ctx, "final quadratic variable")
    chosen = None
    for attempt, height in ctx.heights():
        alpha = ctx.int_vector(n, height)
        c2 = contract(dual_power(alpha, 2), f).coeffs.get((0,) * n, Fraction(0))
        a_norm = sum(abs(a) for a in alpha)
        if scalar_is_zero(c2, ctx.tol * scale * a_norm * a_norm):
            continue
        if any(reference_linear_divides(alpha, g, ctx.precision_bits)
               for g in V.constraints):
            continue
        L = LinearForm.from_form(contract(dual_power(alpha, 1), f))
        if L.is_zero(ctx.tol * scale * a_norm) or is_forbidden(L, V, ctx.tol):
            continue
        chosen = (alpha, c2, L)
        break
    if chosen is None:
        raise RetryBudgetError("quadratic step found no usable direction",
                               ctx.trace)
    alpha, c2, L = chosen
    coeff = 1 / (2 * c2) if not is_exact_scalar(c2) else Fraction(1, 2) / c2
    term = (coeff, L)
    F2 = f - linear_power(L, 2).scale(coeff)
    if not F2.is_exact():
        F2 = F2.cleaned(ctx.tol * scale * mpf(2) ** (-GUARD_BITS))
    if F2.is_zero(ctx.tol * scale):
        return [term]
    M, A = reference_hyperplane_change([Fraction(a) for a in alpha],
                                       ctx.precision_bits)
    h = change_coordinates(F2, M)
    g = reference_restrict_to_prefix(h, n - 1, ctx.precision_bits)
    if essential_variables(g, ctx.precision_bits) != n - 1:
        raise ConsistencyError("quadratic remainder has unexpected rank")
    Vr = reference_restrict_forbidden(V, A, n - 1, ctx.precision_bits)
    sub = reference_quadratic_essential(g, Vr, ctx)
    return [term] + reference_map_terms_back(sub, A, n)


# ---------------------------------------------------------------------------
# Subspace restrictions as they were before the written-down lift: complete
# the columns to an invertible M with greedily chosen standard vectors,
# invert M (over the rationals, or by complex Gauss-Jordan elimination),
# change the coordinates of the whole form by M and drop the trailing
# variables.  Kept as references for `apolarity._essential_split` and
# `apolarity._subspace_lift`.


def reference_complete_to_basis(columns_tail):
    n = len(columns_tail[0])
    k = len(columns_tail)
    exact = all(is_exact_scalar(x) for col in columns_tail for x in col)
    chosen = []
    for i in range(n):
        if len(chosen) == n - k:
            break
        e = [Fraction(1 if j == i else 0) for j in range(n)]
        candidate_cols = chosen + [e] + columns_tail
        rows = linalg.transpose(candidate_cols)
        if exact:
            ok = linalg.rational_rank(rows) == len(candidate_cols)
        else:
            ok = linalg.complex_rank(rows, values_precision(
                [x for col in columns_tail for x in col]),
                mpf(2) ** (-64)) == len(candidate_cols)
        if ok:
            chosen.append(e)
    if len(chosen) != n - k:
        raise ConsistencyError("could not complete columns to a basis")
    return linalg.transpose(chosen + list(columns_tail))


def reference_rational_inverse(rows):
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    red, piv, _, _ = linalg._reduce(aug)
    if piv != list(range(n)):
        raise InvalidInputError("matrix is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(red)]


def reference_complex_inverse(rows, precision_bits, tol):
    n = len(rows)
    bits = linalg._matrix_bits(rows, precision_bits) + GUARD_BITS
    m = reference_unwrap(rows, bits)
    with workprec(bits):
        scale = max((abs(x) for row in m for x in row), default=mpf(0))
        thresh = tol * scale if scale > 0 else tol
        aug = [m[i] + [mpc(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for c in range(n):
            best, best_abs = None, thresh
            for i in range(c, n):
                if abs(aug[i][c]) > best_abs:
                    best, best_abs = i, abs(aug[i][c])
            if best is None:
                raise InvalidInputError("matrix is numerically singular")
            aug[c], aug[best] = aug[best], aug[c]
            inv = 1 / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for i in range(n):
                if i != c and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
        return [[AppComplex.from_mpc(x, bits - GUARD_BITS) for x in row[n:]]
                for row in aug]


def reference_invert_matrix(rows, precision_bits, tol):
    if linalg.matrix_is_exact(rows):
        return reference_rational_inverse(rows)
    return reference_complex_inverse(rows, precision_bits, tol)


def reference_restrict_to_prefix(h, m, precision_bits=DEFAULT_PRECISION_BITS):
    tol = tolerance(precision_bits) * (h.max_abs() if h.coeffs else Fraction(0))
    out = {}
    for expo, c in h.coeffs.items():
        if any(expo[m:]):
            if not scalar_is_zero(c, tol):
                raise ConsistencyError(
                    "polynomial is not supported on the first variables")
            continue
        out[expo[:m]] = c
    return type(h)(m, h.degree, out)


def reference_essential_split(f, m, precision_bits=DEFAULT_PRECISION_BITS):
    """(M, g) of the split: the greedy basis and the restriction."""
    n = f.num_vars
    if m == n:
        ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return ident, f
    left_kernel = reference_first_kernel(f, precision_bits)
    if len(left_kernel) != n - m:
        raise ConsistencyError("left kernel dimension disagrees with the rank")
    matrix = reference_complete_to_basis([list(v) for v in left_kernel])
    h = change_coordinates(f, matrix)
    return matrix, reference_restrict_to_prefix(h, m, precision_bits)


def reference_hyperplane_change(beta, precision_bits):
    """(M, A): M invertible with last column beta, and A = M^-T."""
    M = reference_complete_to_basis([list(beta)])
    Minv = reference_invert_matrix(M, precision_bits, tolerance(precision_bits))
    return M, linalg.transpose(Minv)


def reference_restrict_forbidden(V, A, m, precision_bits):
    """Constraints g(A (b, 0)) for the square A of the reference change."""
    out = []
    for g in V.constraints:
        full = _substitute(g, A)
        sub = type(full)(m, full.degree, {expo[:m]: c for expo, c in full.coeffs.items()
                                          if not any(expo[m:])})
        tol = tolerance(precision_bits) * g.norm1()
        if sub.is_zero() or (not sub.is_exact() and sub.is_zero(tol)):
            raise ConsistencyError(
                "constraint restricts to zero on a hyperplane chosen to avoid it")
        out.append(sub)
    return ForbiddenSet(m, out)


def reference_map_terms_back(terms, A, n):
    """Each term (c, l) as (c, A l), l padded with zeros to n coordinates."""
    pad = (Fraction(0),)
    return [(c, LinearForm(linalg.mat_vec(A, l.coords + pad * (n - l.num_vars))))
            for c, l in terms]


# ---------------------------------------------------------------------------
# The exact elimination and the first catalecticant's kernel as they were
# before integer rows: every entry wrapped in a Fraction before its row is
# cleared, and the kernel taken from the transpose of the Fraction
# `CatMatrix`.  Kept as references for `linalg._reduce` and
# `apolarity._essential_split`.


def reference_reduce(rows):
    denoms, m = [], []
    for row in rows:
        row = [Fraction(x) for x in row]
        d = 1
        for x in row:
            d = d * x.denominator // math.gcd(d, x.denominator)
        denoms.append(d)
        m.append([x.numerator * (d // x.denominator) for x in row])
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


def reference_first_kernel(f, precision_bits=DEFAULT_PRECISION_BITS):
    """Left-kernel basis of the Fraction first catalecticant of f."""
    rows = [list(r) for r in catalecticant(f, 1).entries]
    return linalg.kernel_basis(linalg.transpose(rows), precision_bits,
                               tolerance(precision_bits))


# ---------------------------------------------------------------------------
# The approximate complex elimination as it was before the raw-tuple
# kernels: every entry an mpmath `mpc` under `workprec`, with the mpc
# operators' arithmetic.  Kept as references for `linalg.complex_echelon`,
# `complex_kernel` and the approximate branch of
# `apolarity._subspace_lift`, which must agree with them bit for bit.


def reference_unwrap(rows, bits):
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


def reference_complex_echelon(rows, precision_bits, tol):
    """(echelon mpc rows, pivot_cols, scale as mpf)."""
    bits = linalg._matrix_bits(rows, precision_bits) + GUARD_BITS
    m = reference_unwrap(rows, bits)
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
        return m[:r], piv_cols, scale


def reference_complex_kernel(rows, precision_bits, tol):
    if not rows:
        return []
    ncols = len(rows[0])
    bits = linalg._matrix_bits(rows, precision_bits)
    ech, piv, _ = reference_complex_echelon(rows, precision_bits, tol)
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


def reference_subspace_lift(n, columns, precision_bits):
    """(keep, A) of `apolarity._subspace_lift` for approximate columns."""
    last = [max((i for i, c in enumerate(col) if not scalar_is_zero(c)),
                default=None) for col in columns]
    keep = [i for i in range(n) if i not in last]
    bits = linalg._matrix_bits(columns, precision_bits) + GUARD_BITS
    one, cols = mpc(1), reference_unwrap(columns, bits)
    A = [[one * 0] * len(keep) for _ in range(n)]
    with workprec(bits):
        for k, i in enumerate(keep):
            A[i][k] = one
        for col, p in zip(cols, last):
            inv = 1 / col[p]
            A[p] = [-(col[i] * inv) for i in keep]
    return keep, [[AppComplex.from_mpc(x, bits - GUARD_BITS) for x in row]
                  for row in A]


# ---------------------------------------------------------------------------
# The plane-curve resultant as it was before the conic closed form, on
# exact curves: the formal Sylvester determinant by `rational_det` at
# ep*eq + 1 integer nodes, and Lagrange interpolation.  Kept as a reference
# for `apolarity._sylvester_resultant`.


def reference_sylvester_resultant(p_coeffs, q_coeffs):
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
    nodes = [Fraction(k) for k in range(ep * eq + 1)]
    acc = UniPoly([])
    for xi in nodes:
        yi = linalg.rational_det([[c(xi) for c in row] for row in rows])
        basis = UniPoly([Fraction(1)])
        for xj in nodes:
            if xj != xi:
                basis = basis * UniPoly([-xj, Fraction(1)]).scale(1 / (xi - xj))
        acc = acc + basis.scale(yi)
    return acc


# ---------------------------------------------------------------------------
# The residual maximum of `verify.check_decomposition` as it was before the
# leaves were screened by their tops: the hypot of every leaf, kept when it
# is larger than the largest so far.  Kept as a reference for
# `verify._max_abs`.


def reference_max_abs(leaves, wp):
    worst = fzero
    for z in leaves:
        mag = mpc_abs(z, wp, round_nearest)
        if mpf_gt(mag, worst):
            worst = mag
    return worst


# ---------------------------------------------------------------------------
# The difference of two forms as it was before it was built in one pass:
# the sum with the other form scaled by -1.  Kept as a reference for
# `poly._SparsePoly.__sub__`.


def reference_sparse_sub(a, b):
    return a + b.scale(Fraction(-1))


# ---------------------------------------------------------------------------
# The base-point candidates as they were before the certificate did the
# pairing: at each resultant root t, the l2-roots of both curves, the roots
# of the first kept when they lie within 2^-(bits/3) of a root of the
# second (an mpc hypot under workprec, which the exponent rule of the
# deleted ``apolarity._shared_roots`` read bit for bit), where a side of
# degree < 1 posed no condition and a side that root finding rejected gave
# none.  Kept as a reference for `apolarity._curve_pair_candidates`.


def reference_pair_roots(pa, pb, precision_bits):
    if pa.degree >= 1 and pb.degree >= 1:
        try:
            ra = univariate_roots(pa, precision_bits)
            rb = univariate_roots(pb, precision_bits)
        except InvalidInputError:
            return []
        with workprec(precision_bits):
            sep = mpf(2) ** (-(precision_bits // 3))
            return [x for x in ra
                    if any(abs(x.to_mpc() - y.to_mpc()) <= sep for y in rb)]
    side = pa if pa.degree >= 1 else pb
    try:
        return univariate_roots(side, precision_bits) if side.degree >= 1 else []
    except InvalidInputError:
        return []


def reference_curve_pair_candidates(D0, D1, precision_bits, rng):
    e = D0.degree
    changes = list(_coordinate_changes(3, 3, random.Random(rng.randrange(1 << 30))))
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
            pa = _trim_leading([c(t) for c in p], precision_bits)
            pb = _trim_leading([c(t) for c in q], precision_bits)
            pts += [to_point(t, l2)
                    for l2 in reference_pair_roots(pa, pb, precision_bits)]
        return _sorted_points(pts)
    raise DegenerateSystemError("no usable chart for the curve pair")


# ---------------------------------------------------------------------------
# The squarefree part and decomposition as they were before the modular
# certificate: Euclid's rational gcd of p and p' for every input, then
# Yun's algorithm.  Kept as references for `numerics.squarefree_part` and
# `numerics.squarefree_decomposition`.


def reference_squarefree_part(p):
    if p.degree == 0:
        return UniPoly([Fraction(1)])
    q, r = p.divmod(poly_gcd(p, p.derivative()))
    assert r.is_zero()
    return q.scale(Fraction(1) / q.coeffs[-1])


def reference_squarefree_decomposition(p):
    out = []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p.scale(Fraction(1) / p.coeffs[-1]), 1)] if p.degree > 0 else []
    w, _ = p.divmod(g)
    y, _ = p.derivative().divmod(g)
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        h = poly_gcd(w, z)
        if h.degree > 0:
            out.append((h, i))
        w, _ = w.divmod(h)
        y, _ = z.divmod(h)
        i += 1
    return out
