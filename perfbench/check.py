"""Independent checker for decompositions.

Nothing here calls `openwaring`: the essential variable count, the paper's
bound, the reconstruction and the forbidden-set test are all recomputed from
plain `fractions.Fraction` and mpmath values, so a fault in the program
cannot hide in the check.

A decomposition is handed in as a list of ``(coeff, coords)`` terms, where
each scalar is either a ``Fraction`` or an ``mpmath.mpc``.  A form is a dict
from exponent tuples to ``Fraction`` coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath
from mpmath import mpc, mpf


def rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                k = rows[i][c] / p
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def essential_count(coeffs, n) -> int:
    """Rank of the first catalecticant: one row per partial derivative."""
    support = sorted({e[:i] + (e[i] - 1,) + e[i + 1:]
                      for e in coeffs for i in range(n) if e[i]})
    col = {e: j for j, e in enumerate(support)}
    rows = []
    for i in range(n):
        row = [Fraction(0)] * len(support)
        for e, c in coeffs.items():
            if e[i]:
                row[col[e[:i] + (e[i] - 1,) + e[i + 1:]]] += e[i] * c
        rows.append(row)
    return rank(rows)


def paper_bound(m: int, d: int) -> int:
    """The paper's term bound at m essential variables and degree d."""
    if m <= 1 or d <= 1:
        return 1
    if m == 2:
        return d
    if d == 2:
        return m
    if (m, d) == (3, 3):
        return 5
    return comb(m + d - 2, d - 1) - comb(m + d - 6, d - 3)


def _is_exact(x) -> bool:
    return isinstance(x, Fraction)


def _to_mp(x):
    if _is_exact(x):
        return mpf(x.numerator) / x.denominator
    return x


def power(coords, d, n):
    """(sum_i coords[i] x_i)^d by d repeated sparse multiplications."""
    acc = {(0,) * n: 1}
    for _ in range(d):
        nxt = {}
        for e, a in acc.items():
            for i, c in enumerate(coords):
                if c == 0:
                    continue
                key = e[:i] + (e[i] + 1,) + e[i + 1:]
                nxt[key] = nxt.get(key, 0) + a * c
        acc = nxt
    return acc


def problems(coeffs, n, d, terms, forbidden=(), precision_bits=256,
             exact_rank=None):
    """Every way in which ``terms`` fail to decompose the form; [] if none.

    ``forbidden`` lists the coordinate vectors of forbidden hyperplanes.
    ``exact_rank``, when given, demands an exact rational result with
    exactly that many terms.  Exact terms must reproduce the form exactly;
    otherwise the largest coefficient error, divided by the 1-norm of the
    form, must be at most 2^-(precision/2).
    """
    found = []
    m = essential_count(coeffs, n)
    bound = paper_bound(m, d)
    if len(terms) > bound:
        found.append(f"{len(terms)} terms exceed the bound {bound} at m={m}")
    exact = all(_is_exact(c) and all(_is_exact(x) for x in l)
                for c, l in terms)
    if exact_rank is not None:
        if not exact:
            found.append("result is not exact")
        if len(terms) != exact_rank:
            found.append(f"{len(terms)} terms, expected exactly {exact_rank}")
    with mpmath.workprec(precision_bits + 32):
        conv = (lambda x: x) if exact else _to_mp
        tol = mpf(2) ** (-(precision_bits // 2))
        total = {}
        for c, l in terms:
            c = conv(c)
            for e, v in power([conv(x) for x in l], d, n).items():
                total[e] = total.get(e, 0) + c * v
        for e, v in coeffs.items():
            total[e] = total.get(e, 0) - conv(v)
        worst = max((abs(v) for v in total.values()), default=0)
        norm = sum(abs(v) for v in coeffs.values())
        if exact:
            if worst != 0:
                found.append(f"exact residual {worst} is not zero")
        elif worst / _to_mp(norm) > tol:
            found.append(f"residual {mpmath.nstr(worst / _to_mp(norm), 5)} "
                         f"exceeds 2^-{precision_bits // 2}")
        for k, (c, l) in enumerate(terms):
            l = [conv(x) for x in l]
            scale = max(abs(x) for x in l)
            if scale == 0:
                found.append(f"term {k} has a zero linear form")
                continue
            for a in forbidden:
                value = sum(conv(Fraction(ai)) * x for ai, x in zip(a, l))
                if (value == 0 if exact else
                        abs(value) <= tol * scale * max(abs(ai) for ai in a)):
                    found.append(f"term {k} lies on forbidden hyperplane {a}")
    return found


def _scalar(x):
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return mpc(x.real, x.imag)


def terms_of(dec, precision_bits):
    """The terms of a library `Decomposition` in checker form, each
    approximate scalar read from its real and imaginary parts."""
    with mpmath.workprec(precision_bits + 32):
        return [(_scalar(c), [_scalar(x) for x in l.coords])
                for c, l in dec.terms]


def _record_scalar(obj):
    if isinstance(obj, str):
        num, den = obj.split("/")
        return Fraction(int(num), int(den))
    return mpc(mpf(obj["re"]), mpf(obj["im"]))


def terms_of_record(record):
    """The terms of a structured `decompose` record, parsed from its text."""
    bits = int(record["precision_bits"])
    out = []
    with mpmath.workprec(bits + 32):
        for t in record["terms"]:
            if "coeff_num" in t:
                c = Fraction(int(t["coeff_num"]), int(t["coeff_den"]))
            else:
                c = mpc(mpf(t["coeff_re"]), mpf(t["coeff_im"]))
            out.append((c, [_record_scalar(x) for x in t["coords"]]))
    return out
