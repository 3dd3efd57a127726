"""Multivariate homogeneous forms, dual operators and the contraction action.

``Form`` lives in the polynomial ring k[x_0..x_{n-1}]; ``DualOp`` lives in
the dual ring of constant-coefficient differential operators, which acts on
forms by plain iterated partial differentiation (no divided-power
normalization).  Both are sparse maps from exponent vectors to nonzero
scalars; monomials are kept in graded-lexicographic order everywhere a
deterministic layout matters.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import add

from mpmath import nstr
from mpmath.libmp import fzero, mpc_abs, mpf_add, round_nearest as _RND

from .errors import (InvalidInputError, NonHomogeneousError, ParseError)
from .linalg import _clear_denominators, rational_det
from .numerics import (GUARD_BITS, THRESHOLD_BITS, AppComplex, _add, _box,
                       _make_mpf, _mul, _neg, _pow, _raw_mpf, _raw_real,
                       _sub, _unbox, is_exact_scalar, max_abs_of,
                       scalar_is_zero)


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int):
    """All exponent vectors of the given total degree, graded-lex descending
    (x_0 weighs heaviest)."""
    if num_vars <= 0:
        return (() if degree else ((),))
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for tail in monomials_of_degree(num_vars - 1, degree - e0):
            out.append((e0,) + tail)
    return tuple(out)


class _SparsePoly:
    """Shared sparse representation for Form and DualOp."""

    __slots__ = ("num_vars", "degree", "coeffs")

    def __init__(self, num_vars, degree, coeffs):
        if num_vars < 1:
            raise InvalidInputError("need at least one variable")
        if degree < 0:
            raise InvalidInputError("degree must be non-negative")
        clean = {}
        for expo, c in coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != num_vars or any(e < 0 for e in expo):
                raise InvalidInputError(f"bad exponent vector {expo}")
            if sum(expo) != degree:
                raise InvalidInputError(
                    f"exponent {expo} has degree {sum(expo)}, expected {degree}")
            if isinstance(c, int):
                c = Fraction(c)
            if is_exact_scalar(c) and c == 0:
                continue
            if expo in clean:
                raise InvalidInputError(f"duplicate exponent {expo}")
            clean[expo] = c
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _of(cls, num_vars, degree, coeffs):
        """A polynomial on coefficients that are valid as given, with none
        of ``__init__``'s checks: each key an exponent tuple of ints of the
        right length and degree, each value a Fraction or an AppComplex,
        and no exact zero.  For results built from valid operands."""
        p = object.__new__(cls)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "degree", degree)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self, tol=0) -> bool:
        if not self.coeffs:
            return True
        return all(scalar_is_zero(c, tol) for c in self.coeffs.values())

    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coeffs.values())

    def coefficient(self, expo):
        return self.coeffs.get(tuple(expo), Fraction(0))

    def norm1(self):
        """sum |c| in coefficient order: exactly while every term so far is
        rational, then by libmp's ``mpf_add`` rounded to nearest at
        THRESHOLD_BITS, as the mpf operators add at mpmath's default
        precision whatever the ambient one (``numerics._raw_real``)."""
        s = Fraction(0)
        for c in self.coeffs.values():
            if type(c) is AppComplex:
                a = mpc_abs(c.parts, c.precision_bits + GUARD_BITS, _RND)
            elif type(s) is Fraction:
                s += abs(c)
                continue
            else:
                a = _raw_real(abs(c))
            s = mpf_add(_raw_real(s) if type(s) is Fraction else s, a,
                        THRESHOLD_BITS, _RND)
        return s if type(s) is Fraction else _make_mpf(s)

    def max_abs(self):
        return max_abs_of(self.coeffs.values())

    def _same_shape(self, other):
        if type(self) is not type(other):
            raise InvalidInputError("cannot combine a Form with a DualOp")
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise InvalidInputError("mismatched number of variables or degree")

    def __add__(self, other):
        """c1 + c2 per monomial on raw values, exact zeros dropped; a
        monomial of other alone keeps its coefficient as it is, which
        adding it to Fraction(0) would leave unchanged."""
        self._same_shape(other)
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            s = out.get(expo)
            if s is None:
                out[expo] = c
                continue
            s = _add(_unbox(s), _unbox(c))
            if type(s) is tuple:
                out[expo] = _box(s)
            elif s:
                out[expo] = s
            else:
                del out[expo]
        return self._of(self.num_vars, self.degree, out)

    def __sub__(self, other):
        """c1 - c2 per monomial, exact zeros dropped: the bits of
        ``self + (-1) * other``, since negation is exact and a sum is
        symmetric in its operands."""
        self._same_shape(other)
        theirs = other.coeffs
        out = {}
        for expo, c in self.coeffs.items():
            if expo in theirs:
                c = _sub(_unbox(c), _unbox(theirs[expo]))
                if type(c) is tuple:
                    c = _box(c)
                elif not c:
                    continue
            out[expo] = c
        for expo, c in theirs.items():
            if expo not in self.coeffs:
                out[expo] = _box(_neg(_unbox(c)))
        return self._of(self.num_vars, self.degree, out)

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, c):
        """c * v per monomial on raw values; scaling by an exact zero gives
        the zero polynomial."""
        if is_exact_scalar(c) and c == 0:
            return self._of(self.num_vars, self.degree, {})
        c = _unbox(c)
        return self._of(self.num_vars, self.degree,
                        {e: _box(_mul(c, _unbox(v)))
                         for e, v in self.coeffs.items()})

    def cleaned(self, tol):
        """Drop coefficients with |c| <= tol (used on approximate data)."""
        out = {e: c for e, c in self.coeffs.items() if not scalar_is_zero(c, tol)}
        return self._of(self.num_vars, self.degree, out)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other):
        return (type(self) is type(other) and self.num_vars == other.num_vars
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({self.num_vars}, {self.degree}, {render_form(self)!r})"


class Form(_SparsePoly):
    """Homogeneous polynomial of fixed degree in k[x_0..x_{n-1}].

    A Form is immutable, and its ``coeffs`` dict is never mutated after
    construction: every operation builds a new Form.  ``apolarity`` relies
    on that to keep what the first catalecticant gives on the Form object
    itself (``apolarity._kept``): a rational form's integer rows, and its
    degree-one kernel, once (once per precision for an approximate form).
    """


class DualOp(_SparsePoly):
    """Homogeneous element of the dual ring, acting by differentiation."""


class LinearForm:
    """A linear form given by its coordinate vector (l_0, ..., l_{n-1})."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(Fraction(c) if isinstance(c, int) else c for c in coords)
        if not coords:
            raise InvalidInputError("linear form needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    @property
    def num_vars(self):
        return len(self.coords)

    def is_zero(self, tol=0) -> bool:
        return all(scalar_is_zero(c, tol) for c in self.coords)

    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coords)

    def scale(self, c):
        return LinearForm(tuple(c * x for x in self.coords))

    def to_form(self) -> Form:
        n = len(self.coords)
        return Form(n, 1, {tuple(1 if j == i else 0 for j in range(n)): c
                           for i, c in enumerate(self.coords)
                           if not (is_exact_scalar(c) and c == 0)})

    @classmethod
    def from_form(cls, f: Form) -> "LinearForm":
        if f.degree != 1:
            raise InvalidInputError("not a linear form")
        coords = [Fraction(0)] * f.num_vars
        for expo, c in f.coeffs.items():
            coords[expo.index(1)] = c
        return cls(coords)

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coords == other.coords

    def __repr__(self):
        return f"LinearForm({list(self.coords)!r})"


# ---------------------------------------------------------------------------
# core operations


def contract(op: DualOp, f: Form) -> Form:
    """Apply a dual operator to a form: each dual monomial acts as the
    corresponding iterated partial derivative.

    Runs on raw values: each term is ``(u * v) * mult`` and each sum starts
    from its first term, which adding it to Fraction(0) would leave
    unchanged; a sum that cancels to an exact zero is dropped and, if it
    comes back, re-inserted at the end."""
    if not isinstance(op, DualOp) or not isinstance(f, Form):
        raise InvalidInputError("contract expects (DualOp, Form)")
    if op.num_vars != f.num_vars:
        raise InvalidInputError("mismatched number of variables")
    if op.degree > f.degree:
        raise InvalidInputError(
            f"operator degree {op.degree} exceeds form degree {f.degree}")
    n = f.num_vars
    terms = [(b, _unbox(v)) for b, v in f.coeffs.items()]
    out = {}
    for a, u in op.coeffs.items():
        u = _unbox(u)
        for b, v in terms:
            if any(b[i] < a[i] for i in range(n)):
                continue
            mult = 1
            for i in range(n):
                if a[i]:
                    mult *= factorial(b[i]) // factorial(b[i] - a[i])
            target = tuple(b[i] - a[i] for i in range(n))
            t = _mul(_mul(u, v), mult)
            s = out.get(target)
            if s is not None:
                t = _add(s, t)
                if type(t) is not tuple and not t:
                    del out[target]
                    continue
            out[target] = t
    return Form._of(n, f.degree - op.degree,
                    {e: _box(v) for e, v in out.items()})


def dual_power(alpha, e: int) -> DualOp:
    """e-th power of a degree-1 dual operator with the given coordinates."""
    return _power_of_linear(tuple(alpha), e, DualOp)


def linear_power(l: LinearForm, d: int) -> Form:
    """(l_0 x_0 + ... + l_{n-1} x_{n-1})^d by the multinomial formula: the
    coefficient of x^e is d!/(e_0!...e_{n-1}!) * l_0^e_0 ... l_{n-1}^e_{n-1},
    with the multinomials taken from a table per (n, d) and each l_i^k
    computed once."""
    return _power_of_linear(l.coords, d, Form)


@lru_cache(maxsize=None)
def _multinomials(num_vars: int, degree: int):
    """d!/(e_0!...e_{n-1}!) as ints, in `monomials_of_degree` order; an
    int multiplies a Fraction or an AppComplex as Fraction(m) does."""
    top = factorial(degree)
    out = []
    for expo in monomials_of_degree(num_vars, degree):
        m = top
        for e in expo:
            m //= factorial(e)
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _raw_multinomials(num_vars: int, degree: int, bits: int):
    """`_multinomials` rounded at ``bits`` by ``_raw_mpf``, as raw values."""
    return tuple(((_raw_mpf(m, bits), fzero), bits)
                 for m in _multinomials(num_vars, degree))


def _power_of_linear(coords, d, cls):
    """(coords . x)^d as a ``cls``, on the coefficients `_power_coeffs`
    builds, which are valid as they are once ints are made Fractions."""
    if d < 0:
        raise InvalidInputError("exponent must be non-negative")
    if not coords:
        raise InvalidInputError("need at least one variable")
    return cls._of(len(coords), d, {
        e: Fraction(v) if type(v) is int else v
        for e, v in _power_coeffs(coords, d).items()})


def _power_coeffs(coords, d):
    """(coords . x)^d as a dict from exponent vectors to coefficients, in
    `monomials_of_degree` order, each coords[i]^e computed once and the
    monomials of exact zero coordinates left out; ints stay ints.

    Each coefficient is m * coords[i]^e_i * ... left to right from its
    multinomial m, on raw values; an m that meets an approximate power
    first is read rounded from `_raw_multinomials`, as the operator would
    round it."""
    n = len(coords)
    xs = [_unbox(x) for x in coords]
    # powers[i][e] = coords[i] ** e, or None for an exact zero coordinate;
    # x ** 1 is x itself, as in `evaluate`
    powers = [None if type(x) is not tuple and x == 0
              else [1, x] + [_pow(x, e) for e in range(2, d + 1)] for x in xs]
    out = {}
    for k, (expo, m) in enumerate(zip(monomials_of_degree(n, d),
                                      _multinomials(n, d))):
        val = None
        for pw, e in zip(powers, expo):
            if e:
                if pw is None:
                    break
                p = pw[e]
                if val is not None:
                    val = _mul(val, p)
                elif type(p) is tuple:
                    val = _mul(p, _raw_multinomials(n, d, p[1])[k])
                else:
                    val = m * p
        else:
            out[expo] = m if val is None else _box(val)
    return out


def _substitute(f, matrix):
    """Substitute x_i -> sum_j matrix[i][j] x_j; no invertibility demanded,
    and an n x m matrix gives a polynomial in m variables.

    Each monomial c * x^e of f contributes c * prod_i (row_i . x)^e_i, the
    products taken left to right over the variables, each (i, e_i) power
    expanded once per call; the contributions are summed in f's order into
    one dict.  A coefficient that cancels to an exact zero is dropped and,
    if it comes back, re-inserted at the end, so the key order is that of
    adding up the contributions as Forms.

    Exact input (every coefficient of f and every matrix entry rational)
    runs on integers over one common denominator: row i is cleared to
    d_i * row_i, every contribution is scaled to the least common
    denominator L of the c * prod_i d_i^-e_i, and each summed integer s
    becomes Fraction(s, L) at the end.  Other input sums c * v as given.
    """
    rows = [matrix[i] for i in range(f.num_vars)]
    if f.is_exact() and all(is_exact_scalar(x) for row in rows for x in row):
        out = _substitute_exact(f.coeffs, rows)
    else:
        out = _substitute_approx(f, rows)
    return type(f)(len(rows[0]), f.degree, out)


def _expansions(coeffs, power, product, unit):
    """(c, prod_i power(i, e_i)) for each monomial c * x^e of f, in f's
    order: the product taken left to right over the variables, each
    power(i, e) built once, and ``unit`` for the constant monomial."""
    pieces = {}
    for expo, c in coeffs.items():
        term = None
        for i, e in enumerate(expo):
            if e == 0:
                continue
            piece = pieces.get((i, e))
            if piece is None:
                piece = pieces[(i, e)] = power(i, e)
            term = piece if term is None else product(term, piece)
        yield c, unit if term is None else term


def _substitute_exact(coeffs, rows):
    cleared = [_clear_denominators(row) for row in rows]
    dens = [c.denominator * prod(d ** e for (d, _), e in zip(cleared, expo))
            for expo, c in coeffs.items()]
    common = lcm(*dens)
    # every integer below is the rational value times a positive constant,
    # so it cancels exactly when the Fraction sum would
    out = {}
    for (c, term), den in zip(_expansions(
            coeffs, lambda i, e: _power_coeffs(cleared[i][1], e),
            _product, {(0,) * len(rows[0]): 1}), dens):
        scale = c.numerator * (common // den)
        for t, v in term.items():
            s = out.get(t, 0) + scale * v
            if s:
                out[t] = s
            else:
                del out[t]
    return {t: Fraction(s, common) for t, s in out.items()}


def _substitute_approx(f, rows):
    lin = [LinearForm(row).coords for row in rows]
    out = {}
    for c, term in _expansions(
            f.coeffs, lambda i, e: _power_coeffs(lin[i], e),
            _product, {(0,) * len(rows[0]): Fraction(1)}):
        for t, v in term.items():
            s = out.get(t, Fraction(0)) + c * v
            if is_exact_scalar(s) and s == 0:
                out.pop(t, None)
            else:
                out[t] = s
    return out


def _product(a, b):
    """Sparse product of two coefficient dicts of homogeneous polynomials
    (ints, Fractions or AppComplex): each sum starts from 0 and is dropped
    when falsy, an exact zero, since an AppComplex is always truthy."""
    out = {}
    for x, u in a.items():
        for y, v in b.items():
            t = tuple(map(add, x, y))
            s = out.get(t, 0) + u * v
            if s:
                out[t] = s
            else:
                out.pop(t, None)
    return out


def change_coordinates(f, matrix):
    """Substitute x_i -> sum_j M[i][j] x_j; M must be invertible.

    Works for Form and DualOp alike.  Invertibility is checked by exact
    determinant for rational matrices.  Rational f and M run on integers
    over one common denominator (see `_substitute`).
    """
    n = f.num_vars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InvalidInputError("matrix shape must match the number of variables")
    if all(is_exact_scalar(x) for row in matrix for x in row):
        if rational_det(matrix) == 0:
            raise InvalidInputError("coordinate change matrix is singular")
    return _substitute(f, matrix)


def evaluate(f, coords):
    """Value of a Form/DualOp at a coordinate vector.

    A coordinate with exponent 1 is multiplied in as it is: for rational
    and ``AppComplex`` coordinates ``x ** 1`` is x itself; each higher
    power is computed once.  The sum starts from the first term that is
    not skipped, since adding it to ``Fraction(0)`` would only round it
    again at its own precision.  Runs on raw values."""
    if len(coords) != f.num_vars:
        raise InvalidInputError("mismatched number of variables")
    xs = [_unbox(x) for x in coords]
    powers = {}  # (i, e) -> xs[i] ** e, each computed once
    total = None
    for expo, c in f.coeffs.items():
        val = _unbox(c)
        for i, e in enumerate(expo):
            if e:
                x = xs[i]
                if type(x) is not tuple and x == 0:
                    break
                if e > 1:
                    x = powers.get((i, e))
                    if x is None:
                        x = powers[(i, e)] = _pow(xs[i], e)
                val = _mul(val, x)
        else:
            total = val if total is None else _add(total, val)
    return Fraction(0) if total is None else _box(total)


def evaluate_dual(op: DualOp, l: LinearForm):
    """Value of a dual operator at the point of PS_1 given by l.

    Substitutes the i-th dual variable by coords[i]; vanishing means [l]
    lies on the hypersurface cut out by the operator.
    """
    if op.num_vars != l.num_vars:
        raise InvalidInputError("mismatched number of variables")
    return evaluate(op, l.coords)


# ---------------------------------------------------------------------------
# text grammar

_TOKEN_FACTOR = re.compile(r"^([a-zA-Z])(\d+)(?:\^(\d+))?$")
_TOKEN_COEFF = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_form(text: str, num_vars: int, var: str = "x") -> Form:
    """Parse a form from the textual grammar.

    Terms are separated by ``+``/``-``; each term is an optional rational
    coefficient (``p/q`` or an integer) and ``*``-separated variables
    ``x<i>`` with an optional ``^<k>`` power, zero-based indices.
    Whitespace is insignificant.  Non-homogeneous input is rejected with
    the offending monomials listed.
    """
    if num_vars < 1:
        raise InvalidInputError("need at least one variable")
    squashed = text.replace(" ", "").replace("\t", "")
    if not squashed:
        raise ParseError("empty form")
    # split into signed terms
    terms = []
    cur = ""
    sign = 1
    first = True
    for ch in squashed:
        if ch in "+-" and not first and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
            continue
        if ch in "+-" and (first or not cur):
            if ch == "-":
                sign = -sign
            first = False
            continue
        cur += ch
        first = False
    if cur:
        terms.append((sign, cur))
    if not terms:
        raise ParseError("no terms found")

    parsed = []  # (coeff, expo) per term, degree not yet checked
    for sgn, term in terms:
        coeff = Fraction(sgn)
        expo = [0] * num_vars
        for piece in term.split("*"):
            if not piece:
                raise ParseError(f"empty factor in term {term!r}")
            m = _TOKEN_FACTOR.match(piece)
            if m:
                letter, idx, power = m.group(1), int(m.group(2)), m.group(3)
                if letter != var:
                    raise ParseError(
                        f"unknown variable letter {letter!r}, expected {var!r}")
                if idx >= num_vars:
                    raise ParseError(
                        f"variable index {idx} out of range for {num_vars} variables")
                expo[idx] += int(power) if power else 1
                continue
            m = _TOKEN_COEFF.match(piece)
            if m:
                num, den = int(m.group(1)), m.group(2)
                if den is not None and int(den) == 0:
                    raise ParseError("zero denominator")
                coeff *= Fraction(num, int(den)) if den else Fraction(num)
                continue
            raise ParseError(f"cannot parse factor {piece!r}")
        parsed.append((coeff, tuple(expo)))

    degrees = {sum(e) for _, e in parsed}
    if len(degrees) > 1:
        top = max(degrees)
        offending = [_render_monomial(e, var) for _, e in parsed if sum(e) != top]
        raise NonHomogeneousError(
            f"form is not homogeneous; offending monomials: {', '.join(offending)}",
            offending)
    degree = degrees.pop()
    out = {}
    for coeff, expo in parsed:
        out[expo] = out.get(expo, Fraction(0)) + coeff
    return Form(num_vars, degree, {e: c for e, c in out.items() if c != 0})


def _render_monomial(expo, var):
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(f"{var}{i}")
        elif e > 1:
            parts.append(f"{var}{i}^{e}")
    return "*".join(parts) if parts else "1"


def _render_scalar(c):
    if isinstance(c, Fraction):
        return str(c)
    re_s = nstr(c.real, 12)
    im_s = nstr(c.imag, 12)
    return f"({re_s}{'+' if c.imag >= 0 else ''}{im_s}j)"


def render_form(f, var: str = "x") -> str:
    """Inverse of parse_form on rational forms; graded-lex term order."""
    if not f.coeffs:
        return "0"
    parts = []
    for expo, c in f.sorted_items():
        mono = _render_monomial(expo, var)
        if isinstance(c, Fraction):
            neg = c < 0
            mag = abs(c)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            sign = "-" if neg else "+"
        else:
            body = _render_scalar(c) + ("" if mono == "1" else f"*{mono}")
            sign = "+"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
