"""Result types, their independent certification, and catalecticant rank
lower bounds.

`check_decomposition` certifies a `Decomposition` against its target:
reconstruction, avoidance of the `ForbiddenSet`, and the term bound.  The
pipeline attaches its report to every result it returns; `openwaring verify`
recomputes it from a stored record.  The reconstruction here deliberately
does not share code with the pipeline, nor does this module import it or
the power and substitution code of `poly`: each c*l^d is expanded on a
monomial tree of its own (every degree-d monomial is its parent times one
coordinate), exact terms on integers over a common denominator and the
others on raw libmp tuples, so a bug in one expansion cannot hide in the
other.

Magnitudes are screened by exponents before libmp's ``mpc_abs`` is asked
for them.  A finite nonzero pair z whose larger part has top = exp + bc
lies in [2**(top-1), 2**(top+1/2)), and its hypot, rounded monotonically,
in [2**(top-1), 2**(top+1)).  So the residual maximum takes the hypot only
of the leaves within one binade of the largest top (``_max_abs``), and
``is_forbidden`` reads |val| <= bound off the tops of val and the bound
when they are far enough apart (``_abs_at_most``).  An inf or nan part,
or a comparison the tops leave open, takes the hypot as before, so every
output bit is what the hypots alone give.  The pipeline settles its own
comparisons by the same rule (``numerics._abs_exceeds``), but this module
computes its tops itself (``_top``), so that a fault in the pipeline's
rule cannot hide in the check of its results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import (fone, from_float, from_int, from_rational, fzero,
                          mpc_abs, mpc_add, mpc_mul, mpc_mul_int, mpc_sub,
                          mpf_add, mpf_div, mpf_gt, mpf_log, mpf_mul, mpf_pos,
                          mpf_pow_int, round_nearest, to_float)

from .apolarity import catalecticant, essential_variables
from .bounds import recursion_bound
from .errors import InvalidInputError, ParseError
from .numerics import (DEFAULT_PRECISION_BITS, GUARD_BITS, AppComplex,
                       is_exact_scalar, max_abs_of, tolerance,
                       values_precision)
from .poly import Form, LinearForm, evaluate, parse_form, render_form

_RND = round_nearest
_CZERO = (fzero, fzero)
_ZERO_TOP = float("-inf")

#: the precision of an approximate residual: mpmath's default, fixed, so
#: that the report does not follow the caller's ``mpmath.mp.prec``
_RESIDUAL_BITS = 53


def _top(z):
    """exp + bc of the larger part of a raw pair, so that 2**(top-1) <= |z|
    < 2**(top+1/2) when z is finite and nonzero; -inf for zero, None when a
    part is inf or nan."""
    top = _ZERO_TOP
    for _, man, exp, bc in z:
        if man:
            if exp + bc > top:
                top = exp + bc
        elif exp:
            return None
    return top


def _abs_at_most(z, t):
    """Whether |z| <= t for a raw pair z and a raw mpf t, from the tops
    alone: True when top(z) <= top(t) - 2, False when top(z) >= top(t) + 1,
    None when they leave it open, a value is not finite or t < 0.  The
    bounds are powers of two and libmp's ``mpc_abs`` rounds monotonically,
    so a decided answer is what the rounded hypot gives at any precision."""
    tz = _top(z)
    tt = None if t[0] else _top((t, fzero))
    if tz is None or tt is None or tt - 2 < tz < tt + 1:
        return None
    return tz <= tt - 2


class ForbiddenSet:
    """Finite list of nonzero homogeneous constraints on linear forms.

    A linear form l is forbidden exactly when some constraint vanishes at
    its coordinate vector; nonzero constraints keep the forbidden set a
    proper closed subset.
    """

    __slots__ = ("num_vars", "constraints")

    def __init__(self, num_vars, constraints=()):
        constraints = tuple(constraints)
        for g in constraints:
            if not isinstance(g, Form):
                raise InvalidInputError("constraints must be Form instances")
            if g.num_vars != num_vars:
                raise InvalidInputError("constraint has the wrong number of variables")
            if g.degree < 1 or g.is_zero():
                raise InvalidInputError("constraints must be nonzero of degree >= 1")
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "constraints", constraints)

    def __setattr__(self, name, value):
        raise AttributeError("ForbiddenSet is immutable")

    @classmethod
    def empty(cls, num_vars):
        return cls(num_vars, ())

    def is_empty(self):
        return not self.constraints

    def with_constraint(self, g: Form):
        return ForbiddenSet(self.num_vars, self.constraints + (g,))

    @classmethod
    def from_text(cls, text: str, num_vars: int):
        """One constraint per line, grammar variables l0..l{n-1}."""
        constraints = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                constraints.append(parse_form(line, num_vars, var="l"))
            except ParseError as exc:
                raise ParseError(f"avoid-file line {lineno}: {exc}") from exc
        return cls(num_vars, constraints)

    def to_text(self) -> str:
        return "\n".join(render_form(g, var="l") for g in self.constraints)

    def __repr__(self):
        return f"ForbiddenSet({self.num_vars}, {len(self.constraints)} constraints)"


def is_forbidden(l: LinearForm, V: ForbiddenSet, tol=None) -> bool:
    """Membership of l in the forbidden set.

    Exact zero test when both l and the constraints are rational; for
    approximate data the test is conservative, flagging l whenever any
    constraint value is within tolerance of zero: |val| <= tol * |g|_1 *
    max(1, max |l_i|)^deg g, read off the tops of val and the bound
    (``_abs_at_most``) and by the hypot only where they leave it open.  The
    bound is computed by libmp at _RESIDUAL_BITS, as the mpf operators
    compute it at mpmath's default precision, whatever the ambient one.
    The tolerance defaults to that of the smallest precision among l's
    inexact coordinates and the constraints' inexact coefficients.
    """
    if l.num_vars != V.num_vars:
        raise InvalidInputError("mismatched number of variables")
    if not V.constraints:
        return False
    if tol is None:
        tol = tolerance(values_precision(
            [*l.coords, *(c for g in V.constraints for c in g.coeffs.values())]))
    tol = _raw_real(tol)
    l_scale = None  # max(1, max |l_i|), built at the first inexact value
    for g in V.constraints:
        val = evaluate(g, l.coords)
        if is_exact_scalar(val):
            if val == 0:
                return True
            continue
        if l_scale is None:
            l_scale = mpf_pos(_raw_real(max_abs_of(l.coords)), _RESIDUAL_BITS,
                              _RND)
            if not mpf_gt(l_scale, fone):
                l_scale = fone
        bound = mpf_mul(
            mpf_mul(tol, _raw_real(g.norm1()), _RESIDUAL_BITS, _RND),
            mpf_pow_int(l_scale, g.degree, _RESIDUAL_BITS, _RND),
            _RESIDUAL_BITS, _RND)
        below = None
        if type(val) is AppComplex:
            below = _abs_at_most(val.parts, bound)
        if below is None:
            below = abs(val) <= mpmath.mp.make_mpf(bound)
        if below:
            return True
    return False


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of re-checking a decomposition against its target."""

    residual: object
    term_count: int
    bound_value: int
    forbidden_violations: tuple
    exact: bool
    passed: bool
    residual_ok: bool  # the reconstruction test alone

    def residual_log2(self):
        """log2 of the residual, or None when it is exactly zero."""
        if is_exact_scalar(self.residual):
            if self.residual == 0:
                return None
            q = Fraction(self.residual)
            return (math.log2(q.numerator) - math.log2(q.denominator))
        if self.residual == 0:
            return None
        # mpmath.log(residual, 2) at the default precision: both logarithms
        # 20 bits wider, their quotient at _RESIDUAL_BITS
        wp = _RESIDUAL_BITS + 20
        return to_float(mpf_div(mpf_log(self.residual._mpf_, wp, _RND),
                                mpf_log(from_int(2), wp, _RND),
                                _RESIDUAL_BITS, _RND), rnd=_RND)


@dataclass(frozen=True)
class Decomposition:
    """Presentation of a form as sum c_i * l_i^degree; ``report`` is the
    pipeline's `VerifyReport` on it, or None when built elsewhere."""

    degree: int
    num_vars: int
    terms: tuple
    exact: bool
    trace: tuple = ()
    report: VerifyReport | None = field(default=None, compare=False)

    @property
    def term_count(self) -> int:
        return len(self.terms)


@lru_cache(maxsize=None)
def _monomial_tree(n, d):
    """The monomials of degree <= d in n variables as a tree rooted at 1.

    Each node is its parent times one variable whose index is at least the
    parent's last one, so every monomial appears once.  Returns ``steps``,
    one ``(parent node, variable)`` per node after the root in creation
    order, and ``leaves``, one ``(exponent vector, multinomial)`` per
    degree-d monomial; the leaves are the last ``len(leaves)`` nodes, in
    that order.
    """
    steps = []
    level = [((0,) * n, 0)]  # (exponent vector, lowest variable allowed)
    node = 0
    for _ in range(d):
        nxt = []
        for parent, (expo, low) in enumerate(level, node):
            for i in range(low, n):
                steps.append((parent, i))
                nxt.append((expo[:i] + (expo[i] + 1,) + expo[i + 1:], i))
        node += len(level)
        level = nxt
    top = math.factorial(d)
    leaves = []
    for expo, _ in level:
        m = top
        for e in expo:
            m //= math.factorial(e)
        leaves.append((expo, m))
    return tuple(steps), tuple(leaves)


def _expand_tree(root, coords, steps, mul):
    """root * (coords monomial) at every node of the tree, via ``mul``."""
    vals = [root]
    for parent, i in steps:
        vals.append(mul(vals[parent], coords[i]))
    return vals


def _raw_mpc(x, wp):
    """A scalar as a raw libmp complex tuple; rationals rounded at ``wp``."""
    if is_exact_scalar(x):
        return (from_rational(x.numerator, x.denominator, wp, _RND), fzero)
    return x.parts


def _max_abs(leaves, wp):
    """The largest libmp ``mpc_abs(z, wp)`` over raw pairs (fzero for none),
    the hypot taken only for the leaves within one binade of the largest
    top.  A leaf two binades below another is below it after rounding, by
    ``_top``'s bounds; a zero leaf cannot exceed fzero.  With an inf or nan
    part anywhere every leaf takes its hypot, in order, and nan never wins."""
    top = _ZERO_TOP
    near = []  # (top, leaf) within one binade of the largest top so far
    for z in leaves:
        t = _top(z)
        if t is None:
            near = [(top, w) for w in leaves]
            break
        if t >= top - 1 and t != _ZERO_TOP:
            near.append((t, z))
            if t > top:
                top = t
    worst = fzero
    for t, z in near:
        if t >= top - 1:
            mag = mpc_abs(z, wp, _RND)
            if mpf_gt(mag, worst):
                worst = mag
    return worst


def _raw_real(x):
    """A real scalar as a raw mpf, as the mpf operators convert it: a
    Fraction rounded down to _RESIDUAL_BITS, a float exactly."""
    if is_exact_scalar(x):
        x = Fraction(x)
        return from_rational(x.numerator, x.denominator, _RESIDUAL_BITS)
    if isinstance(x, float):
        return from_float(x)
    return x._mpf_


def _raw_residual_scale(f: Form):
    """What an approximate residual is divided by, as a raw mpf at
    _RESIDUAL_BITS: the 1-norm of f, or 1 when it is an exact 0.

    The 1-norm is summed in coefficient order as ``Form.norm1`` sums it:
    exactly while every term so far is rational, then by ``mpf_add``
    rounded to nearest, as the mpf operators add at the default precision
    whatever the ambient one."""
    s = Fraction(0)
    for c in f.coeffs.values():
        a = abs(c)
        if isinstance(s, Fraction) and is_exact_scalar(a):
            s += a
        elif isinstance(s, Fraction):
            s = mpf_add(a._mpf_, _raw_real(s), _RESIDUAL_BITS, _RND)
        else:
            s = mpf_add(s, _raw_real(a), _RESIDUAL_BITS, _RND)
    if isinstance(s, Fraction):
        return _raw_real(s or Fraction(1))
    return s


def check_decomposition(f: Form, dec: Decomposition,
                        V: ForbiddenSet | None = None,
                        tol=None,
                        precision_bits=DEFAULT_PRECISION_BITS) -> VerifyReport:
    """Re-verify a decomposition: reconstruction, avoidance, term bound.

    Rational data is compared exactly; otherwise the residual is the max
    coefficient mismatch normalized by the 1-norm of f, accepted below
    ``tol`` (default 2^-(precision/2)).  Each c*l^d is expanded on the
    monomial tree: exact terms on integers over a common denominator,
    approximate ones on raw complex tuples at precision + GUARD_BITS.
    """
    if V is None:
        V = ForbiddenSet.empty(f.num_vars)
    if dec.num_vars != f.num_vars or dec.degree != f.degree:
        raise InvalidInputError("decomposition does not match the form's shape")
    if V.num_vars != f.num_vars:
        raise InvalidInputError("forbidden set does not match the form")
    if tol is None:
        tol = tolerance(precision_bits)

    n, d = f.num_vars, f.degree
    wp = precision_bits + GUARD_BITS
    steps, leaves = _monomial_tree(n, d)
    first = len(steps) + 1 - len(leaves)
    mults = [m for _, m in leaves]

    def cmul(z, w):
        return mpc_mul(z, w, wp, _RND)

    # sum of the exact terms: num[k] / den; of the others: approx[k]
    num = [0] * len(leaves)
    den = 1
    approx = None
    for c, l in dec.terms:
        if l.num_vars != n:
            raise InvalidInputError(
                "decomposition term has the wrong number of variables")
        if l.is_zero():
            raise InvalidInputError("decomposition contains a zero linear form")
        coords = l.coords
        if is_exact_scalar(c) and all(map(is_exact_scalar, coords)):
            # c * l^d = (a / b) * (sum_i p_i x_i)^d with integers p_i
            lcm = math.lcm(*(x.denominator for x in coords))
            ints = [x.numerator * (lcm // x.denominator) for x in coords]
            factor = Fraction(c) / lcm ** d
            b = factor.denominator
            g = math.gcd(den, b)
            if g != b:
                widen = b // g
                num = [v * widen for v in num]
                den *= widen
            vals = _expand_tree(factor.numerator * (den // b), ints, steps,
                                operator.mul)
            num = [v + m * w for v, m, w in zip(num, mults, vals[first:])]
        else:
            if approx is None:
                approx = [_CZERO] * len(leaves)
            vals = _expand_tree(_raw_mpc(c, wp),
                                [_raw_mpc(x, wp) for x in coords], steps, cmul)
            # a leaf of degree d >= 1 is a product rounded at wp already,
            # so a multinomial of 1 adds it as it is
            approx = [mpc_add(v, w if m == 1 and d
                              else mpc_mul_int(w, m, wp, _RND), wp, _RND)
                      for v, m, w in zip(approx, mults, vals[first:])]

    # exactness is read off the data, not off the record's own flag
    all_exact = approx is None and f.is_exact()
    index = {expo: k for k, (expo, _) in enumerate(leaves)}

    if all_exact:
        target = [Fraction(0)] * len(leaves)
        for expo, v in f.coeffs.items():
            target[index[expo]] = v
        common = math.lcm(den, *(v.denominator for v in target))
        widen = common // den
        worst = max((abs(v * widen - t.numerator * (common // t.denominator))
                     for v, t in zip(num, target)), default=0)
        # divided by the 1-norm of f, or by 1 when it is 0; a zero residual
        # is Fraction(0) whatever the scale
        residual = (Fraction(worst, common) / (f.norm1() or Fraction(1))
                    if worst else Fraction(0))
        residual_ok = residual == 0
    else:
        deltas = [Fraction(v, den) for v in num]
        rest = approx or [_CZERO] * len(leaves)
        for expo, v in f.coeffs.items():
            k = index[expo]
            if is_exact_scalar(v):
                deltas[k] -= v
            else:
                rest[k] = mpc_sub(rest[k], _raw_mpc(v, wp), wp, _RND)
        worst = _max_abs([mpc_add(z, _raw_mpc(q, wp), wp, _RND) if q else z
                          for q, z in zip(deltas, rest)], wp)
        # mpf(worst) / (mpf(1) * scale) at the default precision
        residual = mpmath.mp.make_mpf(mpf_div(
            mpf_pos(worst, _RESIDUAL_BITS, _RND), _raw_residual_scale(f),
            _RESIDUAL_BITS, _RND))
        residual_ok = residual <= tol

    violations = tuple(i for i, (c, l) in enumerate(dec.terms)
                       if is_forbidden(l, V, tol))
    bound_value = recursion_bound(
        max(essential_variables(f, precision_bits), 1), d, "improved")
    passed = residual_ok and not violations and dec.term_count <= bound_value
    return VerifyReport(residual, dec.term_count, bound_value, violations,
                        all_exact, passed, residual_ok)


def catalecticant_lower_bound(f: Form,
                              precision_bits=DEFAULT_PRECISION_BITS) -> int:
    """max_e rank of the degree-e catalecticant: a certified lower bound on
    the classical Waring rank."""
    if f.is_zero():
        raise InvalidInputError("the zero form has no rank bound")
    if f.degree < 2:
        return 1
    best = 1
    for e in range(1, f.degree):
        r = catalecticant(f, e).rank(precision_bits)
        if r > best:
            best = r
    return best
