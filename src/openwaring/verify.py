"""Result types, their independent certification, and catalecticant rank
lower bounds.

`check_decomposition` certifies a `Decomposition` against its target:
reconstruction, avoidance of the `ForbiddenSet`, and the term bound.  The
pipeline attaches its report to every result it returns; `openwaring verify`
recomputes it from a stored record.  The reconstruction here deliberately
does not share code with the pipeline, nor does this module import it:
powers of linear forms are expanded by repeated sparse multiplication rather
than the multinomial formula, so a bug in one expansion cannot hide in the
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf

from .apolarity import catalecticant, essential_variables
from .bounds import recursion_bound
from .errors import InvalidInputError, ParseError
from .numerics import (DEFAULT_PRECISION_BITS, is_exact_scalar, max_abs_of,
                       tolerance)
from .poly import Form, LinearForm, evaluate, parse_form, render_form


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
    constraint value is within tolerance of zero.
    """
    if l.num_vars != V.num_vars:
        raise InvalidInputError("mismatched number of variables")
    if not V.constraints:
        return False
    if tol is None:
        tol = tolerance(DEFAULT_PRECISION_BITS)
    l_scale = max_abs_of(l.coords)
    for g in V.constraints:
        val = evaluate(g, l.coords)
        if is_exact_scalar(val):
            if val == 0:
                return True
        else:
            bound = tol * g.norm1() * max(mpf(1), mpf(1) * l_scale) ** g.degree
            if abs(val) <= bound:
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
        return float(mpmath.log(self.residual, 2))


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


def _expand_power(coords, d, n):
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


def check_decomposition(f: Form, dec: Decomposition,
                        V: ForbiddenSet | None = None,
                        tol=None,
                        precision_bits=DEFAULT_PRECISION_BITS) -> VerifyReport:
    """Re-verify a decomposition: reconstruction, avoidance, term bound.

    Rational data is compared exactly; otherwise the residual is the max
    coefficient mismatch normalized by the 1-norm of f, accepted below
    ``tol`` (default 2^-(precision/2)).
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
    total = {}
    for c, l in dec.terms:
        if l.is_zero():
            raise InvalidInputError("decomposition contains a zero linear form")
        for expo, v in _expand_power(l.coords, d, n).items():
            s = total.get(expo, Fraction(0)) + c * v
            if is_exact_scalar(s) and s == 0:
                total.pop(expo, None)
            else:
                total[expo] = s

    all_exact = (f.is_exact() and dec.exact
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
        residual = Fraction(0)
        for v in deltas.values():
            if abs(v) > residual:
                residual = abs(v)
        residual = residual / scale
        residual_ok = residual == 0
    else:
        residual = mpf(0)
        for v in deltas.values():
            mag = abs(Fraction(v)) if is_exact_scalar(v) else abs(v)
            mag = mpf(1) * mag
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
