"""Scalar tower and univariate polynomial utilities.

Two kinds of scalars flow through the package:

* exact rationals — ``fractions.Fraction`` (aliased ``Rational``), used
  whenever a computation can stay exact;
* ``AppComplex`` — arbitrary-precision complex numbers tagged with an
  explicit bit precision, used once roots or d-th roots force us off the
  rationals.

Mixed arithmetic promotes to ``AppComplex`` at the larger of the two
precisions.  All values are immutable.

An approximate scalar has one form inside the package: the raw libmp
(real, imag) pair that ``AppComplex`` stores as ``parts`` and the kernels
below take and return.  mpmath's objects exist only at the public edges
(``AppComplex.real`` and ``.imag``, built on demand, ``from_mpc`` and
``to_mpc``); ``mpc`` and ``workprec`` appear only in those converters and
``_raw_mpf``'s fallback for other number types.

Rounding contract: an ``AppComplex`` operation whose operands carry
``bits`` (the larger tag; ints and Fractions take the other operand's tag
and are first rounded to nearest at it) computes at ``bits + GUARD_BITS``
and rounds each part to nearest at ``bits``.  Negation and conjugation are
exact.  ``abs`` and ``**`` run mpmath's libmp ``mpc_abs`` and
``mpc_pow_int``; ``abs`` returns the result at ``bits + GUARD_BITS``
without the second rounding.

``+ - * /``, the rounding of int, Fraction and mpf operands (``_raw_mpf``),
the root finder's libmp steps (the monic coefficients of ``_aberth`` and
the residual certificate of ``univariate_roots`` with its evaluation
``_horner``, a loop of ``_cmul`` and ``_cadd``), ``linalg``'s complex
eliminations (echelon form, rank, kernel, determinant, least squares) and
the approximate lift of ``apolarity._subspace_lift`` run this module's
raw-tuple kernels (``_cadd``, ``_csub``, ``_cmul``, ``_cdiv``, ``_pos``,
``_quo``), each of which rounds by ``_sum``.  They reproduce libmp's
round-to-nearest ``mpc_add``, ``mpc_sub``, ``mpc_mul``, ``mpc_div``,
``mpf_pos`` and ``mpf_div`` bit for bit: the same exact products, the same
sticky bit in division, the same ``prec + 10`` round-down intermediates in
complex division, and the same shortcut in addition, which for operands
far apart perturbs the larger one instead of rounding the exact sum (not
always correctly rounded).  Only the call layers and libmp's log-based bit
counts are gone; inf and nan parts go to libmp itself.

The approximate algebra of ``poly`` (powers of linear forms, contraction,
evaluation, sums and scalings of forms), of ``UniPoly``, ``linalg.dot``,
``apolarity.catalecticant``, the normalization of ``apolarity.ProjPoint``
and ``decompose._proportional_linear`` runs on raw values: an int or
Fraction as it is, an approximate scalar as a (parts, bits) tuple
(``_unbox``).  ``_mul``, ``_add``, ``_sub``, ``_div``, ``_neg`` and ``_pow``
hold the rounding contract above, and ``AppComplex``'s arithmetic operators
are thin wrappers over them, so one copy of the rules serves both and a
loop on raw values boxes each result once (``_box``) with the operators'
bits.

Root finding runs at the working precision.  Exact input is split into
squarefree factors first, and ``_certified_squarefree`` settles the common
case, a squarefree p, modulo a prime before any rational gcd.  Every
factor that is not an exact linear one runs ``_aberth`` (Bini, Numer.
Algorithms 13, 1996), and its roots go straight to the residual
certificate.  ``_aberth``'s sweeps are the one loop off libmp's rounding:
they run on pairs of Python ints at a scale sized so that every root keeps
the working precision, and stop only once every step is at rounding level,
so no refinement follows; the certificate guards each returned root.

Every tolerance and scale of the pipeline is a libmp product at
THRESHOLD_BITS, mpmath's default precision (``_threshold``), so no decision
follows the caller's ``mpmath.mp.prec``.

Magnitude tests are settled by exponents where they can be.  A finite
nonzero raw mpf x = man * 2**exp with bc mantissa bits has top(x) = exp +
bc and lies in [2**(top-1), 2**top); for a pair z with T the largest top
of its nonzero parts, |z| lies in [2**(T-1), 2**(T+1/2)).  So for t >= 0
with top tt, |z| > t when T >= tt + 1 and |z| <= t when T <= tt - 2
(``_abs_exceeds``; zero has top -inf).  Both bounds are powers of two and
libmp's ``mpc_abs`` rounds monotonically (the square sum rounded down at
prec + 4, then its square root), so a decided test reads exactly as the
rounded hypot would; only an undecided one, or one with an inf or nan
part, takes the hypot.  ``scalar_is_zero``, ``max_abs_of``, the residual
certificate of ``univariate_roots``, ``linalg``'s scales and pivots and
``apolarity``'s point and root separations decide this way; ``_aberth``
sizes its scale from the same tops.  ``verify`` screens its residual
maximum and its forbidden-set comparisons by the same rule on tops it
computes itself, and takes the hypots that remain from libmp; it uses
none of these helpers.
"""

from __future__ import annotations

import mpmath
from math import isqrt, lcm
from fractions import Fraction
from mpmath import mpf, mpc, workprec
from mpmath.libmp import (fhalf, fone, from_int, from_man_exp, from_rational,
                          fzero, mpc_abs, mpc_add, mpc_div, mpc_exp, mpc_mul,
                          mpc_mul_mpf, mpc_pow_int, mpc_sub, mpf_add, mpf_div,
                          mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int,
                          mpf_neg, mpf_pi, mpf_pow, mpf_pow_int, mpf_shift,
                          round_nearest)

from .errors import ConsistencyError, InvalidInputError

Rational = Fraction

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64

#: extra working bits used inside iterative kernels before rounding back
GUARD_BITS = 32

_RND = round_nearest
_CZERO = (fzero, fzero)
_CONE = (fone, fzero)
_new = object.__new__

_tolerances = {}


def tolerance(precision_bits: int):
    """Residual acceptance threshold 2**(-precision_bits/2) as an mpf."""
    tol = _tolerances.get(precision_bits)
    if tol is None:
        tol = _tolerances[precision_bits] = _make_mpf(
            mpf_shift(fone, -(precision_bits // 2)))
    return tol


def _make_mpf(v):
    x = _new(mpf)
    x._mpf_ = v
    return x


def _raw_mpf(x, bits):
    """x rounded to nearest at ``bits``, as a raw libmp tuple; Fractions
    round numerator and denominator first, as ``mpf(p) / mpf(q)`` does.
    Ints, Fractions and mpfs run on the kernels below: libmp's
    ``mpf_pos(from_int(x))`` and ``mpf_div``, bit for bit; an integral
    value takes no quotient, which would only normalize it again."""
    if isinstance(x, (int, Fraction)):
        p, q = x.numerator, x.denominator
        num = _sum(int(p < 0), abs(p), 0, 0, 0, 0, bits)
        if q == 1:
            return num
        sign, man, exp, _ = num
        _, qman, qexp, qbc = _sum(0, q, 0, 0, 0, 0, bits)
        return _quo(sign, man, exp, qman, qexp, qbc, bits)
    if type(x) is mpf:
        return _pos(x._mpf_, bits)
    with workprec(bits):
        return mpf(x)._mpf_


def _raw_pair(x, bits):
    """A scalar as a raw pair: an AppComplex's parts as stored, any other
    scalar rounded by ``_raw_mpf`` (``mpc(x)`` under ``workprec(bits)``)."""
    return x.parts if isinstance(x, AppComplex) else (_raw_mpf(x, bits), fzero)


def _check_precision(precision_bits):
    if precision_bits < MIN_PRECISION_BITS:
        raise InvalidInputError(
            f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}")


# ---------------------------------------------------------------------------
# raw-tuple kernels: libmp's algorithms on (sign, man, exp, bc) tuples, with
# int.bit_length for bit counts.  Each returns the tuple libmp returns.


def _sum(ssign, sman, sexp, tsign, tman, texp, prec, down=False):
    """libmp's ``mpf_add`` of two finite values (man 0 for zero), rounded
    at ``prec`` to nearest (ties to even), or toward zero if ``down``.

    Like libmp, when the exponents differ by more than 100 and the smaller
    operand lies more than prec + 4 bits below the larger, the larger one
    is only nudged by one unit prec + 4 bits down before rounding, which
    is not always the correctly rounded sum.  With tman 0 this is libmp's
    ``normalize`` of s: the rounding, with trailing zero bits stripped.
    """
    if not tman:
        sign, man, exp = ssign, sman, sexp
    elif not sman:
        sign, man, exp = tsign, tman, texp
    else:
        offset = sexp - texp
        if offset >= 0:
            if offset > 100 and (sman.bit_length() + offset
                                 - tman.bit_length() > prec + 4):
                tman = 1
                offset = prec + 4
            sman <<= offset
            exp = sexp - offset
        else:
            if offset < -100 and (tman.bit_length() - offset
                                  - sman.bit_length() > prec + 4):
                sman = 1
                offset = -prec - 4
            tman <<= -offset
            exp = texp + offset
        if ssign == tsign:
            sign, man = ssign, sman + tman
        else:
            man = sman - tman
            sign = ssign
            if man < 0:
                sign, man = tsign, -man
    if not man:
        return fzero
    n = man.bit_length() - prec
    if n > 0:
        if down:
            man >>= n
        else:
            t = man >> (n - 1)
            # up on more than half a unit, or on half a unit with t >> 1 odd
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
        exp += n
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man >>= z
        exp += z
    return sign, man, exp, man.bit_length()


def _quo(sign, sman, sexp, tman, texp, tbc, prec):
    """libmp's ``mpf_div`` at round_nearest of a finite value by a finite
    one whose mantissa has ``tbc`` bits: a quotient with at least prec + 5
    bits and a sticky bit for a nonzero remainder, then rounded by
    ``_sum``."""
    if not tman:
        raise ZeroDivisionError
    if tman == 1 or not sman:
        return _sum(sign, sman, sexp - texp, 0, 0, 0, prec)
    extra = max(prec - sman.bit_length() + tbc + 5, 5)
    man, rem = divmod(sman << extra, tman)
    if rem:
        man = (man << 1) + 1
        extra += 1
    return _sum(sign, man, sexp - texp - extra, 0, 0, 0, prec)


def _pos(x, prec):
    """libmp's ``mpf_pos`` at round_nearest: x rounded at ``prec``."""
    sign, man, exp, bc = x
    if not man or bc <= prec:
        return x
    return _sum(sign, man, exp, 0, 0, 0, prec)


def _cpos(z, prec):
    """libmp's ``mpc_pos`` at round_nearest, as ``mpc(z)`` under workprec."""
    return _pos(z[0], prec), _pos(z[1], prec)


def _cneg(z, prec):
    """libmp's ``mpc_neg`` at round_nearest."""
    return mpf_neg(z[0], prec, _RND), mpf_neg(z[1], prec, _RND)


def _cadd(z, w, prec):
    """libmp's ``mpc_add`` at round_nearest."""
    (asg, am, ae, _), (bsg, bm, be, _) = z
    (csg, cm, ce, _), (dsg, dm, de, _) = w
    if not (am and bm and cm and dm) and (not am and ae or not bm and be
                                          or not cm and ce or not dm and de):
        return mpc_add(z, w, prec, _RND)
    return (_sum(asg, am, ae, csg, cm, ce, prec),
            _sum(bsg, bm, be, dsg, dm, de, prec))


def _csub(z, w, prec):
    """libmp's ``mpc_sub`` at round_nearest."""
    (asg, am, ae, _), (bsg, bm, be, _) = z
    (csg, cm, ce, _), (dsg, dm, de, _) = w
    if not (am and bm and cm and dm) and (not am and ae or not bm and be
                                          or not cm and ce or not dm and de):
        return mpc_sub(z, w, prec, _RND)
    return (_sum(asg, am, ae, 1 ^ csg, cm, ce, prec),
            _sum(bsg, bm, be, 1 ^ dsg, dm, de, prec))


def _cmul(z, w, prec):
    """libmp's ``mpc_mul`` at round_nearest: (ac - bd) + (ad + bc)i from
    exact products, each part rounded once."""
    (asg, am, ae, _), (bsg, bm, be, _) = z
    (csg, cm, ce, _), (dsg, dm, de, _) = w
    if not (am and bm and cm and dm) and (not am and ae or not bm and be
                                          or not cm and ce or not dm and de):
        return mpc_mul(z, w, prec, _RND)
    return (_sum(asg ^ csg, am * cm, ae + ce, 1 ^ bsg ^ dsg, bm * dm, be + de,
                 prec),
            _sum(asg ^ dsg, am * dm, ae + de, bsg ^ csg, bm * cm, be + ce,
                 prec))


def _cdiv(z, w, prec):
    """libmp's ``mpc_div`` at round_nearest: (ac + bd) / m + (bc - ad) / m i
    with m = c^2 + d^2, each of m and the numerators rounded down at
    prec + 10 first."""
    (asg, am, ae, _), (bsg, bm, be, _) = z
    (csg, cm, ce, _), (dsg, dm, de, _) = w
    if not (am and bm and cm and dm) and (not am and ae or not bm and be
                                          or not cm and ce or not dm and de):
        return mpc_div(z, w, prec, _RND)
    wp = prec + 10
    _, mm, me, mbc = _sum(0, cm * cm, ce + ce, 0, dm * dm, de + de, wp, True)
    tsg, tm, te, _ = _sum(asg ^ csg, am * cm, ae + ce, bsg ^ dsg, bm * dm,
                          be + de, wp, True)
    usg, um, ue, _ = _sum(bsg ^ csg, bm * cm, be + ce, 1 ^ asg ^ dsg, am * dm,
                          ae + de, wp, True)
    return (_quo(tsg, tm, te, mm, me, mbc, prec),
            _quo(usg, um, ue, mm, me, mbc, prec))


#: the top of zero: below every finite top, and -inf - 1 is still -inf
_ZERO_TOP = float("-inf")


def _top(x):
    """exp + bc of a raw mpf, so that 2**(top-1) <= |x| < 2**top when x is
    finite and nonzero; -inf for zero, None for inf or nan."""
    _, man, exp, bc = x
    if man:
        return exp + bc
    return None if exp else _ZERO_TOP


def _ctop(z):
    """The larger ``_top`` of the parts of a raw pair, so that
    2**(top-1) <= |z| < 2**(top+1/2); -inf for zero, None when a part is
    inf or nan."""
    (_, ma, ea, ba), (_, mb, eb, bb) = z
    if ma:
        ta = ea + ba
    elif ea:
        return None
    else:
        ta = _ZERO_TOP
    if mb:
        tb = eb + bb
        return tb if tb > ta else ta
    return None if eb else ta


def _abs_exceeds(z, t):
    """Whether |z| > t for a raw pair z and a raw mpf t >= 0, from the tops
    alone: True when top(z) >= top(t) + 1, False when top(z) <= top(t) - 2
    or z is zero, None when the exponents leave it open or a value is not
    finite.  A decided answer is ``mpf_gt(mpc_abs(z, prec), t)`` at every
    prec."""
    tz = _ctop(z)
    tt = _top(t)
    if tz is None or tt is None or t[0]:
        return None
    if tz > tt:
        return True
    if tz < tt - 1 or tz == _ZERO_TOP:
        return False
    return None


def _abs_gt(z, t, prec):
    """``mpf_gt(mpc_abs(z, prec), t)`` for t >= 0, the hypot taken only when
    ``_abs_exceeds`` leaves it open."""
    above = _abs_exceeds(z, t)
    if above is None:
        return mpf_gt(mpc_abs(z, prec, _RND), t)
    return above


def _abs_le(z, t, prec):
    """``mpf_le(mpc_abs(z, prec), t)`` for t >= 0, the hypot taken only when
    ``_abs_exceeds`` leaves it open (inf and nan compare as libmp does)."""
    above = _abs_exceeds(z, t)
    if above is None:
        return mpf_le(mpc_abs(z, prec, _RND), t)
    return not above


class AppComplex:
    """Arbitrary-precision complex scalar with an explicit precision tag.

    Arithmetic between two ``AppComplex`` values is carried out at the
    maximum of their precisions; ints and ``Fraction`` promote to the
    precision of the other operand.  The value is stored as ``parts``, a
    raw libmp (real, imag) pair; ``real`` and ``imag`` are mpfs built from
    it on demand.
    """

    __slots__ = ("parts", "precision_bits")

    def __init__(self, real=0, imag=0, precision_bits=DEFAULT_PRECISION_BITS):
        _check_precision(precision_bits)
        bits = int(precision_bits)
        _set_parts(self, (_raw_mpf(real, bits), _raw_mpf(imag, bits)))
        _set_bits(self, bits)

    def __setattr__(self, name, value):
        raise AttributeError("AppComplex is immutable")

    real = property(lambda self: _make_mpf(self.parts[0]))
    imag = property(lambda self: _make_mpf(self.parts[1]))

    @classmethod
    def from_raw(cls, parts, precision_bits):
        """From a raw libmp (real, imag) pair, each part rounded to nearest
        at ``precision_bits``."""
        _check_precision(precision_bits)
        bits = int(precision_bits)
        return _wrap(_cpos(parts, bits), bits)

    @classmethod
    def from_mpc(cls, z, precision_bits):
        if isinstance(z, mpc):
            return cls.from_raw(z._mpc_, precision_bits)
        _check_precision(precision_bits)
        # constructors round to the ambient precision, so pin it first
        with workprec(precision_bits):
            z = mpc(z)
        return cls(z.real, z.imag, precision_bits)

    def to_mpc(self):
        z = _new(mpc)
        z._mpc_ = self.parts
        return z

    def __complex__(self):
        return complex(self.real, self.imag)

    def _binop(self, other, op, reflected=False):
        """self op other (other op self if ``reflected``) by the raw-value
        helper ``op``, which holds the operator's rules."""
        if not isinstance(other, (AppComplex, int, Fraction)):
            return NotImplemented
        x, y = (self.parts, self.precision_bits), _unbox(other)
        parts, bits = op(y, x) if reflected else op(x, y)
        return _wrap(parts, bits)

    def __add__(self, other):
        return self._binop(other, _add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, _sub)

    def __rsub__(self, other):
        return self._binop(other, _sub, True)

    def __mul__(self, other):
        return self._binop(other, _mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, _div)

    def __rtruediv__(self, other):
        return self._binop(other, _div, True)

    def __neg__(self):
        return _box(_neg((self.parts, self.precision_bits)))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return _box(_pow((self.parts, self.precision_bits), e))

    def conjugate(self):
        re, im = self.parts
        return _wrap((re, mpf_neg(im, self.precision_bits, _RND)),
                     self.precision_bits)

    def __abs__(self):
        return _make_mpf(mpc_abs(self.parts, self.precision_bits + GUARD_BITS,
                                 _RND))

    def __repr__(self):
        return (f"AppComplex({mpmath.nstr(self.real, 12)}, "
                f"{mpmath.nstr(self.imag, 12)}, bits={self.precision_bits})")


# the slots' own setters, which bypass the immutability guard
_set_parts = AppComplex.parts.__set__
_set_bits = AppComplex.precision_bits.__set__


def _wrap(parts, bits):
    """An AppComplex from a raw pair already rounded at ``bits``."""
    z = _new(AppComplex)
    _set_parts(z, parts)
    _set_bits(z, bits)
    return z


# ---------------------------------------------------------------------------
# raw values: the arithmetic of AppComplex's operators, which call these
# helpers, on unboxed scalars.  A raw value is an int or a Fraction, or an
# approximate scalar as a (parts, bits) tuple.


def _unbox(x):
    """x as a raw value: an AppComplex as (parts, precision_bits), any other
    scalar as it is."""
    return (x.parts, x.precision_bits) if type(x) is AppComplex else x


def _box(v):
    """A raw value as a scalar: a (parts, bits) tuple as an AppComplex."""
    return _wrap(v[0], v[1]) if type(v) is tuple else v


def _operands(x, y):
    """(z, w, bits) for raw values x and y, at least one a tuple: their raw
    pairs in order and the precision of the result: the larger of two
    precisions, or a tuple's own against an int or Fraction, which
    ``_raw_mpf`` rounds once at it."""
    if type(x) is not tuple:
        return (_raw_mpf(x, y[1]), fzero), y[0], y[1]
    if type(y) is not tuple:
        return x[0], (_raw_mpf(y, x[1]), fzero), x[1]
    return x[0], y[0], x[1] if x[1] >= y[1] else y[1]


def _mul(x, y):
    """x * y on raw values: exact operands multiply exactly; otherwise
    ``_cmul`` at bits + GUARD_BITS with the approximate operand first, then
    ``_cpos`` to bits."""
    if type(x) is not tuple:
        if type(y) is not tuple:
            return x * y
        x, y = y, x
    z, w, bits = _operands(x, y)
    return _cpos(_cmul(z, w, bits + GUARD_BITS), bits), bits


def _add(x, y):
    """x + y on raw values, as ``_mul`` multiplies them, by ``_cadd``."""
    if type(x) is not tuple:
        if type(y) is not tuple:
            return x + y
        x, y = y, x
    z, w, bits = _operands(x, y)
    return _cpos(_cadd(z, w, bits + GUARD_BITS), bits), bits


def _sub(x, y):
    """x - y on raw values by ``_csub``, the operands in their own order."""
    if type(x) is not tuple and type(y) is not tuple:
        return x - y
    z, w, bits = _operands(x, y)
    return _cpos(_csub(z, w, bits + GUARD_BITS), bits), bits


def _div(x, y):
    """x / y on raw values by ``_cdiv``, the operands in their own order."""
    if type(x) is not tuple and type(y) is not tuple:
        return x / y
    z, w, bits = _operands(x, y)
    return _cpos(_cdiv(z, w, bits + GUARD_BITS), bits), bits


def _neg(x):
    """-x on a raw value, exact."""
    if type(x) is not tuple:
        return -x
    return _cneg(x[0], x[1]), x[1]


def _pow(x, e):
    """x ** e on a raw value for an int e >= 0: ``mpc_pow_int`` at bits +
    GUARD_BITS, then ``_cpos`` to bits."""
    if type(x) is not tuple:
        return x ** e
    z, bits = x
    return _cpos(mpc_pow_int(z, e, bits + GUARD_BITS, _RND), bits), bits


# ---------------------------------------------------------------------------
# generic scalar helpers


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def scalar_is_zero(x, tol=fzero) -> bool:
    """Exact zero test for rationals; |x| <= tol for an AppComplex, tol a
    raw mpf (or a scalar that ``_raw_real`` takes), decided by exponents
    where they can (``_abs_le``)."""
    if is_exact_scalar(x):
        return x == 0
    return _abs_le(x.parts, _raw_real(tol), x.precision_bits + GUARD_BITS)


def max_abs_of(values):
    """max |v| over mixed rational/approximate scalars.

    Returns a Fraction when every value is exact, otherwise an mpf
    (rationals are rounded to 64 bits; only used for thresholds).  Only
    the ``_abs_max_candidates`` take a hypot.
    """
    exact = []
    approx = []
    for v in values:
        if is_exact_scalar(v):
            exact.append(abs(Fraction(v)))
        else:
            approx.append(v)
    if not approx:
        return max(exact, default=Fraction(0))
    m = max(abs(approx[i]) for i in _abs_max_candidates(approx))
    for e in exact:
        fe = _make_mpf(_raw_mpf(e, 64))
        if fe > m:
            m = fe
    return m


def _abs_max_candidates(values):
    """The indices, in order, of the nonempty ``values`` whose modulus can
    be the largest.  When every value is a finite AppComplex these are the
    ones whose top is at least the largest top minus one: any other is
    below 2**(top+1) after rounding, which the value of largest top is not
    below.  Otherwise every index, so that a max over the hypots of the
    candidates returns what one over all of them does, nan included."""
    tops = [_ctop(v.parts) if type(v) is AppComplex
            else None for v in values]
    if None in tops:
        return range(len(values))
    floor = max(tops) - 1
    return [i for i, t in enumerate(tops) if t >= floor]


def values_precision(values, default=DEFAULT_PRECISION_BITS) -> int:
    """Smallest precision tag among the approximate values, else the default."""
    bits = [v.precision_bits for v in values if isinstance(v, AppComplex)]
    return min(bits) if bits else default


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly:
    """Dense univariate polynomial; ``coeffs[k]`` is the coefficient of t^k.

    Coefficients are Fractions or AppComplex.  Trailing zero coefficients
    are trimmed exactly for rational input (approximate coefficients are
    kept as given, so the stated degree of an approximate polynomial is the
    caller's responsibility).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while coeffs and is_exact_scalar(coeffs[-1]) and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        """The sum on raw values; a coefficient missing from one side is
        the other's as it is, which adding Fraction(0) leaves unchanged."""
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        out = [_box(_add(_unbox(x), _unbox(y))) for x, y in zip(a, b)]
        out.extend(a[n:] or b[n:])
        return UniPoly(out)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product on raw values, each sum started from its first term,
        which adding it to Fraction(0) would leave unchanged."""
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        bs = [_unbox(b) for b in other.coeffs]
        out = [None] * (len(self.coeffs) + len(bs) - 1)
        for i, a in enumerate(self.coeffs):
            a = _unbox(a)
            for j, b in enumerate(bs, i):
                t = _mul(a, b)
                s = out[j]
                out[j] = t if s is None else _add(s, t)
        return UniPoly([_box(v) for v in out])

    def scale(self, c):
        c = _unbox(c)
        return UniPoly([_box(_mul(c, _unbox(a))) for a in self.coeffs])

    def derivative(self):
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation, ``acc * x + c`` on raw values; accepts any
        scalar the coefficients mix with."""
        acc = None
        x = _unbox(x)
        for c in reversed(self.coeffs):
            c = _unbox(c)
            acc = c if acc is None else _add(_mul(acc, x), c)
        if acc is None:
            return Fraction(0)
        return _box(acc)

    def max_abs(self):
        if self.is_zero():
            return Fraction(0)
        return max_abs_of(self.coeffs)

    def divmod(self, other):
        """Exact rational division with remainder; rational input only."""
        if not (self.is_exact() and other.is_exact()):
            raise InvalidInputError("polynomial divmod requires rational coefficients")
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.coeffs[-1]
        dn = other.degree
        while len(rem) - 1 >= dn and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dn:
                break
            k = len(rem) - 1 - dn
            q = rem[-1] / dlead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
        return UniPoly(quo), UniPoly(rem)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over the rationals by the Euclidean algorithm."""
    a, b = p, q
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return a.scale(Fraction(1) / lead)


#: the prime of the squarefree certificate, 2**61 - 1
_CERT_PRIME = (1 << 61) - 1


def _integer_rows(polys):
    """(rows, L): rational UniPolys as int lists over their one least
    common denominator L, so that u.coeffs[k] == row[k] / L."""
    den = lcm(*(c.denominator for u in polys for c in u.coeffs))
    return [[c.numerator * (den // c.denominator) for c in u.coeffs]
            for u in polys], den


def _rem_mod(a, b, m):
    """The remainder of a by b modulo the prime m, on int lists lowest
    term first with entries in [0, m), b's leading entry nonzero."""
    a = list(a)
    inv = pow(b[-1], -1, m)
    top = len(b) - 1
    body = b[:-1]
    while len(a) > top:
        q = a.pop() * inv % m
        if q:
            k = len(a) - top
            for i, c in enumerate(body, k):
                a[i] = (a[i] - q * c) % m
        while a and not a[-1]:
            a.pop()
    return a


def _certified_squarefree(p: UniPoly) -> bool:
    """Whether gcd(p, p') is a constant modulo ``_CERT_PRIME``, which
    proves a rational p squarefree; False when it is not, or when the prime
    divides the leading coefficient of p with its denominators cleared.

    Why it is sound: a rational gcd G of p and p' can be taken primitive in
    Z[x], where it divides the integer multiples of both (Gauss), so its
    leading coefficient divides p's; with the prime not dividing that, G
    keeps its degree modulo the prime and divides both images there."""
    m = _CERT_PRIME
    (ints,), _ = _integer_rows([p])
    if ints[-1] % m == 0:
        return False
    a = [c % m for c in ints]
    b = [k * c % m for k, c in enumerate(a)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, _rem_mod(a, b, m)
    return len(a) == 1


def squarefree_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'), normalized monic: same roots, all simple.

    The product of the factors of ``squarefree_decomposition``: each is
    monic, so their product is the one monic squarefree part, Fraction for
    Fraction, and a p certified squarefree takes no rational Euclid."""
    if p.is_zero():
        raise InvalidInputError("squarefree_part of the zero polynomial")
    if not p.is_exact():
        raise InvalidInputError("squarefree_part requires rational coefficients")
    out = UniPoly([Fraction(1)])
    for g, _ in squarefree_decomposition(p):
        out = out * g
    return out


def is_squarefree(p: UniPoly) -> bool:
    return squarefree_part(p).degree == p.degree


def squarefree_decomposition(p: UniPoly):
    """Yun's algorithm: [(g_i, i)] with p = lc * prod g_i^i, g_i squarefree,
    pairwise coprime, returned only for nonconstant g_i.

    A rational p that ``_certified_squarefree`` proves squarefree modulo a
    prime has gcd(p, p') = 1 with no rational Euclid, so it is [(p / lc, 1)]
    at once, which is what Yun's algorithm returns for it; only the others
    run the rational gcds."""
    if p.is_zero():
        raise InvalidInputError("squarefree decomposition of the zero polynomial")
    out = []
    g = (UniPoly([Fraction(1)]) if p.is_exact() and _certified_squarefree(p)
         else poly_gcd(p, p.derivative()))
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


# ---------------------------------------------------------------------------
# root finding


def _horner(coeffs, x, prec):
    """p(x) on raw pairs, as ``acc * x + c`` by ``_cmul`` and ``_cadd`` from
    the leading coefficient rounded at ``prec``; ``coeffs`` is a nonempty
    list of raw pairs, lowest degree first."""
    acc = _cpos(coeffs[-1], prec)
    for c in coeffs[-2::-1]:
        acc = _cadd(_cmul(acc, x, prec), c, prec)
    return acc


#: guard bits of ``_aberth``'s fixed-point scale above work_bits and the
#: bits by which the lower root bound falls below one
ABERTH_GUARD_BITS = 8


def _fixed(x, scale):
    """A finite raw mpf x as the int x * 2**scale truncated toward zero."""
    sign, man, exp, _ = x
    e = exp + scale
    v = man << e if e >= 0 else man >> -e
    return -v if sign else v


def _fixed_horner(lead, first, rest, x, y, scale):
    """p(x + iy) on fixed-point pairs at 2**-scale: ``lead * z + first``,
    then ``acc * z + c`` for each c of ``rest``, each product truncated
    toward minus infinity; ``lead`` is an int, so its product is exact."""
    ar, ai = lead * x + first[0], lead * y + first[1]
    for cr, ci in rest:
        ar, ai = (((ar * x - ai * y) >> scale) + cr,
                  ((ar * y + ai * x) >> scale) + ci)
    return ar, ai


def _within_stop(sr, si, x, y, scale, work_bits):
    """Whether a step s = sr + i si to z = x + i y, both fixed-point at
    2**-scale, meets ``_aberth``'s stop rule |s| <= 2**(8 - work_bits) *
    (1 + |z|), decided exactly: with one = 2**scale, |s| 2**(work_bits - 8)
    <= one + |z| squared, then t = |s|^2 4**(work_bits - 8) - one^2 -
    |z|^2 <= 2 one |z| squared once more when t > 0."""
    zz = x * x + y * y
    t = (((sr * sr + si * si) << (2 * (work_bits - 8)))
         - (1 << (2 * scale)) - zz)
    return t <= 0 or t * t <= zz << (2 * scale + 2)


def _aberth(coeffs, work_bits, max_iters=400):
    """Aberth–Ehrlich simultaneous iteration (Bini, Numer. Algorithms 13,
    1996).

    ``coeffs`` is a list of finite raw pairs, ascending, with nonzero
    leading and constant terms.  Deterministic: fixed initial points on a
    circle with an angular offset.  Returns deg(p) approximations as raw
    pairs, each part rounded to nearest at ``work_bits``.

    The monic coefficients (``_cdiv``) and the start circle (``mpf_pow``,
    ``mpf_pi``, ``mpc_exp``) are libmp's at ``work_bits``.  The sweeps run
    on pairs of Python ints at one scale 2**-W, W = work_bits +
    ABERTH_GUARD_BITS + the bits by which the smaller of the start radius
    and Cauchy's lower root bound |a0| / (|a0| + max|a_i|) falls below one,
    so every root carries at least work_bits bits of its own.  Products
    and quotients are truncated toward minus infinity, sums are exact.

    Each root z_k takes Aberth's step newt / (1 - newt * s), newt = p(z_k)
    / p'(z_k) and s the sum of 1 / (z_k - z_j) over the other roots,
    written as p / (p' - p * s) with one quotient; a zero denominator
    takes the Newton step newt, and a zero difference z_k - z_j stands in
    as 2**-work_bits.  A sweep ends the iteration only if no root was
    nudged off a critical point and every root's step meets the stop rule
    |step| <= 2**(8 - work_bits) * (1 + |z_k|), decided exactly on the
    integers (``_within_stop``).  Once one root fails, the sweep's verdict
    is fixed and the later roots take their update without the test.
    """
    n = len(coeffs) - 1
    wb = work_bits
    cs = [_cpos(c, wb) for c in coeffs]
    lead = cs[-1]
    monic = [_cdiv(c, lead, wb) for c in cs]

    # initial guesses: circle of radius |a0/an|^(1/n), offset angles
    r = mpf_pow(mpc_abs(monic[0], wb, _RND),
                mpf_div(fone, from_int(n), wb, _RND), wb, _RND)
    if r == fzero or mpf_lt(r, mpf_shift(fone, -wb // 2)):
        r = fhalf
    two_pi = mpf_mul_int(mpf_pi(wb, _RND), 2, wb, _RND)
    start = [mpc_mul_mpf(mpc_exp((fzero, mpf_add(
        mpf_div(mpf_mul_int(two_pi, k, wb, _RND), from_int(n), wb, _RND),
        fhalf, wb, _RND)), wb, _RND), r, wb, _RND) for k in range(n)]

    # |a0| >= 2**(t0 - 1) and |a0| + max|a_i| < 2**(max top + 2), so the
    # Cauchy bound is at least 2**-(max top - t0 + 3); r >= 2**(top(r) - 1)
    t0 = _ctop(monic[0])
    below = max(max(map(_ctop, monic[1:])) - t0 + 3, 1 - _top(r), 0)
    scale = wb + ABERTH_GUARD_BITS + below
    one = 1 << scale
    # p = z^n + m[n-1] z^(n-1) + ... and p' = n z^(n-1) + dm[n-2] z^(n-2)
    # + ..., each as its leading int and its other coefficients descending
    m = [(_fixed(re, scale), _fixed(im, scale)) for re, im in monic[:-1]]
    dm = [(k * a, k * b) for k, (a, b) in enumerate(m[1:], 1)]
    pfirst, prest = m[-1], m[-2::-1]
    dfirst, drest = (dm[-1], dm[-2::-1]) if dm else (None, None)
    z = [(_fixed(re, scale), _fixed(im, scale)) for re, im in start]

    tiny = 1 << (scale - wb)
    nudge = -(-wb // 4)
    inv_shift = 2 * scale
    for _ in range(max_iters):
        settled = True
        for k in range(n):
            x, y = z[k]
            pr, pi = _fixed_horner(1, pfirst, prest, x, y, scale)
            if not (pr or pi):
                continue
            if dm:
                dr, di = _fixed_horner(n, dfirst, drest, x, y, scale)
            else:
                dr, di = one, 0
            if not (dr or di):
                # nudge deterministically off a critical point
                z[k] = x + ((isqrt(x * x + y * y) + one) >> nudge), y
                settled = False
                continue
            sr = si = 0
            for j in range(n):
                if j != k:
                    ur, ui = z[j]
                    ur = x - ur
                    ui = y - ui
                    if not (ur or ui):
                        ur = tiny
                    q = ur * ur + ui * ui
                    sr += (ur << inv_shift) // q
                    si += (-ui << inv_shift) // q
            # newt / (1 - newt * s) with newt = p / p', as p / (p' - p * s);
            # a zero denominator takes the Newton step p / p'
            er = dr - ((pr * sr - pi * si) >> scale)
            ei = di - ((pr * si + pi * sr) >> scale)
            if not (er or ei):
                er, ei = dr, di
            q = er * er + ei * ei
            nr = ((pr * er + pi * ei) << scale) // q
            ni = ((pi * er - pr * ei) << scale) // q
            x -= nr
            y -= ni
            z[k] = x, y
            if settled and not _within_stop(nr, ni, x, y, scale, wb):
                settled = False
        if settled:
            break
    return [(from_man_exp(x, -scale, wb, _RND),
             from_man_exp(y, -scale, wb, _RND)) for x, y in z]


#: the precision of a threshold: mpmath's default, fixed, so that no result
#: follows the caller's ``mpmath.mp.prec``
THRESHOLD_BITS = 53


def _threshold(t, x):
    """``t * x`` as the mpf operators give it at mpmath's default precision
    whatever the ambient one: a raw mpf rounded to nearest at
    THRESHOLD_BITS, each operand taken by ``_raw_real``."""
    return mpf_mul(_raw_real(t), _raw_real(x), THRESHOLD_BITS, _RND)


def _threshold_pow(x, e):
    """``x ** e`` for an int e >= 0 as the operators give it at
    THRESHOLD_BITS: exactly for a rational x, else a raw mpf rounded to
    nearest."""
    if isinstance(x, (int, Fraction)):
        return x ** e
    return mpf_pow_int(_raw_real(x), e, THRESHOLD_BITS, _RND)


def _at_least_one(x):
    """``max(mpf(1), mpf(1) * x)`` at THRESHOLD_BITS, as a raw mpf."""
    s = _threshold(fone, x)
    return s if mpf_gt(s, fone) else fone


def _raw_real(x):
    """A real scalar as a raw mpf as the mpf operators take it at mpmath's
    default precision: a raw mpf or an mpf as it is, an int exactly, a
    Fraction rounded down at THRESHOLD_BITS."""
    if type(x) is tuple:
        return x
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, Fraction):
        return from_rational(x.numerator, x.denominator, THRESHOLD_BITS)
    return x._mpf_


def univariate_roots(p: UniPoly, precision_bits: int = DEFAULT_PRECISION_BITS):
    """All deg(p) complex roots, with multiplicity, as AppComplex.

    One loop runs over (factor, multiplicity) pairs: the squarefree
    factors of rational input, so each Aberth run only ever sees simple
    roots, or the input itself once when it is approximate.  Each root is
    repeated by its factor's multiplicity.  An exact linear factor is
    solved in closed form; every other factor runs Aberth (``_aberth``) at
    work = precision_bits + 2 * GUARD_BITS, which stops once every step is
    at most 2**(8 - work) * (1 + |z|); its roots go straight to the
    residual certificate.  Every returned root r satisfies
    |p(r)| <= 2^(-precision_bits/2) * max|coeff| * max(1, |r|)^deg.
    A coefficient with an inf or nan part raises InvalidInputError: a nan
    residual would pass the certificate, whose comparisons it fails.
    """
    if p.is_zero():
        raise InvalidInputError("cannot extract roots of the zero polynomial")
    if p.degree < 1:
        raise InvalidInputError("root extraction needs degree >= 1")
    if any(_ctop(c.parts) is None for c in p.coeffs
           if type(c) is AppComplex):
        raise InvalidInputError("polynomial coefficients must be finite")

    # split off roots at the origin
    nzero = 0
    coeffs = list(p.coeffs)
    tol = tolerance(precision_bits)
    scale = p.max_abs()
    tol_zero = _threshold(tol, scale)
    while coeffs and scalar_is_zero(coeffs[0], tol_zero):
        coeffs.pop(0)
        nzero += 1
    if not coeffs:
        raise InvalidInputError("polynomial is zero within the working tolerance")
    body = UniPoly(coeffs)

    roots = []
    if body.degree >= 1:
        if body.is_exact():
            factors = squarefree_decomposition(body)
        else:
            lead = _threshold(fone, abs(body.coeffs[-1]))
            # with no zero root split off, body's coefficients are p's
            limit = _threshold(tol, body.max_abs()) if nzero else tol_zero
            if mpf_le(lead, limit):
                raise InvalidInputError(
                    "leading coefficient is numerically zero; trim the degree first")
            factors = [(body, 1)]
        work = precision_bits + 2 * GUARD_BITS
        for factor, mult in factors:
            if factor.is_exact() and factor.degree == 1:
                r = -factor.coeffs[0] / factor.coeffs[1]
                roots.extend([AppComplex(r, 0, precision_bits)] * mult)
                continue
            cs = [_raw_pair(c, work) for c in factor.coeffs]
            for r in _aberth(cs, work):
                roots.extend([AppComplex.from_raw(r, precision_bits)] * mult)

    roots.extend(AppComplex(0, 0, precision_bits) for _ in range(nzero))
    if len(roots) != p.degree:
        raise ConsistencyError(
            f"found {len(roots)} roots for a degree-{p.degree} polynomial")

    # residual certificate
    cert = precision_bits + GUARD_BITS
    cs = [_raw_pair(c, cert) for c in p.coeffs]
    # tol * scale as the mpf operator takes it: a Fraction rounded down
    raw_scale = (from_rational(scale.numerator, scale.denominator, cert)
                 if isinstance(scale, Fraction) else scale._mpf_)
    tol_scale = mpf_mul(tol._mpf_, raw_scale, cert, _RND)
    for r in roots:
        z = r.parts
        acc = _horner(cs, z, cert)
        # max(mpf(1), |z|) ** deg * tol * scale, as the mpf operators round it
        size = fone
        if _abs_exceeds(z, fone) is not False:
            size = mpc_abs(z, cert, _RND)
            size = size if mpf_gt(size, fone) else fone
        bound = mpf_mul(tol_scale, mpf_pow_int(size, p.degree, cert, _RND),
                        cert, _RND)
        if _abs_gt(acc, bound, cert):
            raise ConsistencyError(
                "root residual exceeds the acceptance threshold")

    return sorted(roots, key=lambda r: (r.real, r.imag))
