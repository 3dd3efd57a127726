"""A standing robustness sweep over the supported range: every input gives
a decomposition whose report passes, RetryBudgetError or InvalidInputError.

The range: shapes (2, 3..6), (3,3), (3,4), (4,3), (4,4), (5,3) and (5,4);
64, 128, 256 and 512 bits; dense integer coefficients of height 9, 10^6 or
10^12; 0, 1, 10 or 40 random hyperplanes, or 1-3 random quadric or cubic
constraints.  The examples are drawn deterministically, so the sweep runs
the same inputs every time, in a few seconds.  Known failures outside the
range are pinned as strict xfails that name the ROADMAP item fixing them.
No two returned terms are proportional: no step returns such a pair.  On
the nets of conics of ternary cubics, a pencil's two conics are
proportional within tolerance exactly when its integer weights are, which
is the base-point search's exact test.
"""

import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from openwaring import (AppComplex, ConsistencyError, DegenerateSystemError,
                        ForbiddenSet, Form, InvalidInputError, LinearForm,
                        RetryBudgetError, apolar_component, decompose)
from openwaring.apolarity import _combine_ops
from openwaring.decompose import _coords_scale, _proportional_linear
from openwaring.numerics import _threshold, scalar_is_zero, tolerance
from openwaring.poly import monomials_of_degree
from conftest import random_essential_form

DECOMPOSE = importlib.import_module("openwaring.decompose")
SHAPES = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (4, 4),
          (5, 3), (5, 4))
AVOID = ("0", "1", "10", "40", "quadric", "cubic")


def dense_form(rng, n, d, height):
    return Form(n, d, {e: Fraction(rng.randint(-height, height))
                       for e in monomials_of_degree(n, d)})


def forbidden_set(rng, n, avoid, count):
    """``avoid`` random hyperplanes, or ``count`` random quadrics or cubics
    (coefficients in [-9, 9]); a zero draw is left out."""
    if avoid in ("quadric", "cubic"):
        degree = 2 if avoid == "quadric" else 3
        constraints = [dense_form(rng, n, degree, 9) for _ in range(count)]
    else:
        constraints = [LinearForm([rng.randint(-9, 9) for _ in range(n)])
                       .to_form() for _ in range(int(avoid))]
    return ForbiddenSet(n, [g for g in constraints if not g.is_zero()])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(SHAPES), bits=st.sampled_from((64, 128, 256, 512)),
       height=st.sampled_from((9, 10**6, 10**12)), avoid=st.sampled_from(AVOID),
       count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_every_input_in_range_is_decomposed_or_refused(shape, bits, height,
                                                       avoid, count, seed):
    n, d = shape
    rng = random.Random(seed)
    f = dense_form(rng, n, d, height)
    V = forbidden_set(rng, n, avoid, count)
    try:
        dec = decompose(f, V, seed=rng.randrange(1 << 30), precision_bits=bits)
    except (RetryBudgetError, InvalidInputError):
        return
    assert dec.report.passed
    forms = [l for _, l in dec.terms]
    assert not any(_proportional_linear(a, b, bits, _coords_scale(a),
                                        _coords_scale(b))
                   for i, a in enumerate(forms) for b in forms[i + 1:])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bits=st.sampled_from((64, 128, 256, 512)),
       height=st.sampled_from((9, 10**6, 10**12)),
       seed=st.integers(0, 2**32 - 1))
def test_base_point_free_ternary_cubics_take_at_most_four_terms(bits, height,
                                                               seed):
    # the fit on the four points of the base-point search's pencil keeps
    # the paper's bound for a cubic whose net of conics has no base point
    rng = random.Random(seed)
    f = dense_form(rng, 3, 3, height)
    dec = decompose(f, seed=rng.randrange(1 << 30), precision_bits=bits)
    assume("ternary: base-point free" in dec.trace)
    assert dec.term_count <= 4 and dec.report.passed


WEIGHTS = st.lists(st.integers(-8, 8), min_size=3, max_size=3)
SIGNED = st.sampled_from((-2, -1, 1, 2))

#: pairs of weight vectors in [-8, 8]: drawn apart, or both multiples of
#: one vector, so that proportional pairs are drawn often
WEIGHT_PAIRS = st.one_of(
    st.tuples(WEIGHTS, WEIGHTS),
    st.builds(lambda u, a, b: ([a * x for x in u], [b * x for x in u]),
              st.lists(st.integers(-4, 4), min_size=3, max_size=3),
              SIGNED, SIGNED))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bits=st.sampled_from((64, 128, 256, 512)), approximate=st.booleans(),
       pair=WEIGHT_PAIRS, seed=st.integers(0, 2**32 - 1))
def test_a_pencils_conics_are_proportional_exactly_when_its_weights_are(
        bits, approximate, pair, seed):
    # the base-point search skips a pencil d0 = sum c0_i D_i, d1 = sum
    # c1_i D_i of the net of conics by an exact test of its integer
    # weights; on the nets of cubics, rational and approximate, that agrees
    # with a test of every 2x2 cross product of d0's and d1's coefficients
    # within tolerance(bits) * |d0|_1 * |d1|_1
    c0, c1 = ([Fraction(c) for c in cs] for cs in pair)
    assume(any(c0) and any(c1))
    f = random_essential_form(random.Random(seed), 3, 3)
    if approximate:
        f = Form(3, 3, {m: AppComplex(c / 3, 0, bits)
                        for m, c in f.coeffs.items()})
    basis = apolar_component(f, 2, bits)
    assert len(basis) == 3
    d0, d1 = _combine_ops(basis, c0), _combine_ops(basis, c1)
    tol = _threshold(_threshold(tolerance(bits), d0.norm1()), d1.norm1())
    keys = sorted(set(d0.coeffs) | set(d1.coeffs))
    within = all(scalar_is_zero(d0.coefficient(a) * d1.coefficient(b)
                                - d0.coefficient(b) * d1.coefficient(a), tol)
                 for a, b in combinations(keys, 2))
    proportional = all(x * w == y * z for (x, z), (y, w)
                       in combinations(zip(c0, c1), 2))
    assert within == proportional


def test_dense_quintic_in_five_variables_at_64_bits():
    # the first dense (5,5) form of random.Random(7) with coefficients in
    # [-9, 9] at seed 2: a coefficient fit that squares the condition
    # number of its system (normal equations) loses enough bits here to
    # raise ConsistencyError
    f = dense_form(random.Random(7), 5, 5, 9)
    dec = decompose(f, seed=2, precision_bits=64)
    assert dec.report.passed


def test_dense_quintic_whose_base_point_search_degenerates(monkeypatch):
    # a ternary cubic of the recursion whose base-point search meets a curve
    # pair sharing a component must take the perturbation path rather than
    # raise DegenerateSystemError.  The 25th dense (5,5) form of
    # random.Random(7) at seed 0 met one while the ternary fit drew a
    # second pencil; since the fit reuses the search's pencil, none of the
    # first 40 forms at seeds 0-2, the first 150 at seeds 3-5 or the 25th
    # at seeds 0-39 does, so the first search is made to raise here
    real = DECOMPOSE._base_points
    raised = []

    def degenerate_once(*args):
        if not raised:
            raised.append(args)
            raise DegenerateSystemError("curve pair shares a component")
        return real(*args)

    monkeypatch.setattr(DECOMPOSE, "_base_points", degenerate_once)
    rng = random.Random(7)
    for _ in range(25):
        f = dense_form(rng, 5, 5, 9)
    dec = decompose(f, seed=0, precision_bits=64)
    assert len(raised) == 1
    assert "ternary: base-point search degenerate; perturbing by a cube" in dec.trace
    assert dec.report.passed


@pytest.mark.xfail(strict=True, raises=ConsistencyError,
                   reason="ROADMAP item 1: a precision budget for the "
                          "recursion; the (5,5) remainder loses too many bits "
                          "at 64")
def test_dense_quintic_still_drifts_at_64_bits():
    # the fourth dense (5,5) form of random.Random(7): seed 0 raises
    # "reconstruction drifted beyond tolerance"
    rng = random.Random(7)
    for _ in range(4):
        f = dense_form(rng, 5, 5, 9)
    dec = decompose(f, seed=0, precision_bits=64)
    assert dec.report.passed
