"""Workload inputs and the one operation run on each of them.

Every input is made from the workload seed and the round number alone and
is never filtered on the program's outcome.  The make-up of a round (shapes,
ranks, precisions, hyperplane counts) is the same for every seed and round;
the seed only decides which random forms run and in what order.  Inputs
that hit a known fault of the program are fixed and do not depend on the
seed, so they fail the same share of every run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import check

#: inductive shapes (n, d, forms per round): the paper's inductive step and
#: its ternary-cubic base case.  (4,4) and (5,4) take 1.3 s and 3 s a form,
#: the others 0.2-0.6 s, so the cheap shapes carry the weight that gives a
#: run enough samples for a median and a tail.
INDUCTIVE_SHAPES = ((3, 3, 4), (4, 3, 4), (3, 4, 4), (5, 3, 4), (4, 4, 1),
                    (5, 4, 1))

#: The random inputs of `inductive` and `precision` come from a fixed pool
#: holding, for each slot of a round, `POOL_ROUNDS` rounds' worth of inputs
#: made from fixed seeds; the run's seed fixes the order in which it walks
#: each slot's pool.  On some random inductive forms (once in about 870) the
#: program fails with InvalidInputError (NUMERIC_ZERO_FAULT), and a failure that
#: comes and goes with the input drawn cannot be counted the same way in
#: every run: `python3 perfbench/pool.py` runs every pool member, members
#: that fail are named in LEFT_OUT (none at present), and NUMERIC_ZERO_CASE
#: shows the fault in every round instead.  Each run also covers most of the
#: pool, which keeps the program's own random retries from making runs with
#: different seeds incomparable.
POOL_ROUNDS = {"inductive": 4, "precision": 5}
LEFT_OUT = frozenset()

#: `_curve_pair_candidates` passes a resultant whose leading coefficient is
#: numerically zero to `univariate_roots`, which raises InvalidInputError,
#: instead of trying the next chart
NUMERIC_ZERO_FAULT = ("numerically zero leading coefficient in the "
                      "ternary base-point search raises InvalidInputError")

#: rank-2 quadratics: `decompose` sends every form with two essential
#: variables to the binary path, which returns an inexact result
RANK2_FAULT = "rank-2 quadratic takes the binary path and returns inexact terms"
RANK2_FORMS = (("x0^2 + x1^2", 3), ("2*x0*x2 - 3*x2^2", 5),
               ("x3^2 - 5/2*x6^2", 8))

#: above 512 bits the root finder does not converge on these forms and
#: `decompose` raises ConsistencyError (CLI exit 1)
ROOTS_FAULT = "root residual exceeds the acceptance threshold above 512 bits"
ROOTS_FORMS = (("x0*x1^2 + x1*x2^2", 3),
               ("x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2", 4))

#: each known fault with the text its failure must contain
FAULTS = {NUMERIC_ZERO_FAULT: "leading coefficient is numerically zero",
          RANK2_FAULT: "result is not exact",
          ROOTS_FAULT: "root residual exceeds the acceptance threshold"}

BASE_POINT_CUBIC = "x0*x1^2 + x1*x2^2"
PRECISIONS = (128, 256, 384, 512)
FIXED_SEED = 1729


@dataclass(frozen=True)
class Case:
    """One input and how to run it."""

    label: str
    n: int
    d: int
    coeffs: dict            # exponent tuple -> Fraction
    forbidden: tuple = ()   # coordinate vectors of forbidden hyperplanes
    precision_bits: int = 256
    seed: int = FIXED_SEED
    exact_rank: int | None = None
    via_cli: bool = False
    fault: str | None = None


@dataclass
class Outcome:
    """Result of one operation: CPU intervals from `Calibrator.cpu()`."""

    decompose: tuple
    verify: tuple | None
    terms: int
    problems: list


def monomials(n, d):
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def parse(text, n):
    """Coefficients of a form written in the program's grammar, read here
    so that fixed inputs do not depend on the program's parser."""
    coeffs = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        c, e = Fraction(1), [0] * n
        for factor in term.split("*"):
            if factor.lstrip("-")[0] == "x":
                sign = factor.startswith("-")
                var, _, power = factor.lstrip("-")[1:].partition("^")
                e[int(var)] += int(power or 1)
                c = -c if sign else c
            else:
                c *= Fraction(factor)
        coeffs[tuple(e)] = coeffs.get(tuple(e), 0) + c
    return {e: c for e, c in coeffs.items() if c}


def render(coeffs):
    """The form as text in the program's grammar."""
    parts = []
    for e, c in sorted(coeffs.items(), reverse=True):
        mono = "*".join(f"x{i}" + (f"^{k}" if k > 1 else "")
                        for i, k in enumerate(e) if k)
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*{mono}")
    return " ".join(parts).lstrip("+ ")


def dense_form(rng, n, d):
    while True:
        coeffs = {}
        for e in monomials(n, d):
            c = rng.randint(-9, 9)
            if c:
                coeffs[e] = Fraction(c)
        if coeffs and check.essential_count(coeffs, n) == n:
            return coeffs


def _hyperplane(rng, n):
    while True:
        a = tuple(rng.randint(-5, 5) for _ in range(n))
        if any(a):
            return a


@functools.lru_cache(maxsize=None)
def pool(workload):
    """Slot -> the pool's inputs for that slot, each with its own seed."""
    pools = {}
    for slot, count, make in _SLOTS[workload]():
        rng = random.Random(f"{workload}-pool/{slot}")
        pools[slot] = (count, tuple(
            make(rng, i) for i in range(POOL_ROUNDS[workload] * count)))
    return pools


def _walk(workload, seed, round_no):
    """The pool's inputs for one round: `count` per slot, in each slot's
    order for this seed, so a run of `POOL_ROUNDS` rounds repeats none."""
    cases = []
    for slot, (count, members) in pool(workload).items():
        order = [c for c in members if c.label not in LEFT_OUT]
        random.Random(f"{workload}/{seed}/{slot}").shuffle(order)
        cases += [order[(round_no * count + j) % len(order)]
                  for j in range(count)]
    return cases


def _inductive_slots():
    for n, d, count in INDUCTIVE_SHAPES:
        def make(rng, i, n=n, d=d):
            return Case(f"({n},{d}) #{i}", n, d,
                        forbidden=tuple(_hyperplane(rng, n)
                                        for _ in range(i % 3)),
                        coeffs=dense_form(rng, n, d),
                        seed=rng.randrange(2**31))
        yield f"({n},{d})", count, make


def _precision_slots():
    shapes = [(2, d, bits) for d in range(3, 11)
              for bits in (PRECISIONS[d % 4], PRECISIONS[(d + 2) % 4])]
    shapes += [(3, 3, bits) for bits in PRECISIONS]
    for n, d, bits in shapes:
        def make(rng, i, n=n, d=d, bits=bits):
            return Case(f"({n},{d}) @{bits} #{i}", n, d, dense_form(rng, n, d),
                        precision_bits=bits, seed=rng.randrange(2**31),
                        via_cli=True)
        yield f"({n},{d}) @{bits}", 1, make


#: a (4,4) form on which the fault shows, with its forbidden hyperplane and
#: program seed
NUMERIC_ZERO_CASE = Case(
    "(4,4) numerically-zero fault", 4, 4, parse(
        "-3*x0^4 - 5*x0^3*x1 + 7*x0^3*x2 + 7*x0^3*x3 - x0^2*x1^2"
        " + x0^2*x1*x2 + 5*x0^2*x1*x3 - x0^2*x2*x3 - 4*x0^2*x3^2 - 3*x0*x1^3"
        " - 9*x0*x1^2*x2 - 4*x0*x1^2*x3 + 2*x0*x1*x2^2 - 2*x0*x1*x2*x3"
        " - 3*x0*x1*x3^2 - 3*x0*x2^3 + 7*x0*x2^2*x3 - 3*x0*x2*x3^2"
        " - 4*x0*x3^3 + 5*x1^4 - 3*x1^3*x2 - 2*x1^3*x3 - 8*x1^2*x2^2"
        " + 8*x1^2*x2*x3 + 4*x1*x2^3 - 4*x1*x2^2*x3 + 5*x1*x2*x3^2"
        " + 6*x1*x3^3 + 3*x2^4 + x2^3*x3 + 7*x2^2*x3^2 - 3*x2*x3^3"
        " + 5*x3^4", 4),
    forbidden=((2, -2, -4, 2),), seed=932037688, fault=NUMERIC_ZERO_FAULT)


def inductive(seed, round_no):
    return _walk("inductive", seed, round_no) + [NUMERIC_ZERO_CASE]


def _ranks(n):
    return sorted({1, 3, n - 1, n} - {2})


def _sum_of_squares(rng, n, r):
    while True:
        ls = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for _ in range(n)] for _ in range(r)]
        if check.rank(ls) == r:
            break
    coeffs = {}
    for l in ls:
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for e, v in check.power(l, 2, n).items():
            coeffs[e] = coeffs.get(e, 0) + c * v
    return {e: v for e, v in coeffs.items() if v}


def exact(seed, round_no):
    rng = random.Random(f"exact/{seed}/{round_no}")
    fixed = {n: text for text, n in RANK2_FORMS}
    cases = []
    for n in range(3, 9):
        for r in _ranks(n):
            cases.append(Case(f"n={n} r={r}", n, 2, _sum_of_squares(rng, n, r),
                              seed=rng.randrange(2**31), exact_rank=r))
        if n in fixed:
            cases.append(Case(f"n={n} r=2", n, 2, parse(fixed[n], n),
                              exact_rank=2, fault=RANK2_FAULT))
    return cases


def precision(seed, round_no):
    cases = _walk("precision", seed, round_no)
    for bits in (256, 512):
        cases.append(Case(f"base-point cubic @{bits}", 3, 3,
                          parse(BASE_POINT_CUBIC, 3), precision_bits=bits,
                          via_cli=True))
    for text, n in ROOTS_FORMS:
        for bits in (768, 1024):
            cases.append(Case(f"n={n} fixed cubic @{bits}", n, 3,
                              parse(text, n), precision_bits=bits,
                              via_cli=True, fault=ROOTS_FAULT))
    return cases


WORKLOADS = {"inductive": inductive, "exact": exact, "precision": precision}
_SLOTS = {"inductive": _inductive_slots, "precision": _precision_slots}


def round_cases(workload, seed, round_no):
    """The inputs of one round of a workload."""
    return WORKLOADS[workload](seed, round_no)


#: the warm-up operation of each workload's set-up: fixed, so that set-up
#: does the same work on every seed
WARM_UP = {
    "inductive": Case("warm-up", 3, 3, parse(BASE_POINT_CUBIC, 3)),
    "exact": Case("warm-up", 3, 2, parse("x0^2 + 2*x1^2 - x2^2", 3),
                  exact_rank=3),
    "precision": Case("warm-up", 2, 3, parse("x0^3 - 2*x0*x1^2 + x1^3", 2),
                      via_cli=True),
}

#: per workload, the percentile reported as the tail and the number of
#: rounds a run makes at least.  At least ten samples and every failed
#: operation lie beyond the tail, and it falls inside a group of operations
#: of similar cost rather than in a gap between two, where a small shift in
#: the mix would move it far (on `exact`, p80 falls at the lower edge of the
#: 100 ms group of n=8, r=7 and r=8, and p75 in the gap below it; p70 falls
#: among the 57-63 ms forms with n=7, r=6 and r=7).
TAIL = {"inductive": (75, 3), "exact": (70, 3), "precision": (75, 2)}

#: rounds of a traced run: a fixed number, so that two traced runs with one
#: seed make the same calls
TRACED_ROUNDS = {"inductive": 3, "exact": 10, "precision": 4}


def _library(ow, case, clock):
    f = ow.Form(case.n, case.d, case.coeffs)
    V = ow.ForbiddenSet(case.n, [ow.LinearForm([Fraction(a) for a in h])
                                 .to_form() for h in case.forbidden])
    t0 = clock()
    dec = ow.decompose(f, V, seed=case.seed, precision_bits=case.precision_bits)
    t1 = clock()
    report = ow.check_decomposition(f, dec, V,
                                    precision_bits=case.precision_bits)
    t2 = clock()
    found = [] if report.passed else ["the program's own check failed"]
    found += check.problems(case.coeffs, case.n, case.d,
                            check.terms_of(dec, case.precision_bits),
                            case.forbidden, case.precision_bits,
                            case.exact_rank)
    return Outcome((t0, t1), (t1, t2), dec.term_count, found)


def _cli(ow, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ow.cli.run(argv)
    return code, out.getvalue(), err.getvalue().strip()


def _via_cli(ow, case, clock, workdir):
    record_path = os.path.join(workdir, "record.json")
    t0 = clock()
    code, _, err = _cli(ow, ["decompose", "-n", str(case.n), render(case.coeffs),
                             "--seed", str(case.seed),
                             "--precision", str(case.precision_bits),
                             "--format", "structured", "-o", record_path])
    t1 = clock()
    if code != 0:
        return Outcome((t0, t1), None, 0, [f"decompose exit {code}: {err}"])
    code, out, err = _cli(ow, ["verify", record_path, "--format", "structured"])
    t2 = clock()
    with open(record_path) as fh:
        record = json.load(fh)
    if code != 0:
        return Outcome((t0, t1), (t1, t2), 0, [f"verify exit {code}: {err}"])
    found = []
    if not (record["verified"] and json.loads(out)["verified"]):
        found.append("record or verify reports verified: false")
    if int(record["precision_bits"]) != case.precision_bits:
        found.append("record has the wrong precision")
    found += check.problems(case.coeffs, case.n, case.d,
                            check.terms_of_record(record), (),
                            case.precision_bits)
    return Outcome((t0, t1), (t1, t2), len(record["terms"]), found)


def run_case(ow, case, clock, workdir):
    """Run one operation.  Its problems are empty when it succeeded; an
    exception from the program is a failed operation, timed up to the raise."""
    start = clock()
    try:
        if case.via_cli:
            return _via_cli(ow, case, clock, workdir)
        return _library(ow, case, clock)
    except Exception as exc:
        return Outcome((start, clock()), None, 0, [f"{type(exc).__name__}: {exc}"])
