"""Command-line surface.

Subcommands: decompose (pipeline; prints the verifier's report that the
pipeline attached, re-checking only when --absorb changes the terms),
verify (re-check a stored record from scratch), bounds, catalecticant,
apolar, essential, base-points, and bench (grid sweep emitting CSV).
Structured output is a single self-describing JSON record with all numbers
as strings, so `verify` round-trips exactly what `decompose` emits.

Exit codes: 0 success, 1 verification failure (the checker rejected the
result), 2 invalid input, 3 retry budget exhausted (retriable), 4 internal
error (``ConsistencyError`` or another package error that is neither invalid
input nor retry exhaustion; the message names its class).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

import mpmath
from mpmath.libmp import from_str, round_nearest

from .apolarity import (DEFAULT_MAX_RETRIES, DEFAULT_SEED, apolar_component,
                        base_points, catalecticant, essential_split,
                        essential_variables)
from .bounds import bbs_bound, improved_bound, recursion_bound
from .decompose import absorb_coefficients, decompose
from .errors import (InvalidInputError, OpenWaringError, OutOfDomainError,
                     RetryBudgetError)
from .numerics import AppComplex, DEFAULT_PRECISION_BITS, is_exact_scalar
from .poly import (Form, LinearForm, _render_monomial, monomials_of_degree,
                   parse_form, render_form)
from .verify import Decomposition, ForbiddenSet, check_decomposition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_RETRY_EXHAUSTED = 3
EXIT_INTERNAL_ERROR = 4


# ---------------------------------------------------------------------------
# scalar (de)serialization: numbers as strings, lossless for rationals


def _dps_for(bits: int) -> int:
    return int(bits * 0.30103) + 10


def _mpf_str(x, bits) -> str:
    return mpmath.nstr(x, _dps_for(bits), strip_zeros=True)


def _coord_to_json(c, bits):
    if is_exact_scalar(c):
        q = Fraction(c)
        return f"{q.numerator}/{q.denominator}"
    return {"re": _mpf_str(c.real, bits), "im": _mpf_str(c.imag, bits)}


def _app_from_json(re, im, bits):
    """The AppComplex of two decimal strings rounded to nearest at bits."""
    text = _exactly(str, "string")
    return AppComplex.from_raw((from_str(text(re), bits, round_nearest),
                                from_str(text(im), bits, round_nearest)), bits)


def _coord_from_json(obj, bits):
    if isinstance(obj, str):
        num, den = obj.split("/")
        return Fraction(int(num), int(den))
    return _app_from_json(obj["re"], obj["im"], bits)


def _term_to_json(c, l, bits):
    out = {}
    if is_exact_scalar(c):
        q = Fraction(c)
        out["coeff_num"] = str(q.numerator)
        out["coeff_den"] = str(q.denominator)
    else:
        out["coeff_re"] = _mpf_str(c.real, bits)
        out["coeff_im"] = _mpf_str(c.imag, bits)
    out["coords"] = [_coord_to_json(x, bits) for x in l.coords]
    return out


def _term_from_json(obj, bits):
    if "coeff_num" in obj:
        c = Fraction(int(obj["coeff_num"]), int(obj["coeff_den"]))
    else:
        c = _app_from_json(obj["coeff_re"], obj["coeff_im"], bits)
    coords = [_coord_from_json(x, bits) for x in obj["coords"]]
    return c, LinearForm(coords)


def decomposition_record(f: Form, dec: Decomposition, V: ForbiddenSet,
                         report, seed, precision_bits) -> dict:
    log2 = report.residual_log2()
    return {
        "command": "decompose",
        "num_vars": dec.num_vars,
        "degree": dec.degree,
        "form": render_form(f),
        "avoid": [render_form(g, var="l") for g in V.constraints],
        "seed": seed,
        "precision_bits": precision_bits,
        "terms": [_term_to_json(c, l, precision_bits) for c, l in dec.terms],
        "exact": dec.exact,
        "residual_log2": "-inf" if log2 is None else f"{log2:.4f}",
        "algorithm_trace": list(dec.trace),
        "bound": report.bound_value,
        "verified": bool(report.passed),
    }


_REQUIRED = object()


def _field(record, key, read, default=_REQUIRED):
    """``read(record[key])``; a missing key or a value that ``read`` cannot
    take raises InvalidInputError naming the field."""
    if key in record:
        value = record[key]
    elif default is _REQUIRED:
        raise InvalidInputError(f"record has no {key!r} field")
    else:
        value = default
    try:
        return read(value)
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InvalidInputError(
            f"record field {key!r} is malformed ({type(exc).__name__}: {exc})") from exc


def _exactly(kind, name):
    """A field reader that takes only a JSON ``name``: no float or boolean
    passes for an integer, and no string or number for a boolean."""
    def read(value):
        if type(value) is not kind:
            raise TypeError(f"expected a JSON {name}, got {json.dumps(value)}")
        return value
    return read


def decomposition_from_record(record: dict):
    if not isinstance(record, dict):
        raise InvalidInputError("record must be a JSON object")
    integer = _exactly(int, "integer")
    bits = _field(record, "precision_bits", integer)
    n = _field(record, "num_vars", integer)
    f = _field(record, "form", lambda text: parse_form(text, n))
    V = _field(record, "avoid", lambda avoid: ForbiddenSet(
        n, tuple(parse_form(g, n, var="l") for g in avoid)), [])
    terms = _field(record, "terms",
                   lambda ts: tuple(_term_from_json(t, bits) for t in ts))
    dec = Decomposition(_field(record, "degree", integer), n, terms,
                        _field(record, "exact", _exactly(bool, "boolean")),
                        _field(record, "algorithm_trace", tuple, []))
    return f, dec, V, bits


# ---------------------------------------------------------------------------
# rendering


def _render_scalar_human(c):
    if is_exact_scalar(c):
        return str(Fraction(c))
    re_s = mpmath.nstr(c.real, 10)
    im_s = mpmath.nstr(c.imag, 10)
    if c.imag == 0:
        return re_s
    return f"({re_s}{'+' if c.imag >= 0 else ''}{im_s}j)"


def _render_linear(l: LinearForm) -> str:
    parts = []
    for i, c in enumerate(l.coords):
        if is_exact_scalar(c) and c == 0:
            continue
        parts.append(f"{_render_scalar_human(c)}*x{i}")
    return " + ".join(parts) if parts else "0"


def _print_decomposition_human(record, dec):
    print(f"form: {record['form']}")
    print(f"num_vars: {record['num_vars']}  degree: {record['degree']}")
    print(f"terms: {len(dec.terms)}  bound: {record['bound']}  "
          f"exact: {'yes' if record['exact'] else 'no'}  "
          f"residual_log2: {record['residual_log2']}  "
          f"verified: {'yes' if record['verified'] else 'no'}")
    for k, (c, l) in enumerate(dec.terms, 1):
        print(f"  [{k}] {_render_scalar_human(c)} * ({_render_linear(l)})^{dec.degree}")
    if record["avoid"]:
        print("avoid:")
        for g in record["avoid"]:
            print(f"  {g}")


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p):
    p.add_argument("form", nargs="?", help="form text in the x<i> grammar")
    p.add_argument("--form-file", help="file containing the form text")
    p.add_argument("-n", "--num-vars", type=int, required=True,
                   help="number of variables")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS,
                   dest="precision_bits", help="working precision in bits")
    p.add_argument("--format", choices=("human", "structured"),
                   default="human", dest="output_format")


def _add_search(p):
    """The seed and retry budget of a random genericity search."""
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)


def _load_form(args) -> Form:
    if args.form_file:
        with open(args.form_file) as fh:
            text = fh.read()
    elif args.form:
        text = args.form
    else:
        raise InvalidInputError("no form given (positional text or --form-file)")
    return parse_form(text, args.num_vars)


def _load_avoid(args, num_vars) -> ForbiddenSet:
    if args.avoid:
        with open(args.avoid) as fh:
            return ForbiddenSet.from_text(fh.read(), num_vars)
    return ForbiddenSet.empty(num_vars)


@functools.cache
def build_parser():
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="openwaring",
        description="Waring decompositions avoiding forbidden linear forms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a form and verify the result")
    _add_common(p)
    _add_search(p)
    p.add_argument("--avoid", help="file of forbidden-set constraints, "
                                   "one per line over l0..l{n-1}")
    p.add_argument("--absorb", action="store_true",
                   help="scale linear forms so every coefficient is 1")
    p.add_argument("-o", "--output", help="write the structured record here too")

    p = sub.add_parser("verify", help="re-check a stored decomposition record")
    p.add_argument("record", help="JSON record produced by decompose")
    p.add_argument("--avoid", help="override the embedded forbidden set")
    p.add_argument("--format", choices=("human", "structured"),
                   default="human", dest="output_format")

    p = sub.add_parser("bounds", help="print bound values for (n, d)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--format", choices=("human", "structured"),
                   default="human", dest="output_format")

    for name in ("catalecticant", "apolar"):
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("-e", type=int, required=True, help="dual degree")

    p = sub.add_parser(
        "base-points", help="common zeros of the degree-e apolar system",
        description="Common projective zeros of the degree-e apolar system: "
                    "for every e when n <= 2, and for lines and conics "
                    "(e = 1 or 2) when n = 3.  Any other n or e exits 2.")
    _add_common(p)
    p.add_argument("-e", type=int, required=True,
                   help="dual degree (1 or 2 when n = 3)")
    _add_search(p)

    p = sub.add_parser("essential", help="essential variable count and split")
    _add_common(p)

    p = sub.add_parser("bench", help="sweep an (n, d) grid, CSV per cell")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--d-min", type=int, default=3)
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--trials", type=int, default=5)
    _add_search(p)
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS,
                   dest="precision_bits")
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_decompose(args) -> int:
    f = _load_form(args)
    V = _load_avoid(args, args.num_vars)
    dec = decompose(f, V, seed=args.seed, precision_bits=args.precision_bits,
                    max_retries=args.max_retries)
    report = dec.report
    if args.absorb:
        dec = absorb_coefficients(dec, args.precision_bits)
        report = check_decomposition(f, dec, V,
                                     precision_bits=args.precision_bits)
    record = decomposition_record(f, dec, V, report, args.seed,
                                  args.precision_bits)
    payload = json.dumps(record, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
    if args.output_format == "structured":
        print(payload)
    else:
        _print_decomposition_human(record, dec)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    with open(args.record) as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"record is not valid JSON: {exc}") from exc
    f, dec, V, bits = decomposition_from_record(record)
    if args.avoid:
        with open(args.avoid) as fh:
            V = ForbiddenSet.from_text(fh.read(), f.num_vars)
    report = check_decomposition(f, dec, V, precision_bits=bits)
    log2 = report.residual_log2()
    out = {
        "command": "verify",
        "term_count": report.term_count,
        "bound": report.bound_value,
        "residual_log2": "-inf" if log2 is None else f"{log2:.4f}",
        "forbidden_violations": list(report.forbidden_violations),
        "exact": report.exact,
        "verified": bool(report.passed),
    }
    if args.output_format == "structured":
        print(json.dumps(out, indent=2))
    else:
        print(f"terms: {out['term_count']}  bound: {out['bound']}  "
              f"residual_log2: {out['residual_log2']}")
        if report.forbidden_violations:
            print(f"forbidden terms at indices: {list(report.forbidden_violations)}")
        print(f"verified: {'yes' if report.passed else 'no'}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_bounds(args) -> int:
    n, d = args.n, args.d
    try:
        improved = improved_bound(n, d)
    except OutOfDomainError:
        improved = None
    out = {
        "command": "bounds",
        "n": n,
        "d": d,
        "bbs": bbs_bound(n, d),
        "improved": improved,
        "recursion_bbs": recursion_bound(n, d, "bbs"),
        "recursion_improved": recursion_bound(n, d, "improved"),
    }
    if args.output_format == "structured":
        print(json.dumps(out, indent=2))
    else:
        print(f"bbs({n},{d}) = {out['bbs']}")
        print(f"improved({n},{d}) = "
              f"{'n/a (needs n,d >= 3)' if improved is None else improved}")
        print(f"recursion({n},{d}) = {out['recursion_bbs']} [bbs], "
              f"{out['recursion_improved']} [improved]")
    return EXIT_OK


def _cmd_catalecticant(args) -> int:
    f = _load_form(args)
    cat = catalecticant(f, args.e)
    rank = cat.rank(args.precision_bits)
    if args.output_format == "structured":
        out = {
            "command": "catalecticant",
            "e": args.e,
            "rows": [_render_monomial(r, "d") for r in cat.row_labels],
            "cols": [_render_monomial(c, "x") for c in cat.col_labels],
            "entries": [[_coord_to_json(x, args.precision_bits) for x in row]
                        for row in cat.entries],
            "rank": rank,
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"catalecticant e={args.e}: "
              f"{len(cat.row_labels)} x {len(cat.col_labels)}, rank {rank}")
        header = " ".join(f"{_render_monomial(c, 'x'):>10}" for c in cat.col_labels)
        print(f"{'':>10} {header}")
        for lbl, row in zip(cat.row_labels, cat.entries):
            vals = " ".join(f"{str(x) if is_exact_scalar(x) else '~':>10}"
                            for x in row)
            print(f"{_render_monomial(lbl, 'd'):>10} {vals}")
    return EXIT_OK


def _cmd_apolar(args) -> int:
    f = _load_form(args)
    basis = apolar_component(f, args.e, args.precision_bits)
    rendered = [render_form(op, var="d") for op in basis]
    if args.output_format == "structured":
        print(json.dumps({"command": "apolar", "e": args.e,
                          "dimension": len(basis), "basis": rendered}, indent=2))
    else:
        print(f"apolar component e={args.e}: dimension {len(basis)}")
        for op in rendered:
            print(f"  {op}")
    return EXIT_OK


def _cmd_essential(args) -> int:
    f = _load_form(args)
    m = essential_variables(f, args.precision_bits)
    M, g = essential_split(f, args.precision_bits)
    out = {
        "command": "essential",
        "essential_variables": m,
        "matrix": [[_coord_to_json(x, args.precision_bits) for x in row]
                   for row in M],
        "restricted_form": render_form(g),
    }
    if args.output_format == "structured":
        print(json.dumps(out, indent=2))
    else:
        print(f"essential variables: {m}")
        print(f"restricted form: {out['restricted_form']}")
        print("split matrix (columns are new coordinates):")
        for row in M:
            print("  [" + ", ".join(_render_scalar_human(x) for x in row) + "]")
    return EXIT_OK


def _cmd_base_points(args) -> int:
    f = _load_form(args)
    pts = base_points(f, args.e, args.precision_bits, seed=args.seed,
                      max_retries=args.max_retries)
    bits = args.precision_bits
    coords = [[_coord_to_json(c, bits) for c in p.coords] for p in pts]
    if args.output_format == "structured":
        print(json.dumps({"command": "base-points", "e": args.e,
                          "count": len(pts), "points": coords}, indent=2))
    else:
        print(f"base points of the degree-{args.e} apolar system: {len(pts)}")
        for p in pts:
            print(f"  {p!r}")
    return EXIT_OK


def _random_essential_form(rng, n, d):
    while True:
        coeffs = {}
        for expo in monomials_of_degree(n, d):
            c = rng.randint(-9, 9)
            if c:
                coeffs[expo] = Fraction(c)
        if not coeffs:
            continue
        f = Form(n, d, coeffs)
        if essential_variables(f) == n:
            return f


def _cmd_bench(args) -> int:
    if args.n_min < 1 or args.d_min < 1:
        raise InvalidInputError("bench needs --n-min >= 1 and --d-min >= 1")
    if args.trials < 1:
        raise InvalidInputError("trials must be at least 1")
    if args.n_min > args.n_max or args.d_min > args.d_max:
        raise InvalidInputError(
            "bench grid is empty; use --n-min <= --n-max and --d-min <= --d-max")
    if args.d_min <= 1 <= args.d_max and max(args.n_min, 2) <= args.n_max:
        # a linear form has one essential variable, so no random form of
        # such a cell is ever accepted
        raise InvalidInputError(
            "bench cannot draw a degree-1 form with two or more essential "
            "variables; use --d-min >= 2 or --n-max 1")
    print("n,d,trials,max_terms,mean_terms,bound,failures")
    for n in range(args.n_min, args.n_max + 1):
        for d in range(args.d_min, args.d_max + 1):
            bound = recursion_bound(n, d, "improved")
            counts = []
            failures = 0
            for trial in range(args.trials):
                cell_seed = (args.seed * 1000003 + n * 10007 + d * 101
                             + trial) & 0x7FFFFFFF
                rng = random.Random(cell_seed)
                f = _random_essential_form(rng, n, d)
                try:
                    dec = decompose(f, seed=cell_seed,
                                    precision_bits=args.precision_bits,
                                    max_retries=args.max_retries)
                    counts.append(dec.term_count)
                except InvalidInputError:
                    raise
                except OpenWaringError:
                    # retry exhaustion and internal errors count against
                    # the cell; the sweep goes on
                    failures += 1
            mx = max(counts) if counts else 0
            mean = sum(counts) / len(counts) if counts else 0.0
            print(f"{n},{d},{args.trials},{mx},{mean:.2f},{bound},{failures}")
    return EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "catalecticant": _cmd_catalecticant,
    "apolar": _cmd_apolar,
    "essential": _cmd_essential,
    "base-points": _cmd_base_points,
    "bench": _cmd_bench,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "precision_bits", 64) < 64:
            raise InvalidInputError("precision must be at least 64 bits")
        if getattr(args, "seed", 0) < 0:
            raise InvalidInputError("seed must be non-negative")
        if getattr(args, "max_retries", 1) < 1:
            raise InvalidInputError("max-retries must be at least 1")
        return _COMMANDS[args.command](args)
    except RetryBudgetError as exc:
        print(f"error (retriable): {exc}", file=sys.stderr)
        return EXIT_RETRY_EXHAUSTED
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OpenWaringError as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
