"""Hash every output bit of a fixed set of benchmark operations.

    python3 tools/bitdump.py
    python3 tools/bitdump.py --mp-prec 20
    python3 tools/bitdump.py --per-op > change.txt
    python3 tools/bitdump.py --counts > change-counts.txt

Takes the inputs that `perfbench/workloads.py` makes at seed 1 and runs one
`decompose` on each: `inductive` rounds 0-3 and `exact` rounds 0-9 through
the library, `precision` rounds 0-4 through the command line, as the
benchmark runs them (446 operations).  Each operation contributes its raw
output: the terms as libmp (sign, man, exp, bc) tuples or Fractions, the
trace and the verifier's report for a library call; the exit codes, the
printed text and the structured record for `decompose` and `verify` on the
command line; the error's class and text when it raises.  The script prints
the number of operations, each one that raised, and the SHA-256 of the
whole, so a change meant to keep every bit must print the same three as
its parent.  `--mp-prec N` sets `mpmath.mp.prec` to N before the run; no
output may depend on it, so every N must print the same three lines.
`--per-op` first prints one line per operation, `op DIGEST NAME`, with the
first 16 hex digits of the SHA-256 of that operation's own output, so that
`diff` of two such listings names the operations a change moved.
`--counts` first prints one line per operation, `count NAME: SUMMARY`, with
the term count, the exact flag and the verifier's verdict of its
decomposition, or the error text when it raised, so that `diff` of two such
listings shows that a change which moves bits moved no count and no
verdict.  It writes nothing under `perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import mpmath  # noqa: E402
import openwaring as ow  # noqa: E402
import openwaring.cli  # noqa: E402,F401
import workloads  # noqa: E402

SEED = 1

#: (workload, rounds) in the order they are run and hashed
PLAN = (("inductive", range(4)), ("precision", range(5)), ("exact", range(10)))


def _raw(x):
    """A scalar as text that names every bit of it."""
    if isinstance(x, (int, Fraction)):
        return repr(Fraction(x))
    if isinstance(x, ow.AppComplex):
        return f"({x.real._mpf_!r}, {x.imag._mpf_!r}, {x.precision_bits})"
    return repr(x._mpf_)


def _summary(term_count, exact, passed):
    return f"terms {term_count} exact {exact} verified {passed}"


def _library(case):
    """The output of one library call, and its ``_summary``."""
    f = ow.Form(case.n, case.d, case.coeffs)
    V = ow.ForbiddenSet(case.n, [ow.LinearForm([Fraction(a) for a in h])
                                 .to_form() for h in case.forbidden])
    dec = ow.decompose(f, V, seed=case.seed, precision_bits=case.precision_bits)
    r = dec.report
    terms = [(_raw(c), [_raw(x) for x in l.coords]) for c, l in dec.terms]
    report = (_raw(r.residual), r.term_count, r.bound_value,
              r.forbidden_violations, r.exact, r.passed, r.residual_ok)
    return (repr((terms, dec.exact, dec.trace, report)),
            _summary(r.term_count, dec.exact, r.passed))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ow.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _via_cli(case, workdir):
    """The outputs of `decompose` and `verify`, the error text of the
    first that exits nonzero (None when both exit 0), and the ``_summary``
    of `verify`'s structured output (None when either command raised)."""
    path = os.path.join(workdir, "record.json")
    if os.path.exists(path):
        os.remove(path)
    dec = _cli(["decompose", "-n", str(case.n), workloads.render(case.coeffs),
                "--seed", str(case.seed),
                "--precision", str(case.precision_bits),
                "--format", "structured", "-o", path])
    if dec[0] != 0:
        return repr(dec), dec[2].strip(), None
    with open(path) as fh:
        record = fh.read()
    ver = _cli(["verify", path, "--format", "structured"])
    summary = None
    if ver[1]:  # verify prints its record unless it raised
        out = json.loads(ver[1])
        summary = _summary(out["term_count"], out["exact"], out["verified"])
    return (repr((dec, record, ver)), ver[2].strip() if ver[0] else None,
            summary)


def digest(plan=PLAN, seed=SEED, per_op=None, counts=None):
    """(operation count, [(operation, error text)], SHA-256 hex digest).
    With a list ``per_op``, append (operation, the first 16 hex digits of
    the SHA-256 of its own output) to it for each operation; with a list
    ``counts``, append (operation, its ``_summary`` or its error text)."""
    h = hashlib.sha256()
    count = 0
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for workload, rounds in plan:
            for round_no in rounds:
                for case in workloads.round_cases(workload, seed, round_no):
                    name = f"{workload} round {round_no} {case.label}"
                    error = summary = None
                    if case.via_cli:
                        payload, error, summary = _via_cli(case, workdir)
                    else:
                        try:
                            payload, summary = _library(case)
                        except Exception as exc:  # a raise is an output too
                            error = f"{type(exc).__name__}: {exc}"
                            payload = error
                    if error is not None:
                        failures.append((name, error))
                    record = f"{name}\t{payload}\n".encode()
                    h.update(record)
                    if per_op is not None:
                        per_op.append(
                            (name, hashlib.sha256(record).hexdigest()[:16]))
                    if counts is not None:
                        counts.append((name, summary or f"raised {error}"))
                    count += 1
    return count, failures, h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mp-prec", type=int, default=None, metavar="N",
                        help="set mpmath.mp.prec to N before the run")
    parser.add_argument("--per-op", action="store_true",
                        help="first print a short digest of each operation")
    parser.add_argument("--counts", action="store_true",
                        help="first print each operation's term count, "
                        "exact flag and verdict, or its error")
    args = parser.parse_args(argv)
    if args.mp_prec is not None:
        mpmath.mp.prec = args.mp_prec
    per_op = [] if args.per_op else None
    counts = [] if args.counts else None
    count, failures, hexdigest = digest(per_op=per_op, counts=counts)
    for name, short in per_op or ():
        print(f"op {short} {name}")
    for name, summary in counts or ():
        print(f"count {name}: {summary}")
    print(f"operations {count}")
    for name, error in failures:
        print(f"raised {name}: {error}")
    print(f"sha256 {hexdigest}")


if __name__ == "__main__":
    main()
