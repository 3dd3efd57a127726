"""Reference figures per shape, for README.md.

    python3 perfbench/shapes.py [--forms 3] [--seed 1]

For random essential forms of each ROADMAP shape at 256 bits, prints the raw
decompose and check seconds, the term count, the paper's bound B(m,d) and
the program's catalecticant lower bound, so the gap between the count
reached and the certified lower bound shows.
"""

import argparse
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from run import import_program  # noqa: E402

SHAPES = ((2, 8), (3, 3), (4, 3), (3, 4), (4, 4), (5, 3), (5, 4))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--forms", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    ow = import_program()
    print("shape  form  decompose_s  check_s  terms  B(m,d)  cat_lower")
    for n, d in SHAPES:
        rng = random.Random(f"shapes/{args.seed}/{n},{d}")
        for k in range(args.forms):
            coeffs = workloads.dense_form(rng, n, d)
            f = ow.Form(n, d, coeffs)
            t0 = time.process_time()
            dec = ow.decompose(f, seed=rng.randrange(2**31))
            t1 = time.process_time()
            ow.check_decomposition(f, dec)
            t2 = time.process_time()
            print(f"({n},{d})  {k:4d}  {t1 - t0:11.3f}  {t2 - t1:7.3f}  "
                  f"{dec.term_count:5d}  {check.paper_bound(n, d):6d}  "
                  f"{ow.catalecticant_lower_bound(f):9d}")


if __name__ == "__main__":
    main()
