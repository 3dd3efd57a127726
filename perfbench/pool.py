"""Run every member of the input pools once and list the failures.

    python3 perfbench/pool.py

Members that fail belong in `workloads.LEFT_OUT`, with the fault named in
README.md: a failure that depends on the input drawn cannot be counted the
same way in every run.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import workloads  # noqa: E402
from run import OUT, import_program  # noqa: E402


def main():
    ow = import_program()
    os.makedirs(OUT, exist_ok=True)
    failed = []
    with calib.Calibrator() as cal:
        for workload in workloads.POOL_ROUNDS:
            for _, members in workloads.pool(workload).values():
                for case in members:
                    o = workloads.run_case(ow, case, cal.cpu, OUT)
                    if o.problems:
                        failed.append(case.label)
                    print(f"{workload} {case.label}: "
                          f"{'; '.join(o.problems) or 'ok'}", flush=True)
    print("failed:", failed)


if __name__ == "__main__":
    main()
