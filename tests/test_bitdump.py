import importlib.util
from pathlib import Path

import mpmath

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitdump.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bitdump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_dump_repeats_itself():
    # the benchmark's inputs, the program's seeds and its outputs are all
    # fixed, so two dumps of one round hash the same
    bitdump = load_tool()
    plan = (("exact", range(1)),)
    first = bitdump.digest(plan)
    assert first == bitdump.digest(plan)
    count, failures, hexdigest = first
    assert count == 24 and failures == [] and len(hexdigest) == 64


def test_the_ambient_precision_moves_no_output_bit():
    # every threshold is taken at a fixed precision, so the dump of a round
    # of each approximate workload does not follow mpmath.mp.prec
    bitdump = load_tool()
    plan = (("inductive", range(1)), ("precision", range(1)))
    want = bitdump.digest(plan)
    for prec in (20, 300):
        with mpmath.workprec(prec):
            assert bitdump.digest(plan) == want
