import importlib.util
from pathlib import Path

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
