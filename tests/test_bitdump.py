import difflib
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


def test_per_op_digests_name_the_operations_a_change_moved(monkeypatch, capsys):
    bitdump = load_tool()
    plan = (("exact", range(1)),)
    before = []
    whole = bitdump.digest(plan, per_op=before)
    assert whole == bitdump.digest(plan)
    assert len(before) == 24 and len(dict(before)) == 24
    assert all(len(short) == 16 for _, short in before)

    # one operation's output moves by a character: only its line changes
    name = before[5][0]
    real = bitdump._library

    def moved(case):
        out, summary = real(case)
        if name.endswith(f" {case.label}"):
            out += " "
        return out, summary

    monkeypatch.setattr(bitdump, "_library", moved)
    after = []
    assert bitdump.digest(plan, per_op=after)[2] != whole[2]
    assert [a for a, b in zip(before, after) if a != b] == [before[5]]

    # the listing comes first, then the three lines of a plain run
    monkeypatch.setattr(bitdump, "_library", real)
    digest = bitdump.digest
    monkeypatch.setattr(bitdump, "digest",
                        lambda **lists: digest(plan, **lists))
    bitdump.main(["--per-op"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == ([f"op {short} {op}" for op, short in before]
                     + ["operations 24", f"sha256 {whole[2]}"])


def test_counts_list_each_operations_terms_and_verdict(monkeypatch, capsys):
    bitdump = load_tool()
    plan = (("exact", range(1)), ("precision", range(1)))
    counts = []
    whole = bitdump.digest(plan, counts=counts)
    assert whole == bitdump.digest(plan)
    assert len(counts) == whole[0] == 50
    summaries = dict(counts)
    # a library call, a command-line call, and a command-line fault
    assert summaries["exact round 0 n=3 r=1"] == \
        "terms 1 exact True verified True"
    assert summaries["precision round 0 (2,3) @256 #2"] == \
        "terms 2 exact False verified True"
    assert summaries["precision round 0 n=3 fixed cubic @768"] == (
        "raised internal error (ConsistencyError): root residual exceeds "
        "the acceptance threshold")

    # the listing comes first, then the lines of a plain run
    digest = bitdump.digest
    monkeypatch.setattr(bitdump, "digest",
                        lambda **lists: digest(plan, **lists))
    bitdump.main(["--counts"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:51] == ([f"count {op}: {summary}" for op, summary in counts]
                          + ["operations 50"])


#: `python3 tools/bitdump.py --counts` up to its `operations` line
COUNTS = Path(__file__).resolve().parent / "data" / "bitdump_counts.txt"


def test_counts_match_the_committed_listing(capsys):
    # bits may move; each operation's term count, exact flag and verdict,
    # or its error text, may not, unless the change edits the listing too
    bitdump = load_tool()
    bitdump.main(["--counts"])
    lines = capsys.readouterr().out.splitlines()
    got = lines[:next(i for i, line in enumerate(lines)
                      if line.startswith("operations ")) + 1]
    want = COUNTS.read_text().splitlines()
    moved = [line for line in difflib.unified_diff(
        want, got, "committed", "now", lineterm="", n=0)
        if not line.startswith("@@")]
    assert not moved, "\n".join(moved)
