import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(failed, **values):
    """A result line as `perfbench/run.py` prints it last."""
    return json.dumps({"correct": True, "attempted": 19, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "s"}
                                   for k, v in values.items()}})


#: four canned pairs: the change is faster on verify in three of them and
#: throughput is higher in all four
CANNED = [
    (result_line(1, verify_s_p50=4.0, decompose_per_s=6.0),
     result_line(1, verify_s_p50=3.0, decompose_per_s=6.5)),
    (result_line(1, verify_s_p50=3.0, decompose_per_s=7.0),
     result_line(1, verify_s_p50=3.5, decompose_per_s=7.1)),
    (result_line(1, verify_s_p50=5.0, decompose_per_s=6.0),
     result_line(1, verify_s_p50=2.0, decompose_per_s=6.2)),
    (result_line(1, verify_s_p50=6.0, decompose_per_s=5.0),
     result_line(2, verify_s_p50=3.0, decompose_per_s=5.5)),
]

BETTER = {"verify_s_p50": "lower", "decompose_per_s": "higher",
          "peak_rss_mb": "lower"}


def canned_pairs():
    return [{"parent": json.loads(a), "change": json.loads(b)}
            for a, b in CANNED]


def test_summary_of_canned_results():
    pairs = load_tool()
    rows = {r[0]: r[1:] for r in pairs.summarize(canned_pairs(), BETTER)}
    # a metric missing from the results gets no row
    assert set(rows) == {"verify_s_p50", "decompose_per_s"}
    # medians 4.5 -> 3.0; quartiles (exclusive) 3.25 and 5.75 for the
    # parent, 2.25 and 3.375 for the change
    assert rows["verify_s_p50"] == (4.5, 3.0, 2.5, 1.125, 3, 4)
    assert rows["decompose_per_s"] == (6.0, 6.35, pytest.approx(1.5),
                                       pytest.approx(1.275), 4, 4)
    text = pairs.render(pairs.summarize(canned_pairs(), BETTER))
    assert text[1].split() == ["verify_s_p50", "4.5", "3", "-33.3%", "2.5",
                               "1.125", "3/4"]


def test_failed_shares_are_summed_per_side():
    # a larger failed share is a regression, so the summary carries each
    # side's failed/attempted over all pairs, 1+1+1+1 of 4*19 against
    # 1+1+1+2, and the share as a percentage
    pairs = load_tool()
    totals = pairs.failed_totals(canned_pairs())
    assert totals == {"parent": (4, 76), "change": (5, 76)}
    text = pairs.render(pairs.summarize(canned_pairs(), BETTER), totals)
    assert text[-1].split() == ["failed/attempted", "4/76", "(5.3%)",
                                "5/76", "(6.6%)"]
    assert pairs.share(0, 0) == "0/0 (-)"
    # without totals the table ends with the metrics
    assert pairs.render([], None) == text[:1]


def test_pair_lines_name_the_counts_and_the_order():
    pairs = load_tool()
    lines = pairs.render_pair(4, 84, "change", canned_pairs()[3], BETTER)
    assert lines == ["pair 4 seed 84 (change first)",
                     "  parent failed 1/19 verify_s_p50=6 decompose_per_s=5",
                     "  change failed 2/19 verify_s_p50=3 decompose_per_s=5.5"]


def test_seed_ranges():
    pairs = load_tool()
    assert pairs.parse_seeds("81-85") == [81, 82, 83, 84, 85]
    assert pairs.parse_seeds("7,9-10") == [7, 9, 10]


def test_workload_lists():
    pairs = load_tool()
    assert pairs.parse_workloads("exact") == ["exact"]
    assert pairs.parse_workloads("inductive,exact,precision") == \
        ["inductive", "exact", "precision"]


def test_one_table_and_one_failed_line_per_workload(monkeypatch, capsys):
    # the canned pairs on `exact`, and on `inductive` the same pairs with
    # the two sides swapped, so each workload is summed on its own
    pairs = load_tool()
    canned = {"exact": CANNED, "inductive": [(b, a) for a, b in CANNED]}
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((workload, seed, checkout))
        pair = canned[workload][seed - 81]
        return json.loads(pair[checkout != "parent-dir"])

    monkeypatch.setattr(pairs, "run_once", run_once)
    # the change side is this checkout, for the metrics of its BENCHMARK.json
    pairs.main(["parent-dir", str(TOOL.parents[1]), "--workload",
                "exact,inductive", "--seeds", "81-84"])
    assert [w for w, _, _ in runs] == ["exact"] * 8 + ["inductive"] * 8
    assert [s for _, s, _ in runs[:8]] == [81, 81, 82, 82, 83, 83, 84, 84]
    # which side goes first alternates within each workload
    assert [c == "parent-dir" for _, _, c in runs[8:12]] == \
        [True, False, False, True]
    out = capsys.readouterr().out.splitlines()
    tables = [i for i, line in enumerate(out) if line.startswith("metric")]
    assert len(tables) == 2
    assert out[tables[0] - 1] == "workload exact"
    assert out[tables[1] - 1] == "workload inductive"
    failed = [line.split() for line in out if line.startswith("failed/attempted")]
    assert failed == [["failed/attempted", "4/76", "(5.3%)", "5/76", "(6.6%)"],
                      ["failed/attempted", "5/76", "(6.6%)", "4/76", "(5.3%)"]]
    exact = out[tables[0]:tables[1]]
    assert next(line for line in exact
                if line.startswith("verify_s_p50")).split() == \
        ["verify_s_p50", "4.5", "3", "-33.3%", "2.5", "1.125", "3/4"]
