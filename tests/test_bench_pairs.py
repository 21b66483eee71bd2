"""``tools/bench_pairs.py``: its pairing order and its statistics, fed
canned ``perfbench/run.py`` output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DIRECTIONS = {"run_s": "lower", "sgd_rows_per_s": "higher", "test_acc": "higher"}
# Per pair: (run_s, sgd_rows_per_s) of the parent, then of the change.
PAIRS = [
    ((1.0, 100.0), (0.9, 110.0)),
    ((1.0, 104.0), (1.1, 103.0)),
    ((1.0, 102.0), (1.0, 102.0)),
    ((1.0, 98.0), (0.8, 109.0)),
]


def run_output(side, pair, run_s, rows_per_s):
    """Standard output of one ``run.py`` run, as it prints it."""
    units = {"run_s": "s", "sgd_rows_per_s": "rows/s", "test_acc": "fraction"}
    values = {"run_s": run_s, "sgd_rows_per_s": rows_per_s, "test_acc": 0.75}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    env = {"seed": 1, "nproc": 2, "tree": side, "pair": pair}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    return f"env {json.dumps(env)}\n{json.dumps(result)}\n"


def canned_runs():
    """The parsed runs of :data:`PAIRS` and the order the sides ran in."""
    order = []

    def run_side(side, workload):
        pair = len(order) // 2
        order.append(side)
        return 0, run_output(side, pair, *PAIRS[pair][bench_pairs.SIDES.index(side)])

    runs = bench_pairs.compare(["train-manytask"], len(PAIRS), run_side, DIRECTIONS)
    return runs, order


def test_sides_alternate_which_runs_first():
    _, order = canned_runs()
    assert order == ["parent", "change", "change", "parent"] * 2


def test_medians_iqr_and_wins_of_each_metric():
    """Medians of both sides, the parent's interquartile range (numpy's
    linear percentiles), and the pairs the change wins in the metric's
    direction; a tie counts for neither side."""
    runs, _ = canned_runs()
    summary = bench_pairs.report(runs, DIRECTIONS)["train-manytask"]
    rows = summary["sgd_rows_per_s"]
    assert rows["parent_median"] == 101.0
    assert rows["change_median"] == 106.0
    assert rows["parent_iqr"] == 3.0  # 102.5 - 99.5
    assert rows["wins"] == 2
    assert rows["pairs"] == [[100, 110], [104, 103], [102, 102], [98, 109]]
    run_s = summary["run_s"]
    assert (run_s["parent_median"], run_s["change_median"]) == (1.0, 0.95)
    assert (run_s["parent_iqr"], run_s["wins"]) == (0.0, 2)
    assert summary["test_acc"]["wins"] == 0
    defined = {"train-manytask": ("run_s", "sgd_rows_per_s")}
    text = bench_pairs.format_report({"train-manytask": summary}, defined)
    assert (
        "train-manytask sgd_rows_per_s (higher is better): parent median 101, "
        "change median 106, parent IQR 3, change better in 2 of 4 pairs\n"
        "  pairs (parent/change): 100/110, 104/103, 102/102, 98/109"
    ) in text
    assert "test_acc" not in text


def test_prints_only_the_metrics_a_workload_defines():
    """The printed report takes each workload's metrics from
    ``perfbench/workloads.py``: ``tnd-fit`` defines no SGD rate and no
    accuracy, so its constant rows of ``run.py`` are not printed, while
    the summary keeps them."""
    defined = bench_pairs.workload_metrics()
    assert "sgd_rows_per_s" in defined["train-manytask"]
    assert "rel_gap" not in defined["train-wide"]
    runs = bench_pairs.compare(
        ["tnd-fit"], 2, lambda side, workload: (0, run_output(side, 0, 1.0, 1.0)),
        DIRECTIONS,
    )
    summary = bench_pairs.report(runs, DIRECTIONS)
    assert set(summary["tnd-fit"]) == set(DIRECTIONS)
    text = bench_pairs.format_report(summary, defined)
    assert text.startswith("tnd-fit run_s (lower is better)")
    assert "sgd_rows_per_s" not in text and "test_acc" not in text


def test_json_holds_commits_env_lines_and_every_pair():
    runs, _ = canned_runs()
    commits = {"parent": "a" * 40, "change": "b" * 40}
    doc = json.loads(json.dumps(
        bench_pairs.document("HEAD~1", commits, 1, 30.0, runs, DIRECTIONS)
    ))
    assert doc["parent"] == {"ref": "HEAD~1", "commit": "a" * 40}
    assert doc["change"] == {"ref": "HEAD", "commit": "b" * 40}
    assert (doc["seed"], doc["seconds"]) == (1, 30.0)
    assert len(doc["runs"]) == 2 * len(PAIRS)
    for run in doc["runs"]:
        p, side = run["pair"], run["side"]
        assert run["env"] == {"seed": 1, "nproc": 2, "tree": side, "pair": p}
        assert run["correct"] is True and run["exit_code"] == 0
        run_s, rows = PAIRS[p][bench_pairs.SIDES.index(side)]
        assert run["metrics"] == {"run_s": run_s, "sgd_rows_per_s": rows,
                                  "test_acc": 0.75}
    assert doc["summary"]["train-manytask"]["sgd_rows_per_s"]["wins"] == 2


def test_unreadable_output_is_an_incorrect_run():
    runs = bench_pairs.compare(
        ["tnd-fit"], 1, lambda side, workload: (1, "Traceback ...\n"), DIRECTIONS
    )
    assert [(r["side"], r["exit_code"], r["correct"]) for r in runs] == [
        ("parent", 1, False), ("change", 1, False)
    ]
