"""Smoke tests of the measurement scripts under tools/."""

import importlib
import subprocess
from pathlib import Path

import pytest

import mdsim.harness as harness

TOOLS = Path(__file__).parents[1] / "tools"


def test_sweep_calls_counts_the_records_blocks(monkeypatch):
    """``sweep_calls`` gives per scheme the blocks its records count, and
    calls that decode at least those blocks, on an error-stopped sweep."""
    monkeypatch.syspath_prepend(str(TOOLS))
    sweep_calls = importlib.import_module("sweep_calls").sweep_calls
    cfg = harness.parse_config("taps = 1,0.5,0.25\nschemes = MD,DFSE(1)+VA,"
                               "BCJR+VA\nebn0_db = 6,8\nmin_errors = 60\n"
                               "max_bits = 4000\nblock_bits = 200\nseed = 4\n")
    calls, counted = sweep_calls(cfg)
    want = {}
    for r in harness.run_ber_sweep(cfg):
        want[r.scheme] = want.get(r.scheme, 0) + r.bits // cfg.block_bits
    assert counted == want
    assert set(calls) == set(want)
    for label, sizes in calls.items():
        assert sum(sizes) >= counted[label]


def _run(**values):
    """A hand-made ``bench/run.py`` result with the given metric values."""
    return {"exit": 0, "env": {"host": "x"}, "correct": True, "attempted": 3,
            "failed": 0, "sweeps": 2, "probed_sweeps": 1,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def test_bench_pairs_report_counts_wins_and_skips_missing(monkeypatch):
    """``report`` counts a tie for neither side, counts the larger value as
    the win of a ``better: higher`` metric, and leaves out a metric that
    one side's runs never reported; ``summary`` of one run gives its
    value as both quartiles."""
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    metrics = {"sweep_s": {"unit": "s", "better": "lower"},
               "ratio": {"unit": "ratio", "better": "higher"},
               "peak_rss_mb": {"unit": "MB", "better": "lower"}}
    runs = {"parent": [_run(sweep_s=2.0, ratio=0.5, peak_rss_mb=9.0),
                       _run(sweep_s=2.0, ratio=0.5),
                       _run(sweep_s=2.0, ratio=0.5)],
            "change": [_run(sweep_s=1.0, ratio=0.5),
                       _run(sweep_s=2.0, ratio=0.9),
                       _run(sweep_s=3.0, ratio=0.1)]}
    row = bench_pairs.report(runs, metrics)
    assert set(row["metrics"]) == {"sweep_s", "ratio"}
    assert row["metrics"]["sweep_s"]["change_wins"] == 1
    assert row["metrics"]["ratio"]["change_wins"] == 1
    assert row["metrics"]["sweep_s"]["pairs"] == 3
    assert row["metrics"]["sweep_s"]["change"]["median"] == 2.0
    assert row["parent"]["attempted"] == 9
    assert row["change"]["probed_sweeps"] == ["1/2"] * 3
    assert bench_pairs.summary([4.0]) == {"median": 4.0, "q1": 4.0,
                                          "q3": 4.0, "runs": [4.0]}


def test_change_export_holds_the_working_tree(monkeypatch, tmp_path):
    """The change side exports the tracked edits of the working tree, the
    parent side HEAD, and neither touches the working tree; an untracked
    file under src/ stops the change side, naming the file."""
    monkeypatch.syspath_prepend(str(TOOLS))
    bench_pairs = importlib.import_module("bench_pairs")
    for role in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{role}_NAME", "tester")
        monkeypatch.setenv(f"GIT_{role}_EMAIL", "tester@example.com")
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    source = repo / "src" / "code.py"
    source.write_text("old\n")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    source.write_text("new\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    status = git("status", "--porcelain")
    bench_pairs.export(bench_pairs.change_commit(), tmp_path / "change")
    bench_pairs.export(git("rev-parse", "HEAD").strip(), tmp_path / "parent")
    assert (tmp_path / "change" / "src" / "code.py").read_text() == "new\n"
    assert (tmp_path / "parent" / "src" / "code.py").read_text() == "old\n"
    assert source.read_text() == "new\n"
    assert git("status", "--porcelain") == status
    assert git("stash", "list") == ""
    (repo / "src" / "extra.py").write_text("")
    with pytest.raises(SystemExit, match="src/extra.py"):
        bench_pairs.change_commit()


def test_call_pairs_rejects_one_pair(monkeypatch):
    """``--pairs 1`` leaves no quartiles of the ratios: it is refused with
    exit status 2 before anything is exported."""
    monkeypatch.syspath_prepend(str(TOOLS))
    call_pairs = importlib.import_module("call_pairs")
    exported = []
    monkeypatch.setattr(call_pairs, "export",
                        lambda *args: exported.append(args))
    with pytest.raises(SystemExit) as exc:
        call_pairs.main(["--parent", "HEAD", "--scheme", "MD",
                         "--pairs", "1"])
    assert exc.value.code == 2
    assert exported == []
