import importlib.util
import json
import pathlib
import subprocess

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / (
    "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

#: a comment line
LIMIT = 700


class Grid:
    """Class docstring."""

    def span(self):
        """Function
        docstring."""
        text = """a string
that is no docstring"""
        return (len(text),
                # a comment inside the bracket
                math.pi)
'''


def test_code_lines_drop_docstrings_comments_and_blanks():
    # import, LIMIT, class, def, the string's two lines, and the return's
    # two lines with code
    assert bench_record.code_lines(SOURCE) == 8


def test_code_lines_of_one_statement():
    assert bench_record.code_lines("x = 1\n") == 1
    assert bench_record.code_lines('"""Only a docstring."""\n') == 0
    assert bench_record.code_lines("") == 0


def _result(pass_s, rss, correct=True, attempted=4, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"pass_s": {"unit": "s", "value": pass_s},
                        "peak_rss_mib": {"unit": "MiB", "value": rss}}}


def test_median_result_takes_each_metric_median():
    # the medians come from different runs: 1.2 s from the last,
    # 30.0 MiB from the first
    runs = [_result(1.5, 30.0), _result(1.1, 31.0), _result(1.2, 29.0)]
    assert bench_record.median_result(runs) == {
        "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"pass_s": {"unit": "s", "value": 1.2},
                    "peak_rss_mib": {"unit": "MiB", "value": 30.0}}}


def test_median_result_is_correct_only_if_every_run_was():
    runs = [_result(1.0, 30.0), _result(2.0, 30.0, correct=False, failed=2),
            _result(3.0, 30.0, attempted=5, failed=1)]
    median = bench_record.median_result(runs)
    assert median["correct"] is False
    assert (median["attempted"], median["failed"]) == (13, 3)
    assert median["metrics"]["pass_s"]["value"] == 2.0


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=bench",
                           "-c", "user.email=bench@example.org", *args],
                          cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


def test_main_pairs_each_run_with_the_parent_commit(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "run.py"], "run_seconds": 1,
         "workloads": [{"name": "w1"}, {"name": "w2"}]}))
    _git(repo, "init", "--quiet")
    commits = []
    for text in ("x = 1\n", "x = 2\ny = 3\n"):
        (repo / "src" / "m.py").write_text(text)
        _git(repo, "add", "-A")
        _git(repo, "commit", "--quiet", "-m", "step")
        commits.append(_git(repo, "rev-parse", "HEAD"))
    old, new = commits
    calls = []

    def side(checkout):
        # the commit checked out where the call runs
        return _git(checkout, "rev-parse", "HEAD")

    def fake_workload(checkout, command, name, seconds):
        calls.append((name, side(checkout), checkout))
        return {"machine": {"nproc": 2},
                "result": _result(2.0 if side(checkout) == new else 1.0,
                                  30.0)}

    def fake_fock(checkout):
        calls.append(("fock", side(checkout), checkout))
        return 5.0 if side(checkout) == new else 4.0

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_workload", fake_workload)
    monkeypatch.setattr(bench_record, "fock_full", fake_fock)
    monkeypatch.setattr(bench_record, "tier1",
                        lambda checkout: {"summary": side(checkout)})
    assert bench_record.main(["7", str(repo)]) == 0

    # each run of each workload, then of the oracle, is one pair; the
    # change goes first in runs 1 and 3, the parent in run 2
    order = [(new, old), (old, new), (new, old)]
    assert [(name, commit) for name, commit, _ in calls] == [
        (name, commit) for pair in order for name in ("w1", "w2")
        for commit in pair] + [
        ("fock", commit) for pair in order for commit in pair]
    # the parent ran in a temporary clone, removed afterwards
    clones = {path for _, commit, path in calls if commit == old}
    assert len(clones) == 1 and not clones.pop().exists()
    assert {path for _, commit, path in calls if commit == new} == {repo}

    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (record["commit"], record["parent"]["commit"]) == (new, old)
    assert record["tier1"] == {"summary": new}
    assert (record["src_lines"], record["src_code_lines"]) == (2, 2)
    for got, value, fock in ((record, 2.0, 5.0),
                             (record["parent"], 1.0, 4.0)):
        for name in ("w1", "w2"):
            assert got["workloads"][name] == {
                "machine": {"nproc": 2},
                "result": _result(value, 30.0, attempted=12),
                "runs": [_result(value, 30.0)] * 3}
        assert got["fock_full_runs_s"] == [fock] * 3
        assert got["fock_full_s"] == fock
