import importlib.util
import pathlib

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
