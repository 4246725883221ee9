"""
The line counter and the record comparer under ``tools/``: the code lines
every size claim is read from, and the report of two record files.
"""

import json
import math

from conftest import load_by_path

CODE_LINES = load_by_path("tools_code_lines", "tools", "code_lines.py")
COMPARE = load_by_path("tools_compare_outputs", "tools", "compare_outputs.py")

# A module docstring, a comment, a function with a docstring, a string
# statement that is no docstring and a two-line expression: four code lines.
SAMPLE = '''"""A module docstring."""
# a comment
def f():
    """A function docstring."""
    "a string statement after the docstring"
    return (1 +
            2)
'''


def test_code_lines_skip_docstrings_and_comments_only():
    assert CODE_LINES.count(SAMPLE) == (7, 4)


def test_a_docstring_split_over_lines_counts_no_line():
    source = 'def f():\n    """\n    Two\n    lines.\n    """\n    return 1\n'
    assert CODE_LINES.count(source) == (6, 2)


def _compare(tmp_path, capsys, before, after):
    """The report of ``compare_outputs`` on two files of the given records, as lines."""
    paths = []
    for name, records in (("before.jsonl", before), ("after.jsonl", after)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        paths.append(str(path))
    assert COMPARE.main(*paths) == 0
    return capsys.readouterr().out.splitlines(), paths


RECORDS = [{"case": "a", "bound": "Bound(2.0)", "M": "sha256:0a1b", "labels": [[0, 1], [1, 1]]},
           {"case": "b", "bound": 3.5, "verdict": "stable"}]


def test_equal_files_report_nothing_moved(tmp_path, capsys):
    lines, _ = _compare(tmp_path, capsys, RECORDS, RECORDS)
    assert lines == ["2 records compared, 0 left over"]


def test_a_moved_float_reports_its_relative_gap(tmp_path, capsys):
    moved = [dict(RECORDS[0], bound="Bound(2.5)"), RECORDS[1]]
    lines, _ = _compare(tmp_path, capsys, RECORDS, moved)
    assert lines[0] == "2 records compared, 0 left over"
    assert lines[1].split() == ["moved", "bound", "largest", "relative", "gap", "2.00e-01",
                                "in", "1", "records"]  # |2.0 - 2.5| / 2.5
    assert len(lines) == 2


def test_a_changed_digest_is_no_moved_number(tmp_path, capsys):
    changed = [dict(RECORDS[0], M="sha256:0a1c"), RECORDS[1]]
    lines, _ = _compare(tmp_path, capsys, RECORDS, changed)
    assert lines[1:] == ["changed  %-40s in 1 records" % "M"]


def test_left_over_records_are_counted_in_the_longer_file(tmp_path, capsys):
    five = [{"case": k} for k in "abcde"]
    for before, after, longer in ((five, five[:3], 0), (five[:3], five, 1)):
        lines, paths = _compare(tmp_path, capsys, before, after)
        assert lines == ["3 records compared, 2 left over in %s" % paths[longer]]


def test_a_number_that_became_infinite_or_nan_has_an_infinite_gap():
    assert COMPARE.gap("Bound(2.0)", "Bound(inf)") == math.inf
    assert COMPARE.gap("1.5", "nan") == math.inf
    assert COMPARE.gap("-inf", "inf") == math.inf
    assert COMPARE.gap("Bound(inf)", "Bound(inf)") == COMPARE.gap("nan", "nan") == 0.0


def test_a_bound_that_became_unbounded_is_reported_moved(tmp_path, capsys):
    unbounded = [dict(RECORDS[0], bound="Bound(inf)"), RECORDS[1]]
    lines, _ = _compare(tmp_path, capsys, RECORDS, unbounded)
    assert lines[1:] == ["moved    %-40s largest relative gap inf in 1 records" % "bound"]
