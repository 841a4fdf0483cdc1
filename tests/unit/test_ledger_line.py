"""The ledger result-line check: one JSON object, ``correct`` true, and
every metric value a finite number."""

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

from check_ledger_line import problems  # noqa: E402

sys.path.pop(0)


def line(correct=True, **values):
    return json.dumps({"correct": correct, "metrics": {
        name: {"value": value, "unit": "s"} for name, value in values.items()}})


def test_a_well_formed_line_after_the_report_passes():
    assert problems("table\nwrote out.json\n" + line(wall_s=0.5, n=3)) == []


def test_null_nan_and_strings_are_not_metric_values():
    bad = problems(line(a=None, b=float("nan"), c="1", d=True, e=1.0))
    assert bad == ["a = None is not a finite number",
                   "b = nan is not a finite number",
                   "c = '1' is not a finite number",
                   "d = True is not a finite number"]


def test_an_incorrect_or_malformed_result_fails():
    assert problems(line(correct=False, a=1)) == [
        "correct is False, not true"]
    assert problems("") == ["no output"]
    assert problems("[1, 2]") == ["last line is not a JSON object"]
    assert problems(line()) == ["no metrics"]
    assert problems("{not json")[0].startswith("last line is not JSON")
