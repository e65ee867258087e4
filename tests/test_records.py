"""Result records are named tuples."""

import subprocess
import sys

import pytest

from albert import (
    JordanMatrix,
    classify_psquare,
    decompose,
    diagonalize,
    modified_char_check,
    run_verification,
    solve_characteristic,
)

A = JordanMatrix.diag(3.0, 2.0, 1.0)


def records():
    report = run_verification(count=1, seed=3)
    return [
        solve_characteristic(6.0, 11.0, 6.0),
        decompose(A),
        diagonalize(A),
        modified_char_check(A),
        classify_psquare(A),
        report.rows[0],
        report,
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
class TestRecords:
    def test_tuple_of_its_fields(self, record):
        values = tuple(getattr(record, name) for name in record._fields)
        assert isinstance(record, tuple)
        assert record == values and tuple(record) == values
        assert repr(record) == f"{type(record).__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(record._fields, values)) + ")"

    def test_assignment_raises(self, record):
        for name in (record._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_to_dict(self, record):
        assert isinstance(record.to_dict(), dict)


def test_cubic_roots_keep_their_default_and_property():
    roots = solve_characteristic(6.0, 11.0, 6.0)
    assert roots.repeated is None and roots.simple == roots.roots
    assert type(roots)(roots.roots, "distinct") == roots


def test_package_does_not_import_dataclasses(child_env):
    code = ("import sys, albert.cli, albert.verify\n"
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
