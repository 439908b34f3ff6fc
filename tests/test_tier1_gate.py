"""The tier-1 gate on synthetic JUnit XML reports."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"
_spec = importlib.util.spec_from_file_location("tier1_gate", GATE)
tier1_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1_gate)

PASS = '<testcase classname="{0}" name="{1}" time="0.1" />'
FAIL = '<testcase classname="{0}" name="{1}"><failure message="assert">x</failure></testcase>'
ERROR = '<testcase classname="{0}" name="{1}"><error message="boom">x</error></testcase>'
SKIP = '<testcase classname="{0}" name="{1}"><skipped message="no mpmath" /></testcase>'


def report(*cases):
    body = "".join(kind.format(classname, name) for kind, classname, name in cases)
    return f'<?xml version="1.0"?><testsuites><testsuite name="pytest">{body}</testsuite></testsuites>'


KNOWN = [(FAIL, "tests.test_acceptance", "test_criterion_04"),
         (FAIL, "tests.test_acceptance", "test_criterion_09")]
OTHERS = [(PASS, "tests.test_acceptance", "test_criterion_01"),
          (PASS, "tests.test_cli.TestSweepCommand", "test_gle_requires_single_alpha"),
          (SKIP, "tests.test_series", "test_mpmath_oracle")]


def test_exactly_the_known_failures_pass_the_gate():
    passed, summary = tier1_gate.verdict(report(*OTHERS, *KNOWN))
    assert passed
    assert summary == "5 tests, 2 failed, 0 errors"


@pytest.mark.parametrize("cases,problem", [
    (OTHERS + KNOWN + [(FAIL, "tests.test_cli.TestSweepCommand", "test_x[gle]")],
     "unexpected failure: tests.test_cli.TestSweepCommand::test_x[gle]"),
    (OTHERS + KNOWN[:1] + [(PASS, "tests.test_acceptance", "test_criterion_09")],
     "expected to fail but did not: tests.test_acceptance::test_criterion_09"),
    (OTHERS + KNOWN[1:],
     "expected to fail but did not: tests.test_acceptance::test_criterion_04"),
    (OTHERS + KNOWN + [(ERROR, "", "tests.test_engine")], "error: ::tests.test_engine"),
    (OTHERS + KNOWN[:1] + [(ERROR, "tests.test_acceptance", "test_criterion_09")],
     "error: tests.test_acceptance::test_criterion_09"),
    ([], "the report holds no tests"),
])
def test_anything_else_fails_the_gate(cases, problem):
    passed, summary = tier1_gate.verdict(report(*cases))
    assert not passed
    assert problem in summary.splitlines()


def test_exit_codes(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, str(GATE), *map(str, args)],
                              capture_output=True, text=True).returncode

    good, bad, broken = tmp_path / "good.xml", tmp_path / "bad.xml", tmp_path / "broken.xml"
    good.write_text(report(*OTHERS, *KNOWN))
    bad.write_text(report(*OTHERS))
    broken.write_text("<testsuites>")
    assert [run(good), run(bad), run(broken), run(tmp_path / "missing.xml"), run()] == [
        0, 1, 2, 2, 2]
