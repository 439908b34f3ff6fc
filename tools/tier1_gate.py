"""Judge a tier-1 test run from its JUnit XML report.

Usage: python tools/tier1_gate.py REPORT.xml

Acceptance criteria 4 and 9 assert published values that direct
computation contradicts, so they fail on purpose (README.md, "Install and
test").  The gate exits 0 only when the report has tests, no test
errors, and the failed tests are exactly those two.  A new failure, a
collection or setup error, or a known failure that starts passing exits 1;
a report that cannot be read exits 2.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = frozenset({
    "tests.test_acceptance::test_criterion_04",
    "tests.test_acceptance::test_criterion_09",
})


def verdict(report: str) -> tuple[bool, str]:
    """(passed, summary) for the JUnit XML text of one pytest run."""
    cases = list(ET.fromstring(report).iter("testcase"))
    failed, errored = set(), set()
    for case in cases:
        name = f"{case.get('classname', '')}::{case.get('name', '')}"
        if case.find("failure") is not None:
            failed.add(name)
        if case.find("error") is not None:
            errored.add(name)
    problems = [f"unexpected failure: {n}" for n in sorted(failed - EXPECTED_FAILURES)]
    problems += [f"error: {n}" for n in sorted(errored)]
    problems += [f"expected to fail but did not: {n}"
                 for n in sorted(EXPECTED_FAILURES - failed)]
    if not cases:
        problems.append("the report holds no tests")
    summary = [f"{len(cases)} tests, {len(failed)} failed, {len(errored)} errors"] + problems
    return not problems, "\n".join(summary)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/tier1_gate.py REPORT.xml", file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as fh:
            passed, summary = verdict(fh.read())
    except (OSError, ET.ParseError) as exc:
        print(f"cannot read {argv[1]}: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
