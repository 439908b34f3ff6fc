"""Check that two source trees print the same outputs, bit for bit.

Usage: python tools/same_outputs.py PARENT_TREE

Runs a fixed list of CLI commands with the program of this checkout and
with the one under PARENT_TREE (each from its own src/), one fresh
interpreter per command: the five README figure sweeps, table1, gle-exact
for q = 1..5, bounds for both families at (1, 1) and (-3, 3) in text and
JSON, and the q = 60 moment sweep that exits 3; then the improved bounds at
max_index 1024, a moment sweep at shears of 1e30 and one at 1e100 whose
terms overflow (exit 3).  JSON timestamps are masked.  Exits 0 when every
command's stdout, stderr and exit code agree, and 1 naming the first
command that differs; 2 for a bad invocation.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parents[1]

COMMANDS = [
    "sweep --mode lyap-bounds --alpha 1:10:0.25 --format csv",
    "sweep --mode envelopes --alpha 1:10:0.25 --format csv",
    "sweep --mode neg-bounds --alpha -2.5:-10:-0.25 --format csv",
    "sweep --mode gle --alpha 1 --beta 1 --q -3:3:0.1 --format csv",
    "sweep --mode neg-gle --alpha -3 --beta 3 --q -3:3:0.1 --format csv",
    "table1 --format json",
    *[f"gle-exact --q {q} --format json" for q in range(1, 6)],
    *[f"bounds --alpha {a} --beta {b} --family {family} --format {fmt}"
      for a, b in (("1", "1"), ("-3", "3")) for family in ("global", "improved")
      for fmt in ("text", "json")],
    "sweep --mode gle --alpha 1 --q 60 --family global",
    # where grids are evaluated on leading runs: a wide grid, huge shears, overflow
    "bounds --alpha 1 --beta 1 --family improved --max-index 1024 --format csv",
    "sweep --mode gle --alpha 1e30 --q -2:2:1 --format csv",
    "sweep --mode gle --alpha 1e100 --q 2",
]

_TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')


class Outcome(NamedTuple):
    stdout: str
    stderr: str
    code: int


def mask(text: str) -> str:
    """text with every JSON timestamp value replaced by a fixed string."""
    return _TIMESTAMP.sub(r'\1"<masked>"', text)


def run(tree: Path, command: str) -> Outcome:
    """One CLI command run with the program under tree/src, outputs masked."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SHEARLYAP_CONFIG", "SHEARLYAP_OUTPUT_DIR")}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run([sys.executable, "-m", "shearlyap.cli", *command.split()],
                          cwd=tree, env=env, capture_output=True, text=True, check=False)
    return Outcome(mask(proc.stdout), mask(proc.stderr), proc.returncode)


def first_difference(left: Path, right: Path,
                     runner: Callable[[Path, str], Outcome] = run) -> str | None:
    """The first command whose outcome differs between the trees, with what
    differs, or None when all agree."""
    for command in COMMANDS:
        a, b = runner(left, command), runner(right, command)
        differs = [field for field in Outcome._fields if getattr(a, field) != getattr(b, field)]
        if differs:
            return f"{command}: {', '.join(differs)} differ"
    return None


def main(argv: list[str], runner: Callable[[Path, str], Outcome] = run) -> int:
    if len(argv) != 2 or not (Path(argv[1]) / "src" / "shearlyap").is_dir():
        print("usage: python tools/same_outputs.py PARENT_TREE (a checkout with src/shearlyap)",
              file=sys.stderr)
        return 2
    difference = first_difference(Path(argv[1]).resolve(), HERE, runner)
    if difference is not None:
        print(difference)
        return 1
    print(f"{len(COMMANDS)} commands, same stdout, stderr and exit code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
