"""Check that two source trees print the same outputs, bit for bit.

Usage: python tools/same_outputs.py PARENT_TREE

Runs a fixed list of CLI commands with the program of this checkout and
with the one under PARENT_TREE (each from its own src/), one fresh
interpreter per command: the five README figure sweeps, table1, gle-exact
for q = 1..5, bounds for both families at (1, 1) and (-3, 3) in text and
JSON, and the q = 60 moment sweep whose tail bound exceeds the tolerance
(exit 3); then the improved bounds at max_index 1024, a moment sweep at
shears of 1e30 and one at 1e100 whose terms overflow (exit 3); last the
bounds at max_index 8, whose tail bound exceeds the tolerance (exit 3),
moment sweeps over q = 3..6, q = -6..6 at (1, 1) and q = -8..8 at (-3, 3)
with max_index 128, one over q = -3..-1 at (-1e6, 1e6), whose tail bound
holds only because every bound function is at least 1, and one over
q = 10..30 with max_index 256, whose sums are decided on a second, longer
leading run; the bounds at shears of 1e160, whose bound functions overflow
to inf and are refused by name, and the improved bounds at (-3, 3) with
max_index 512, whose leading runs the opposed majorant F picks; then the
Monte Carlo estimates in JSON: lyapunov_mc at (1, 1) and at (-3, 3),
whose trajectories of 66 666 steps cross a 2^16-step coin chunk, gle_mc at
q = 2 over 5000 ensembles, sampled E_1024 at (5, 5), and exhaustive E_16,
E_20 at (1, 1) and E_19 at (-3, 3), which span several tiles of products.
JSON timestamps, and the tree's own path in warnings, are masked.  Every
command runs; exits 0 when every command's stdout, stderr and exit code
agree, and 1 naming each command that differs; 2 for a bad invocation.
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
    # the certified tail: a bound that fails the tolerance (exit 3), wide moment
    # sweeps, and at q < 0 the floor f >= 1 (with f >= 1/F instead, the tail at
    # alpha = -1e6 would be about 1.5e5 and every sum refused)
    "bounds --alpha 1 --beta 1 --max-index 8",
    "sweep --mode gle --alpha 1 --q 3:6:0.5 --format csv",
    "sweep --mode gle --alpha 1 --q -6:6:0.5 --format csv",
    "sweep --mode neg-gle --alpha -3 --q -8:8:0.5 --max-index 128 --format csv",
    "sweep --mode neg-gle --alpha -1e6 --q -3:-1:1 --format csv",
    # large q, where the first leading run cannot decide and a longer one is tried
    "sweep --mode gle --alpha 1 --q 10:30:2 --max-index 256 --format csv",
    # the majorant F of every bound function: overflow to inf named at the grid's
    # corner, and the leading runs F picks in the opposed regime on a wide grid
    "bounds --alpha 1e160 --beta 1e160",
    "bounds --alpha -3 --beta 3 --family improved --max-index 512 --format csv",
    # the Monte Carlo kernel: long and short trajectories, many ensembles, E_k
    "mc --alpha 1 --beta 1 --steps 1e6 --ensembles 25 --format json",
    "mc --alpha -3 --beta 3 --steps 2e5 --ensembles 3 --format json",
    "mc --alpha 1 --beta 1 --q 2 --ensembles 5000 --format json",
    "standard-bound --k 1024 --alpha 5 --beta 5 --mode sampled --samples 4000 --format json",
    "standard-bound --k 16 --alpha 1 --beta 1 --format json",
    "standard-bound --k 20 --alpha 1 --beta 1 --format json",
    "standard-bound --k 19 --alpha -3 --beta 3 --format json",
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
    """One CLI command run with the program under tree/src, outputs masked and
    the tree's path (which a warning prints with its source line) replaced."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SHEARLYAP_CONFIG", "SHEARLYAP_OUTPUT_DIR")}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run([sys.executable, "-m", "shearlyap.cli", *command.split()],
                          cwd=tree, env=env, capture_output=True, text=True, check=False)
    out, err = (mask(text.replace(str(tree), "<tree>")) for text in (proc.stdout, proc.stderr))
    return Outcome(out, err, proc.returncode)


def differences(left: Path, right: Path,
                runner: Callable[[Path, str], Outcome] = run) -> list[str]:
    """Every command whose outcome differs between the trees, with what
    differs, in the order of COMMANDS; empty when all agree."""
    found = []
    for command in COMMANDS:
        a, b = runner(left, command), runner(right, command)
        differs = [field for field in Outcome._fields if getattr(a, field) != getattr(b, field)]
        if differs:
            found.append(f"{command}: {', '.join(differs)} differ")
    return found


def main(argv: list[str], runner: Callable[[Path, str], Outcome] = run) -> int:
    if len(argv) != 2 or not (Path(argv[1]) / "src" / "shearlyap").is_dir():
        print("usage: python tools/same_outputs.py PARENT_TREE (a checkout with src/shearlyap)",
              file=sys.stderr)
        return 2
    found = differences(Path(argv[1]).resolve(), HERE, runner)
    if found:
        print("\n".join(found))
        return 1
    print(f"{len(COMMANDS)} commands, same stdout, stderr and exit code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
