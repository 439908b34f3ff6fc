"""CSV outputs compared byte for byte with files written before the
bound-function grids were cached, so that every exact value stays the same
double."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from shearlyap.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "sweep_gle.csv": ["sweep", "--mode", "gle", "--alpha", "1", "--q", "-3:3:0.5"],
    "sweep_neg_gle.csv": ["sweep", "--mode", "neg-gle", "--alpha", "-3", "--q", "-3:3:0.5"],
    "sweep_lyap_bounds.csv": ["sweep", "--mode", "lyap-bounds", "--alpha", "1:3:1"],
    "bounds_improved_neg.csv": ["bounds", "--alpha", "-3", "--beta", "3",
                                "--family", "improved"],
    # the two figure sweeps that had no golden file
    "sweep_envelopes.csv": ["sweep", "--mode", "envelopes", "--alpha", "1:10:0.25"],
    "sweep_neg_bounds.csv": ["sweep", "--mode", "neg-bounds", "--alpha", "-2.5:-10:-0.25"],
    # a small truncation, and moment orders whose sums need most of the grid
    # (large q) or whose corner runs past antidiagonal N + 1
    "sweep_lyap_bounds_n16.csv": ["sweep", "--mode", "lyap-bounds", "--alpha", "1:3:1",
                                  "--max-index", "16", "--tol", "1e-2"],
    "sweep_gle_q8.csv": ["sweep", "--mode", "gle", "--alpha", "1", "--q", "-8:8:1",
                         "--tol", "1e-2"],
    "sweep_neg_gle_q8.csv": ["sweep", "--mode", "neg-gle", "--alpha", "-3", "--q", "-8:8:1",
                             "--tol", "1e-2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_bytes(name):
    result = CliRunner().invoke(main, CASES[name] + ["--format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()
