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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_bytes(name):
    result = CliRunner().invoke(main, CASES[name] + ["--format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / name).read_bytes()
