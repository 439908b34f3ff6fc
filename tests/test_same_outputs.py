"""tools/same_outputs.py on canned outputs, one of them edited."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def canned(*edits):
    """A runner that answers every command with a fixed outcome; each edit =
    (command, field, value) changes one field of one command's outcome in this
    checkout."""
    def runner(tree, command):
        out = same_outputs.Outcome(f"{command}\n0.1234567890123\n", "", 0)
        for edited, field, value in edits:
            if tree == same_outputs.HERE and command == edited:
                out = out._replace(**{field: value})
        return out
    return runner


def test_same_outputs_exit_0(capsys, tmp_path):
    (tmp_path / "src" / "shearlyap").mkdir(parents=True)
    assert same_outputs.main(["same_outputs.py", str(tmp_path)], canned()) == 0
    assert "same stdout, stderr and exit code" in capsys.readouterr().out


@pytest.mark.parametrize("field,value", [("stdout", "...\n0.1234567890124\n"),
                                         ("stderr", "warning\n"), ("code", 3)])
def test_one_edited_output_exits_1_naming_its_command(capsys, tmp_path, field, value):
    (tmp_path / "src" / "shearlyap").mkdir(parents=True)
    command = same_outputs.COMMANDS[7]
    assert same_outputs.differences(tmp_path, same_outputs.HERE,
                                    canned((command, field, value))) \
        == [f"{command}: {field} differ"]
    assert same_outputs.main(["same_outputs.py", str(tmp_path)],
                             canned((command, field, value))) == 1
    assert capsys.readouterr().out == f"{command}: {field} differ\n"


def test_every_differing_command_is_named(capsys, tmp_path):
    # the commands after the first that differs still run, and each is named
    (tmp_path / "src" / "shearlyap").mkdir(parents=True)
    first, last = same_outputs.COMMANDS[3], same_outputs.COMMANDS[-1]
    runner = canned((first, "stderr", "warning\n"), (last, "code", 1), (last, "stdout", ""))
    assert same_outputs.main(["same_outputs.py", str(tmp_path)], runner) == 1
    assert capsys.readouterr().out == (f"{first}: stderr differ\n"
                                       f"{last}: stdout, code differ\n")


def test_timestamps_are_masked():
    a = '{"metadata": {"seed": 1, "timestamp": "2026-01-01T00:00:00.1+00:00"}}'
    b = '{"metadata": {"seed": 1, "timestamp": "2026-10-20T09:30:12.7+00:00"}}'
    assert same_outputs.mask(a) == same_outputs.mask(b) != a
    assert same_outputs.mask(a.replace('"seed": 1', '"seed": 2')) != same_outputs.mask(b)


def test_warnings_print_no_tree_path():
    # gle_mc warns of a small effective sample size, with the path of its caller
    out = same_outputs.run(same_outputs.HERE,
                           "mc --alpha 1 --beta 1 --q 2 --steps 4000 --ensembles 20")
    assert out.code == 0
    assert "<tree>/src/shearlyap/cli.py" in out.stderr and str(same_outputs.HERE) not in out.stderr


def test_commands_cover_the_figures_tables_bounds_and_a_refusal():
    commands = same_outputs.COMMANDS
    assert sum(c.startswith("sweep --mode") and "--format csv" in c for c in commands) == 11
    assert "table1 --format json" in commands
    assert sum(c.startswith("gle-exact") for c in commands) == 5
    assert sum(c.startswith("bounds") for c in commands) == 10
    assert "sweep --mode gle --alpha 1 --q 60 --family global" in commands
    # the paths that evaluate grids on leading runs
    assert "bounds --alpha 1 --beta 1 --family improved --max-index 1024 --format csv" in commands
    assert "sweep --mode gle --alpha 1e30 --q -2:2:1 --format csv" in commands
    assert "sweep --mode gle --alpha 1e100 --q 2" in commands
    # the certified tail: refused, wide moment sweeps, and the q < 0 floor f >= 1
    assert "bounds --alpha 1 --beta 1 --max-index 8" in commands
    assert "sweep --mode gle --alpha 1 --q 3:6:0.5 --format csv" in commands
    assert "sweep --mode gle --alpha 1 --q -6:6:0.5 --format csv" in commands
    assert ("sweep --mode neg-gle --alpha -3 --q -8:8:0.5 --max-index 128 "
            "--format csv") in commands
    assert "sweep --mode neg-gle --alpha -1e6 --q -3:-1:1 --format csv" in commands
    # moment sums decided on a second, longer leading run
    assert "sweep --mode gle --alpha 1 --q 10:30:2 --max-index 256 --format csv" in commands
    # the Monte Carlo kernel, one trajectory past a coin chunk, and E_k both ways
    assert "mc --alpha 1 --beta 1 --steps 1e6 --ensembles 25 --format json" in commands
    assert "mc --alpha -3 --beta 3 --steps 2e5 --ensembles 3 --format json" in commands
    assert "mc --alpha 1 --beta 1 --q 2 --ensembles 5000 --format json" in commands
    assert ("standard-bound --k 1024 --alpha 5 --beta 5 --mode sampled --samples 4000 "
            "--format json") in commands
    assert "standard-bound --k 16 --alpha 1 --beta 1 --format json" in commands
    # exhaustive E_k over several tiles of products, in both regimes
    assert "standard-bound --k 20 --alpha 1 --beta 1 --format json" in commands
    assert "standard-bound --k 19 --alpha -3 --beta 3 --format json" in commands
    assert len(commands) == 36


def test_a_tree_without_the_program_exits_2(tmp_path):
    assert same_outputs.main(["same_outputs.py", str(tmp_path)], canned()) == 2
    assert same_outputs.main(["same_outputs.py"], canned()) == 2
