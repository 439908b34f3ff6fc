"""tools/same_outputs.py on canned outputs, one of them edited."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def canned(edit=None):
    """A runner that answers every command with a fixed outcome; edit = (command,
    field, value) changes one field of one command's outcome in this checkout."""
    def runner(tree, command):
        out = same_outputs.Outcome(f"{command}\n0.1234567890123\n", "", 0)
        if edit is not None and tree == same_outputs.HERE and command == edit[0]:
            out = out._replace(**{edit[1]: edit[2]})
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
    assert same_outputs.first_difference(tmp_path, same_outputs.HERE,
                                         canned((command, field, value))) \
        == f"{command}: {field} differ"
    assert same_outputs.main(["same_outputs.py", str(tmp_path)],
                             canned((command, field, value))) == 1
    assert capsys.readouterr().out == f"{command}: {field} differ\n"


def test_timestamps_are_masked():
    a = '{"metadata": {"seed": 1, "timestamp": "2026-01-01T00:00:00.1+00:00"}}'
    b = '{"metadata": {"seed": 1, "timestamp": "2026-10-20T09:30:12.7+00:00"}}'
    assert same_outputs.mask(a) == same_outputs.mask(b) != a
    assert same_outputs.mask(a.replace('"seed": 1', '"seed": 2')) != same_outputs.mask(b)


def test_commands_cover_the_figures_tables_bounds_and_a_refusal():
    commands = same_outputs.COMMANDS
    assert sum(c.startswith("sweep --mode") and "--format csv" in c for c in commands) == 6
    assert "table1 --format json" in commands
    assert sum(c.startswith("gle-exact") for c in commands) == 5
    assert sum(c.startswith("bounds") for c in commands) == 9
    assert "sweep --mode gle --alpha 1 --q 60 --family global" in commands
    # the paths that evaluate grids on leading runs
    assert "bounds --alpha 1 --beta 1 --family improved --max-index 1024 --format csv" in commands
    assert "sweep --mode gle --alpha 1e30 --q -2:2:1 --format csv" in commands
    assert "sweep --mode gle --alpha 1e100 --q 2" in commands
    assert len(commands) == 23


def test_a_tree_without_the_program_exits_2(tmp_path):
    assert same_outputs.main(["same_outputs.py", str(tmp_path)], canned()) == 2
    assert same_outputs.main(["same_outputs.py"], canned()) == 2
