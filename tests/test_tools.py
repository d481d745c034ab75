"""The bytecode counter in tools/ counts the same on every run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_bytecodes.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("count_bytecodes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_cycle_counts_the_same_twice(tool):
    first, second = tool.count_tiny(), tool.count_tiny()
    assert first.layers == second.layers and first.functions == second.functions
    assert first.total == sum(first.functions.values())
    # every executed command goes through commands.run: m2 merges the
    # fixture's four, m1 the renamed dog
    assert first.functions["evmigrate.commands.run"] > 0
    assert set(first.layers) <= {*tool.LAYERS, tool.BENCH}


def test_a_bulk_churn_sync_counts_the_same_twice(tool):
    first, second = (tool.count_bulk_churn(seed=1, sync_number=2, size=200) for _ in range(2))
    assert first.layers == second.layers and first.functions == second.functions
    assert first.layers["editor.merge_all"] > 0 and first.layers["codec.encode_model"] > 0


def test_a_bulk_forward_counts_the_same_twice(tool, capsys):
    first, second = (tool.count_bulk_forward(seed=1, size=200) for _ in range(2))
    assert first.layers == second.layers and first.functions == second.functions
    assert first.layers["sync.migrate_forward"] > 0 and first.layers["codec.decode_model"] > 0
    # m1 is valid by construction: the forward does not validate it
    assert first.layers["metamodel.validate"] == 0 and first.functions["evmigrate.codec.keep_blocks"]
    assert tool.report("f", first, 5) == tool.report("f", second, 5)


def test_the_report_lists_layers_then_functions(tool):
    count = tool.count_tiny()
    lines = tool.report("tiny", count, functions=3)
    assert lines[0] == "tiny" and lines[-5].split() == ["total", str(count.total)]
    assert len(lines[-3:]) == 3
