"""The names the traced benchmark run (perfbench/run.py --trace 1) wraps.

The tracer replaces these attributes for the length of a traced
operation, so each must exist and be looked up by its callers at call
time; a rename would otherwise break only the traced benchmark.
"""

import pytest

import evmigrate
from evmigrate import commands, sync
from evmigrate.commands import Command
from evmigrate.editor import Editor
from evmigrate.metamodel import InstanceModel

from conftest import data_text


@pytest.mark.parametrize(
    "owner, attr",
    [
        (commands, "run"),
        (sync, "encode_log"),
        (sync, "decode_log"),
        (Editor, "adopt_model"),
        (Editor, "parse_model"),
        (Editor, "merge_all"),
        (InstanceModel, "validate"),
        (Command, "target_class"),
        (evmigrate.MigrationSession, "create"),
        (evmigrate, "decode_model"),
        (evmigrate, "encode_model"),
        (evmigrate, "migrate_forward"),
        (evmigrate, "apply_mutations"),
        (evmigrate, "migrate_backward"),
    ],
)
def test_wrapped_name_exists(owner, attr):
    assert hasattr(owner, attr)


def test_run_is_looked_up_at_call_time(monkeypatch):
    calls = []
    original = commands.run

    def counting_run(cmd, editor):
        calls.append(cmd)
        return original(cmd, editor)

    monkeypatch.setattr(commands, "run", counting_run)
    session = evmigrate.MigrationSession.for_scenario("ybirth")
    model = evmigrate.decode_model(data_text("pets.inst"), session.m1.schema)
    evmigrate.migrate_forward(session, model)
    # m2 executed every command once while merging; m1's parse would only
    # write back what it read, so it ran none
    assert len(calls) == len(session.m2.store) == len(session.m1.store) == 2


def test_rename_backward_ships_and_runs_one_command(monkeypatch):
    session = evmigrate.MigrationSession.for_scenario("ybirth")
    model = evmigrate.decode_model(data_text("pets.inst"), session.m1.schema)
    evmigrate.migrate_forward(session, model)
    evmigrate.apply_mutations(session.m2.model, "set d1 name Odie\n")
    runs, decoded = [], []
    original_run, original_decode = commands.run, sync.decode_log

    def counting_run(cmd, editor):
        runs.append(cmd)
        return original_run(cmd, editor)

    def recording_decode(text):
        doc = original_decode(text)
        decoded.append(doc.commands)
        return doc

    monkeypatch.setattr(commands, "run", counting_run)
    monkeypatch.setattr(sync, "decode_log", recording_decode)
    evmigrate.migrate_backward(session)
    renamed = evmigrate.have_dog("d1", owner_id="p1", name="Odie", age=4)
    assert decoded == [[renamed]]
    # m1 ran it while merging; m2's parse and the unchanged person ran nowhere
    assert runs == [renamed]


def test_parse_model_yields_every_stored_command():
    # the traced run counts recovered ages and ybirth conversions over it
    session = evmigrate.MigrationSession.for_scenario("dog-no-age")
    evmigrate.migrate_forward(session, evmigrate.decode_model(data_text("pets.inst"), session.m1.schema))
    parsed = list(session.m2.parse_model())
    assert len(parsed) == 2 and {cmd.id: cmd for cmd in parsed} == session.m2.store.snapshot()
    assert all(isinstance(cmd, Command) for cmd in parsed)
    # m2 declares no Dog.age: the dog's age is the one recovered from the store
    assert {(cmd.target_class, cmd.age) for cmd in parsed} == {("Person", 23), ("Dog", 4)}


def test_every_export_resolves_once_in_sorted_order():
    assert all(hasattr(evmigrate, name) for name in evmigrate.__all__)
    assert evmigrate.__all__ == sorted(set(evmigrate.__all__))
