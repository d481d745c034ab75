import subprocess
import sys

import pytest

from evmigrate import Editor, EventStore, commands as commands_mod
from evmigrate.commands import KIND_OF_CLASS
from evmigrate.checks import check_delta, check_overwrite, check_roundtrip
from evmigrate.cli import BenchReport, main, run_bench

from conftest import DATA


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "evmigrate", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def migrate_args(tmp_path, out_name="out.inst", **extra):
    args = [
        "migrate",
        "--m1-schema", str(DATA / "base.schema"),
        "--m2-schema", str(DATA / "ybirth.schema"),
        "--input", str(DATA / "pets.inst"),
        "--out", str(tmp_path / out_name),
    ]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


class TestMigrate:
    def test_golden_output(self, tmp_path):
        log = tmp_path / "log.cmdlog"
        rc = main(migrate_args(tmp_path, log=log))
        assert rc == 0
        assert (tmp_path / "out.inst").read_text() == (DATA / "golden_ybirth_m2.inst").read_text()
        assert log.read_text() == (DATA / "golden_pets.cmdlog").read_text()

    def test_missing_input_is_usage_error(self, tmp_path):
        result = run_cli(
            "migrate",
            "--m1-schema", str(DATA / "base.schema"),
            "--m2-schema", str(DATA / "ybirth.schema"),
            "--out", str(tmp_path / "out.inst"),
        )
        assert result.returncode == 2

    def test_malformed_schema_names_file_and_line(self, tmp_path):
        bad = tmp_path / "bad.schema"
        bad.write_text("class Person\n  attr name float\n")
        result = run_cli(*migrate_args(tmp_path), "--m1-schema", str(bad))
        assert result.returncode == 1
        assert "bad.schema" in result.stderr
        assert "line 2" in result.stderr

    def test_year_flag_changes_conversion(self, tmp_path):
        rc = main(migrate_args(tmp_path, year=2000))
        assert rc == 0
        assert "ybirth 1977" in (tmp_path / "out.inst").read_text()

    def test_year_env_var_used_as_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVMIGRATE_YEAR", "2024")
        rc = main(migrate_args(tmp_path))
        assert rc == 0
        assert "ybirth 2001" in (tmp_path / "out.inst").read_text()

    def test_year_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVMIGRATE_YEAR", "2024")
        rc = main(migrate_args(tmp_path, year=2000))
        assert rc == 0
        assert "ybirth 1977" in (tmp_path / "out.inst").read_text()

    def test_bad_env_year_is_domain_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EVMIGRATE_YEAR", "soon")
        rc = main(migrate_args(tmp_path))
        assert rc == 1
        assert "EVMIGRATE_YEAR" in capsys.readouterr().err

    @pytest.mark.parametrize("year", ["0", "-3"])
    def test_non_positive_year_flag_is_usage_error(self, tmp_path, capsys, year):
        for argv in (migrate_args(tmp_path, year=year), ["bench", "--iterations", "2", "--year", year]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--year must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("year", ["0", "-3"])
    def test_non_positive_env_year_is_domain_error(self, tmp_path, monkeypatch, capsys, year):
        monkeypatch.setenv("EVMIGRATE_YEAR", year)
        for argv in (migrate_args(tmp_path), ["bench", "--iterations", "2"]):
            assert main(argv) == 1
            assert f"EVMIGRATE_YEAR must be a positive integer, got {year!r}" in capsys.readouterr().err


def roundtrip_args(tmp_path, mutations, m2="dog_no_age.schema"):
    return [
        "roundtrip",
        "--m1-schema", str(DATA / "base.schema"),
        "--m2-schema", str(DATA / m2),
        "--input", str(DATA / "pets.inst"),
        "--mutations", str(mutations),
        "--out", str(tmp_path / "back.inst"),
    ]


class TestRoundtrip:
    def test_task4_fixture_preserves_age(self, tmp_path):
        rc = main(roundtrip_args(tmp_path, DATA / "rename_dog.mut"))
        assert rc == 0
        assert (tmp_path / "back.inst").read_text() == (
            DATA / "golden_task4_back.inst"
        ).read_text()

    def test_empty_mutations_reproduce_input(self, tmp_path):
        rc = main(roundtrip_args(tmp_path, DATA / "empty.mut"))
        assert rc == 0
        assert (tmp_path / "back.inst").read_text() == (DATA / "pets.inst").read_text()

    def test_unknown_mutation_id_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.mut"
        bad.write_text("set nobody name X\n")
        rc = main(roundtrip_args(tmp_path, bad))
        assert rc == 1
        assert "nobody" in capsys.readouterr().err


class TestCheck:
    def test_zero_cases_vacuously_pass(self, capsys):
        rc = main(["check", "--cases", "0", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check result: PASS (0 cases, 0 failures)" in out

    def test_small_run_passes(self, capsys):
        rc = main(["check", "--cases", "20", "--seed", "42"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check overwrite: cases=20 failures=0" in out
        assert "check commutativity: cases=20 failures=0" in out
        assert "check roundtrip: cases=20 failures=0" in out
        assert "check delta: cases=20 failures=0" in out

    def test_transcripts_are_deterministic(self):
        a = run_cli("check", "--cases", "40", "--seed", "7")
        b = run_cli("check", "--cases", "40", "--seed", "7")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout != ""

    def test_negative_cases_usage_error(self):
        result = run_cli("check", "--cases", "-1", "--seed", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("max_commands", ["0", "-1"])
    def test_non_positive_max_commands_usage_error(self, capsys, max_commands):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--cases", "3", "--seed", "1", "--max-commands", max_commands])
        assert exc.value.code == 2
        assert "--max-commands must be >= 1" in capsys.readouterr().err


class TestLawOracleCatchesBrokenImplementations:
    def test_non_overwriting_person_run_detected(self, monkeypatch):
        original = commands_mod.run

        def appending_run(cmd, editor):
            if cmd.kind != commands_mod.HAVE_PERSON:
                return original(cmd, editor)
            person = editor.get_or_create("Person", cmd.id)
            if cmd.name is not None:
                old = person.attributes.get("name", "")
                editor.model.set_attribute(person, "name", old + cmd.name)
            return cmd.id

        monkeypatch.setattr(commands_mod, "run", appending_run)
        report = check_overwrite(seed=3, cases=60)
        assert report.failures > 0
        assert "replay" in report.first_failure
        monkeypatch.setattr(commands_mod, "run", original)
        assert check_overwrite(seed=3, cases=60).failures == 0

    def test_duplicate_creating_dog_run_detected(self, monkeypatch):
        original = commands_mod.run

        def duplicating_run(cmd, editor):
            if cmd.kind != commands_mod.HAVE_DOG:
                return original(cmd, editor)
            # ignores the registry: every execution makes a new object
            fresh = f"{cmd.id}+{len(editor.model.objects)}"
            editor.model.new_object("Dog", fresh)
            return cmd.id

        monkeypatch.setattr(commands_mod, "run", duplicating_run)
        assert check_overwrite(seed=5, cases=60).failures > 0

    def test_lossy_conversion_detected_by_roundtrip(self, monkeypatch):
        original = commands_mod.run

        def truncating_run(cmd, editor):
            if cmd.kind == commands_mod.HAVE_PERSON and cmd.age is not None:
                cmd = commands_mod.have_person(cmd.id, name=cmd.name, age=(cmd.age // 10) * 10)
            return original(cmd, editor)

        monkeypatch.setattr(commands_mod, "run", truncating_run)
        assert check_roundtrip(seed=11, cases=60).failures > 0

    def test_ship_dropping_changed_entries_detected_by_delta(self, monkeypatch):
        original = EventStore.put

        def put_marking_only_new_ids(store, cmd):
            # takes an overwritten entry to be known to the peer already
            if store.get(cmd.id) is None:
                original(store, cmd)
            else:
                store.put_received(cmd)

        monkeypatch.setattr(EventStore, "put", put_marking_only_new_ids)
        assert check_roundtrip(seed=13, cases=60).failures == 0
        assert check_delta(seed=13, cases=60).failures > 0
        monkeypatch.setattr(EventStore, "put", original)
        assert check_delta(seed=13, cases=60).failures == 0

    def test_parse_skipping_changed_commands_detected_by_delta(self, monkeypatch):
        def stale_parse_model(editor):
            # takes every object that has a stored command to be unchanged
            for obj in list(editor.model.objects.values()):
                if editor.store.get(editor.id_for(obj)) is None:
                    editor.execute(editor._parse(obj, KIND_OF_CLASS[obj.class_name])[0])
            return editor.store

        monkeypatch.setattr(Editor, "parse_model", stale_parse_model)
        assert check_roundtrip(seed=17, cases=60).failures == 0
        assert check_delta(seed=17, cases=60).failures > 0

    def test_parse_ignoring_age_change_detected_by_delta(self, monkeypatch):
        original = Editor._parse

        def parse_ignoring_age(editor, obj, kind):
            # takes a command that differs from the stored one only in its
            # age to be unchanged
            cmd, changed = original(editor, obj, kind)
            old = editor.store.get(cmd.id)
            if changed and old is not None and (old.kind, old.name, old.owner_id) == (
                cmd.kind, cmd.name, cmd.owner_id
            ):
                return old, False
            return cmd, changed

        monkeypatch.setattr(Editor, "_parse", parse_ignoring_age)
        assert check_roundtrip(seed=19, cases=60).failures == 0
        assert check_delta(seed=19, cases=60).failures > 0
        monkeypatch.setattr(Editor, "_parse", original)
        assert check_delta(seed=19, cases=60).failures == 0


class TestBench:
    def test_single_iteration_report(self, capsys):
        rc = main(["bench", "--iterations", "1", "--scenario", "identity"])
        assert rc == 0
        out = capsys.readouterr().out
        line = out.splitlines()[0]
        assert line.startswith("bench scenario=identity iterations=1 total_s=")
        assert "per_iter_us=" in line

    def test_per_iteration_consistency(self):
        report = BenchReport("ybirth", 4, 2.0)
        assert report.per_iteration_micros == pytest.approx(2.0 * 1e6 / 4)
        report = run_bench("ybirth", 3)
        assert report.iterations == 3
        assert report.total_seconds >= 0
        assert report.per_iteration_micros == pytest.approx(
            report.total_seconds * 1e6 / 3
        )

    def test_zero_iterations_usage_error(self):
        result = run_cli("bench", "--iterations", "0")
        assert result.returncode == 2

    def test_unknown_scenario_usage_error(self):
        result = run_cli("bench", "--iterations", "1", "--scenario", "upgrade")
        assert result.returncode == 2


class TestConsoleEntry:
    def test_module_invocation_help(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "migrate" in result.stdout
        assert "bench" in result.stdout

    def test_no_subcommand_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 2


@pytest.mark.parametrize(
    "subcommand, flags",
    [
        ("bench", ["--iterations", "2", "--year", "0"]),
        ("bench", ["--iterations", "0"]),
        ("check", ["--cases", "-1", "--seed", "1"]),
        ("check", ["--cases", "1", "--seed", "1", "--max-commands", "0"]),
        ("migrate", None),
    ],
    ids=["bench-year", "bench-iterations", "check-cases", "check-max-commands", "migrate-year"],
)
def test_a_bad_flag_prints_its_subcommands_usage(tmp_path, capsys, subcommand, flags):
    argv = migrate_args(tmp_path, year=0) if flags is None else [subcommand, *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: evmigrate {subcommand} ")
    assert f"evmigrate {subcommand}: error: --" in err
