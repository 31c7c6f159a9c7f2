"""The package and the CLI load their layers lazily: ``import ramseyprog``
imports no layer, and each subcommand imports only the layer it runs, while
``ramseyprog.X``, ``from ramseyprog import X`` and ``cli.<name>`` (which
tests and the benchmark's tracer swap wrappers onto) keep working."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramseyprog
from ramseyprog import cli, oracle
from ramseyprog.progressions import Coloring, Family
from ramseyprog.search import SearchBudget, write_witness

LAYERS = {f"ramseyprog.{m}" for m in ("bounds", "oracle", "search", "progressions")}
FAMILY = ["--family", "semi", "--param", "1"]
RECORD_HELPERS = {"dataclasses", "inspect"}  # the records need neither


def _modules_loaded_by(argv):
    """The modules that cli.main(argv) adds to sys.modules in a fresh process
    (the test process has imported every layer already).  The child takes its
    snapshot before it imports anything to report it, and runs with -S, as
    a .pth file in site-packages may import modules such as random first."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from ramseyprog import cli\n"
        "try:\n"
        f"    cli.main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        "added = sorted(set(sys.modules) - before)\n"
        "print(added)\n"
    )
    src = str(Path(ramseyprog.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, absent", [
    (["--help"], LAYERS | RECORD_HELPERS | {"fractions", "csv", "json", "random"}),
    (["bound", "quasi", "--r", "2", "--n", "1", "--k", "10"],
     {"ramseyprog.search", "ramseyprog.oracle", "json"} | RECORD_HELPERS),
    (["table", "--r-max", "3", "--n-max", "2"],
     {"ramseyprog.search", "ramseyprog.oracle", "json"} | RECORD_HELPERS),
    (["search", "witness", "--N", "8", "--k", "3", *FAMILY],
     {"ramseyprog.bounds", "ramseyprog.oracle", "fractions"} | RECORD_HELPERS),
    (["check", "WITNESS"],
     {"ramseyprog.bounds", "ramseyprog.oracle", "fractions", "random"} | RECORD_HELPERS),
    (["oracle", "count", "--N", "6", "--k", "3", *FAMILY],
     {"ramseyprog.search", "ramseyprog.bounds", "fractions", "decimal", "json"}
     | RECORD_HELPERS),
    (["bound", "semi", "--m", "2", "--k", "10"],
     {"ramseyprog.search", "ramseyprog.oracle"} | RECORD_HELPERS),
    (["search", "exact", "--k", "3", *FAMILY],
     {"ramseyprog.bounds", "ramseyprog.oracle", "fractions", "random"} | RECORD_HELPERS),
    (["oracle", "verify", "--N", "6", "--k", "3", *FAMILY],
     {"ramseyprog.search"} | RECORD_HELPERS),
    (["oracle", "partition", "--N", "5", "--k", "3", *FAMILY, "--a", "1", "--d", "1"],
     {"ramseyprog.search", "ramseyprog.bounds", "fractions", "decimal"} | RECORD_HELPERS),
    (["table", "--r-max", "3", "--n-max", "2", "--format", "text"],
     {"ramseyprog.search", "ramseyprog.oracle", "csv", "json"} | RECORD_HELPERS),
])
def test_each_call_loads_only_its_layer(tmp_path, argv, absent):
    if "WITNESS" in argv:
        path = tmp_path / "w.txt"
        write_witness(str(path), Coloring((0, 0, 1, 1, 0, 0, 1, 1), 2), 3, Family.semi(1))
        argv = [str(path) if a == "WITNESS" else a for a in argv]
    loaded = _modules_loaded_by(argv)
    assert "ramseyprog.cli" in loaded
    assert loaded & absent == set()


def test_search_witness_loads_random():
    assert "random" in _modules_loaded_by(["search", "witness", "--N", "8", "--k", "3", *FAMILY])


def test_package_names_resolve_to_their_home_objects():
    namespace = {}
    exec("from ramseyprog import *", namespace)
    for name in ramseyprog.__all__:
        home = importlib.import_module(f"ramseyprog.{ramseyprog._HOME[name]}")
        assert getattr(ramseyprog, name) is getattr(home, name), name
        assert namespace[name] is getattr(home, name), name
    assert set(ramseyprog.__all__) <= set(dir(ramseyprog))


@pytest.mark.parametrize("module", [cli, oracle])
def test_lazy_names_of_cli_and_oracle_resolve_through_home(module):
    # one name -> layer map: whatever cli or oracle resolves lazily is a
    # package name, and resolves to the object its _HOME layer defines
    names = module.__getattr__.names
    assert names and names <= set(ramseyprog._HOME)
    for name in names:
        home = importlib.import_module(f"ramseyprog.{ramseyprog._HOME[name]}")
        assert module.__getattr__(name) is getattr(home, name), name
        assert getattr(module, name) is getattr(home, name), name


@pytest.mark.parametrize("module", [ramseyprog, cli, oracle])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError):
        module.no_such_name
    assert getattr(module, "no_such_name", None) is None


@pytest.mark.parametrize("name, argv", [
    ("beta_table", ["table", "--r-max", "2", "--n-max", "1"]),
    ("count_mono_colorings", ["oracle", "count", "--N", "5", "--k", "3", *FAMILY]),
])
def test_a_wrapper_set_on_cli_is_what_the_command_runs(capsys, monkeypatch, name, argv):
    calls = []
    real = getattr(cli, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, wrapper)
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0  # the second call finds its names bound
    capsys.readouterr()
    assert len(calls) == 2


@pytest.mark.parametrize("name, kind", [
    ("semi_counting_bound", "semi"), ("quasi_counting_bound", "quasi"),
])
def test_a_wrapper_set_on_oracle_is_what_verify_runs(monkeypatch, name, kind):
    # as before the first verify, when oracle.<name> resolves lazily
    monkeypatch.delitem(vars(oracle), name, raising=False)
    calls = []
    real = getattr(oracle, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, name, wrapper)
    for _ in range(2):  # the second call finds its names bound
        assert oracle.verify_counting_inequality(2, 6, 3, Family(kind, 1)).bound_satisfied
    assert len(calls) == 2


def test_search_witness_seed_and_restarts_default_to_the_budget_record(capsys, monkeypatch):
    budgets = []
    monkeypatch.setattr(cli, "random_witness_search",
                        lambda r, N, k, family, budget: budgets.append(budget))
    monkeypatch.setenv("RAMSEYPROG_SEED", "5")
    monkeypatch.setenv("RAMSEYPROG_RESTARTS", "not-a-number")
    argv = ["search", "witness", "--N", "8", "--k", "3", *FAMILY]
    assert cli.main(argv) == 3  # the stub finds no witness
    assert cli.main(argv + ["--seed", "3", "--restarts", "2"]) == 3
    capsys.readouterr()
    assert budgets == [SearchBudget(), SearchBudget(seed=3, restarts=2)]
