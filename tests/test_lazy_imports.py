"""The package and the CLI load their layers lazily: ``import ramseyprog``
imports no layer, and each subcommand imports only the layer it runs, while
``ramseyprog.X``, ``from ramseyprog import X`` and ``cli.<name>`` (which
tests and the benchmark's tracer swap wrappers onto) keep working."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramseyprog
from ramseyprog import cli
from ramseyprog.progressions import Coloring, Family
from ramseyprog.search import SearchBudget, write_witness

LAYERS = {f"ramseyprog.{m}" for m in ("bounds", "oracle", "search", "progressions")}
FAMILY = ["--family", "semi", "--param", "1"]
RECORD_HELPERS = {"dataclasses", "inspect"}  # the records need neither


def _modules_loaded_by(argv):
    """The modules in sys.modules after cli.main(argv) in a fresh process: the
    test process has imported every layer already."""
    code = (
        "import json, sys\n"
        "from ramseyprog import cli\n"
        "try:\n"
        f"    cli.main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(Path(ramseyprog.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv, absent", [
    (["--help"], LAYERS | RECORD_HELPERS | {"fractions", "csv"}),
    (["bound", "quasi", "--r", "2", "--n", "1", "--k", "10"],
     {"ramseyprog.search", "ramseyprog.oracle"} | RECORD_HELPERS),
    (["table", "--r-max", "3", "--n-max", "2"],
     {"ramseyprog.search", "ramseyprog.oracle"} | RECORD_HELPERS),
    (["search", "witness", "--N", "8", "--k", "3", *FAMILY],
     {"ramseyprog.bounds", "ramseyprog.oracle", "fractions"} | RECORD_HELPERS),
    (["check", "WITNESS"],
     {"ramseyprog.bounds", "ramseyprog.oracle", "fractions"} | RECORD_HELPERS),
    (["oracle", "count", "--N", "6", "--k", "3", *FAMILY],
     {"ramseyprog.search"} | RECORD_HELPERS),
    (["bound", "semi", "--m", "2", "--k", "10"],
     {"ramseyprog.search", "ramseyprog.oracle"} | RECORD_HELPERS),
    (["search", "exact", "--k", "3", *FAMILY],
     {"ramseyprog.bounds", "ramseyprog.oracle", "fractions"} | RECORD_HELPERS),
    (["oracle", "verify", "--N", "6", "--k", "3", *FAMILY],
     {"ramseyprog.search"} | RECORD_HELPERS),
])
def test_each_call_loads_only_its_layer(tmp_path, argv, absent):
    if "WITNESS" in argv:
        path = tmp_path / "w.txt"
        write_witness(str(path), Coloring((0, 0, 1, 1, 0, 0, 1, 1), 2), 3, Family.semi(1))
        argv = [str(path) if a == "WITNESS" else a for a in argv]
    loaded = _modules_loaded_by(argv)
    assert "ramseyprog.cli" in loaded
    assert loaded & absent == set()


def test_package_names_resolve_to_their_home_objects():
    namespace = {}
    exec("from ramseyprog import *", namespace)
    for name in ramseyprog.__all__:
        home = importlib.import_module(f"ramseyprog.{ramseyprog._HOME[name]}")
        assert getattr(ramseyprog, name) is getattr(home, name), name
        assert namespace[name] is getattr(home, name), name
    assert set(ramseyprog.__all__) <= set(dir(ramseyprog))


def test_cli_lazy_names_resolve_to_their_home_objects():
    for name, module in cli._LAZY.items():
        home = importlib.import_module(f"ramseyprog.{module}")
        assert getattr(cli, name) is getattr(home, name), name


@pytest.mark.parametrize("module", [ramseyprog, cli])
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


def test_search_witness_seed_and_restarts_default_to_the_budget_record(capsys, monkeypatch):
    budgets = []
    monkeypatch.setattr(cli, "random_witness_search",
                        lambda r, N, k, family, budget: budgets.append(budget))
    monkeypatch.setenv("RAMSEYPROG_SEED", "5")
    monkeypatch.setenv("RAMSEYPROG_RESTARTS", "not-a-number")
    monkeypatch.delenv("RAMSEYPROG_MAX_NODES", raising=False)
    argv = ["search", "witness", "--N", "8", "--k", "3", *FAMILY]
    assert cli.main(argv) == 3  # the stub finds no witness
    assert cli.main(argv + ["--seed", "3", "--restarts", "2"]) == 3
    capsys.readouterr()
    assert budgets == [SearchBudget(), SearchBudget(seed=3, restarts=2)]
