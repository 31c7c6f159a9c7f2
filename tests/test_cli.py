import csv
import decimal
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ramseyprog
from ramseyprog import bounds, cli
from ramseyprog.cli import main
from ramseyprog.progressions import Coloring, Family
from ramseyprog.oracle import OracleBudget
from ramseyprog.search import SearchBudget, write_witness

from brute import floor_beta_n1_power

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_csv_golden_cells(capsys):
    code, out, _ = run(capsys, "table", "--r-max", "4", "--n-max", "6")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 18
    cells = {(int(row["r"]), int(row["n"])): row for row in rows}
    assert cells[(2, 1)]["beta"] == "1.08239"
    assert cells[(3, 1)]["beta"] == "1.28511"
    assert cells[(4, 5)]["beta"] == "1.00384"
    assert cells[(2, 2)]["beta"] == "<1"
    assert cells[(2, 2)]["useful"] == "false"
    assert cells[(4, 1)]["useful"] == "true"
    # the full-precision columns round-trip as floats
    assert float(cells[(2, 1)]["lambda_max"]) == pytest.approx(
        1 + 1 / math.sqrt(2), abs=1e-10
    )


def test_table_json_full_precision(capsys):
    code, out, _ = run(capsys, "table", "--r-max", "3", "--n-max", "2",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 4
    rec = next(x for x in records if x["r"] == 2 and x["n"] == 1)
    assert rec["beta"] == pytest.approx(1.0823922, abs=1e-6)
    assert rec["alpha"] == 0.5
    assert rec["useful"] is True
    for cell in records:
        assert cell["lambda_lo"] <= cell["lambda_max"] <= cell["lambda_hi"]
        assert cell["lambda_hi"] - cell["lambda_lo"] <= 1e-12


def test_table_text_grid(capsys):
    code, out, _ = run(capsys, "table", "--r-max", "3", "--n-max", "3",
                       "--format", "text")
    assert code == 0
    assert "1.08239" in out and "<1" in out and "r=3" in out


def test_bound_semi(capsys):
    code, out, _ = run(capsys, "bound", "semi", "--m", "1", "--k", "3")
    assert code == 0
    assert "1.414214" in out
    assert "floor(alpha^3) = 2" in out
    code, out, _ = run(capsys, "bound", "semi", "--m", "2", "--k", "25",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["threshold"] == 36
    assert payload["alpha"] == pytest.approx(1.1547005, abs=1e-6)


def test_bound_quasi(capsys):
    code, out, _ = run(capsys, "bound", "quasi", "--r", "2", "--n", "1")
    assert code == 0
    assert "1.08239" in out
    code, out, _ = run(capsys, "bound", "quasi", "--r", "3", "--n", "4",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["useful"] is False
    assert payload["beta"] < 1


def test_bound_quasi_threshold_exact(capsys):
    # a float floor of base**k is one too low here
    code, out, _ = run(capsys, "bound", "quasi", "--r", "2", "--n", "1",
                       "--k", "300")
    assert code == 0
    assert "floor(beta^300) = 20672653421" in out
    # and base**k overflows a float here
    code, out, _ = run(capsys, "bound", "quasi", "--r", "10", "--n", "1",
                       "--k", "2000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_lo"] <= payload["lambda_max"] <= payload["lambda_hi"]


def test_bound_quasi_prints_floors_of_any_length(capsys):
    # 4,617 digits, past Python's default limit of 4,300 for int-to-str;
    # Decimal parses and compares them without that limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, _ = run(capsys, "bound", "quasi", "--r", "10", "--n", "1",
                       "--k", "13000", "--format", "json")
    assert code == 0
    assert limit() == before  # lifted while printing only
    payload = json.loads(out, parse_int=decimal.Decimal)
    assert payload["threshold"] == floor_beta_n1_power(10, 13000)


def test_bound_quasi_nonconvergence_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "MAX_POWER_STEPS", 0)
    code, out, err = run(capsys, "bound", "quasi", "--r", "2", "--n", "1",
                         "--k", "2000")
    assert code == 3
    assert "error" in err


def test_bound_quasi_nonconvergence_json_error(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "MAX_POWER_STEPS", 0)
    code, out, _ = run(capsys, "bound", "quasi", "--r", "2", "--n", "1",
                       "--k", "2000", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["type"] == "ConvergenceError"


@pytest.mark.parametrize("argv", [
    ("bound", "semi", "--m", "1", "--k", "100"),
    ("bound", "quasi", "--r", "2", "--n", "1", "--k", "100"),
])
def test_out_of_memory_exits_3(capsys, monkeypatch, argv):
    # as `bound semi --m 1 --k 10**20` runs out while building its powers
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(bounds, "_sqrt_power_floor", exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: out of memory\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": "out of memory", "type": "MemoryError"}


@pytest.mark.parametrize("argv", [
    ("bound", "semi", "--m", "1", "--k", str(10**21)),
    ("bound", "quasi", "--r", "2", "--n", "1", "--k", str(10**21)),
    ("bound", "quasi", "--r", "2", "--n", "1", "--k", str(10**400)),
])
def test_threshold_past_the_int_size_exits_3(capsys, argv):
    # its fixed-point powers would need more bits than an int can hold
    message = f"floor(base^k) at k = {argv[-1]} needs more bits than an int can hold"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": message, "type": "BudgetExceededError"}


@pytest.mark.parametrize("k, want", [(0, 1), (10**21, 0), (10**400, 0)],
                         ids=["0", "10**21", "10**400"])
def test_threshold_below_base_one_needs_no_bits(capsys, k, want):
    # beta(2, 4) < 1: floor(beta^k) is 1 at k = 0 and 0 after, for any k
    argv = ("bound", "quasi", "--r", "2", "--n", "4", "--k", str(k))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "useful = false" in out
    assert out.endswith(f"floor(beta^{k}) = {want}\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["useful"], payload["k"], payload["threshold"]) == (False, k, want)


def test_oracle_verify_refuses_a_semi_scope_past_the_vector_budget(capsys):
    argv = ["oracle", "verify", "--N", "6", "--k", "3", "--family", "semi",
            "--param", str(10**23)]
    message = (f"the scope-{10**23} bound at k = 3 needs m(k - 1) bits, "
               f"past the budget of {2**24}")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": message, "type": "BudgetExceededError"}
    # a scope of thousands costs one power, not a walk over frequency vectors
    start = time.perf_counter()
    code, out, err = run(capsys, *argv[:-1], "5000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        0, "monochromatic colorings: 64 / 64\nanalytic bound: 1152\ninequality holds\n", ""
    )


@pytest.mark.parametrize("n", ["0", "1"])
def test_oracle_verify_refuses_a_quasi_bound_past_the_budget(capsys, n):
    # no progression fits in 4 points, but the bound's integers would hold
    # about (n + 1)(k - 1) bits: refused before the bound runs, at n = 0 too
    argv = ["oracle", "verify", "--N", "4", "--k", str(10**9), "--family", "quasi",
            "--param", n]
    message = (f"the diameter-{n} bound at r = 2, k = {10**9} needs "
               f"(n + 1)(k - 1) ceil(log2 r) bits, past the budget of {2**24}")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": message, "type": "BudgetExceededError"}


def test_oracle_verify_prints_bounds_of_any_length(capsys):
    # 256 / (99999 * 2^99999) = 1 / (99999 * 2^99991): its denominator has
    # 30,106 digits, past Python's limit of 4,300 for int-to-str, which text
    # output never builds and JSON lifts while printing
    argv = ["oracle", "verify", "--N", "4", "--k", "100000", "--family", "semi",
            "--param", "1"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        0, "monochromatic colorings: 0 / 16\nanalytic bound: 0\ninequality holds\n", ""
    )
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert limit() == before  # lifted while printing only
    payload = json.loads(out)
    num, den = map(decimal.Decimal, payload["bound_value"].split("/"))
    assert (num, den) == (1, 99999 * 2**99991)
    assert (payload["bound_value_float"], payload["bound_satisfied"]) == (0.0, True)


@pytest.mark.parametrize("kind", ["semi", "quasi"])
def test_param_beyond_the_ground_set_acts_like_the_ground_set(capsys, tmp_path, kind):
    # no gap past the ground set fits, so 10**23 gives what a scope or
    # diameter as large as the ground set gives, instead of a crash or a hang
    def outputs(huge):
        got = []
        for digits in ("001", "000"):
            path = tmp_path / f"{kind}{digits}.txt"
            family = Family(kind, 10**23 if huge else len(digits))
            write_witness(str(path), Coloring.from_digits(digits, 2), 3, family)
            got.append(run(capsys, "check", str(path), "--format", "json"))
        for argv, n in [
            ("search exact --r 2 --k 3", 64),  # the default --max-length
            ("search witness --r 2 --N 4 --k 3 --max-nodes 50", 4),
            ("oracle count --N 6 --k 3", 6),
            ("oracle partition --N 5 --k 3 --a 1 --d 1", 5),
            ("oracle forced --N 8 --k 3 --a 1 --d 1", 8),
        ]:
            param = str(10**23 if huge else n)
            got.append(run(capsys, *argv.split(), "--family", kind,
                           "--param", param, "--format", "json"))
        return [(code, {f: v for f, v in json.loads(out).items() if f != "param"}, err)
                for code, out, err in got]

    want = outputs(huge=False)
    assert [code for code, _, _ in want] == [0, 1, 0, 0, 0, 0, 0]
    assert outputs(huge=True) == want


def test_oracle_count(capsys):
    code, out, _ = run(capsys, "oracle", "count", "--N", "8", "--k", "3",
                       "--family", "semi", "--param", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mono_count"] == 250
    assert payload["total"] == 256
    assert payload["bound_value"] is None


def test_oracle_verify(capsys):
    code, out, _ = run(capsys, "oracle", "verify", "--N", "10", "--k", "3",
                       "--family", "quasi", "--param", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_satisfied"] is True
    assert payload["bound_value"] == "32000"


def test_oracle_partition_and_forced(capsys):
    code, out, _ = run(capsys, "oracle", "partition", "--N", "5", "--k", "3",
                       "--family", "semi", "--param", "2", "--a", "1", "--d", "1")
    assert code == 0
    assert "ok" in out
    code, out, _ = run(capsys, "oracle", "forced", "--N", "10", "--k", "4",
                       "--family", "semi", "--param", "2", "--a", "1", "--d", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("command", ["partition", "forced"])
def test_oracle_partition_and_forced_edge_cases(capsys, command):
    base = ["oracle", command, "--N", "6", "--k", "3", "--family", "semi",
            "--param", "1", "--a", "1", "--d", "1"]
    # one color: the partition check refuses it as a coloring would, after
    # the budget and the progression listing have refused what they refuse
    code, out, err = run(capsys, *base, "--r", "1")
    if command == "partition":
        assert (code, out, err) == (2, "", "error: a coloring needs at least 2 colors\n")
    else:
        assert (code, out, err) == (0, "forced check: ok\n", "")
    for extra, message in [
        (["--a", "7"], "first term 7 outside [1, 6]"),
        (["--d", "0"], "low-difference must be a positive integer"),
        (["--k", "1"], "need at least 2 terms"),
        (["--r", "1", "--a", "7"], "first term 7 outside [1, 6]"),
    ]:
        assert run(capsys, *base, *extra) == (2, "", f"error: {message}\n")
    code, _, err = run(capsys, *base, "--r", "1", "--N", "30")
    assert code == 3 and "budget" in err


def test_oracle_budget_exceeded_exit_3(capsys):
    code, _, err = run(capsys, "oracle", "count", "--N", "30", "--k", "3",
                       "--family", "semi", "--param", "1")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("N, count", [
    ("30", "1073741824"),  # r^N prints as it has always printed
    ("14284", str(2**14284)),  # 4300 digits: the longest r^N that prints
    ("14285", "2^14285"),
    ("1000000000", "2^1000000000"),
    ("100000000000", "2^100000000000"),
], ids=["30", "14284", "14285", "10**9", "10**11"])
def test_oracle_refuses_a_long_sweep_before_building_r_to_the_n(capsys, N, count):
    argv = ["oracle", "count", "--N", N, "--k", "3", "--family", "semi",
            "--param", "1", "--max-points", str(10 * int(N))]
    message = f"r^N = {count} colorings exceed the budget of {2**24}"
    t0 = time.perf_counter()
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert time.perf_counter() - t0 < 1
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": message, "type": "BudgetExceededError"}


@pytest.mark.parametrize("argv, message", [
    (["bound", "quasi", "--r", "1", "--n", "1"], "need at least 2 colors"),
    (["bound", "quasi", "--r", "2", "--n", "64"], "matrix dimension 65 exceeds 64"),
    (["table", "--r-max", "2", "--n-max", "64"], "matrix dimension 65 exceeds 64"),
    (["oracle", "verify", "--family", "quasi", "--param", "64", "--N", "5", "--k", "3"],
     "matrix dimension 65 exceeds 64"),
    (["oracle", "verify", "--family", "quasi", "--param", "1", "--N", "5", "--k", "3",
      "--r", "1"], "need at least 2 colors"),
])
def test_transfer_matrix_refusals_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": message, "type": "ValueError"}


def test_oracle_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("RAMSEYPROG_MAX_POINTS", "4")
    code, _, _ = run(capsys, "oracle", "count", "--N", "5", "--k", "3",
                     "--family", "semi", "--param", "1")
    assert code == 3
    monkeypatch.setenv("RAMSEYPROG_MAX_POINTS", "not-a-number")
    code, _, err = run(capsys, "oracle", "count", "--N", "5", "--k", "3",
                       "--family", "semi", "--param", "1")
    assert code == 2
    assert "RAMSEYPROG_MAX_POINTS" in err


def test_search_exact_and_check_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "w.txt"
    code, out, _ = run(capsys, "search", "exact", "--r", "2", "--k", "3",
                       "--family", "semi", "--param", "1",
                       "--witness-out", str(out_file), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 9
    assert payload["exhaustive"] is True
    assert len(payload["witness"]) == 8

    code, out, _ = run(capsys, "check", str(out_file))
    assert code == 0
    assert "valid" in out


def test_search_exact_budget_exceeded(capsys):
    code, out, _ = run(capsys, "search", "exact", "--r", "2", "--k", "3",
                       "--family", "semi", "--param", "1",
                       "--max-nodes", "10", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["exhaustive"] is False
    assert payload["value"] >= 3


def test_search_exact_deep_budget_exceeded(capsys, tmp_path):
    # the search starts at N = k = 1100 points, deeper than the interpreter's
    # recursion limit, and runs out of nodes a few lengths later
    out_file = tmp_path / "w.txt"
    code, out, _ = run(capsys, "search", "exact", "--r", "2", "--k", "1100",
                       "--family", "semi", "--param", "1", "--max-length", "1200",
                       "--max-nodes", "20000", "--witness-out", str(out_file),
                       "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["exhaustive"] is False
    assert payload["value"] > 1100
    assert len(payload["witness"]) == payload["value"] - 1
    code, _, _ = run(capsys, "check", str(out_file))
    assert code == 0


def test_search_more_than_ten_colors_exit_2_before_searching(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "exact_threshold", never)
    monkeypatch.setattr(cli, "random_witness_search", never)
    code, _, err = run(capsys, "search", "exact", "--r", "11", "--k", "3",
                       "--family", "semi", "--param", "1")
    assert code == 2
    assert "--r" in err
    code, out, _ = run(capsys, "search", "witness", "--r", "11", "--N", "30",
                       "--k", "3", "--family", "semi", "--param", "1",
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["type"] == "ValueError"


def test_budget_defaults_come_from_the_budget_records(monkeypatch):
    for name in ("NODES", "LENGTH", "POINTS", "COLORINGS"):
        monkeypatch.delenv(f"RAMSEYPROG_MAX_{name}", raising=False)
    parser = cli.build_parser()
    for argv, budget_cls in (
        (["search", "exact", "--k", "3"], SearchBudget),
        (["search", "witness", "--N", "8", "--k", "3"], SearchBudget),
        (["oracle", "count", "--N", "5", "--k", "3"], OracleBudget),
    ):
        args = parser.parse_args(argv + ["--family", "semi", "--param", "1"])
        assert cli._budget(args, budget_cls) == budget_cls()


def test_search_witness_ignores_max_length_env(capsys, monkeypatch):
    argv = ["search", "witness", "--N", "8", "--k", "3", "--family", "semi",
            "--param", "1", "--seed", "3"]
    monkeypatch.delenv("RAMSEYPROG_MAX_LENGTH", raising=False)
    unset = run(capsys, *argv)
    assert unset[0] == 0
    for raw in ("0", "abc"):
        monkeypatch.setenv("RAMSEYPROG_MAX_LENGTH", raw)
        assert run(capsys, *argv) == unset


@pytest.mark.parametrize("argv", [
    ["exact", "--k", "3"],
    ["witness", "--N", "8", "--k", "3", "--seed", "3"],
])
def test_search_failed_witness_write_emits_one_json_error(capsys, tmp_path, argv):
    code, out, _ = run(capsys, "search", *argv, "--family", "semi", "--param", "1",
                       "--format", "json",
                       "--witness-out", str(tmp_path / "absent" / "w.txt"))
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["type"] == "FileNotFoundError"


def test_search_witness_found(capsys, tmp_path):
    out_file = tmp_path / "w.txt"
    code, out, _ = run(capsys, "search", "witness", "--r", "2", "--N", "8",
                       "--k", "3", "--family", "semi", "--param", "1",
                       "--seed", "3", "--witness-out", str(out_file),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    code, _, _ = run(capsys, "check", str(out_file))
    assert code == 0


def test_search_witness_not_found_exit_3(capsys):
    code, out, _ = run(capsys, "search", "witness", "--r", "2", "--N", "9",
                       "--k", "3", "--family", "semi", "--param", "1",
                       "--max-nodes", "400", "--restarts", "4")
    assert code == 3
    assert "no witness" in out


def test_check_invalid_witness_exit_1(capsys, tmp_path):
    path = tmp_path / "const.txt"
    write_witness(str(path), Coloring((0,) * 6, 2), 3, Family.semi(1))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "INVALID" in out


def test_check_long_certificate_invalid_exit_1(capsys, tmp_path):
    # one color on 1,500 points holds a 1,200-term progression
    path = tmp_path / "long.txt"
    write_witness(str(path), Coloring((0,) * 1500, 2), 1200, Family.semi(1))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "INVALID" in out


def test_check_malformed_witness_exit_2(capsys, tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("not a witness\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "check", str(tmp_path / "absent.txt"))
    assert code == 2


def test_closed_stdout_exits_141_quietly():
    # the read end closes before the child writes, as `| head -c 10` may
    src = str(Path(ramseyprog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramseyprog", "table", "--r-max", "10",
         "--n-max", "30", "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "semi"])  # missing required --m
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "count", "--N", "5", "--k", "3",
              "--family", "cubic", "--param", "1"])
    assert exc.value.code == 2
    for flag in ("--seed", "--restarts"):  # witness repair's; exact search has neither
        with pytest.raises(SystemExit) as exc:
            main(["search", "exact", "--k", "3", "--family", "semi", "--param", "1",
                  flag, "1"])
        assert exc.value.code == 2


def test_invalid_values_exit_2(capsys):
    code, _, err = run(capsys, "bound", "semi", "--m", "0")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "oracle", "count", "--N", "5", "--k", "3",
                     "--family", "quasi", "--param", "-1")
    assert code == 2


# the text output and certificate file of each search outcome, recorded
# before cmd_search was folded into one output tail; the exact-search node
# count and node-budget partial are those of the single threshold DFS
SEARCH_TAILS = [
    pytest.param(
        ["exact", "--k", "3"], 0,
        "value = 9\nwitness (length 8) = 00110011\nnodes explored = 45\n"
        "exhaustive = true\n",
        '{"family": "semi", "param": 1, "r": 2, "k": 3, "n_points": 8}\n00110011\n',
        id="exact-k3",
    ),
    pytest.param(
        ["exact", "--k", "4", "--max-nodes", "50"], 3,
        "budget exhausted: node budget 50 exhausted\nbest lower bound: value >= 19\n"
        "witness (length 18) = 000100101011010001\n",
        '{"family": "semi", "param": 1, "r": 2, "k": 4, "n_points": 18}\n'
        '000100101011010001\n',
        id="exact-node-budget",
    ),
    pytest.param(
        ["witness", "--N", "8", "--k", "3", "--seed", "3"], 0,
        "witness (length 8) = 00110011\n",
        '{"family": "semi", "param": 1, "r": 2, "k": 3, "n_points": 8}\n00110011\n',
        id="witness-found",
    ),
    pytest.param(
        ["witness", "--N", "9", "--k", "3", "--max-nodes", "400", "--restarts", "4"], 3,
        "no witness found for N=9 within budget\n", None,
        id="witness-not-found",
    ),
]


@pytest.mark.parametrize("argv, code, text, cert", SEARCH_TAILS)
def test_search_output_tails_pinned(capsys, tmp_path, argv, code, text, cert):
    out_file = tmp_path / "w.txt"
    assert run(capsys, "search", *argv, "--family", "semi", "--param", "1",
               "--witness-out", str(out_file)) == (code, text, "")
    if cert is None:
        assert not out_file.exists()
    else:
        assert out_file.read_text() == cert


def test_search_witness_failing_reverification_exit_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "check_witness", lambda *args: False)
    out_file = tmp_path / "w.txt"
    code, out, _ = run(capsys, "search", "witness", "--N", "8", "--k", "3",
                       "--family", "semi", "--param", "1", "--seed", "3",
                       "--witness-out", str(out_file))
    assert (code, out) == (1, "search returned a coloring that fails re-verification\n")
    assert not out_file.exists()


def test_search_witness_fewer_than_two_colors_exit_2(capsys):
    code, _, err = run(capsys, "search", "witness", "--r", "0", "--N", "5",
                       "--k", "3", "--family", "semi", "--param", "1")
    assert code == 2
    assert err == "error: need at least 2 colors\n"


@pytest.mark.parametrize("extra", [
    ["--r", "2", "--N", "-3"],
    ["--r", "0", "--N", "3"],
    ["--N", "5", "--max-points", "-1"],
])
def test_oracle_invalid_size_or_budget_exit_2(capsys, extra):
    code, out, err = run(capsys, "oracle", "count", *extra, "--k", "3",
                         "--family", "semi", "--param", "1")
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_oracle_one_color_and_empty_ground_set_still_count(capsys):
    code, out, _ = run(capsys, "oracle", "count", "--r", "1", "--N", "4", "--k", "3",
                       "--family", "semi", "--param", "1")
    assert (code, out) == (0, "monochromatic colorings: 1 / 1\n")
    code, out, _ = run(capsys, "oracle", "count", "--N", "0", "--k", "3",
                       "--family", "semi", "--param", "1")
    assert (code, out) == (0, "monochromatic colorings: 0 / 1\n")


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # each `ramseyprog ...` line of the README's CLI block, in order and in one
    # directory, so `check w.txt` reads the file the line before it wrote
    block = README.read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("ramseyprog ")]
    for name in ("NODES", "LENGTH", "POINTS", "COLORINGS"):
        monkeypatch.delenv(f"RAMSEYPROG_MAX_{name}", raising=False)
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in lines:
        if "--max-nodes 9000000" in line:  # settles (2,6,semi2) in about 33 s
            continue
        code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, f"{line}: {err}"
        ran += 1
    assert ran > 0
