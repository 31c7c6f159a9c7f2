#!/usr/bin/env python3
"""End-to-end benchmark of the ramseyprog command line.

Run from the root of a checkout (standard library only):

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Each run drives ``python -m ramseyprog`` (with ``PYTHONPATH=src``) as one
subprocess at a time, in a closed loop: the next call starts when the last
one has exited.  A run repeats whole rounds of the workload's calls until
``--seconds`` have passed, and checks every output against computations made
apart from the package (``checker.py``, ``reference.py``).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run also replays the same calls in-process, bare and
with spans around the package's public layer functions, and reports the
per-layer metrics (``tracing.py``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import reference  # noqa: E402

CALL_TIMEOUT_S = 120
SETUP_CALLS = 5  # before each round, so they sample the whole run
# This machine's speed drifts by up to ~45% over minutes (see README.md), so
# reported times are scaled to reference speed.  Process start-up is
# multiplied by REFERENCE_S and divided by the run's median wall time of
# ``python -c pass``; the compute in a call, the rest of its time, by
# COMPUTE_REFERENCE_S over the run's median time of compute_probe().
REFERENCE_S = 0.05
COMPUTE_REFERENCE_S = 0.03
LAMBDA_RTOL = 1e-12  # the package's default eigenvalue tolerance
# Sizes of the known faults (README.md): a table lambda_max outside its
# certified bracket by at most TABLE_FAULT_RTOL (8.2e-9 at worst today), and
# a quasi threshold, from K = QUASI_FAULT_K on, off by no more than a base
# derived from a lambda within LAMBDA_RTOL can explain.  Larger errors, and
# any error elsewhere, are wrong outputs.
TABLE_FAULT_RTOL = 1e-8
QUASI_FAULT_K = 290


def compute_probe(steps: int = 400_000) -> float:
    """Seconds for a fixed pure-Python loop in this process: the machine's
    compute speed, which no change to the package can move."""
    t0 = time.perf_counter()
    x = 0
    for i in range(steps):
        x += i * i % 7
    return time.perf_counter() - t0


def typical_wall(calls: List["Call"]) -> float:
    """A call's time over the run's rounds: the mean, as every round does
    the same work."""
    return statistics.fmean(c.wall for c in calls)


class Mismatch(Exception):
    """An output is wrong, and no known fault of the program explains it."""


class KnownFault(Exception):
    """An output is wrong because of a fault the program is known to have
    (see bench/README.md); the operation counts as failed."""


@dataclass
class Call:
    args: List[str]
    code: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float


@dataclass
class Op:
    """One CLI call of a round and the check of its output.

    ``check`` raises Mismatch or KnownFault, or returns facts (such as the
    node count) that the workload's metrics use.  ``tag`` groups calls for
    those metrics.
    """

    args: List[str]
    check: Callable[[Call], dict]
    tag: str = ""
    facts: List[dict] = field(default_factory=list)


class Runner:
    """Runs ``python -m ramseyprog`` children one at a time; their stderr is
    buffered in a file under ``tmp``."""

    def __init__(self, tmp: Path):
        env = {k: v for k, v in os.environ.items() if not k.startswith("RAMSEYPROG_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env
        self.tmp = tmp

    def call(self, args: List[str]) -> Call:
        return self.spawn([sys.executable, "-m", "ramseyprog"] + args, args)

    def reference(self) -> float:
        """Wall time of ``python -c pass``: interpreter start, no package."""
        return self.spawn([sys.executable, "-c", "pass"], []).wall

    def spawn(self, cmd: List[str], args: List[str]) -> Call:
        with tempfile.TemporaryFile(dir=self.tmp) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err
            )
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                # wait4 reaps the child and returns its own resource usage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return Call(
            args,
            proc.returncode,
            out.decode(errors="replace"),
            stderr,
            wall,
            usage.ru_maxrss / 1024.0,
        )


def _json(call: Call, code: int = 0):
    if call.code != code:
        raise Mismatch(f"exit {call.code}, expected {code}: {call.stderr[-300:]}")
    try:
        return json.loads(call.stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def _family_args(kind: str, param: int) -> List[str]:
    return ["--family", kind, "--param", str(param)]


# ---------------------------------------------------------------- exact

EXACT_INSTANCES = [  # (r, k, family, param)
    (2, 4, "semi", 1),
    (2, 5, "semi", 2),
    (2, 5, "quasi", 1),
    (2, 6, "quasi", 2),
    (3, 3, "semi", 1),
]
# van der Waerden numbers W(2,4) = 35 and W(3,3) = 27 (Chvatal 1970)
LITERATURE_VALUES = {(2, 4, "semi", 1): 35, (3, 3, "semi", 1): 27}


@lru_cache(maxsize=None)
def _maximal_witness(digits: str, r: int, k: int, kind: str, param: int) -> bool:
    return checker.is_maximal_witness([int(c) for c in digits], r, k, kind, param)


@lru_cache(maxsize=None)
def _base_floor_upper(r: int, k: int, kind: str, param: int) -> Optional[int]:
    """An upper bound on floor(base^k) for the family's analytic base, or
    None where the package has no base (semi with r > 2)."""
    if kind == "semi":
        if r != 2:
            return None
        return reference.floor_power_upper(Fraction(2**param, 2**param - 1), k)
    if param < 1:
        return None
    bracket = reference.cw_bracket(r, param, reference.perron_guess(r, param))
    if bracket is None:
        raise Mismatch(f"no positive Perron vector found for ({r}, {param})")
    return reference.floor_power_upper(Fraction(r) / bracket[0], k)


def _read_cert(path: Path):
    header, digits = path.read_text(encoding="ascii").splitlines()[:2]
    return json.loads(header), digits


class Exact:
    """Exact thresholds by ``search exact``; every certificate re-checked."""

    def __init__(self, seed: int, tmp: Path):
        order = list(EXACT_INSTANCES)
        random.Random(seed).shuffle(order)
        self.nodes_seen: Dict[tuple, int] = {}
        self.ops: List[Op] = []
        for inst in order:
            r, k, kind, param = inst
            path = tmp / f"exact_{r}_{k}_{kind}{param}.txt"
            self.ops.append(
                Op(
                    ["search", "exact", "--r", str(r), "--k", str(k)]
                    + _family_args(kind, param)
                    + ["--format", "json", "--witness-out", str(path)],
                    lambda call, inst=inst, path=path: self._check_search(call, inst, path),
                    tag="search",
                )
            )
            self.ops.append(
                Op(
                    ["check", str(path), "--format", "json"],
                    lambda call, inst=inst: self._check_cert(call, inst),
                )
            )

    def _check_search(self, call: Call, inst: tuple, path: Path) -> dict:
        r, k, kind, param = inst
        out = _json(call)
        value, digits = out["value"], out["witness"]
        _expect(out["exhaustive"] is True, f"{inst}: search not exhaustive")
        _expect(len(digits) == value - 1 == out["witness_length"],
                f"{inst}: witness has {len(digits)} points for value {value}")
        header, file_digits = _read_cert(path)
        _expect(file_digits == digits and header["n_points"] == value - 1
                and header["k"] == k and header["r"] == r,
                f"{inst}: certificate file disagrees with the output")
        _expect(_maximal_witness(digits, r, k, kind, param),
                f"{inst}: witness has a monochromatic progression, or a "
                "one-point extension avoids one")
        known = LITERATURE_VALUES.get(inst)
        _expect(known is None or value == known, f"{inst}: value {value} != {known}")
        floor_bound = _base_floor_upper(r, k, kind, param)
        _expect(floor_bound is None or value > floor_bound,
                f"{inst}: value {value} <= floor(base^k) {floor_bound}")
        nodes = out["nodes_explored"]
        first = self.nodes_seen.setdefault(inst, nodes)
        _expect(nodes == first, f"{inst}: nodes_explored {nodes} != {first} earlier")
        return {"nodes": nodes}

    def _check_cert(self, call: Call, inst: tuple) -> dict:
        out = _json(call)
        _expect(out["valid"] is True, f"{inst}: certificate reported invalid")
        return {}

    def cli_metrics(self, ops_calls, setup_s: float) -> dict:
        nodes = busy = 0.0
        for op, calls in ops_calls:
            if op.tag == "search" and op.facts:
                nodes += op.facts[0]["nodes"]
                busy += typical_wall(calls) - setup_s
        return {
            "search_nodes": (nodes, "count"),
            "nodes_per_s": (nodes / busy if busy > 0 else 0.0, "nodes/s"),
        }


# ---------------------------------------------------------------- witness

WITNESS_INSTANCES = [  # (r, N, k, family, param): N below the threshold
    (2, 24, 4, "semi", 1),
    (2, 30, 6, "quasi", 2),
    (3, 22, 3, "semi", 1),
    (3, 31, 4, "quasi", 1),
]
WITNESS_SEEDS = 4  # searches per instance and round
BIG_CERT = (1500, 1200)  # points, k: one color throughout


class Witness:
    """Seeded ``search witness`` runs below the threshold, each result then
    re-checked; plus one long all-one-color certificate."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.ops: List[Op] = []
        for inst in WITNESS_INSTANCES:
            r, n_points, k, kind, param = inst
            for s in rng.sample(range(1_000_000), WITNESS_SEEDS):
                path = tmp / f"witness_{r}_{n_points}_{k}_{kind}{param}_{s}.txt"
                self.ops.append(
                    Op(
                        ["search", "witness", "--r", str(r), "--N", str(n_points),
                         "--k", str(k)] + _family_args(kind, param)
                        + ["--seed", str(s), "--format", "json",
                           "--witness-out", str(path)],
                        lambda call, inst=inst, path=path: self._check_search(call, inst, path),
                        tag="search",
                    )
                )
                self.ops.append(
                    Op(["check", str(path), "--format", "json"], self._check_cert)
                )
        n_points, k = BIG_CERT
        big = tmp / "all_one_color.txt"
        big.write_text(
            json.dumps({"family": "semi", "param": 1, "r": 2, "k": k,
                        "n_points": n_points}) + "\n" + "0" * n_points + "\n",
            encoding="ascii",
        )
        self.ops.append(Op(["check", str(big), "--format", "json"], self._check_big))

    def _check_search(self, call: Call, inst: tuple, path: Path) -> dict:
        r, n_points, k, kind, param = inst
        out = _json(call)
        digits = out["witness"]
        _expect(out["found"] is True and out["valid"] is True,
                f"{inst}: no valid witness reported")
        _expect(len(digits) == n_points and set(digits) <= set("0123456789"[:r]),
                f"{inst}: witness is not an {r}-coloring of {n_points} points")
        _expect(_read_cert(path)[1] == digits,
                f"{inst}: certificate file disagrees with the output")
        _expect(not checker.has_mono([int(c) for c in digits], k, kind, param),
                f"{inst}: witness {digits} has a monochromatic progression")
        return {}

    def _check_cert(self, call: Call) -> dict:
        _expect(_json(call)["valid"] is True, "valid witness reported invalid")
        return {}

    def _check_big(self, call: Call) -> dict:
        n_points, k = BIG_CERT
        _expect(checker.has_mono([0] * n_points, k, "semi", 1),
                "reference checker finds no progression in a one-color certificate")
        if call.code == 1 and not call.stdout.strip() and "RecursionError" in call.stderr:
            raise KnownFault("check crashes with RecursionError on k=1200")
        _expect(_json(call, code=1)["valid"] is False,
                "one-color 1,500-point certificate reported valid")
        return {}

    def cli_metrics(self, ops_calls, setup_s: float) -> dict:
        return {}


# ---------------------------------------------------------------- oracle

SMALL_COUNTS = [  # (r, N, k, family, param): swept again by checker.mono_count
    (2, 12, 4, "semi", 1),
    (2, 10, 4, "quasi", 1),
    (2, 11, 4, "semi", 2),
    (3, 7, 3, "semi", 1),
    (3, 8, 3, "quasi", 1),
    (2, 11, 5, "quasi", 2),
]


@lru_cache(maxsize=None)
def _brute_count(r, n_points, k, kind, param) -> int:
    return checker.mono_count(r, n_points, k, kind, param)


class Oracle:
    """Exhaustive r^N sweeps: both count paths, verify, partition, forced."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        small = rng.choice(SMALL_COUNTS)
        counts = [  # (r, N, k, family, param)
            (2, 20, 4, "semi", 1),  # bitmask sweep
            (3, 12, 3, "semi", 1),  # tuple sweep
            (2, 9, 3, "semi", 1),
            (2, 8, 3, "semi", 1),
            small,
        ]
        self.ops: List[Op] = []
        for inst in counts:
            r, n_points, k, kind, param = inst
            self.ops.append(Op(
                ["oracle", "count", "--r", str(r), "--N", str(n_points), "--k", str(k)]
                + _family_args(kind, param) + ["--format", "json"],
                lambda call, inst=inst, small=(inst == small): self._check_count(call, inst, small),
                tag="count",
            ))
        for inst in [(2, 16, 5, "semi", 2), (3, 11, 3, "quasi", 1)]:
            r, n_points, k, kind, param = inst
            self.ops.append(Op(
                ["oracle", "verify", "--r", str(r), "--N", str(n_points), "--k", str(k)]
                + _family_args(kind, param) + ["--format", "json"],
                lambda call, inst=inst: self._check_verify(call, inst),
            ))
        # fixed --a, --d: their cost varies from 0.2 s to 0.6 s between
        # choices, which would make wall_s depend on the seed
        for name, n_points, kind, param, a, d in [
            ("partition", 15, "quasi", 1, 2, 2),
            ("forced", 16, "semi", 2, 2, 2),
        ]:
            self.ops.append(Op(
                ["oracle", name, "--N", str(n_points), "--k", "4"]
                + _family_args(kind, param)
                + ["--a", str(a), "--d", str(d), "--format", "json"],
                self._check_ok,
            ))

    def _check_count(self, call: Call, inst: tuple, small: bool) -> dict:
        r, n_points, k, kind, param = inst
        out = _json(call)
        mono, total = out["mono_count"], out["total"]
        _expect(total == r**n_points and 0 <= mono <= total, f"{inst}: bad totals")
        # rotating every color by one maps the counted set onto itself and
        # fixes no coloring, so the count splits into orbits of size r
        _expect(mono % r == 0, f"{inst}: count {mono} not divisible by r={r}")
        if inst == (2, 9, 3, "semi", 1):
            _expect(mono == 2**9, f"W(2,3) = 9 but {mono} of 512 colorings counted")
        if inst == (2, 8, 3, "semi", 1) or small:
            brute = _brute_count(*inst)
            _expect(mono == brute, f"{inst}: count {mono} != {brute} by enumeration")
            _expect(inst != (2, 8, 3, "semi", 1) or mono < 2**8,
                    "every 2-coloring of [1, 8] counted")
        return {"colorings": total}

    def _check_verify(self, call: Call, inst: tuple) -> dict:
        out = _json(call)
        _expect(out["bound_satisfied"] is True, f"{inst}: counting bound violated")
        _expect(out["mono_count"] % inst[0] == 0, f"{inst}: count not divisible by r")
        _expect(Fraction(out["bound_value"]) >= out["mono_count"],
                f"{inst}: bound below the count")
        return {}

    def _check_ok(self, call: Call) -> dict:
        _expect(_json(call)["ok"] is True, f"{call.args[1]} check failed")
        return {}

    def cli_metrics(self, ops_calls, setup_s: float) -> dict:
        swept = busy = 0.0
        for op, calls in ops_calls:
            if op.tag == "count" and op.facts and op.facts[0]["colorings"] >= 2**18:
                swept += op.facts[0]["colorings"]
                busy += typical_wall(calls) - setup_s
        return {"colorings_per_s": (swept / busy if busy > 0 else 0.0, "colorings/s")}


# ---------------------------------------------------------------- bounds

TABLE = (10, 30)  # r_max, n_max
QUASI_KS = [round(1 + i * 1999 / 15) for i in range(16)]  # fixed spread over [1, 2000]
LAMBDA_21 = 1 + 1 / math.sqrt(2)


@lru_cache(maxsize=4)
def _check_table_output(stdout: str) -> Optional[str]:
    """None if every cell checks out; the first accuracy fault otherwise.
    Raises Mismatch for wrong output that is not the known accuracy fault."""
    cells = json.loads(stdout)
    r_max, n_max = TABLE
    want = [(r, n) for r in range(2, r_max + 1) for n in range(1, n_max + 1)]
    _expect([(c["r"], c["n"]) for c in cells] == want, "table cells missing or out of order")
    fault = None
    for c in cells:
        r, n, lam = c["r"], c["n"], c["lambda_max"]
        bracket = reference.cw_bracket(r, n, lam)
        _expect(bracket is not None, f"({r},{n}): no positive vector near lambda {lam}")
        lo, hi = bracket
        slack = Fraction(LAMBDA_RTOL) * Fraction(lam)
        _expect(hi < r or lo > r, f"({r},{n}): bracket [{float(lo)}, {float(hi)}] holds r")
        _expect(c["useful"] is (hi < r), f"({r},{n}): useful={c['useful']} but lambda "
                f"in [{float(lo)}, {float(hi)}]")
        _expect(math.isclose(c["beta"], math.sqrt(r / lam), rel_tol=1e-14),
                f"({r},{n}): beta != sqrt(r / lambda_max)")
        if lo - slack <= Fraction(lam) <= hi + slack:
            continue
        msg = (f"({r},{n}): lambda_max {lam!r} outside the certified bracket "
               f"[{float(lo)!r}, {float(hi)!r}]")
        wide = Fraction(TABLE_FAULT_RTOL) * Fraction(lam)
        _expect(lo - wide <= Fraction(lam) <= hi + wide,
                f"{msg} by more than {TABLE_FAULT_RTOL:g}")
        fault = fault or f"{msg} by more than {LAMBDA_RTOL:g}"
    return fault


class Bounds:
    """The (r, n) table of quasi bases, then floor(beta(2,1)^K) for a spread of K."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        # two extra K below 290, where the float floor is still exact
        ks = QUASI_KS + sorted(rng.sample(range(2, 289), 2))
        r_max, n_max = TABLE
        self.ops = [Op(
            ["table", "--r-max", str(r_max), "--n-max", str(n_max), "--format", "json"],
            self._check_table, tag="table",
        )]
        for k in ks:
            self.ops.append(Op(
                ["bound", "quasi", "--r", "2", "--n", "1", "--k", str(k), "--format", "json"],
                lambda call, k=k: self._check_quasi(call, k),
            ))

    def _check_table(self, call: Call) -> dict:
        _json(call)
        fault = _check_table_output(call.stdout)
        if fault:
            raise KnownFault(fault)
        return {}

    def _check_quasi(self, call: Call, k: int) -> dict:
        out = _json(call)
        _expect(abs(out["lambda_max"] - LAMBDA_21) <= 1e-12,
                f"lambda(2,1) = {out['lambda_max']!r}, not 1 + 1/sqrt(2)")
        _expect(out["useful"] is True, "beta(2,1) reported not useful")
        want, got = reference.floor_beta21_power(k), out["threshold"]
        if got == want:
            return {}
        msg = f"K={k}: threshold {got} != exact floor {want}"
        # base = sqrt(2 / lambda) is off by at most LAMBDA_RTOL / 2 plus
        # rounding, relative, so base**k by about k times that
        slack = 1 + want * k * Fraction(LAMBDA_RTOL / 2 + 2**-51)
        _expect(isinstance(got, int) and k >= QUASI_FAULT_K and abs(got - want) <= slack,
                f"{msg}, not a float rounding of the base")
        raise KnownFault(msg)

    def cli_metrics(self, ops_calls, setup_s: float) -> dict:
        r_max, n_max = TABLE
        for op, calls in ops_calls:
            if op.tag == "table":
                busy = typical_wall(calls) - setup_s
                return {"cells_per_s": ((r_max - 1) * n_max / busy, "cells/s")}
        return {}


WORKLOADS = {"exact": Exact, "witness": Witness, "oracle": Oracle, "bounds": Bounds}
CLI_METRICS = {  # reported by the traced run, zero where the workload has none
    "search_nodes": "count",
    "nodes_per_s": "nodes/s",
    "colorings_per_s": "colorings/s",
    "cells_per_s": "cells/s",
    "raw.setup_s": "s",
    "raw.wall_s": "s",
    "raw.reference_s": "s",
    "raw.compute_reference_s": "s",
}


# ---------------------------------------------------------------- runs


def judge(op: Op, call: Call) -> str:
    """Check one output: "ok", "fault" (a known fault) or "wrong"."""
    try:
        op.facts.append(op.check(call))
    except KnownFault as exc:
        _note(f"failed (known fault): {exc}")
        return "fault"
    except Exception as exc:  # Mismatch, or output the check could not read
        _note(f"WRONG: {' '.join(call.args)}: {type(exc).__name__}: {exc}")
        return "wrong"
    return "ok"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def record(self, op: Op, call: Call) -> None:
        verdict = judge(op, call)
        self.attempted += 1
        self.failed += verdict != "ok"
        self.correct = self.correct and verdict != "wrong"


def verify_inprocess(op: Op, code: int, stdout: str, stderr: str) -> str:
    """Check an output of the in-process replay the way the CLI's is checked."""
    return judge(op, Call(op.args, code, stdout, stderr, 0.0, 0.0))


_NOTED = set()


def _note(msg: str) -> None:
    if msg not in _NOTED:
        _NOTED.add(msg)
        print(msg, file=sys.stderr)


def run_rounds(ops: List[Op], runner: Runner, seconds: float, tally: Tally):
    """Whole rounds of ``ops`` until ``seconds`` have passed, each after
    SETUP_CALLS calls that compute nothing and as many reference calls, and
    with a compute probe after every call.  Returns, per op, its calls; and
    the setup, reference and compute probe times."""
    calls: List[List[Call]] = [[] for _ in ops]
    setup: List[float] = []
    ref: List[float] = []
    probe: List[float] = []
    runner.call(["--help"])  # compiles the package's bytecode once
    t0 = time.perf_counter()
    while not setup or time.perf_counter() - t0 < seconds:
        for _ in range(SETUP_CALLS):
            setup.append(runner.call(["--help"]).wall)
            ref.append(runner.reference())
        for op, bucket in zip(ops, calls):
            call = runner.call(op.args)
            bucket.append(call)
            tally.record(op, call)
            probe.append(compute_probe())
    return list(zip(ops, calls)), setup, ref, probe


def measure(workload, tmp: Path, seconds: float, traced: int):
    """Rounds of the workload's CLI calls; with ``traced``, then the
    in-process replays.  Returns (tally, metrics, rounds)."""
    tally = Tally()
    ops_calls, setup, ref, probe = run_rounds(workload.ops, Runner(tmp), seconds, tally)
    setup_s = statistics.median(setup)
    rounds = len(ops_calls[0][1])
    wall_s = sum(typical_wall(calls) for _, calls in ops_calls)
    start_speed = REFERENCE_S / statistics.median(ref)
    compute_speed = COMPUTE_REFERENCE_S / statistics.median(probe)
    # each call is one start-up, as long as a call that computes nothing,
    # and compute for the rest of its time
    start_s = setup_s * len(ops_calls)
    if not traced:
        peak = max(c.rss_mb for _, calls in ops_calls for c in calls)
        scaled = start_s * start_speed + (wall_s - start_s) * compute_speed
        metrics = {"setup_s": (setup_s * start_speed, "s"), "wall_s": (scaled, "s"),
                   "peak_rss_mb": (peak, "MB")}
        return tally, metrics, rounds
    import tracing

    metrics = {name: (0.0, unit) for name, unit in CLI_METRICS.items()}
    metrics.update({
        "raw.setup_s": (setup_s, "s"),
        "raw.wall_s": (wall_s, "s"),
        "raw.reference_s": (statistics.median(ref), "s"),
        "raw.compute_reference_s": (statistics.median(probe), "s"),
    })
    metrics.update(workload.cli_metrics(ops_calls, setup_s))
    layer, ok = tracing.per_layer(workload.ops, wall_s, verify_inprocess)
    metrics.update(layer)
    tally.correct = tally.correct and ok
    return tally, metrics, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ramseyprog" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: the running child is killed and reaped, and the
    # temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            workload = WORKLOADS[args.workload](args.seed, Path(tmp))
            tally, metrics, n_rounds = measure(workload, Path(tmp), args.seconds, args.trace)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(f"{args.workload}: {n_rounds} rounds of {len(workload.ops)} calls, "
          f"{tally.failed}/{tally.attempted} failed", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
