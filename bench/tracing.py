"""Per-layer metrics from an in-process, traced replay of a workload.

The workload's CLI calls are replayed through ``ramseyprog.cli.main`` in this
process, alternately bare (to time the layers without tracing) and with
wrappers installed from outside the package around its public layer
functions; each kind runs twice and each call counts at its fastest.  Top-level
layer calls are kept as spans (name, duration, depth, arguments, result);
the hot kernels, called up to millions of times, only add to a call count
and a busy time.  The difference between the bare and traced replays is the
tracing overhead.  Probes that are not part of the CLI calls (kernel
micro-timing, the proof-only node count, cold progression lists, the
characteristic-polynomial solver) run after the replays, untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ramseyprog  # noqa: E402
from ramseyprog import bounds, cli, oracle, progressions, search  # noqa: E402

import reference  # noqa: E402

PER_LAYER = {  # name -> unit; layers a workload does not reach read 0
    "progressions.find_monochromatic.calls": "count",
    "progressions.find_monochromatic.us_per_call": "us",
    "progressions.primary_progression.calls": "count",
    "progressions.primary_progression.us_per_call": "us",
    "search.exact_threshold.nodes": "count",
    "search.exact_threshold.proof_nodes": "count",
    "search.exact_threshold.witness_nodes": "count",
    "search.exact_threshold.nodes_per_s": "nodes/s",
    "search.exact_threshold.s": "s",
    "search.random_witness_search.moves": "count",
    "search.random_witness_search.moves_per_s": "moves/s",
    "search.random_witness_search.s": "s",
    "search.check_witness.us_per_point": "us",
    "oracle.count_mono_colorings.r2.colorings_per_s": "colorings/s",
    "oracle.count_mono_colorings.r3.colorings_per_s": "colorings/s",
    "oracle.all_progressions.count": "count",
    "oracle.all_progressions.s": "s",
    "oracle.verify_counting_inequality.s": "s",
    "oracle.primary_partition_check.s": "s",
    "oracle.forced_count_check.s": "s",
    "bounds.beta_table.s": "s",
    "bounds.beta_quasi.max_cell_s": "s",
    "bounds.lambda_max_by_charpoly.s": "s",
    "bounds.quasi_counting_bound.s": "s",
    "bounds.semi_counting_bound.s": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

SPANS = [  # (module, attribute, span name): top-level layer calls
    (cli, "exact_threshold", "search.exact_threshold"),
    (cli, "random_witness_search", "search.random_witness_search"),
    (cli, "check_witness", "search.check_witness"),
    (cli, "count_mono_colorings", "oracle.count_mono_colorings"),
    (cli, "verify_counting_inequality", "oracle.verify_counting_inequality"),
    (cli, "primary_partition_check", "oracle.primary_partition_check"),
    (cli, "forced_count_check", "oracle.forced_count_check"),
    (cli, "beta_table", "bounds.beta_table"),
    (cli, "beta_quasi", "bounds.beta_quasi"),
    (oracle, "semi_counting_bound", "bounds.semi_counting_bound"),
    (oracle, "quasi_counting_bound", "bounds.quasi_counting_bound"),
]
COUNTERS = [  # (module, attribute, counter name): kernels called from inside
    (search, "find_monochromatic", "progressions.find_monochromatic"),
    (progressions, "primary_progression", "progressions.primary_progression"),
    (oracle, "primary_progression", "progressions.primary_progression"),
    (bounds, "beta_quasi", "bounds.beta_quasi.cell"),
]
REPAIR = "search.random_witness_search"


class Tracer:
    """Wraps layer functions in place; ``remove`` puts the originals back."""

    def __init__(self):
        self.spans = []  # (name, seconds, depth, args, result or None)
        self.counters = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy s, max s
        self.stack = []
        self.repair_finds = 0
        self.repair_attempts = 0
        self._last_colors = None
        self._saved = []

    def install(self):
        for module, attr, name in SPANS:
            self._swap(module, attr, self._span(getattr(module, attr), name))
        for module, attr, name in COUNTERS:
            self._swap(module, attr, self._counter(getattr(module, attr), name))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _swap(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, fn, name):
        def wrapped(*args, **kwargs):
            if name == REPAIR:
                self._last_colors = None
            self.stack.append(name)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.spans.append((name, dt, len(self.stack), args, result))

        return wrapped

    def _counter(self, fn, name):
        rec = self.counters[name]
        watch_repair = name == "progressions.find_monochromatic"

        def wrapped(*args, **kwargs):
            if watch_repair and self.stack and self.stack[-1] == REPAIR:
                self._repair_step(args[0].colors)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                rec[0] += 1
                rec[1] += dt
                if dt > rec[2]:
                    rec[2] = dt

        return wrapped

    def _repair_step(self, colors):
        # a repair move recolors one point; any other change is a new attempt
        self.repair_finds += 1
        last = self._last_colors
        if last is None or sum(a != b for a, b in zip(last, colors)) > 1:
            self.repair_attempts += 1
        self._last_colors = colors

    def total(self, name):
        return sum(s[1] for s in self.spans if s[0] == name)


def _arg(args, flag):
    return args[args.index(flag) + 1]


def replay(ops, verify):
    """Run every op once through cli.main; returns (seconds per op, outputs,
    ok).  ``verify`` checks each output; outputs are the stdout of each call,
    or None for those that failed their check."""
    outputs, ok, elapsed = [], True, []
    for op in ops:
        oracle.all_progressions.cache_clear()  # each CLI process starts cold
        oracle.progression_masks.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.args)
            except Exception as exc:  # the CLI would die with a traceback
                out.truncate(0)
                err.write(f"{type(exc).__name__}: {exc}")
                code = 1
        elapsed.append(time.perf_counter() - t0)
        verdict = verify(op, code, out.getvalue(), err.getvalue())
        outputs.append(out.getvalue() if verdict == "ok" else None)
        ok = ok and verdict != "wrong"
    return elapsed, outputs, ok


def _import_s(runs=5):
    code = ("import time; t = time.perf_counter(); import ramseyprog.cli; "
            "print(time.perf_counter() - t)")
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(runs)
    )


def _find_probe(ops, outputs, min_s=0.2):
    """Mean microseconds per find_monochromatic call on the valid colorings
    the workload returned, so that every call scans the whole coloring."""
    colorings = []
    for op, output in zip(ops, outputs):
        if op.args[:1] == ["search"] and output is not None:
            out = json.loads(output)
            fam = ramseyprog.Family(_arg(op.args, "--family"), int(_arg(op.args, "--param")))
            chi = ramseyprog.Coloring.from_digits(out["witness"], int(_arg(op.args, "--r")))
            colorings.append((chi, int(_arg(op.args, "--k")), fam))
    if not colorings:
        return 0.0, True
    ok = all(progressions.find_monochromatic(*c) is None for c in colorings)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < min_s:
        for c in colorings:
            progressions.find_monochromatic(*c)
        n += len(colorings)
    return (time.perf_counter() - t0) / n * 1e6, ok


def _proof_nodes(ops, outputs):
    """Nodes spent before the final N, from a run capped at value - 1."""
    before = 0
    for op, output in zip(ops, outputs):
        if op.args[:2] == ["search", "exact"] and output is not None:
            out = json.loads(output)
            fam = ramseyprog.Family(out["family"], out["param"])
            budget = ramseyprog.SearchBudget(max_length=out["value"] - 1)
            try:
                search.exact_threshold(out["r"], out["k"], fam, budget)
            except ramseyprog.BudgetExceededError as exc:
                before += exc.partial.nodes_explored
    return before


def _cold_progressions(ops):
    """Cold all_progressions for each large sweep: (count, seconds)."""
    count, busy = 0, 0.0
    for op in ops:
        if op.args[:2] == ["oracle", "count"]:
            r, n_points = int(_arg(op.args, "--r")), int(_arg(op.args, "--N"))
            if r**n_points < 2**18:
                continue
            fam = ramseyprog.Family(_arg(op.args, "--family"), int(_arg(op.args, "--param")))
            oracle.all_progressions.cache_clear()
            t0 = time.perf_counter()
            count += len(oracle.all_progressions(n_points, int(_arg(op.args, "--k")), fam))
            busy += time.perf_counter() - t0
    return count, busy


CHARPOLY_CELLS = [(r, n) for r in range(2, 5) for n in range(1, 7)]


def _charpoly_probe():
    """Seconds for the exact-rational solver on small cells, each of which
    must land within 1e-11 of its Collatz-Wielandt bracket."""
    ok, busy = True, 0.0
    for r, n in CHARPOLY_CELLS:
        t0 = time.perf_counter()
        lam = bounds.lambda_max_by_charpoly(bounds.transfer_matrix(r, n))
        busy += time.perf_counter() - t0
        lo, hi = reference.cw_bracket(r, n, lam)
        if not lo - Fraction(1e-11) <= Fraction(lam) <= hi + Fraction(1e-11):
            ok = False
            print(f"WRONG: charpoly lambda({r},{n}) = {lam!r} outside "
                  f"[{float(lo)!r}, {float(hi)!r}]", file=sys.stderr)
    return busy, ok


def per_layer(ops, cli_wall_s, verify):
    """Every PER_LAYER metric as name -> (value, unit), and whether the
    in-process outputs and probes all checked out.  ``verify(op, code,
    stdout, stderr)`` checks one in-process output as the CLI's would be and
    returns "ok", "fault" (a known fault) or "wrong"."""
    bare, traced, ok = [], [], True
    for _ in range(2):  # alternate against noise; each op counts at its fastest
        bare_times, outputs, bare_ok = replay(ops, verify)
        bare.append(bare_times)
        tracer = Tracer()
        tracer.install()
        try:
            traced_times, _, traced_ok = replay(ops, verify)
        finally:
            tracer.remove()
        traced.append(traced_times)
        ok = ok and bare_ok and traced_ok
    bare_s = sum(map(min, zip(*bare)))
    traced_s = sum(map(min, zip(*traced)))

    m = dict.fromkeys(PER_LAYER, 0.0)
    spans = tracer.spans
    m["cli.overhead_s"] = cli_wall_s - bare_s
    m["cli.import_s"] = _import_s()
    m["trace.overhead_s"] = traced_s - bare_s
    m["trace.overhead_pct"] = 100.0 * (traced_s - bare_s) / bare_s

    find = tracer.counters["progressions.find_monochromatic"]
    prim = tracer.counters["progressions.primary_progression"]
    m["progressions.find_monochromatic.calls"] = find[0]
    m["progressions.primary_progression.calls"] = prim[0]
    if prim[0]:
        m["progressions.primary_progression.us_per_call"] = prim[1] / prim[0] * 1e6
    us, probe_ok = _find_probe(ops, outputs)
    m["progressions.find_monochromatic.us_per_call"] = us
    ok = ok and probe_ok

    exact_s = tracer.total("search.exact_threshold")
    if exact_s:
        nodes = sum(json.loads(output)["nodes_explored"]
                    for op, output in zip(ops, outputs)
                    if op.args[:2] == ["search", "exact"] and output is not None)
        before = _proof_nodes(ops, outputs)
        m["search.exact_threshold.nodes"] = nodes
        m["search.exact_threshold.proof_nodes"] = nodes - before
        m["search.exact_threshold.witness_nodes"] = before
        m["search.exact_threshold.s"] = exact_s
        m["search.exact_threshold.nodes_per_s"] = nodes / exact_s
    repair_s = tracer.total(REPAIR)
    if repair_s:
        moves = tracer.repair_finds - tracer.repair_attempts
        m["search.random_witness_search.moves"] = moves
        m["search.random_witness_search.s"] = repair_s
        m["search.random_witness_search.moves_per_s"] = moves / repair_s
    points = check_s = 0
    for name, dt, _, args, result in spans:
        if name == "search.check_witness" and result is True:  # full scans only
            points += args[0].n_points
            check_s += dt
    if points:
        m["search.check_witness.us_per_point"] = check_s / points * 1e6

    for r in (2, 3):
        sweeps = [(a[0] ** a[1], dt) for n, dt, d, a, _ in spans
                  if n == "oracle.count_mono_colorings" and d == 0 and a[0] == r
                  and a[0] ** a[1] >= 2**18]
        if sweeps:
            m[f"oracle.count_mono_colorings.r{r}.colorings_per_s"] = (
                sum(c for c, _ in sweeps) / sum(dt for _, dt in sweeps))
    for name in ("oracle.verify_counting_inequality", "oracle.primary_partition_check",
                 "oracle.forced_count_check", "bounds.beta_table",
                 "bounds.quasi_counting_bound", "bounds.semi_counting_bound"):
        m[name + ".s"] = tracer.total(name)
    if tracer.total("oracle.count_mono_colorings"):
        count, busy = _cold_progressions(ops)
        m["oracle.all_progressions.count"] = count
        m["oracle.all_progressions.s"] = busy
    if m["bounds.beta_table.s"]:
        m["bounds.beta_quasi.max_cell_s"] = tracer.counters["bounds.beta_quasi.cell"][2]
        busy, probe_ok = _charpoly_probe()
        m["bounds.lambda_max_by_charpoly.s"] = busy
        ok = ok and probe_ok
    return {name: (value, PER_LAYER[name]) for name, value in m.items()}, ok
