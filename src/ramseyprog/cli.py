"""Command-line frontend.

One subcommand per computation:

    bound semi|quasi   analytic lower-bound bases (and floor(base^k))
    table              the quasi bound base over a (colors, diameter) grid
    oracle ...         exhaustive small-N counts and consistency checks
    search exact       exact thresholds with witness certificates
    search witness     randomized witness search at a fixed size
    check FILE         re-verify a witness certificate file

Exit codes: 0 success; 1 a checked inequality failed or a certificate is
invalid; 2 usage or format error; 3 budget exhausted (including an
eigenvalue bracket or a threshold undecided within the step cap,
witness-not-found, and running out of memory); 141 (128 + SIGPIPE) when
the reader closes stdout early, with nothing on stderr.  Output is text by
default, CSV for the table, and JSON everywhere on request; with --format
json, errors are also emitted as a JSON object on stdout.  An exact number
(a --k floor, the bound of oracle verify) prints in full at any length.

Budgets: search exact reads --max-nodes and --max-length, search witness
--max-nodes, --seed and --restarts, and oracle --max-points and
--max-colorings.  oracle verify --family semi also holds the m(k - 1) bits
of its bound's power (1 - 2^-m)^(k - 1) to --max-colorings, and exits 3
before the bound or the count runs when they exceed it.  An unset cap falls
back to RAMSEYPROG_<FIELD> (RAMSEYPROG_MAX_NODES, ...), then to its default
in SearchBudget or OracleBudget; a subcommand ignores the variables of caps
it has no flag for.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import sys

from .errors import BudgetExceededError, ConvergenceError

# The compute layers load on first use, so a call imports only the layer its
# subcommand runs.  Each cmd_* binds its layer's names here with _load; until
# then, cli.<name> resolves through __getattr__.  A wrapper set on cli.<name>
# before the first call (a test's monkeypatch, the benchmark's tracer) stays.
_LAZY = {  # name -> the submodule it comes from
    name: module
    for module, names in (
        ("bounds", "beta_quasi beta_table semi_bound"),
        ("oracle", "OracleBudget count_mono_colorings forced_count_check "
                   "primary_partition_check verify_counting_inequality"),
        ("progressions", "MAX_DIGIT_COLORS Family"),
        ("search", "SearchBudget check_witness exact_threshold "
                   "random_witness_search read_witness write_witness"),
    )
    for name in names.split()
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)


def _load(*modules: str) -> None:
    """Bind the names that ``modules`` supply in this namespace, keeping any
    already set."""
    for name, module in _LAZY.items():
        if module in modules:
            globals().setdefault(name, __getattr__(name))


def _truncate5(x: float) -> str:
    """Five decimals, truncated toward zero: 1.0823922 displays as 1.08239."""
    s = f"{x:.12f}"
    return s[: s.index(".") + 6]


def _beta_cell(base: float) -> str:
    return "<1" if base <= 1 else _truncate5(base)


def _quasi_fields(res) -> dict:
    """A quasi bound's output fields.  lambda_lo and lambda_hi are its exact
    enclosure rounded outward to floats, so the printed pair still encloses
    lambda."""
    lo, hi = float(res.lambda_lo), float(res.lambda_hi)
    if lo > res.lambda_lo:
        lo = math.nextafter(lo, -math.inf)
    if hi < res.lambda_hi:
        hi = math.nextafter(hi, math.inf)
    return {
        "alpha": 1 - 1 / res.r,
        "lambda_max": res.lambda_max,
        "lambda_lo": lo,
        "lambda_hi": hi,
        "beta": res.base,
        "useful": res.useful,
    }


def _emit(fmt: str, payload, lines: list[str]) -> None:
    """Render a record or a list of records: text lines, JSON, or CSV with
    one header row and then one row per record.  A Fraction in the payload
    prints as its exact text "p/q", and text output never builds it."""
    if fmt == "json":
        print(json.dumps(payload, default=str))
    elif fmt == "csv":
        import csv

        records = payload if isinstance(payload, list) else [payload]
        writer = csv.writer(sys.stdout)
        writer.writerow(records[0].keys())
        writer.writerows(rec.values() for rec in records)
    else:
        for line in lines:
            print(line)


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's limit on int-to-str digits (3.11 on) while output is
    built, so an exact floor of any length prints; options such as --k are
    parsed before, under the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _family(args) -> Family:
    return Family(args.family, args.param)


def _budget(args, budget_cls):
    """The budget built from the fields the subcommand has a flag for; a
    field with no flag keeps the record's default.  An unset cap flag
    (max_*, default None) falls back to RAMSEYPROG_<FIELD> from the
    environment, else to the default.  The parser sets --seed and
    --restarts only when given, so they never read the environment."""
    values = {}
    for field in budget_cls._fields:
        if not hasattr(args, field):
            continue
        value = getattr(args, field)
        if value is None:
            name = f"RAMSEYPROG_{field.upper()}"
            raw = os.environ.get(name)
            if raw is None:
                continue
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {raw!r}") from None
        values[field] = value
    return budget_cls(**values)


def cmd_bound(args) -> int:
    _load("bounds")
    if args.bound_kind == "semi":
        res, name = semi_bound(args.m), "alpha"
        payload = {"family": "semi", "param": args.m, "alpha": res.base}
        lines = [f"alpha({args.m}) = {res.base:.6f}"]
    else:
        res, name = beta_quasi(args.r, args.n), "beta"
        payload = {"family": "quasi", "param": args.n, "r": args.r, **_quasi_fields(res)}
        lines = [
            f"beta(r={args.r}, n={args.n}) = {_beta_cell(res.base)} (raw {res.base!r})",
            f"lambda_max = {res.lambda_max!r}",
            f"lambda in [{payload['lambda_lo']!r}, {payload['lambda_hi']!r}]",
            f"useful = {str(res.useful).lower()}",
        ]
    with _int_digits_unlimited():
        if args.k is not None:
            t = res.threshold(args.k)
            payload["k"] = args.k
            payload["threshold"] = t
            lines.append(f"floor({name}^{args.k}) = {t}")
        _emit(args.format, payload, lines)
    return 0


def cmd_table(args) -> int:
    _load("bounds")
    results = beta_table(args.r_max, args.n_max)
    records = [
        {"r": res.r, "n": res.family.param, **_quasi_fields(res)} for res in results
    ]
    if args.format == "csv":
        for rec in records:
            rec.update(beta=_beta_cell(rec["beta"]), useful=str(rec["useful"]).lower())
    by_cell = {(res.r, res.family.param): res for res in results}
    header = ["r\\n"] + [f"n={n}" for n in range(1, args.n_max + 1)]
    rows = [header]
    for r in range(2, args.r_max + 1):
        rows.append(
            [f"r={r}"]
            + [_beta_cell(by_cell[(r, n)].base) for n in range(1, args.n_max + 1)]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    _emit(args.format, records, lines)
    return 0


def _report_payload(rep) -> dict:
    return {
        "N": rep.N,
        "k": rep.k,
        "family": rep.family.kind,
        "param": rep.family.param,
        "r": rep.r,
        "mono_count": rep.mono_count,
        "total": rep.total,
        "bound_value": rep.bound_value,
        "bound_value_float": None if rep.bound_value is None else float(rep.bound_value),
        "bound_satisfied": rep.bound_satisfied,
    }


def cmd_oracle(args) -> int:
    _load("oracle", "progressions")
    family = _family(args)
    budget = _budget(args, OracleBudget)
    if args.oracle_cmd == "count":
        rep = count_mono_colorings(args.r, args.N, args.k, family, budget)
        _emit(
            args.format,
            _report_payload(rep),
            [f"monochromatic colorings: {rep.mono_count} / {rep.total}"],
        )
        return 0
    if args.oracle_cmd == "verify":
        rep = verify_counting_inequality(args.r, args.N, args.k, family, budget)
        verdict = "holds" if rep.bound_satisfied else "VIOLATED"
        with _int_digits_unlimited():
            _emit(
                args.format,
                _report_payload(rep),
                [
                    f"monochromatic colorings: {rep.mono_count} / {rep.total}",
                    f"analytic bound: {float(rep.bound_value):.6g}",
                    f"inequality {verdict}",
                ],
            )
        return 0 if rep.bound_satisfied else 1
    check = (
        primary_partition_check
        if args.oracle_cmd == "partition"
        else forced_count_check
    )
    ok = check(args.r, args.N, args.k, family, args.a, args.d, budget)
    _emit(
        args.format,
        {
            "check": args.oracle_cmd,
            "N": args.N,
            "k": args.k,
            "family": family.kind,
            "param": family.param,
            "r": args.r,
            "a": args.a,
            "d": args.d,
            "ok": ok,
        },
        [f"{args.oracle_cmd} check: {'ok' if ok else 'FAILED'}"],
    )
    return 0 if ok else 1


def _cert_payload(cert) -> dict:
    return {
        "family": cert.family.kind,
        "param": cert.family.param,
        "r": cert.r,
        "k": cert.k,
        "value": cert.value,
        "witness": cert.witness.digits(),
        "witness_length": cert.witness.n_points,
        "nodes_explored": cert.nodes_explored,
        "exhaustive": cert.exhaustive,
    }


def cmd_search(args) -> int:
    _load("search", "progressions")
    if args.r > MAX_DIGIT_COLORS:
        raise ValueError(f"--r is at most {MAX_DIGIT_COLORS} (one digit per point)")
    family = _family(args)
    budget = _budget(args, SearchBudget)
    if args.search_cmd == "exact":
        try:
            cert = exact_threshold(args.r, args.k, family, budget)
        except BudgetExceededError as exc:
            cert, code = exc.partial, 3
            payload = dict(_cert_payload(cert), error=str(exc))
            lines = [
                f"budget exhausted: {exc}",
                f"best lower bound: value >= {cert.value}",
                f"witness (length {cert.witness.n_points}) = {cert.witness.digits()}",
            ]
        else:
            code, payload = 0, _cert_payload(cert)
            lines = [
                f"value = {cert.value}",
                f"witness (length {cert.witness.n_points}) = {cert.witness.digits()}",
                f"nodes explored = {cert.nodes_explored}",
                f"exhaustive = {str(cert.exhaustive).lower()}",
            ]
        witness = cert.witness
    else:
        witness = random_witness_search(args.r, args.N, args.k, family, budget)
        if witness is None:
            code = 3
            payload = dict(found=False, N=args.N, k=args.k, error="no witness found")
            lines = [f"no witness found for N={args.N} within budget"]
        elif not check_witness(witness, args.k, family):
            code, witness = 1, None
            payload = {"found": True, "valid": False}
            lines = ["search returned a coloring that fails re-verification"]
        else:
            code = 0
            payload = {
                "found": True,
                "valid": True,
                "N": witness.n_points,
                "k": args.k,
                "family": family.kind,
                "param": family.param,
                "r": args.r,
                "witness": witness.digits(),
            }
            lines = [f"witness (length {witness.n_points}) = {witness.digits()}"]
    if args.witness_out and witness is not None:
        write_witness(args.witness_out, witness, args.k, family)
    _emit(args.format, payload, lines)
    return code


def cmd_check(args) -> int:
    _load("search")
    chi, k, family = read_witness(args.file)
    ok = check_witness(chi, k, family)
    _emit(
        args.format,
        {
            "file": args.file,
            "valid": ok,
            "N": chi.n_points,
            "k": k,
            "family": family.kind,
            "param": family.param,
            "r": chi.r,
        },
        [f"{args.file}: {'valid' if ok else 'INVALID'} "
         f"(N={chi.n_points}, k={k}, {family})"],
    )
    return 0 if ok else 1


def _add_format(p: argparse.ArgumentParser, default: str = "text") -> None:
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default=default,
        help=f"output format (default {default})",
    )


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family", choices=("semi", "quasi"), required=True,
        help="progression family",
    )
    p.add_argument(
        "--param", type=int, required=True,
        help="scope (semi) or diameter (quasi)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseyprog",
        description="Lower bounds, exhaustive oracles, and exact threshold "
        "search for semi- and quasi-progression Ramsey functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="analytic lower-bound bases")
    bound_sub = bound.add_subparsers(dest="bound_kind", required=True)
    bound_semi = bound_sub.add_parser("semi", help="scope-m base alpha(m)")
    bound_semi.add_argument("--m", type=int, required=True, help="scope")
    bound_semi.add_argument("--k", type=int, default=None, help="term count")
    _add_format(bound_semi)
    bound_semi.set_defaults(handler=cmd_bound, bound_kind="semi")
    bound_quasi = bound_sub.add_parser("quasi", help="diameter-n base beta(r,n)")
    bound_quasi.add_argument("--r", type=int, required=True, help="colors")
    bound_quasi.add_argument("--n", type=int, required=True, help="diameter")
    bound_quasi.add_argument("--k", type=int, default=None, help="term count")
    _add_format(bound_quasi)
    bound_quasi.set_defaults(handler=cmd_bound, bound_kind="quasi")

    table = sub.add_parser("table", help="beta over a grid of (r, n)")
    table.add_argument("--r-max", type=int, default=4)
    table.add_argument("--n-max", type=int, default=6)
    _add_format(table, default="csv")
    table.set_defaults(handler=cmd_table)

    oracle = sub.add_parser("oracle", help="exhaustive small-N ground truth")
    oracle_sub = oracle.add_subparsers(dest="oracle_cmd", required=True)
    for name, help_text in (
        ("count", "count colorings with a monochromatic progression"),
        ("verify", "compare the exhaustive count against the analytic bound"),
        ("partition", "check the primary-progression partition argument"),
        ("forced", "check the per-progression forced-cell count bound"),
    ):
        p = oracle_sub.add_parser(name, help=help_text)
        p.add_argument("--r", type=int, default=2, help="colors (default 2)")
        p.add_argument("--N", type=int, required=True, help="ground-set size")
        p.add_argument("--k", type=int, required=True, help="term count")
        _add_family(p)
        if name in ("partition", "forced"):
            p.add_argument("--a", type=int, required=True, help="first term")
            p.add_argument("--d", type=int, required=True, help="low-difference")
        p.add_argument("--max-points", type=int, default=None,
                       help="largest ground set the oracle will sweep")
        p.add_argument("--max-colorings", type=int, default=None,
                       help="largest r^N the oracle will sweep")
        _add_format(p)
        p.set_defaults(handler=cmd_oracle, oracle_cmd=name)

    search = sub.add_parser("search", help="threshold search")
    search_sub = search.add_subparsers(dest="search_cmd", required=True)
    for name, help_text in (
        ("exact", "exact threshold by backtracking"),
        ("witness", "randomized witness search"),
    ):
        p = search_sub.add_parser(name, help=help_text)
        p.add_argument("--r", type=int, default=2, help="colors (default 2)")
        if name == "witness":
            p.add_argument("--N", type=int, required=True, help="ground-set size")
        p.add_argument("--k", type=int, required=True, help="term count")
        _add_family(p)
        p.add_argument("--max-nodes", type=int, default=None,
                       help="search node / repair-move cap")
        if name == "exact":
            p.add_argument("--max-length", type=int, default=None,
                           help="largest N to attempt")
        else:
            p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                           help="random seed")
            p.add_argument("--restarts", type=int, default=argparse.SUPPRESS,
                           help="random restarts")
        p.add_argument("--witness-out", default=None,
                       help="write the witness certificate to this file")
        _add_format(p)
        p.set_defaults(handler=cmd_search, search_cmd=name)

    check = sub.add_parser("check", help="re-verify a witness certificate file")
    check.add_argument("file", help="witness certificate path")
    _add_format(check)
    check.set_defaults(handler=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")

    def fail(exc: Exception, code: int) -> int:
        if fmt == "json":
            print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code

    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early: end quietly, as a SIGPIPE death would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BudgetExceededError, ConvergenceError) as exc:
        return fail(exc, 3)
    except MemoryError:  # a bare MemoryError has no message of its own
        return fail(MemoryError("out of memory"), 3)
    except (ValueError, OSError) as exc:  # WitnessFormatError is a ValueError
        return fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
