"""Command-line surface: scan, chain-search, classify, decompose,
signature extract/reconstruct, bounds, verify.

Records go to stdout as JSON Lines, CSV, or an aligned table; diagnostics
go to stderr. Exit codes: 0 success, 1 invalid input, 2 non-exhaustive
search (a branch cut by the factorization budget or the recursion limit),
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import traceback
from decimal import Decimal
from fractions import Fraction
from itertools import chain

from .arithmetic import FactorizationExhausted, FactoredInteger, factorize
from .bounds import _decimal_str, bound_report
from .classify import classify, is_primitive, primitive_decomposition
from .search import (
    SearchParams,
    brute_scan,
    chain_search,
    verify_counts,
)
from .signature import NotPrimitive, extract_signature, reconstruct

PROG = "mps"


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_alpha(text: str) -> Fraction:
    m = re.fullmatch(r"(\d+)(?:/(\d+))?", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"invalid alpha {text!r}; expected an integer like 3 or a ratio like 3/2"
        )
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise argparse.ArgumentTypeError(f"invalid alpha {text!r}; zero denominator")
    value = Fraction(num, den)
    if value <= 1:
        raise argparse.ArgumentTypeError(f"alpha must exceed 1, got {text!r}")
    return value


def _parse_positive_int(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}; expected a plain decimal string"
        )
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"value must be positive, got {text!r}")
    return value


def _parse_exponents(text: str) -> list[int]:
    exponents = []
    for token in text.split(","):
        token = token.strip()
        if not re.fullmatch(r"\d+", token) or int(token) < 1:
            raise argparse.ArgumentTypeError(
                f"invalid exponent {token!r}; expected positive integers like 5,1,1"
            )
        exponents.append(int(token))
    return exponents


def _alpha_str(alpha: Fraction) -> str:
    if alpha.denominator == 1:
        return str(alpha.numerator)
    return f"{alpha.numerator}/{alpha.denominator}"


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _pairs(factors) -> list[list[int]]:
    return [[p, e] for p, e in factors]


def _number(fi: FactoredInteger) -> dict:
    return {"n": str(fi.value), "factors": _pairs(fi.factors)}


def _render(output: str, docs, table, rows=()) -> None:
    """Write a command's result to stdout: each of docs as one compact JSON
    line, rows (header first) as CSV, or the table lines. table and rows may
    be generators, so only the chosen form is built."""
    if output == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return
    for line in map(_json, docs) if output == "json" else table:
        print(line)


def _record(fi: FactoredInteger, alpha: Fraction, primitive: bool, source: str) -> dict:
    return {
        **_number(fi),
        "omega": fi.omega,
        "alpha": _alpha_str(alpha),
        "primitive": primitive,
        "source": source,
    }


def _emit_records(output: str, found, alpha: Fraction, source: str) -> None:
    """Write one record per (number, primitive) pair in found."""
    records = [_record(fi, alpha, primitive, source) for fi, primitive in found]
    table = (
        f"{rec['n']:>16}  omega={rec['omega']}  alpha={rec['alpha']}"
        f"  primitive={str(primitive).lower()}  [{fi}]  ({source})"
        for rec, (fi, primitive) in zip(records, found)
    )
    header = ["n", "factors", "omega", "alpha", "primitive", "source"]
    # A CSV cell holds a list or a bool as compact JSON, anything else as is.
    rows = (
        [_json(v) if isinstance(v, (list, bool)) else v for v in rec.values()]
        for rec in records
    )
    _render(output, records, table, chain([header], rows))


def _resolve_jobs(args) -> int:
    if args.jobs is not None:
        return args.jobs
    env = os.environ.get("MPS_JOBS")
    if env:
        try:
            return _parse_positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"MPS_JOBS: {exc}") from None
    return os.cpu_count() or 1


def _diag(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _shorten(digits: str) -> str:
    """Up to 20 digits as they are; past that 16 significant digits, rounded
    up so that a printed upper bound stays an upper bound."""
    if len(digits) <= 20:
        return digits
    return _decimal_str(Fraction(Decimal(digits)), 16, up=True)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _search_params(args) -> SearchParams:
    return SearchParams(
        alpha=args.alpha,
        max_omega=args.max_omega,
        limit=args.limit,
        parity=args.parity,
        worker_count=_resolve_jobs(args),
    )


def _cmd_scan(args) -> int:
    jobs = _resolve_jobs(args)
    found = brute_scan(args.alpha, args.limit, args.parity, worker_count=jobs)
    pairs = [(fi, is_primitive(fi)) for fi in found]
    _emit_records(args.output, pairs, args.alpha, "scan")
    _diag(args, f"scan: {len(pairs)} found up to {args.limit} (jobs={jobs})")
    return 0


def _search_exit(args, report) -> int:
    """0 for an exhaustive search; else 2, after naming the cut branches."""
    if report.exhaustive:
        return 0
    _diag(args, f"{args.command}: NON-EXHAUSTIVE, incomplete branches: "
          + "; ".join(report.incomplete_branches))
    return 2


def _cmd_chain_search(args) -> int:
    report = chain_search(_search_params(args))
    pairs = [(f.number, f.primitive) for f in report.found]
    _emit_records(args.output, pairs, args.alpha, "chain")
    prune_text = ", ".join(f"{k}={v}" for k, v in report.pruned_by.items() if v)
    _diag(
        args,
        f"chain-search: {len(pairs)} found, {report.nodes_explored} states"
        f" explored, prunes: {prune_text or 'none'}",
    )
    return _search_exit(args, report)


def _cmd_classify(args) -> int:
    fi = factorize(args.n)
    perf = classify(fi)
    primitive = is_primitive(fi)
    payload = {
        **_number(fi),
        "omega": fi.omega,
        "alpha": _alpha_str(perf.alpha),
        "status": perf.status,
        "multiperfect": perf.multiperfect,
        "rational_multiperfect": perf.rational_multiperfect,
        "primitive": primitive,
    }
    _render(args.output, [payload], [
        f"n = {fi.value} = {fi}",
        f"alpha = sigma(n)/n = {payload['alpha']}",
        f"status: {perf.status}"
        + (" (rational)" if perf.rational_multiperfect else ""),
        f"primitive: {str(primitive).lower()}",
    ])
    return 0


def _cmd_decompose(args) -> int:
    fi = factorize(args.n)
    dec = primitive_decomposition(fi)
    parts = list(zip(dec.parts, dec.multipliers))
    payload = {
        "n": str(fi.value),
        "parts": [{**_number(part), "multiplier": mult} for part, mult in parts],
        "leftover": _number(dec.leftover),
        "leftover_is_multiperfect": dec.leftover_is_multiperfect,
    }
    table = [f"part {part.value} = {part}  (sigma = {mult} * part)"
             for part, mult in parts] or ["no parts peeled"]
    table.append(f"leftover {dec.leftover.value} = {dec.leftover}"
                 f"  multiperfect={str(dec.leftover_is_multiperfect).lower()}")
    _render(args.output, [payload], table)
    return 0


def _cmd_signature_extract(args) -> int:
    fi = factorize(args.n)
    sig = extract_signature(fi)
    payload = {
        "n": str(fi.value),
        "alpha": _alpha_str(sig.alpha),
        "p1": sig.p1,
        "exponents": list(sig.exponents),
        "chain_primes": list(sig.chain_primes),
    }
    _render(args.output, [payload], [
        f"n = {fi.value}: alpha = {payload['alpha']}, p1 = {sig.p1}",
        f"exponents: {','.join(map(str, sig.exponents))}",
        f"chain: {' -> '.join(map(str, sig.chain_primes))}",
    ])
    return 0


def _cmd_signature_reconstruct(args) -> int:
    result = reconstruct(args.alpha, args.p1, args.exponents)
    payload = {
        "alpha": _alpha_str(args.alpha),
        "p1": args.p1,
        "exponents": args.exponents,
        "value": str(result.number.value) if result.ok else None,
        "chain": _pairs(result.chain),
        "failure": result.failure,
        "failed_step": result.failed_step,
    }
    step = f" at step {result.failed_step}" if result.failed_step else ""
    table = [payload["value"]] if result.ok else [
        f"reconstruction failed: {result.failure}{step}",
        f"chain so far: {result.chain}",
    ]
    _render(args.output, [payload], table)
    return 0


def _interval_json(interval) -> dict:
    lo, hi = interval.decimal(20)
    return {"lower": lo, "upper": hi}


def _cmd_bounds(args) -> int:
    rows = []
    for r in range(1, args.max_r + 1):
        report = bound_report(args.alpha, r, args.limit)
        row = {
            "r": r,
            "count_coefficient": _interval_json(report.f_values[r]),
            "primitive_count_bound": _interval_json(report.primitive_count),
        }
        if report.multiperfect_count is not None:
            row["multiperfect_count_bound"] = _interval_json(report.multiperfect_count)
        if report.absolute_count is not None:
            # Decimal takes the int without a string, so this also works past
            # the limit on int-to-str conversion (4300 digits by default).
            row["absolute_count_bound"] = str(Decimal(report.absolute_count))
            row["chain_check"] = all(ok for _, ok in report.chain_inequalities)
        rows.append(row)
    summary = {
        "alpha": _alpha_str(args.alpha),
        "limit": str(args.limit) if args.limit else "2^(4^r)",
        "rows": rows,
    }

    def table():
        yield f"alpha = {summary['alpha']}, limit = {summary['limit']}"
        for row in rows:
            line = (
                f"r={row['r']:>2}"
                f"  f(r) <= {row['count_coefficient']['upper']}"
                f"  primitive <= {row['primitive_count_bound']['upper']}"
            )
            if "absolute_count_bound" in row:
                line += (
                    f"  absolute <= {_shorten(row['absolute_count_bound'])}"
                    f"  chain={'ok' if row['chain_check'] else 'FAIL'}"
                )
            yield line

    header = ["r", "count_coefficient_upper", "primitive_bound_upper"]
    # The multiperfect bound is reported at every r or at none.
    if "multiperfect_count_bound" in rows[0]:
        header += ["multiperfect_bound_upper", "absolute_bound", "chain_check"]
    # A row's fields in header order: an interval gives its upper end, and a
    # row past MAX_ABSOLUTE_R leaves its absolute bound and chain check empty.
    # chain_check prints as True/False, unlike a record's bools.
    cells = (
        [v["upper"] if isinstance(v, dict) else v for v in row.values()]
        + [""] * (len(header) - len(row))
        for row in rows
    )
    _render(args.output, [summary], table(), chain([header], cells))
    return 0


def _cmd_verify(args) -> int:
    params = _search_params(args)
    oracle = brute_scan(
        params.alpha, params.limit, params.parity, worker_count=params.worker_count
    )
    oracle_records = [
        _record(fi, params.alpha, is_primitive(fi), "scan") for fi in oracle
    ]
    oracle_primitive = {rec["n"] for rec in oracle_records if rec["primitive"]}
    report = chain_search(params)
    chain_records = [
        _record(f.number, params.alpha, f.primitive, "chain") for f in report.found
    ]
    chain_primitive = {rec["n"] for rec in chain_records if rec["primitive"]}
    checks = verify_counts(params, report)
    summary = {
        "alpha": _alpha_str(params.alpha),
        "limit": str(params.limit),
        "max_omega": params.max_omega,
        "parity": params.parity,
        "oracle": oracle_records,
        "chain": chain_records,
        "primitive_set_equal": oracle_primitive == chain_primitive,
        "nodes_explored": report.nodes_explored,
        "pruned_by": report.pruned_by,
        "exhaustive": report.exhaustive,
        "bound_checks": [
            {
                "description": c.description,
                "count": c.count,
                "bound": c.bound_text,
                "passed": c.passed,
            }
            for c in checks
        ],
    }
    _render(args.output, [summary], ())
    return _search_exit(args, report)


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------

def _add_common(sub, *, omega=False, outputs=("json", "csv", "table")):
    sub.add_argument("--alpha", type=_parse_alpha, required=True,
                     help="target abundancy, e.g. 3 or 3/2")
    sub.add_argument("--limit", type=_parse_positive_int, required=True,
                     help="search bound x as a plain decimal string")
    if omega:
        sub.add_argument("--max-omega", type=_parse_positive_int, required=True,
                         help="largest distinct-prime count r to search")
    sub.add_argument("--odd-only", dest="parity", action="store_const",
                     const="odd_only", default="any",
                     help="restrict to odd numbers")
    sub.add_argument("--jobs", type=_parse_positive_int, default=None,
                     help="worker processes (default: MPS_JOBS or all cores)")
    sub.add_argument("--output", choices=outputs, default="json")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress diagnostics on stderr")


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(group, name, func, help, n=False, table=False):
        sub = group.add_parser(name, help=help)
        sub.set_defaults(func=func)
        if n:
            sub.add_argument("n", type=_parse_positive_int)
        if table:
            sub.add_argument("--output", choices=("json", "table"), default="table")
        return sub

    _add_common(command(subs, "scan", _cmd_scan,
                        "divisor-sum sieve scan up to a limit"))
    _add_common(command(subs, "chain-search", _cmd_chain_search,
                        "signature-chain enumeration"), omega=True)
    command(subs, "classify", _cmd_classify, "abundancy and multiperfection of n",
            n=True, table=True)
    command(subs, "decompose", _cmd_decompose, "peel primitive unitary parts off n",
            n=True, table=True)

    sig = subs.add_parser("signature", help="extract or rebuild prime-chain signatures")
    sig_subs = sig.add_subparsers(dest="signature_command", required=True)
    command(sig_subs, "extract", _cmd_signature_extract,
            "signature of a primitive number", n=True, table=True)
    rec = command(sig_subs, "reconstruct", _cmd_signature_reconstruct,
                  "rebuild n from alpha, p1, exponents")
    rec.add_argument("--alpha", type=_parse_alpha, required=True)
    rec.add_argument("--p1", type=_parse_positive_int, required=True)
    rec.add_argument("--exponents", type=_parse_exponents, required=True,
                     help="comma-separated exponent list, e.g. 5,1,1")
    # Added last, as --output is listed after the other options.
    rec.add_argument("--output", choices=("json", "table"), default="table")

    bnd = command(subs, "bounds", _cmd_bounds, "tabulate the rigorous count bounds")
    bnd.add_argument("--alpha", type=_parse_alpha, required=True)
    bnd.add_argument("--max-r", type=_parse_positive_int, required=True)
    bnd.add_argument("--limit", type=_parse_positive_int, default=None,
                     help="evaluate (ln x) bounds at this x; default 2^(4^r)")
    bnd.add_argument("--output", choices=("json", "csv", "table"), default="table")

    _add_common(command(subs, "verify", _cmd_verify,
                        "oracle scan vs chain search, with bounds"),
                omega=True, outputs=("json",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except NotPrimitive as exc:
        print(f"{PROG}: not primitive: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except FactorizationExhausted as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception:
        traceback.print_exc()
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
