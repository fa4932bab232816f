"""Benchmark of the `mps` batch commands and the multiperfect library calls.

    python3 bench/run.py --workload chain-walk --seed 1 --seconds 28 --trace 0

Runs whole rounds of one workload, each in a fresh interpreter (child.py),
one after another with one worker, until the next round would end after
--seconds. Then it checks every round's outputs against sympy and mpmath
(checks.py) and prints, as the last line of stdout, one JSON object:
correct, attempted, failed and the metrics. --trace 0 gives the end-to-end
metrics; --trace 1 wraps each layer's functions (tracer.py) and gives the
per-layer metrics instead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

from workloads import BATCH_ARGV, QUERY_WORKLOAD, WORKLOADS, library_queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
ROUND_TIMEOUT_S = 120
TAIL_MIN_CALLS = 1000  # a p99 needs at least ten samples beyond it

# Metric names and units, as BENCHMARK.json defines them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MPS_", "PYTHON"))}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # write nothing outside the checkout
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_round(job: dict, env: dict) -> dict:
    """One fresh interpreter; its result, or an error entry."""
    body = json.dumps(job)
    t_spawn = time.monotonic()
    payload = '{"t_spawn": %r, %s' % (t_spawn, body[1:])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=payload, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"round exceeded {ROUND_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _p(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def _end_to_end(rounds: list[dict]) -> dict:
    latencies = [ms for r in rounds for ms in r["latencies_ms"]]
    busy_s = sum(r["wall_s"] for r in rounds)
    p50 = statistics.median(latencies)
    # With fewer calls than TAIL_MIN_CALLS there is no tail to report; the
    # batch workloads (one call per round) repeat the median here.
    p99 = _p(latencies, 0.99) if len(latencies) >= TAIL_MIN_CALLS else p50
    values = {
        "wall_s": _median([r["wall_s"] for r in rounds]),
        "cpu_s": _median([r["cpu_s"] for r in rounds]),
        "setup_s": _median([r["setup_s"] for r in rounds]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in rounds]),
        "queries_per_s": len(latencies) / busy_s,
        "query_p50_ms": p50,
        "query_p99_ms": p99,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _layer_values(rnd: dict, kinds: list[str] | None) -> dict:
    """Per-layer figures of one traced round; a figure whose wrapped
    function no longer exists is left out, not reported as zero."""
    tr = rnd["trace"]
    spans, extra = tr["spans"], tr["extra"]

    def span(name, field):
        return spans[name][field] if name in spans else None

    def ratio(a, b):
        if a is None or b is None:
            return None
        return a / b if b else 0.0

    def minus(a, b):
        return None if a is None or b is None else a - b

    def kind_p50(kind):
        lat = [ms for k, ms in zip(kinds or [], rnd["latencies_ms"]) if k == kind]
        return _median(lat)

    sieve_s = span("search.sieve", "total_s")
    chain_s = span("search.chain_search", "total_s")
    walk_s = None
    if chain_s is not None and "arithmetic.factorize" in spans:
        walk_s = chain_s - extra.get("chain_factorize_ns", 0) / 1e9
    nodes = extra.get("nodes", 0) if chain_s is not None else None
    hits, misses = extra.get("sigma_pp_hits"), extra.get("sigma_pp_misses")
    max_s = span("arithmetic.factorize", "max_s")
    values = {
        "search.sieve_s": sieve_s,
        "search.sieve_ints_per_s": ratio(
            extra.get("sieved_ints", 0) if sieve_s is not None else None, sieve_s
        ),
        "search.reverify_s": minus(span("search.brute_scan", "total_s"), sieve_s),
        "search.chain_search_s": chain_s,
        "search.walk_s": walk_s,
        "search.nodes": nodes,
        "search.nodes_per_s": ratio(nodes, walk_s),
        "arithmetic.factorize_calls": span("arithmetic.factorize", "calls"),
        "arithmetic.factorize_s": span("arithmetic.factorize", "total_s"),
        "arithmetic.factorize_max_ms": None if max_s is None else max_s * 1e3,
        "arithmetic.rho_calls": span("arithmetic.rho", "calls"),
        "arithmetic.rho_steps": extra.get("rho_steps", 0) if "arithmetic.rho" in spans else None,
        "arithmetic.rho_s": span("arithmetic.rho", "total_s"),
        "arithmetic.sigma_pp_hit_ratio": ratio(hits, None if hits is None else hits + misses),
        "arithmetic.is_prime_calls": span("arithmetic.is_prime", "calls"),
        "arithmetic.is_prime_s": span("arithmetic.is_prime", "total_s"),
        "classify.is_primitive_calls": span("classify.is_primitive", "calls"),
        "classify.is_primitive_s": span("classify.is_primitive", "total_s"),
        "classify.decompose_s": span("classify.decompose", "total_s"),
        "classify.query_p50_ms": kind_p50("classify") if "classify.classify" in spans else None,
        "signature.extract_s": span("signature.extract", "total_s"),
        "signature.reconstruct_s": span("signature.reconstruct", "total_s"),
        "signature.next_chain_prime_calls": span("signature.next_chain_prime", "calls"),
        "bounds.rigorous_calls": span("bounds.rigorous", "calls"),
        "bounds.evaluations": span("bounds.evaluate", "calls"),
        "bounds.rigorous_s": span("bounds.rigorous", "total_s"),
        "bounds.query_p50_ms": kind_p50("bound_report") if "bounds.bound_report" in spans else None,
        "cli.overhead_s": span("cli.main", "self_s"),
    }
    return {k: v for k, v in values.items() if v is not None}


def _per_layer(rounds: list[dict], kinds) -> dict:
    per_round = [_layer_values(r, kinds) for r in rounds]
    out = {}
    for name, unit in PER_LAYER.items():
        values = [v[name] for v in per_round if name in v]
        if len(values) == len(per_round):
            out[name] = {"value": _median(values), "unit": unit}
        else:
            print(f"bench: {name} left out: its wrapped function is gone", file=sys.stderr)
    return out


def _layer_shares(rnd: dict) -> str:
    """Each layer's self time as a share of the round's wall time."""
    wall = rnd["wall_s"]
    by_layer: dict[str, float] = {}
    for name, s in rnd["trace"]["spans"].items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s["self_s"]
    parts = [f"{k}={v / wall:.1%}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])]
    parts.append(f"untraced={(wall - sum(by_layer.values())) / wall:.1%}")
    return " ".join(parts)


def _check_batch(checks, workload: str, stdout: str) -> list[str]:
    argv = BATCH_ARGV[workload]
    limit = int(argv[argv.index("--limit") + 1])
    max_omega = int(argv[argv.index("--max-omega") + 1])
    if workload == "verify-sieve":
        return checks.check_verify(json.loads(stdout), limit, max_omega)
    records = [json.loads(line) for line in stdout.splitlines()]
    if workload == "chain-factor":
        return checks.check_perfect_set(records, limit, max_omega)
    alpha = int(argv[argv.index("--alpha") + 1])
    required = checks.required_4_perfect(limit, max_omega)
    return checks.check_k_perfect_records(records, alpha, limit, max_omega, required)


def _evaluate(workload: str, rounds: list[dict], queries):
    """(attempted, failed, errors, wrong). A call that raised or exited
    non-zero is failed and listed in errors; one whose output fails a
    check is failed and listed in wrong."""
    import checks  # imports sympy; only after the timed phase

    per_round = 1 if queries is None else len(queries)
    failed = 0
    errors: list[str] = []
    wrong: list[str] = []
    verdicts: dict[str, list[str]] = {}
    for rnd in rounds:
        if "crash" in rnd:
            failed += per_round
            errors.append(rnd["crash"])
            continue
        if queries is None:
            if rnd["exit_code"] != 0:
                failed += 1
                errors.append(f"exit {rnd['exit_code']}: {rnd['error'] or rnd['stderr'][-500:]}")
                continue
            calls = [(rnd["stdout"], lambda out=rnd["stdout"]: _check_batch(checks, workload, out))]
        else:
            calls = [
                (json.dumps([kind, args, result]),
                 lambda k=kind, a=args, r=result: checks.check_query(k, a, r))
                for (kind, args), result in zip(queries, rnd["results"])
            ]
        for key, check in calls:
            if key not in verdicts:
                verdicts[key] = check()
            problems = verdicts[key]
            if problems:
                failed += 1
                raised = problems[0].startswith("raised ")
                (errors if raised else wrong).extend(problems)
    return per_round * len(rounds), failed, errors, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "multiperfect" / "__init__.py").is_file():
        print(f"bench: no program source at {src}", file=sys.stderr)
        return 2
    queries = library_queries(args.seed) if args.workload == QUERY_WORKLOAD else None
    kinds = None if queries is None else [k for k, _ in queries]
    job = {
        "src": str(src),
        "argv": BATCH_ARGV.get(args.workload),
        "queries": queries,
        "trace_path": None,
    }
    trace_dir = OUT_DIR / "trace"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob(f"{args.workload}-*"):
            old.unlink()
    env = _child_env(src)

    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        if args.trace:
            job["trace_path"] = str(
                trace_dir / f"{args.workload}-seed{args.seed}-round{len(rounds)}.spans"
            )
        rnd = _run_round(job, env)
        rounds.append(rnd)
        elapsed = time.monotonic() - start
        if "crash" in rnd:
            print(f"bench: round {len(rounds)} failed: {rnd['crash']}", file=sys.stderr)
        else:
            print(
                f"bench: round {len(rounds)} setup {rnd['setup_s']:.3f} s,"
                f" timed {rnd['wall_s']:.3f} s"
                + (f", self time: {_layer_shares(rnd)}" if args.trace else ""),
                file=sys.stderr,
            )
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    attempted, failed, errors, wrong = _evaluate(args.workload, rounds, queries)
    for problem in errors[:20]:
        print(f"bench: FAILED: {problem}", file=sys.stderr)
    for problem in wrong[:20]:
        print(f"bench: WRONG: {problem}", file=sys.stderr)
    good = [r for r in rounds if "crash" not in r]
    if not good:
        print("bench: every round failed", file=sys.stderr)
        return 1
    metrics = _per_layer(good, kinds) if args.trace else _end_to_end(good)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
