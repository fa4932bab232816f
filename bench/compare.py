"""Compare two sets of benchmark runs, for example a parent commit and a change.

    python3 bench/compare.py collect --a PARENT_CHECKOUT --b CHANGE_CHECKOUT \\
        --pairs 10 --out runs.jsonl [--workload NAME ...] [--trace 1]
    python3 bench/compare.py report runs.jsonl

``collect`` runs each checkout's bench/run.py in pairs, seed k in pair k
(1..pairs), for run_seconds from BENCHMARK.json, alternating which side
runs first, and appends one JSON line per run.
``report`` prints one row per workload and metric: each side's median and
quartiles, the pairs the change won, and a verdict:

- gain: the change is better in at least nine tenths of the pairs and its
  median differs from the parent's by more than the parent's interquartile
  spread;
- unresolved: no gain, and the parent's spread (interquartile distance over
  median) is wider than the metric's bound;
- worse: no gain, and the change's median is worse than the parent's by
  more than the bound;
- same: otherwise (for per-layer metrics, which have no bound: no gain).

Fewer than ten pairs give no verdict. A gain does not count when the
change fails a larger share of its operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def collect(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = [("a", Path(args.a).resolve()), ("b", Path(args.b).resolve())]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = pair + 1
            order = sides if pair % 2 == 0 else sides[::-1]
            for workload in workloads:
                for side, checkout in order:
                    result = _run(checkout, workload, seed, seconds, args.trace)
                    row = {"side": side, "pair": pair, "workload": workload,
                           "seed": seed, "trace": args.trace, "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: done", file=sys.stderr)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better: str, bound, fail_a: float, fail_b: float):
    """(wins, verdict) for paired values a[i], b[i] of one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    if len(a) < MIN_PAIRS:
        return wins, "too few pairs"
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = _quartiles(a)
    gain = wins >= WIN_SHARE * len(a) and sign * (med_b - med_a) > q3 - q1
    if gain:
        return wins, "gain" if fail_b <= fail_a else "gain void: more failures"
    if bound is None:
        return wins, "same"
    if (q3 - q1) > bound * abs(med_a):
        return wins, "unresolved"
    if -sign * (med_b - med_a) > bound * abs(med_a):
        return wins, "worse"
    return wins, "same"


def report(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[tuple, dict] = {}
    for line in Path(args.runs).read_text().splitlines():
        row = json.loads(line)
        runs[(row["workload"], row["trace"], row["side"], row["pair"])] = row["result"]
    groups = sorted({(w, t) for w, t, _, _ in runs})
    print(f"{'workload':<16} {'metric':<32} {'a median [q1, q3]':>36} "
          f"{'b median [q1, q3]':>36} {'wins':>6}  verdict")
    for workload, trace in groups:
        pairs = sorted(p for w, t, s, p in runs if (w, t, s) == (workload, trace, "a")
                       and (workload, trace, "b", p) in runs)
        a_runs = [runs[(workload, trace, "a", p)] for p in pairs]
        b_runs = [runs[(workload, trace, "b", p)] for p in pairs]

        def fail_share(rs):
            return sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))

        fa, fb = fail_share(a_runs), fail_share(b_runs)
        names = [n for n in better if all(n in r["metrics"] for r in a_runs + b_runs)]
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            wins, v = verdict(a, b, better[name], bounds[name], fa, fb)
            cells = []
            for vals in (a, b):
                q1, q3 = _quartiles(vals)
                cells.append(f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<16} {name:<32} {cells[0]:>36} {cells[1]:>36} "
                  f"{wins:>3}/{len(pairs):<2}  {v}")
        print(f"{workload:<16} {'failed share':<32} {fa:>36.6g} {fb:>36.6g}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run paired benchmark runs")
    c.add_argument("--a", required=True, help="checkout of the parent side")
    c.add_argument("--b", required=True, help="checkout of the change side")
    c.add_argument("--pairs", type=int, default=MIN_PAIRS)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--workload", action="append")
    c.add_argument("--out", required=True)
    c.set_defaults(func=collect)
    r = sub.add_parser("report", help="summarize collected runs")
    r.add_argument("runs")
    r.set_defaults(func=report)
    args = ap.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
