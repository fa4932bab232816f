"""One round of a workload, in a fresh interpreter so the program's caches
start cold. Run by run.py, which passes the job as JSON on stdin.

Set-up ends when ``multiperfect`` and its CLI are imported. The timed phase
is the one CLI call, or the loop of library calls. Peak RSS is read when the
timed phase ends. The round's outputs go back to run.py as one JSON line on
stdout; checking them is run.py's job, after every round has finished.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import multiperfect
import multiperfect.cli

T_READY = time.monotonic()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _query_functions():
    mp = multiperfect

    def signature(n):
        sig = mp.extract_signature(mp.factorize(n))
        return sig, mp.reconstruct(sig.alpha, sig.p1, sig.exponents)

    return {
        "factorize": lambda n: mp.factorize(n),
        "classify": lambda n: mp.classify(mp.factorize(n)),
        "is_primitive": lambda n: mp.is_primitive(mp.factorize(n)),
        "decompose": lambda n: mp.primitive_decomposition(mp.factorize(n)),
        "signature": signature,
        "bound_report": lambda alpha, r, x: mp.bound_report(alpha, r, x),
    }


def _frac(q) -> str:
    return f"{q.numerator}/{q.denominator}"


def _interval(iv):
    return None if iv is None else [_frac(iv.lower), _frac(iv.upper)]


def _factors(fi):
    return [[p, e] for p, e in fi.factors]


def _serialize(kind: str, res):
    if isinstance(res, BaseException):
        return {"error": repr(res)}
    if kind == "factorize":
        return _factors(res)
    if kind == "classify":
        return [_frac(res.alpha), res.multiperfect, res.rational_multiperfect]
    if kind == "is_primitive":
        return res
    if kind == "decompose":
        return {
            "parts": [_factors(p) for p in res.parts],
            "multipliers": list(res.multipliers),
            "leftover": _factors(res.leftover),
            "leftover_mp": res.leftover_is_multiperfect,
        }
    if kind == "signature":
        sig, rec = res
        return {
            "alpha": _frac(sig.alpha),
            "p1": sig.p1,
            "exponents": list(sig.exponents),
            "chain": list(sig.chain_primes),
            "value": rec.number.value if rec.ok else None,
            "failure": rec.failure,
        }
    # bound_report; the absolute bound k*4^(r^3) can exceed the int-to-str
    # digit limit, so it travels as hex.
    return {
        "f": {str(i): _interval(v) for i, v in res.f_values.items()},
        "primitive": _interval(res.primitive_count),
        "multi": _interval(res.multiperfect_count),
        "absolute": None if res.absolute_count is None else hex(res.absolute_count),
        "chain": [ok for _, ok in res.chain_inequalities],
    }


def _run_batch(argv):
    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    error = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = multiperfect.cli.main(argv)
    except BaseException as exc:  # reported as a failed call, never re-raised
        code, error = None, repr(exc)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "latencies_ms": [wall * 1e3],
        "exit_code": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def _run_queries(queries):
    funcs = _query_functions()
    calls = []
    for kind, args in queries:
        if kind == "bound_report":
            args = [Fraction(args[0]), args[1], args[2]]
        calls.append((kind, funcs[kind], args))
    results = []
    latencies = []
    perf = time.perf_counter_ns
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for _kind, fn, args in calls:
        start = perf()
        try:
            res = fn(*args)
        except Exception as exc:  # reported as a failed call
            res = exc
        latencies.append(perf() - start)
        results.append(res)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "latencies_ms": [ns / 1e6 for ns in latencies],
        "results": [_serialize(k, r) for (k, _, _), r in zip(calls, results)],
    }


def main() -> None:
    job = json.load(sys.stdin)
    setup_s = T_READY - job["t_spawn"]
    if not multiperfect.__file__.startswith(job["src"]):
        raise SystemExit(f"imported multiperfect from {multiperfect.__file__}")
    tracer = None
    if job["trace_path"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if job["argv"] is not None:
        out = _run_batch(job["argv"])
    else:
        out = _run_queries(job["queries"])
    out["setup_s"] = setup_s
    if tracer is not None:
        out["trace"] = tracer.summary()
        cached = getattr(multiperfect.arithmetic, "factored_sigma_prime_power", None)
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            out["trace"]["extra"]["sigma_pp_hits"] = info.hits
            out["trace"]["extra"]["sigma_pp_misses"] = info.misses
        tracer.write(job["trace_path"])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
