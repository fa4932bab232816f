"""Spans around the program's module-level functions, installed from outside.

The tracer replaces each wrapped function in every ``multiperfect`` module
that holds a reference to it, so calls made through ``from .x import y``
names are traced too. Nothing under ``src/`` changes. Spans (name, start,
end, parent) are kept in compact arrays and written when the run ends;
per-name call counts, total time, self time and maximum time are folded
in as each span closes.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (span name, module, attribute). The span name's prefix is the layer.
WRAPPED = (
    ("cli.main", "multiperfect.cli", "main"),
    ("search.brute_scan", "multiperfect.search", "brute_scan"),
    ("search.sieve", "multiperfect.search", "_run_blocks"),
    ("search.chain_search", "multiperfect.search", "chain_search"),
    ("search.verify_counts", "multiperfect.search", "verify_counts"),
    ("arithmetic.factorize", "multiperfect.arithmetic", "factorize"),
    ("arithmetic.rho", "multiperfect.arithmetic", "_pollard_rho"),
    ("arithmetic.is_prime", "multiperfect.arithmetic", "is_prime"),
    ("classify.classify", "multiperfect.classify", "classify"),
    ("classify.is_primitive", "multiperfect.classify", "is_primitive"),
    ("classify.decompose", "multiperfect.classify", "primitive_decomposition"),
    ("signature.extract", "multiperfect.signature", "extract_signature"),
    ("signature.reconstruct", "multiperfect.signature", "reconstruct"),
    ("signature.next_chain_prime", "multiperfect.signature", "next_chain_prime"),
    ("bounds.bound_report", "multiperfect.bounds", "bound_report"),
    ("bounds.rigorous", "multiperfect.bounds", "_rigorous"),
    ("bounds.evaluate", "multiperfect.bounds", "_evaluate"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.missing: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.max_ns: list[int] = []
        self.extra: dict[str, int] = {}
        self._open = [0] * len(WRAPPED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, child time]

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def is_open(self, name: str) -> bool:
        """Whether a span of this name is open, that is, the call is under way."""
        return self._open[self.names.index(name)] > 0

    def _wrap(self, idx: int, fn, on_return):
        perf = time.perf_counter_ns
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        opened = self._open
        calls, total, own, longest = self.calls, self.total_ns, self.self_ns, self.max_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            frame = [sid, 0]
            stack.append(frame)
            opened[idx] += 1
            start = perf()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                ends[sid] = end
                stack.pop()
                opened[idx] -= 1
                dur = end - start
                calls[idx] += 1
                total[idx] += dur
                own[idx] += dur - frame[1]
                if dur > longest[idx]:
                    longest[idx] = dur
                if stack:
                    stack[-1][1] += dur
            if on_return is not None:
                on_return(self, args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED; absent ones are listed in missing."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "multiperfect"]
        for idx, (name, module, attr) in enumerate(WRAPPED):
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.max_ns.append(0)
            fn = getattr(sys.modules.get(module), attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            traced = self._wrap(idx, fn, HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def summary(self) -> dict:
        return {
            "missing": self.missing,
            "spans": {
                name: {
                    "calls": self.calls[i],
                    "total_s": self.total_ns[i] / 1e9,
                    "self_s": self.self_ns[i] / 1e9,
                    "max_s": self.max_ns[i] / 1e9,
                }
                for i, name in enumerate(self.names)
                if name not in self.missing
            },
            "extra": dict(self.extra),
        }

    def write(self, path: str) -> None:
        """Spans as four native-endian columns after a one-line JSON header."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "columns": ["name:i32", "parent:i32", "start_ns:i64", "end_ns:i64"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.span_name, self.span_parent, self.span_start, self.span_end):
                col.tofile(fh)


# Hooks run when a wrapped call returns: hook(tracer, args, result, dur_ns).
def _rho_steps(tracer, args, result, dur_ns):
    tracer.add("rho_steps", result[1])


def _chain_nodes(tracer, args, result, dur_ns):
    tracer.add("nodes", result.nodes_explored)


def _sieved_ints(tracer, args, result, dur_ns):
    tracer.add("sieved_ints", args[0])


def _factorize_in_chain(tracer, args, result, dur_ns):
    if tracer.is_open("search.chain_search"):
        tracer.add("chain_factorize_ns", dur_ns)


HOOKS = {
    "arithmetic.factorize": _factorize_in_chain,
    "arithmetic.rho": _rho_steps,
    "search.chain_search": _chain_nodes,
    "search.sieve": _sieved_ints,
}
