"""Exhaustive enumeration of alpha-perfect numbers below a limit.

Two independent routes. ``brute_scan`` sieves divisor sums mod 2^16 over
fixed-size blocks with paired-divisor accumulation; each n that meets
sigma(n)/n = alpha modulo 2^16 is a candidate, and an exact sigma of its
factorization decides. It is the oracle. ``chain_search`` walks one tree
of signature chains (p1, e1, ..., es) with s <= r: after the free choice
of p1 and each exponent, the next prime is forced by the chain rule
(``ChainRule``), so walking all exponent ladders visits every primitive
alpha-perfect number up to the limit with at most r distinct primes. Four
exact rules cut the ladders without visiting children or factoring their
sigma(p^e), each only where no solution can lie below: mandatory primes
(their count and product), the abundancy ladder, the abundancy ceiling and
the unmatched large prime; the walker ``_Walk`` carries the proofs. Every
number either route reports has passed an exact sigma computation on its
factorization.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, prod

from .arithmetic import (
    FactoredInteger,
    factored_sigma_prime_power,
    factorize,
    FactorizationExhausted,
    nth_odd_prime,
    prime_count_upto,
    primes_upto,
    sigma,
    sigma_prime_power,
)
from .bounds import bound_report
from .classify import is_primitive
from .signature import ChainRule

DEFAULT_BLOCK_SIZE = 1 << 20

# The unmatched-large-prime cut trial-divides sigma(p^e) by every prime up
# to the room a child leaves, so it runs only where that room is small.
SMALL_ROOM = 10**4

# The abundancy ceiling draws completion primes from the primes up to this
# bound; a node that would need more of them is not cut by the ceiling.
CEILING_SIEVE = 1 << 16

PRUNE_RULES = (
    "product_exceeds_limit",
    "p1_bound",
    "chain_broken",
    "nonminimal_start",
    "mandatory_primes",
    "abundancy_ladder",
    "abundancy_ceiling",
    "unmatched_large_prime",
)


def _check_args(
    alpha: Fraction | None, limit: int, parity: str, worker_count: int
) -> None:
    """The checks every search makes; alpha None means any integer abundancy."""
    if alpha is not None and alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if parity not in ("any", "odd_only"):
        raise ValueError(f"unknown parity {parity!r}")
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")


def _map(fn, tasks: list, worker_count: int, chunksize: int) -> list:
    """[fn(t) for t in tasks], on a process pool when it has work to share."""
    if worker_count > 1 and len(tasks) > 1:
        from concurrent import futures
        with futures.ProcessPoolExecutor(max_workers=worker_count) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return [fn(t) for t in tasks]


@dataclass(frozen=True)
class SearchParams:
    """Target alpha, omega cap r, limit x, parity, and worker settings."""

    alpha: Fraction
    max_omega: int
    limit: int
    parity: str = "any"
    worker_count: int = 1

    def __post_init__(self) -> None:
        _check_args(self.alpha, self.limit, self.parity, self.worker_count)
        if self.max_omega < 1:
            raise ValueError("max_omega must be >= 1")

    @property
    def omega_floor_pruning(self) -> bool:
        """Always False, kept read-only for callers that still check it.

        chain_search walks one tree holding every omega up to max_omega,
        so no tree of a small omega is left to skip.
        """
        return False


@dataclass(frozen=True)
class FoundRecord:
    number: FactoredInteger
    primitive: bool


@dataclass(frozen=True)
class BoundCheck:
    description: str
    count: int
    bound_text: str
    passed: bool


@dataclass
class SearchReport:
    params: SearchParams
    found: tuple[FoundRecord, ...]
    count_by_omega: dict[int, int]
    nodes_explored: int
    pruned_by: dict[str, int]
    exhaustive: bool = True
    incomplete_branches: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Blocked divisor-sum sieve (the oracle route)
# ---------------------------------------------------------------------------

def _meets(target: Fraction | None, sig: int, n: int) -> bool:
    """sigma(n) = target*n, or an integer multiple >= 2 of n for target None."""
    if target is None:
        return sig % n == 0 and sig >= 2 * n
    return target.denominator * sig == target.numerator * n


def _run_blocks(
    limit: int, target: Fraction | None, worker_count: int, block_size: int
) -> list[int]:
    """Sieve candidates n <= limit for target, block by block, unsorted."""
    # numpy loads with the kernel here, before _map forks any pool worker.
    from ._blocks import _scan_block
    # The kernel's integer test, sigma(n) = k*n (mod 2^16) for k in 2..6,
    # holds every solution only while sigma(n) < 7n, true below 1.97e24;
    # this guard keeps 7*limit far inside that.
    num, den = (1, 1) if target is None else (target.numerator, target.denominator)
    if max(num, 7 * den) * limit >= 1 << 62:
        raise ValueError("alpha times limit exceeds the exact range of the sieve")
    tasks = [
        (lo, min(lo + block_size, limit + 1), target)
        for lo in range(1, limit + 1, block_size)
    ]
    return [n for chunk in _map(_scan_block, tasks, worker_count, 1) for n in chunk]


def _sieve_scan(
    target: Fraction | None,
    limit: int,
    parity: str,
    worker_count: int,
    block_size: int,
) -> list[FactoredInteger]:
    """Sieve candidates mod 2^16, then keep those whose exact sigma meets target."""
    _check_args(target, limit, parity, worker_count)
    out = []
    for n in sorted(_run_blocks(limit, target, worker_count, block_size)):
        if parity == "odd_only" and n % 2 == 0:
            continue
        fi = factorize(n)
        if _meets(target, sigma(fi), n):
            out.append(fi)
    return out


def brute_scan(
    alpha: Fraction,
    limit: int,
    parity: str = "any",
    *,
    worker_count: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[FactoredInteger]:
    """All n <= limit of the requested parity with sigma(n)/n = alpha.

    Sieve candidates, which match alpha only modulo 2^16, are decided one
    by one through an independent sigma computation on the factorization.
    """
    return _sieve_scan(Fraction(alpha), limit, parity, worker_count, block_size)


def multiperfect_scan(
    limit: int,
    *,
    worker_count: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> list[FactoredInteger]:
    """All n <= limit whose abundancy sigma(n)/n is an integer >= 2."""
    return _sieve_scan(None, limit, "any", worker_count, block_size)


# ---------------------------------------------------------------------------
# Signature-chain search (the counting route)
# ---------------------------------------------------------------------------

def _p1_cap(alpha: Fraction, s: int) -> int:
    """floor(alpha*s/(alpha-1)), the cap on the smallest prime of odd n."""
    v = alpha * s / (alpha - 1)
    return v.numerator // v.denominator


def _ceiling_steps(
    candidates: tuple[int, ...], used: set[int], nxt: int, count: int, room: int
) -> list[tuple[int, int]] | None:
    """Prefix products (prod q, prod (q-1)) of the smallest free candidates.

    Free means not used and not nxt. Entry k covers the k smallest, from
    (1, 1) on; the list stops once it holds count primes or prod q exceeds
    room. None when the candidates run out first.
    """
    steps = [(1, 1)]
    qp = qm = 1
    for q in candidates:
        if len(steps) > count or qp > room:
            return steps
        if q not in used and q != nxt:
            qp *= q
            qm *= q - 1
            steps.append((qp, qm))
    return steps if len(steps) > count or qp > room else None


def _has_unmatched_prime(s: int, matched: int, room: int) -> bool:
    """Whether s has a prime factor above room that does not divide matched."""
    for q in _small_primes():
        if q > room or q * q > s:
            break
        while s % q == 0:
            s //= q
    # Now s is 1 or a prime, or has only primes above room.
    if s <= room:
        return False
    while (g := gcd(s, matched)) > 1:
        s //= g
    return s > 1


@cache
def _small_primes() -> tuple[int, ...]:
    """The primes up to SMALL_ROOM, one tuple for every unmatched-prime test."""
    return primes_upto(SMALL_ROOM)


@cache
def _primes_above(p1: int) -> tuple[int, ...]:
    """The primes in (p1, CEILING_SIEVE], one tuple per p1 for every walker."""
    primes = primes_upto(CEILING_SIEVE)
    return primes[bisect_right(primes, p1) :]


class _Walk:
    """One walk from a root p1: its constants, chain rule and counters.

    Write n = product * m, m coprime to product, for a number a node's
    subtree could hold: n <= limit, omega(n) <= depth_cap, p1 is n's
    smallest prime and sigma(n) = alpha*n. Each cut below drops a node or a
    child only where no such n exists; its proof sits at its test.
    """

    __slots__ = (
        "num", "den", "limit", "depth_cap", "p1", "above_p1", "rule",
        "found", "nodes", "prunes",
    )

    def __init__(
        self, alpha: Fraction, rule: ChainRule, limit: int, depth_cap: int, p1: int
    ):
        self.num, self.den = alpha.numerator, alpha.denominator
        self.limit = limit
        self.depth_cap = depth_cap
        self.p1 = p1
        self.above_p1 = _primes_above(p1)
        self.rule = rule
        self.found: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        self.nodes = 0
        self.prunes = dict.fromkeys(PRUNE_RULES, 0)

    def descend(self, chain: list, p: int, e: int, product: int, sigma_prod: int):
        """Visit the child chain + [(p, e)] of the given product and sigma."""
        sigma_factors = factored_sigma_prime_power(p, e)
        self.rule.add(p, sigma_factors)
        chain.append((p, e))
        self.visit(chain, product, sigma_prod)
        chain.pop()
        self.rule.undo(p, sigma_factors)

    def visit(self, chain: list, product: int, sigma_prod: int) -> None:
        """Visit one chain node, then the children on its next prime's ladder."""
        self.nodes += 1
        # The ladder keeps no child whose abundancy exceeds alpha.
        if self.den * sigma_prod == self.num * product:
            self.found.append((product, tuple(sorted(chain))))
            return
        mandatory = self.rule.mandatory()
        if not mandatory:
            self.prunes["chain_broken"] += 1
            return
        nxt = min(mandatory)
        if nxt < self.p1:
            # The product's smallest prime would no longer be p1; the same
            # number is enumerated under the branch rooted at that smaller
            # prime, and no odd target survives a derived factor of 2.
            self.prunes["nonminimal_start"] += 1
            return
        depth = len(chain)
        if depth + len(mandatory) > self.depth_cap:
            # Every mandatory prime divides m (ChainRule.mandatory), so
            # omega(n) >= depth + len(mandatory). This also ends the walk at
            # depth depth_cap.
            self.prunes["mandatory_primes"] += 1
            return
        # The other mandatory primes divide m too, so n >= child * rest.
        rest = prod(mandatory) // nxt
        free = self.depth_cap - depth - 1
        for e, child, child_sigma in self.ladder(product, sigma_prod, nxt, rest, free):
            self.descend(chain, nxt, e, child, child_sigma)

    def ladder(self, product: int, sigma_prod: int, nxt: int, rest: int, free: int):
        """Yield (e, child, sigma(child)) for each child = product * nxt^e kept.

        n = child * m, m coprime to child, stands for any number the child's
        subtree could hold: n <= limit, sigma(n) = alpha*n, p1 is n's smallest
        prime, m is a multiple of rest and has at most free primes, none of
        them used or nxt. A child, or the rest of the ladder, is cut only where
        no such n exists, and before sigma(nxt^e) is factored.
        """
        num, den, limit, prunes = self.num, self.den, self.limit, self.prunes
        used = self.rule.used
        k = None
        power = 1
        e = 0
        while True:
            e += 1
            power *= nxt
            child = product * power
            if child * rest > limit:
                # child * rest grows with e: the rest of the ladder fails too.
                prunes["product_exceeds_limit"] += 1
                return
            sigma_pe = (power * nxt - 1) // (nxt - 1)
            child_sigma = sigma_prod * sigma_pe
            lhs = den * child_sigma
            rhs = num * child
            if lhs > rhs:
                # sigma(p^e)/p^e grows with e, and m only multiplies the
                # abundancy by sigma(m)/m >= 1: every larger e overshoots too.
                prunes["abundancy_ladder"] += 1
                return
            if lhs < rhs:
                room = limit // child
                if k is None:
                    # Built at the first child that needs it, whose room is the
                    # largest left on the ladder; used is the node's set again
                    # whenever the ladder resumes.
                    steps = _ceiling_steps(self.above_p1, used, nxt, free, room)
                    k = len(steps) - 1 if steps else 0
                if steps is not None:
                    # m > 1 has at most `free` primes, each above p1 and neither
                    # used nor nxt, with product <= room. sigma(m)/m < prod
                    # q/(q-1) over them, and no more than over the k smallest
                    # such primes whose product fits in room.
                    while steps[k][0] > room:
                        k -= 1
                    if lhs * steps[k][0] <= rhs * steps[k][1]:
                        prunes["abundancy_ceiling"] += 1
                        continue
                if room <= SMALL_ROOM and _has_unmatched_prime(sigma_pe, rhs, room):
                    # Each prime of sigma(nxt^e) divides alpha*n; one that
                    # divides neither num nor child must divide m <= room.
                    prunes["unmatched_large_prime"] += 1
                    continue
            yield e, child, child_sigma


def _chain_task(args):
    alpha, empty_rule, limit, depth_cap, p1, e1 = args
    walk = _Walk(alpha, empty_rule.fresh(), limit, depth_cap, p1)
    incomplete: list[str] = []
    try:
        walk.descend([], p1, e1, p1**e1, sigma_prime_power(p1, e1))
    except FactorizationExhausted as exc:
        incomplete.append(f"p1={p1} e1={e1}: {exc}")
    except RecursionError:
        incomplete.append(f"p1={p1} e1={e1}: recursion limit")
    return walk.found, walk.nodes, walk.prunes, incomplete


def chain_search(params: SearchParams) -> SearchReport:
    """Enumerate signature chains; complete for primitive alpha-perfect n.

    One tree holds every chain of at most max_omega primes. Its free
    choices are p1 (2 unless odd_only, and the odd primes up to
    floor(alpha*r/(alpha-1)) with r = max_omega) and the exponent at each
    level; all later primes are derived. The p1 cap grows with omega, so
    this tree contains the tree of every smaller omega. Every state is
    tested for sigma(d) = alpha*d exactly, so reported numbers need no
    chain to close early. A branch that hits the factorization budget is
    recorded and flips the exhaustive flag instead of aborting the search.
    """
    alpha = params.alpha
    num, den = alpha.numerator, alpha.denominator

    starts = [] if params.parity == "odd_only" else [2]
    starts += [p for p in primes_upto(_p1_cap(alpha, params.max_omega)) if p > 2]
    empty_rule = ChainRule(alpha)
    tasks = []
    results = []
    for p1 in starts:
        # Each root p1^e1 is a child of the empty chain, cut by the same rules.
        root = _Walk(alpha, empty_rule, params.limit, params.max_omega, p1)
        for e1, _, _ in root.ladder(1, 1, p1, 1, params.max_omega - 1):
            tasks.append((alpha, empty_rule, params.limit, params.max_omega, p1, e1))
        results.append((root.found, root.nodes, root.prunes, []))

    results += _map(_chain_task, tasks, params.worker_count, 8)

    prunes = dict.fromkeys(PRUNE_RULES, 0)
    # The cap cuts the ladder of odd p1 once, as the limit cuts each
    # exponent ladder once.
    prunes["p1_bound"] += 1
    nodes = 0
    incomplete: list[str] = []
    by_value: dict[int, tuple[tuple[int, int], ...]] = {}
    for found, task_nodes, task_prunes, task_incomplete in results:
        nodes += task_nodes
        for rule, count in task_prunes.items():
            prunes[rule] += count
        incomplete.extend(task_incomplete)
        for value, factors in found:
            by_value[value] = factors

    records = []
    count_by_omega: dict[int, int] = {}
    for value in sorted(by_value):
        fi = FactoredInteger(value, by_value[value])
        if sigma(fi) * den != num * value:
            raise AssertionError(f"chain result {value} failed sigma re-verification")
        records.append(FoundRecord(fi, is_primitive(fi)))
        count_by_omega[fi.omega] = count_by_omega.get(fi.omega, 0) + 1

    return SearchReport(
        params=params,
        found=tuple(records),
        count_by_omega=count_by_omega,
        nodes_explored=nodes,
        pruned_by=prunes,
        exhaustive=not incomplete,
        incomplete_branches=tuple(sorted(incomplete)),
    )


def chain_count_majorant(alpha: Fraction, r: int, x: int) -> int:
    """Exact evaluation of the counting expression that caps the tree size.

    sum over s of pi(floor(alpha*s/(alpha-1))) * prod_i max{e : q_i^e <= x},
    with q_i the i-th odd prime. chain_search never explores more states.
    """
    total = 0
    for s in range(1, r + 1):
        count = prime_count_upto(_p1_cap(Fraction(alpha), s))
        prod = 1
        for i in range(1, s + 1):
            q = nth_odd_prime(i)
            e = 0
            power = q
            while power <= x:
                e += 1
                power *= q
            prod *= e
        total += count * prod
    return total


def verify_counts(params: SearchParams, report: SearchReport) -> list[BoundCheck]:
    """Compare observed counts against the rigorous bound values.

    A check passes only when the count is at most the lower endpoint of the
    bound interval (or the exact integer bound), so a pass is never owed to
    rounding.
    """
    checks: list[BoundCheck] = []
    if params.limit < 3:
        return checks
    r = params.max_omega
    bounds = bound_report(params.alpha, r, params.limit)
    odd_primitive = sum(
        1 for f in report.found if f.number.value % 2 == 1 and f.primitive
    )
    odd_total = sum(1 for f in report.found if f.number.value % 2 == 1)
    multi = bounds.multiperfect_count
    label = "1.31*a/(a-1)*(ln x)^r" if multi is None else "0.05*(ln x)^r"
    checks.append(
        BoundCheck(
            f"odd primitive count <= {label}",
            odd_primitive,
            str(bounds.primitive_count),
            odd_primitive <= bounds.primitive_count.lower,
        )
    )
    if multi is not None:
        checks.append(
            BoundCheck(
                "odd count <= k*(ln x)^((r^2+8r)/9)",
                odd_total,
                str(multi),
                odd_total <= multi.lower,
            )
        )
    if bounds.absolute_count is not None:
        checks.append(
            BoundCheck(
                "odd count <= k*4^(r^3) (limit-free form)",
                odd_total,
                f"{params.alpha.numerator}*4^{r**3}",
                odd_total <= bounds.absolute_count,
            )
        )
    return checks
