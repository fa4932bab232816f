"""Exhaustive enumeration of alpha-perfect numbers below a limit.

Two independent routes. ``brute_scan`` sieves divisor sums mod 2^16 over
fixed-size blocks with paired-divisor accumulation, for a tuple of target
abundancies: alpha alone, or for ``multiperfect_scan`` the integers 2..6.
A block folds every divisor d of P = 55440 with d*d < lo, strictly, into
one table: with n = q*P + c, those pairs sum to K[c] + q*R[c], two
contiguous passes; each other d adds one strided slice (``_blocks``).
Each n whose sigma(n)/n meets a target modulo 2^16 is a candidate, and an
exact sigma of its factorization decides. It is the oracle.
``chain_search`` walks one tree of signature chains (p1, e1, ..., es) with
s <= r: after the free choice of p1 and each exponent, the next prime is
forced by the chain rule (``ChainRule``), so walking all exponent ladders
visits every primitive alpha-perfect number up to the limit with at most r
distinct primes. Five exact rules cut the ladders without visiting
children or factoring their sigma(p^e), each only where no solution can
lie below: the valuation budget (of every prime whose exponent in n is
known, which also sets the least exponent of each ladder's prime),
mandatory primes (their count and product), the abundancy ladder, the
forced cofactor (the part of sigma(child) coprime to alpha's numerator
and the child must divide m) and the abundancy ceiling. In the walker
``_Walk``, ``visit`` handles one node (adds its prime power, tests it,
recurses into the children kept, undoes it) and ``ladder`` holds every
cut, each proof at its test. Every number either route reports has
passed an exact sigma computation on its factorization.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from .arithmetic import (
    FactoredInteger,
    factored_sigma_prime_power,
    factorize,
    FactorizationExhausted,
    nth_odd_prime,
    prime_count_upto,
    primes_upto,
    sigma,
)
from .bounds import bound_report
from .classify import is_primitive
from .signature import ChainRule

DEFAULT_BLOCK_SIZE = 1 << 20

# sigma(n) < 7n for every n below 1.97e24 (OEIS A023199), so an integer
# abundancy there is one of these; the sieve's guard, 7*limit < 2^62, keeps
# multiperfect_scan far inside that range.
INTEGER_ABUNDANCIES = tuple(Fraction(k) for k in range(2, 7))

# The abundancy ceiling draws completion primes from the primes up to this
# bound; a node that would need more of them is not cut by the ceiling.
CEILING_SIEVE = 1 << 16

# The largest p1 cap a search takes. chain_search sieves every prime up to the
# cap, one byte per integer plus one int object per prime: about 60 MiB at
# 2^24, growing linearly with max_omega.
MAX_P1_CAP = 1 << 24

PRUNE_RULES = (
    "product_exceeds_limit",
    "p1_bound",
    "chain_broken",
    "mandatory_primes",
    "abundancy_ladder",
    "valuation_budget",
    "abundancy_ceiling",
    "forced_cofactor",
)


def _check_args(
    targets: tuple[Fraction, ...], limit: int, parity: str, worker_count: int
) -> None:
    """The checks every search makes, for its target abundancies."""
    if min(targets) <= 1:
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
        _check_args((self.alpha,), self.limit, self.parity, self.worker_count)
        if self.max_omega < 1:
            raise ValueError("max_omega must be >= 1")
        _p1_cap(self.alpha, self.max_omega)  # refuses an oversized max_omega

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
    nodes_explored: int
    pruned_by: dict[str, int]
    incomplete_branches: tuple[str, ...] = ()

    @property
    def exhaustive(self) -> bool:
        """True when no branch was left incomplete."""
        return not self.incomplete_branches

    @property
    def count_by_omega(self) -> dict[int, int]:
        """How many found numbers have each omega, in order of first appearance."""
        return dict(Counter(f.number.omega for f in self.found))


# ---------------------------------------------------------------------------
# Blocked divisor-sum sieve (the oracle route)
# ---------------------------------------------------------------------------

def _run_blocks(
    limit: int, targets: tuple[Fraction, ...], worker_count: int
) -> list[int]:
    """Sieve candidates n <= limit for targets, block by block, ascending."""
    # numpy loads with the kernel here, before _map forks any pool worker.
    from ._blocks import _scan_block
    # The bound INTEGER_ABUNDANCIES relies on; a rational target needs none.
    if 7 * limit >= 1 << 62:
        raise ValueError("limit exceeds the exact range of the sieve")
    tasks = [
        (lo, min(lo + DEFAULT_BLOCK_SIZE, limit + 1), targets)
        for lo in range(1, limit + 1, DEFAULT_BLOCK_SIZE)
    ]
    return [n for chunk in _map(_scan_block, tasks, worker_count, 1) for n in chunk]


def _sieve_scan(
    targets: tuple[Fraction, ...], limit: int, parity: str, worker_count: int
) -> list[FactoredInteger]:
    """Sieve candidates mod 2^16, then keep those whose exact abundancy is a target."""
    _check_args(targets, limit, parity, worker_count)
    out = []
    for n in _run_blocks(limit, targets, worker_count):
        if parity == "odd_only" and n % 2 == 0:
            continue
        fi = factorize(n)
        if Fraction(sigma(fi), n) in targets:
            out.append(fi)
    return out


def brute_scan(
    alpha: Fraction, limit: int, parity: str = "any", *, worker_count: int = 1
) -> list[FactoredInteger]:
    """All n <= limit of the requested parity with sigma(n)/n = alpha.

    Sieve candidates, which match alpha only modulo 2^16, are decided one
    by one through an independent sigma computation on the factorization.
    """
    return _sieve_scan((Fraction(alpha),), limit, parity, worker_count)


def multiperfect_scan(limit: int, *, worker_count: int = 1) -> list[FactoredInteger]:
    """All n <= limit whose abundancy sigma(n)/n is an integer >= 2."""
    return _sieve_scan(INTEGER_ABUNDANCIES, limit, "any", worker_count)


# ---------------------------------------------------------------------------
# Signature-chain search (the counting route)
# ---------------------------------------------------------------------------

def _p1_cap(alpha: Fraction, s: int) -> int:
    """floor(alpha*s/(alpha-1)), the cap on the smallest prime of odd n.

    ValueError past MAX_P1_CAP, before any prime table is built.
    """
    v = alpha * s / (alpha - 1)
    cap = v.numerator // v.denominator
    if cap > MAX_P1_CAP:
        raise ValueError(
            f"max_omega {s} would sieve the primes up to {cap}, past {MAX_P1_CAP}"
        )
    return cap


def _ceiling_steps(
    candidates: tuple[int, ...], used: dict[int, int], nxt: int, count: int, room: int
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
        "num", "den", "limit", "depth_cap", "p1", "above_p1", "below_p1", "rule",
        "found", "nodes", "prunes",
    )

    def __init__(self, alpha: Fraction, limit: int, depth_cap: int, p1: int):
        self.num, self.den = alpha.numerator, alpha.denominator
        self.limit = limit
        self.depth_cap = depth_cap
        self.p1 = p1
        self.above_p1 = _primes_above(p1)
        self.below_p1 = tuple((q, 0) for q in primes_upto(p1 - 1))
        self.rule = ChainRule(alpha)
        self.found: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        self.nodes = 0
        self.prunes = dict.fromkeys(PRUNE_RULES, 0)

    def visit(self, p: int, e: int, product: int, sigma_prod: int) -> None:
        """Visit node chain * p^e, of the given product and sigma, and its subtree."""
        rule = self.rule
        sigma_factors = factored_sigma_prime_power(p, e)
        rule.add(p, e, sigma_factors)
        self.nodes += 1
        # The ladder keeps no child whose abundancy exceeds alpha.
        if self.den * sigma_prod == self.num * product:
            # The walk's cuts assume p1 is n's smallest prime; under odd_only,
            # p1 >= 3 then also makes n odd.
            if min(rule.used) != self.p1:
                raise AssertionError(
                    f"chain result {product} has a prime below p1={self.p1}"
                )
            self.found.append((product, tuple(sorted(rule.used.items()))))
        elif mandatory := rule.mandatory():
            for child in self.ladder(product, sigma_prod, mandatory):
                self.visit(*child)
        else:
            self.prunes["chain_broken"] += 1
        rule.undo(p, sigma_factors)

    def ladder(self, product: int, sigma_prod: int, mandatory: list[int]):
        """Yield (nxt, e, child, sigma(child)) for each child = product * nxt^e kept.

        nxt is the least of the node's mandatory primes. n = child * m, m
        coprime to child, stands for any number the child's subtree could
        hold: n <= limit, sigma(n) = alpha*n, p1 is n's smallest prime, m is
        a multiple of rest, the product of the other mandatory primes, and
        has at most free primes, none of them used or nxt. A child, or the
        rest of the ladder, is cut only where no such n exists, and before
        sigma(nxt^e) is factored.
        """
        num, den, limit, prunes = self.num, self.den, self.limit, self.prunes
        rule = self.rule
        free = self.depth_cap - len(rule.used) - 1
        nxt = min(mandatory)
        if len(mandatory) - 1 > free:
            # Every mandatory prime divides n (ChainRule.mandatory), so the
            # ones other than nxt divide m: more primes than m may have, at
            # every e. This also ends the walk at depth depth_cap.
            prunes["mandatory_primes"] += 1
            return
        # The other mandatory primes divide m too, so n >= child * rest.
        rest = prod(mandatory) // nxt
        # nxt divides no sigma(nxt^e), so nu_nxt of S*sigma(nxt^e)*sigma(m) =
        # alpha*n gives e = excess + nu_nxt(sigma(m)) >= nxt's excess in rule.
        # The max is for a root, whose p1 may divide alpha's numerator. From
        # there on nxt's own budget, e - excess, is >= 0: with the moduli test,
        # no visited node spends a budget.
        moduli = rule.budget_moduli(self.below_p1)
        e = max(1, rule.excess.get(nxt, 0)) - 1
        power = nxt**e
        k = None
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
            if any(sigma_pe % q_power == 0 for q_power in moduli):
                # q^(b_q + 1) | sigma(nxt^e) leaves nu_q(sigma(m)) < 0. A larger
                # e may divide sigma(nxt^e) by less of q, so the ladder goes on.
                prunes["valuation_budget"] += 1
                continue
            g = child_sigma
            while (c := gcd(g, rhs)) > 1:
                g //= c
            if child * lcm(rest, g) > limit:
                # g, the part of sigma(child) coprime to num*child, divides
                # den*sigma(child)*sigma(m) = num*child*m, so g | m, and rest
                # | m: n >= child * lcm(rest, g). g is not monotone in e.
                prunes["forced_cofactor"] += 1
                continue
            if lhs < rhs:
                room = limit // child
                if k is None:
                    # Built at the first child that needs it, whose room is the
                    # largest left on the ladder; rule.used is the node's
                    # chain again whenever the ladder resumes.
                    steps = _ceiling_steps(self.above_p1, rule.used, nxt, free, room)
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
            yield nxt, e, child, child_sigma


def _chain_task(args):
    alpha, limit, depth_cap, p1, e1, child, child_sigma = args
    walk = _Walk(alpha, limit, depth_cap, p1)
    incomplete: list[str] = []
    try:
        walk.visit(p1, e1, child, child_sigma)
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
    chain to close early. A branch cut by the factorization budget or the
    recursion limit is recorded as incomplete instead of aborting the search.
    """
    alpha = params.alpha
    num, den = alpha.numerator, alpha.denominator

    limit, depth_cap = params.limit, params.max_omega
    starts = [] if params.parity == "odd_only" else [2]
    starts += [p for p in primes_upto(_p1_cap(alpha, depth_cap)) if p > 2]
    # The cap cuts the ladder of odd p1 once, as the limit cuts each
    # exponent ladder once.
    prunes = Counter(dict.fromkeys(PRUNE_RULES, 0), p1_bound=1)
    tasks = []
    for p1 in starts:
        # Each root p1^e1 is a child of the empty chain, cut by the same rules;
        # its task visits it from the (p1, e1, child, sigma(child)) kept here.
        root = _Walk(alpha, limit, depth_cap, p1)
        tasks += [(alpha, limit, depth_cap, *k) for k in root.ladder(1, 1, [p1])]
        prunes.update(root.prunes)

    nodes = 0
    incomplete: list[str] = []
    by_value: dict[int, tuple[tuple[int, int], ...]] = {}
    results = _map(_chain_task, tasks, params.worker_count, 8)
    for found, task_nodes, task_prunes, task_incomplete in results:
        nodes += task_nodes
        prunes.update(task_prunes)
        incomplete += task_incomplete
        by_value.update(found)

    records = []
    for value in sorted(by_value):
        fi = FactoredInteger(value, by_value[value])
        if sigma(fi) * den != num * value:
            raise AssertionError(f"chain result {value} failed sigma re-verification")
        records.append(FoundRecord(fi, is_primitive(fi)))

    return SearchReport(
        params=params,
        found=tuple(records),
        nodes_explored=nodes,
        pruned_by=dict(prunes),
        incomplete_branches=tuple(sorted(incomplete)),
    )


def chain_count_majorant(alpha: Fraction, r: int, x: int) -> int:
    """Exact evaluation of the counting expression that caps the tree size.

    sum over s of pi(floor(alpha*s/(alpha-1))) * prod_i max{e : q_i^e <= x},
    with q_i the i-th odd prime. chain_search never explores more states.
    """
    alpha = Fraction(alpha)
    _p1_cap(alpha, r)  # the largest cap: refuse an oversized r before any table
    total = 0
    ladders = 1  # prod over i <= s of max{e : q_i^e <= x}
    for s in range(1, r + 1):
        q = nth_odd_prime(s)
        e = 0
        power = q
        while power <= x:
            e += 1
            power *= q
        ladders *= e
        if not ladders:
            # q_s > x: this term and every later one is 0.
            break
        total += prime_count_upto(_p1_cap(alpha, s)) * ladders
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
