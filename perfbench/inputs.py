"""Workload inputs and expected outputs, built without importing pgq.

Everything here is computed from first principles so that the benchmark's
checks do not depend on the code they measure:

* W(q), the symplectic generalized quadrangle over GF(q) for prime q, from
  the alternating form x0*y1 - x1*y0 + x2*y3 - x3*y2 on GF(q)^4;
* the expected pgqinc / pgqgraph bytes of extraction, duality and the
  collinearity graph of the dual, Q(4,q);
* a pseudo-GQ(3,3), from Godsil-McKay switching of the Q(4,3) graph;
* the Shrikhande graph, the pgq generator's output for it;
* an arithmetic classifier for (s, t) that tests the paper's conditions
  literally.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import isqrt

GQ_POSSIBLE = "gq-possible"
PGQ_POSSIBLE_ONLY = "pgq-possible-only"
RULED_OUT_NEW = "ruled-out-by-new-bound"
RULED_OUT_PRIOR = "ruled-out-by-prior-conditions"


# ---------------------------------------------------------------------------
# Graphs as (n, sorted edge list) and incidence structures as sorted lines
# ---------------------------------------------------------------------------

def pgqgraph_text(n: int, edges) -> str:
    rows = [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(["pgqgraph 1", f"{n} {len(rows)}", *rows]) + "\n"


def pgqinc_text(points: int, lines, s: int, t: int) -> str:
    rows = [" ".join(map(str, line)) for line in lines]
    return "\n".join(["pgqinc 1", f"{points} {len(rows)} {s} {t}", *rows]) + "\n"


def adjacency(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def srg_params(rows: list[int]):
    """(v, k, lambda, mu) if the graph is strongly regular, else None."""
    n = len(rows)
    k = rows[0].bit_count()
    lam = mu = None
    for u in range(n):
        if rows[u].bit_count() != k:
            return None
        for v in range(u + 1, n):
            c = (rows[u] & rows[v]).bit_count()
            if rows[u] >> v & 1:
                lam = c if lam is None else lam
                if c != lam:
                    return None
            else:
                mu = c if mu is None else mu
                if c != mu:
                    return None
    return (n, k, lam, mu)


def claw_number(rows: list[int], x: int) -> int:
    """Largest independent set in the neighbourhood of x, by exhaustive
    search: exponential in the degree, meant for the small negatives."""
    def grow(cand: int) -> int:
        if not cand:
            return 0
        v = cand.bit_length() - 1
        rest = cand & ~(1 << v)
        return max(1 + grow(rest & ~rows[v]), grow(rest))
    return grow(rows[x])


def relabel(n: int, edges, lines, rng: random.Random):
    """Apply a random vertex permutation to a graph and its lines."""
    perm = list(range(n))
    rng.shuffle(perm)
    new_edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    new_lines = sorted(tuple(sorted(perm[p] for p in line)) for line in lines)
    return new_edges, new_lines


def dual_lines(points: int, lines) -> list[tuple[int, ...]]:
    """Line i of the dual lists, for point i, the indices of its lines."""
    through = [[] for _ in range(points)]
    for i, line in enumerate(lines):
        for p in line:
            through[p].append(i)
    return [tuple(ls) for ls in through]


def collinearity_edges(lines) -> list[tuple[int, int]]:
    return sorted({pair for line in lines for pair in combinations(line, 2)})


# ---------------------------------------------------------------------------
# W(q) and Q(4,q)
# ---------------------------------------------------------------------------

def symplectic_gq(q: int):
    """Points (projective points of GF(q)^4, first nonzero coordinate 1,
    lexicographic order) and totally isotropic lines of W(q)."""
    points = [v for v in product(range(q), repeat=4) if any(v) and next(x for x in v if x) == 1]
    index = {v: i for i, v in enumerate(points)}

    def normalize(vec):
        lead = next(x for x in vec if x)
        inv = pow(lead, -1, q)
        return tuple(x * inv % q for x in vec)

    edges = []
    lines = set()
    for i, x in enumerate(points):
        for j in range(i + 1, len(points)):
            y = points[j]
            if (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % q:
                continue
            edges.append((i, j))
            span = {j} | {index[normalize(tuple((a + c * b) % q for a, b in zip(x, y)))]
                          for c in range(q)}
            lines.add(tuple(sorted(span)))
    return len(points), edges, sorted(lines)


def godsil_mckay_pseudo_gq(q: int = 3):
    """A strongly regular graph with the parameters of Q(4,q) that is not
    a GQ collinearity graph: the Q(4,q) graph switched on the first
    4-vertex set (lexicographic) that admits Godsil-McKay switching and
    produces a vertex of claw number above q+1.  Returns (n, edges)."""
    n, _, lines = symplectic_gq(q)
    q4_edges = collinearity_edges(dual_lines(n, lines))
    rows = adjacency(n, q4_edges)
    params = srg_params(rows)
    for subset in combinations(range(n), 4):
        mask = sum(1 << v for v in subset)
        if len({(rows[v] & mask).bit_count() for v in subset}) != 1:
            continue
        hits = [(rows[v] & mask).bit_count() for v in range(n)]
        if any(hits[v] not in (0, 2, 4) for v in range(n) if not mask >> v & 1):
            continue
        switched = list(rows)
        for v in range(n):
            if not mask >> v & 1 and hits[v] == 2:
                switched[v] = rows[v] ^ mask
                for c in subset:
                    switched[c] ^= 1 << v
        if srg_params(switched) != params:
            continue
        if all(claw_number(switched, x) == q + 1 for x in range(n)):
            continue
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if switched[u] >> v & 1]
        return n, edges
    raise RuntimeError(f"no Godsil-McKay switching set of size 4 yields a pseudo-GQ({q},{q})")


def shrikhande():
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = [(a, b) for a in range(16) for b in range(a + 1, 16)
             if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in conn]
    return 16, edges


def claw_witness(n: int, edges, t: int) -> str:
    """The reason extract-gq gives for a pseudo-GQ: the smallest vertex
    whose claw number exceeds t+1."""
    rows = adjacency(n, edges)
    for x in range(n):
        phi = claw_number(rows, x)
        if phi > t + 1:
            return f"pseudo-GQ evidence: claw number {phi} > t+1 = {t + 1} at vertex {x}"
    raise ValueError("every claw number is at most t+1")


# ---------------------------------------------------------------------------
# Parameter classification
# ---------------------------------------------------------------------------

def neumaier(t: int) -> int:
    return t * (t + 1) * (t + 2) // 2


def classify(s: int, t: int, threshold: int) -> str:
    """Classification of (s, t) for s, t >= 2 given the four-term threshold."""
    prior_ok = (
        t <= s * s
        and s * (s + 1) * t * (t + 1) % (s + t) == 0
        and s <= neumaier(t)
    )
    if not prior_ok:
        return RULED_OUT_PRIOR
    if s <= t * t:
        return GQ_POSSIBLE
    if s > threshold:
        return RULED_OUT_NEW
    return PGQ_POSSIBLE_ONLY


def pick_s(t: int, threshold: int, rng: random.Random) -> int:
    """Draw a class uniformly among the non-empty ones at t, then an s in
    [2, neumaier(t)] uniformly from that class.

    Every s that passes divisibility has s+t dividing t^2(t^2-1), because
    s = -t mod (s+t); so the divisors of t^2(t^2-1) list all candidates of
    the three non-prior classes, and classify() confirms each literally.
    """
    m = t * t * (t * t - 1)
    divisors = set()
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            divisors.update((d, m // d))
    members: dict[str, list[int]] = {}
    for d in sorted(divisors):
        s = d - t
        if 2 <= s <= neumaier(t):
            members.setdefault(classify(s, t, threshold), []).append(s)
    classes = sorted(set(members) | {RULED_OUT_PRIOR})
    chosen = rng.choice(classes)
    if chosen != RULED_OUT_PRIOR:
        return rng.choice(members[chosen])
    while True:
        s = rng.randint(2, neumaier(t))
        if classify(s, t, threshold) == RULED_OUT_PRIOR:
            return s
