"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's bitset branch-and-bound paths and
its divisor-based scan: graphs are plain edge sets and searches are
exhaustive enumerations.
"""

from itertools import combinations

from pgq.bounds import neumaier_bound
from pgq.graph import Graph
from pgq.params import GQParams
from pgq.scan import RULED_OUT_NEW, check_one


def exhaustive_scan(t_min, t_max):
    """The scan by brute force: the full pipeline on every s from 2 up to
    Neumaier's bound, keeping the rows ruled out by the new bound alone."""
    rows = []
    for t in range(t_min, t_max + 1):
        for s in range(2, neumaier_bound(t) + 1):
            report = check_one(GQParams(s, t))
            if report.classification == RULED_OUT_NEW:
                rows.append(report)
    return rows


def edge_set(graph):
    """Edges of a pgq Graph as a set of frozensets."""
    return {frozenset(e) for e in graph.edges()}


def brute_max_coclique(n, edges) -> int:
    """Maximum independent set size by top-down subset enumeration.

    edges is a set of frozenset pairs over vertices 0..n-1.
    """
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            if all(frozenset(pair) not in edges for pair in combinations(combo, 2)):
                return size
    return 0


def brute_srg_params(n, edges):
    """(v, k, lam, mu) by direct common-neighbor counting, or None if the
    graph is not strongly regular (regular, connected, non-complete,
    constant lam and mu)."""
    nbrs = {v: set() for v in range(n)}
    for e in edges:
        u, v = tuple(e)
        nbrs[u].add(v)
        nbrs[v].add(u)
    degrees = {len(nbrs[v]) for v in range(n)}
    if len(degrees) != 1:
        return None
    k = degrees.pop()
    if k == n - 1:
        return None
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return None
    lams, mus = set(), set()
    for u in range(n):
        for v in range(u + 1, n):
            c = len(nbrs[u] & nbrs[v])
            (lams if v in nbrs[u] else mus).add(c)
    if len(lams) > 1 or len(mus) > 1:
        return None
    return (n, k, lams.pop() if lams else None, mus.pop() if mus else None)


def local_coclique_oracle(graph, x) -> int:
    """Claw number of x by brute enumeration over the neighborhood."""
    nbrs = [v for v in range(graph.n) if graph.has_edge(x, v)]
    index = {v: i for i, v in enumerate(nbrs)}
    edges = set()
    for i, u in enumerate(nbrs):
        for v in nbrs[i + 1:]:
            if graph.has_edge(u, v):
                edges.add(frozenset((index[u], index[v])))
    return brute_max_coclique(len(nbrs), edges)


def census_witness(graph, t):
    """The all-vertex claw census: the smallest vertex whose claw number
    exceeds t+1, with that claw number, or None if there is none.  Every
    claw number is computed, by brute enumeration."""
    claws = [local_coclique_oracle(graph, x) for x in range(graph.n)]
    return next(((x, phi) for x, phi in enumerate(claws) if phi > t + 1), None)


def local_partition_oracle(graph, x):
    """The local clique partition at x with plain sets: (y, None) for the
    smallest neighbor y whose {y} + common(x, y) is not a clique, else
    (None, the distinct candidate sets as sorted tuples, sorted)."""
    nbrs = {v: {w for w in range(graph.n) if graph.has_edge(v, w)} for v in range(graph.n)}
    candidates = set()
    for y in sorted(nbrs[x]):
        cand = {y} | (nbrs[x] & nbrs[y])
        if any(w not in nbrs[v] for v, w in combinations(cand, 2)):
            return y, None
        candidates.add(tuple(sorted(cand)))
    return None, tuple(sorted(candidates))


def relabel(graph, perm):
    """The graph with vertex v renamed perm[v]."""
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def godsil_mckay_switch(graph, subset):
    """Godsil-McKay switching on the vertex set D = subset.

    D must induce a regular graph, and every vertex outside D must be
    adjacent to none, half or all of D; the vertices adjacent to half of D
    swap their adjacency to D.  The result is cospectral with the input,
    and an srg with the same parameters when the input is an srg.
    """
    d = set(subset)
    edges = edge_set(graph)
    hits = [sum(frozenset((v, w)) in edges for w in d) for v in range(graph.n)]
    if len(d) % 2 or len({hits[v] for v in d}) != 1:
        raise ValueError(f"{sorted(d)} does not induce a regular graph of even order")
    for v in range(graph.n):
        if v in d:
            continue
        if hits[v] not in (0, len(d) // 2, len(d)):
            raise ValueError(f"vertex {v} is adjacent to {hits[v]} of {len(d)} switching vertices")
        if hits[v] == len(d) // 2:
            edges ^= {frozenset((v, w)) for w in d}
    return Graph(graph.n, [tuple(sorted(e)) for e in edges])
