"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's bitset branch-and-bound paths,
its divisor-based scan and its condition pipeline: graphs are plain edge
sets, searches are exhaustive enumerations and parameter pairs are
classified from the conditions' own inequalities.
"""

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from functools import lru_cache
from math import comb, floor, isqrt

from pgq.graph import MAX_PGQGRAPH_VERTICES, PGQGRAPH_HEADER, Graph
from pgq.incidence import IncidenceStructure
from pgq.params import GQParams, derive_srg


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues other than k, with exact multiplicities.

    For PGQ-form parameters the eigenvalues are s-1 and -(t+1), and the
    multiplicity of s-1 is st(s+1)(t+1)/(s+t) as an exact rational; a
    graph can only exist if that rational is an integer.
    """

    theta_pos: int
    theta_neg: int
    mult_pos: Fraction
    mult_neg: Fraction


def spectrum_of(p):
    """Exact spectrum of a putative srg with PGQ-form parameters: the
    multiplicities are integers exactly when check_one's divisibility
    verdict passes, which decides the same by one divisibility test."""
    s, t = p.s, p.t
    mult_pos = Fraction(s * t * (s + 1) * (t + 1), s + t)
    return Spectrum(s - 1, -(t + 1), mult_pos, derive_srg(p).v - 1 - mult_pos)


#: The verdict statuses of trivial parameters, in CONDITION_ORDER: the
#: identity holds, and no bound applies.
TRIVIAL_STATUSES = ("pass", "fail", "na", "na", "na", "na", "na")


@lru_cache(maxsize=None)
def _claw_threshold_oracle(t):
    return crossover_oracle(t)[0]


def classify_oracle(s, t):
    """The verdict statuses of (s, t), in CONDITION_ORDER, and its
    classification, decided without check_one or pgq.bounds: integrality
    from spectrum_of, Krein as t <= s^2, Neumaier as s <= t(t+1)(t+2)/2,
    gq-duality as s <= t^2 and the claw bound from the threshold of
    crossover_oracle."""
    if s == 1 or t == 1:
        return TRIVIAL_STATUSES, "trivial"
    krein = t <= s * s
    integral = spectrum_of(GQParams(s, t)).mult_pos.denominator == 1
    neumaier = s <= t * (t + 1) * (t + 2) // 2
    gq = s <= t * t
    claw = s <= _claw_threshold_oracle(t)
    statuses = ("pass", "pass") + tuple(
        "pass" if ok else "fail" for ok in (krein, integral, neumaier, gq, claw)
    )
    if not (krein and integral and neumaier):
        return statuses, "ruled-out-by-prior-conditions"
    if gq:
        return statuses, "gq-possible"
    return statuses, "pgq-possible-only" if claw else "ruled-out-by-new-bound"


def exhaustive_scan(t_min, t_max):
    """The scan by brute force: the (s, t) pairs, ordered by (t, s), that
    classify_oracle rules out by the new bound alone, over every s from 2
    up to Neumaier's bound."""
    return [
        (s, t)
        for t in range(t_min, t_max + 1)
        for s in range(2, t * (t + 1) * (t + 2) // 2 + 1)
        if classify_oracle(s, t)[1] == "ruled-out-by-new-bound"
    ]


def csv_oracle(pairs):
    """The scan CSV of (s, t) pairs: the header, then s, t and the srg
    parameters v = (s+1)(st+1), k = s(t+1), lambda = s-1, mu = t+1."""
    rows = [(s, t, (s + 1) * (s * t + 1), s * (t + 1), s - 1, t + 1) for s, t in pairs]
    return "".join(",".join(map(str, row)) + "\n" for row in [("s", "t", "v", "k", "lambda", "mu"), *rows])


def claw_inequality_oracle(q, r):
    """Whether the claw inequality (mu - 1) C(r, 2) >= r(lam + 1) - k of
    an srg(v, k, lam, mu) q lets a vertex x center an induced r-claw.

    For leaves y_1..y_r, the sets A_i = {y_i} + (N(y_i) & N(x)) lie in
    N(x) and have lam + 1 vertices each; two leaves are non-adjacent, so
    A_i & A_j is common(y_i, y_j) minus x, at most mu - 1 vertices.  By
    Bonferroni, k >= |A_1 | ... | A_r| >= r(lam + 1) - C(r, 2)(mu - 1).
    """
    return (q.mu - 1) * comb(r, 2) >= r * (q.lam + 1) - q.k


def _theta_terms(t, theta):
    """term1 and term2, which do not depend on beta."""
    return Fraction(t, theta - t) * comb(theta + 1, 2), Fraction(t * (2 * theta - 1))


def _beta_terms(t, theta, beta):
    """term3 (increasing in beta) and term4 (decreasing in beta)."""
    pairs = comb(beta, 2)
    return Fraction(pairs * t), Fraction((t + 1) ** 2 * theta, pairs)


def _smallest_beta(pairs):
    """Smallest beta >= 2 with C(beta, 2) >= pairs, by integer square root."""
    # C(beta, 2) >= pairs  <=>  (2 beta - 1)^2 >= 8 pairs + 1.
    root = isqrt(8 * pairs + 1)
    if root * root < 8 * pairs + 1:
        root += 1
    return max(2, (root + 2) // 2)


def crossover_oracle(t):
    """The four-term optimum as (threshold, theta, beta, terms), by a
    search over theta in [t+2, 4t] that assumes no closed form: threshold
    is the floor of the minimum, and terms are the four Fractions at the
    (theta, beta) attaining it.

    Ties go to the smallest theta, then the smallest beta.  For a fixed
    theta, term1 and term2 are constants, term3 increases with beta and
    term4 decreases, so max(term3, term4) is smallest at the crossover
    beta* (the smallest beta with C(beta,2)^2 t >= (t+1)^2 theta) or at
    beta* - 1, both found by integer square roots.  The search stops at
    the first theta with t(2 theta - 1) >= the best value so far: term2
    grows with theta, so no later theta can win.  It is O(t) exact
    operations, against O(t^2) for sweep_oracle.
    """
    weight = (t + 1) ** 2
    best = None
    for theta in range(t + 2, 4 * t + 1):
        term1, term2 = _theta_terms(t, theta)
        if best is not None and term2 >= best[0]:
            break
        # Smallest C(beta, 2) with C(beta, 2)^2 t >= weight * theta.
        pairs = isqrt(-(-weight * theta // t) - 1) + 1
        crossover = min(_smallest_beta(pairs), t + 1)
        value = max(term1, term2, min(
            max(_beta_terms(t, theta, beta)) for beta in (max(crossover - 1, 2), crossover)
        ))
        if best is None or value < best[0]:
            best = (value, theta)
    exact, theta = best
    # The smallest beta reaching the minimum is the smallest one whose
    # term4 is <= it: on a plateau where term1 or term2 dominates, that is
    # below the crossover.
    pairs = -(-weight * theta * exact.denominator // exact.numerator)
    beta = _smallest_beta(pairs)
    terms = (*_theta_terms(t, theta), *_beta_terms(t, theta, beta))
    return floor(exact), theta, beta, terms


def quadratic_witness(t):
    """The (theta, beta) of proof step (c) in the optimal_claw_bound
    docstring: theta = floor(4t/3) + 1 and beta = ceil(2 sqrt t), by
    integer square root.  Valid, and certifying the closed form, for
    t >= 3; at t = 2 theta is 3 < t+2."""
    root = isqrt(4 * t)
    return (4 * t + 3) // 3, root if root * root == 4 * t else root + 1


def decimal_oracle(f):
    """pgq.cli._decimal for a Fraction f beyond the float range, by digit
    arithmetic: round() on the exact f over a power of ten leaves six
    digits, half to even; a carry to 10^6 moves into the exponent; and
    the digits are written with trailing zeros dropped, then e+NNN."""
    exp = len(str(f.numerator // f.denominator)) - 1
    digits = round(f / 10 ** (exp - 5))
    if digits == 10**6:
        digits, exp = 10**5, exp + 1
    head, tail = str(digits)[0], str(digits)[1:].rstrip("0")
    return f"{head}{'.' if tail else ''}{tail}e+{exp}"


def edge_set(graph):
    """Edges of a pgq Graph as a set of frozensets."""
    return {frozenset(e) for e in graph.edges()}


def clique_cover_oracle(n, edges, cliques):
    """The identity RR^T = A + D over plain sets: R is the vertex-set
    incidence matrix of cliques (vertex sets) on 0..n-1, A the adjacency
    matrix of edges (a set of frozenset pairs), D diagonal.  It holds iff
    every edge lies in exactly one of the sets and every set is a clique.

    Returns (ok, diagonal, failure): diagonal[j] = (RR^T)[j][j], the
    number of sets containing j, and failure names the first edge, in
    sorted order, that lies in c != 1 sets.  A set that mentions a vertex
    outside 0..n-1 or is not a clique is a defect of the cover, not a
    failure of the identity: ValueError.
    """
    rrt = [[0] * n for _ in range(n)]
    for idx, clique in enumerate(cliques):
        if not all(0 <= u < n for u in clique):
            raise ValueError(f"set #{idx} mentions a vertex out of range")
        for u, v in product(clique, repeat=2):
            rrt[u][v] += 1
    for u, v in combinations(range(n), 2):
        if rrt[u][v] and frozenset((u, v)) not in edges:
            raise ValueError(f"({u}, {v}) lies in a set but is not an edge")
    diagonal = tuple(rrt[j][j] for j in range(n))
    for u, v in combinations(range(n), 2):
        if frozenset((u, v)) in edges and rrt[u][v] != 1:
            return False, diagonal, f"edge ({u}, {v}) lies in {rrt[u][v]} cliques, expected exactly 1"
    return True, diagonal, None


def brute_max_coclique(n, edges) -> int:
    """Maximum independent set size by top-down subset enumeration.

    edges is a set of frozenset pairs over vertices 0..n-1.
    """
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            if all(frozenset(pair) not in edges for pair in combinations(combo, 2)):
                return size
    return 0


def srg_oracle(n, edges):
    """verify_srg by direct common-neighbor counting over plain sets.

    edges is a set of frozenset pairs over vertices 0..n-1.  Returns
    ((v, k, lam, mu), None) for a strongly regular graph (regular,
    connected, non-complete, constant lam and mu), else (None, failure):
    the first violation, with pairs (u, v), u < v, taken in lexicographic
    order and lam and mu fixed by the first adjacent and the first
    non-adjacent pair.  No vertices is a ValueError.
    """
    if n == 0:
        raise ValueError("empty graph")
    nbrs = {v: set() for v in range(n)}
    for e in edges:
        u, v = tuple(e)
        nbrs[u].add(v)
        nbrs[v].add(u)
    k = len(nbrs[0])
    for v in range(n):
        if len(nbrs[v]) != k:
            return None, f"not regular: deg({v})={len(nbrs[v])} but deg(0)={k}"
    if k == n - 1:
        return None, "complete graph"
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return None, "not connected"
    expected = {}
    for u, v in combinations(range(n), 2):
        kind = "adjacent" if v in nbrs[u] else "non-adjacent"
        c = len(nbrs[u] & nbrs[v])
        if expected.setdefault(kind, c) != c:
            return None, f"{kind} pair ({u}, {v}) has {c} common neighbors, expected {expected[kind]}"
    return (n, k, expected["adjacent"], expected["non-adjacent"]), None


def rook_edges(m):
    """Edges of the m x m rook's graph: the pairs of cells on one row line
    or on one column line, cell i*m + j in row i and column j."""
    lines = [range(i * m, i * m + m) for i in range(m)] + [range(i, m * m, m) for i in range(m)]
    return [edge for line in lines for edge in combinations(line, 2)]


def bipartite_edges(m):
    """Edges of K_{m,m}: every pair of a vertex in 0..m-1 and one in m..2m-1."""
    return [(i, m + j) for i in range(m) for j in range(m)]


def branching_max_coclique(adj, vertices) -> int:
    """Maximum independent set size among vertices (a set), by exhaustive
    branching with plain sets; adj maps each vertex to its neighbor set.

    A vertex v whose neighbors in vertices are pairwise adjacent is always
    taken: a maximum coclique meets its closed neighborhood, a clique, in
    exactly one vertex (else v could be added), which can be swapped for
    v.  Otherwise a vertex of
    largest degree is either left out or taken with its neighbors removed.
    Unlike brute_max_coclique this stays fast on the 30-vertex local
    graphs of W(5) and of the Cameron graph.
    """
    if not vertices:
        return 0
    for v in sorted(vertices):
        near = adj[v] & vertices
        if all(b in adj[a] for a, b in combinations(near, 2)):
            return 1 + branching_max_coclique(adj, vertices - near - {v})
    v = max(sorted(vertices), key=lambda u: len(adj[u] & vertices))
    return max(
        branching_max_coclique(adj, vertices - {v}),
        1 + branching_max_coclique(adj, vertices - adj[v] - {v}),
    )


def local_coclique_oracle(graph, x) -> int:
    """Claw number of x: the maximum coclique of its neighborhood, by
    exhaustive branching over plain sets (branching_max_coclique)."""
    nbrs = {v for v in range(graph.n) if graph.has_edge(x, v)}
    adj = {v: {w for w in nbrs if graph.has_edge(v, w)} for v in nbrs}
    return branching_max_coclique(adj, nbrs)


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


def gathered_lines(graph):
    """The lines of a GQ collinearity graph gathered from every point with
    plain sets: {x, y} + common(x, y) for each edge xy, sorted."""
    nbrs = [{w for w in range(graph.n) if graph.has_edge(v, w)} for v in range(graph.n)]
    lines = {
        tuple(sorted({x, y} | (nbrs[x] & nbrs[y])))
        for x in range(graph.n)
        for y in nbrs[x]
    }
    return sorted(lines)


def gq_oracle(graph):
    """(GQParams, lines) if graph is the collinearity graph of a GQ(s,t),
    else None.  Its srg parameters (srg_oracle) must be of PGQ form, and
    the lines gathered from every point (gathered_lines) must pass
    axioms_oracle as a GQ(s,t).  Then each point is collinear with
    exactly s(t+1) points, all among its neighbors, so the collinearity
    graph of those lines is graph; and every line a GQ's collinearity
    graph gathers is a line of the GQ, so no GQ is missed."""
    params, _ = srg_oracle(graph.n, edge_set(graph))
    if params is None or params[3] < 2:
        return None
    p = GQParams(params[2] + 1, params[3] - 1)
    lines = gathered_lines(graph)
    if tuple(derive_srg(p)) != params or not axioms_oracle(IncidenceStructure(graph.n, lines, *p))[0]:
        return None
    return p, lines


def paley_graph(q):
    """The Paley graph on GF(q), q a prime 1 mod 4: residues adjacent
    when their difference is a nonzero square.  It is srg(q, (q-1)/2,
    (q-5)/4, (q-1)/4)."""
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(u, v) for u, v in combinations(range(q), 2) if (v - u) % q in squares])


def symplectic_graph(q):
    """Collinearity graph of the symplectic GQ W(q), q prime: the projective
    points of GF(q)^4 with first nonzero coordinate 1, in lexicographic
    order, adjacent iff distinct and orthogonal under the alternating form
    x0*y1 - x1*y0 + x2*y3 - x3*y2."""
    points = [v for v in product(range(q), repeat=4) if next((c for c in v if c), 0) == 1]
    edges = [
        (i, j)
        for (i, x), (j, y) in combinations(enumerate(points), 2)
        if (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % q == 0
    ]
    return Graph(len(points), edges)


def cameron_graph():
    """The Cameron graph: srg(231, 30, 9, 3), the parameters of a GQ(10, 2),
    which cannot exist as s > t^2, so the graph is a pseudo-GQ.

    The binary Golay code is the cyclic [23, 12] code generated by
    x^11+x^10+x^6+x^5+x^4+x^2+1, extended by a parity bit (bit 23).  Its
    759 words of weight 8 are the octads; those through the points 22 and
    23, with both removed, are the 77 hexads of S(3, 6, 22).  The vertices
    are the 231 pairs of the points 0..21 in lexicographic order, adjacent
    when disjoint and inside a common hexad.
    """
    generator = sum(1 << e for e in (11, 10, 6, 5, 4, 2, 0))
    code = {0}
    for shift in range(12):
        code |= {word ^ generator << shift for word in code}
    words = [word | (bin(word).count("1") % 2) << 23 for word in code]
    octads = [word for word in words if bin(word).count("1") == 8]
    fixed = 1 << 22 | 1 << 23
    hexads = [[p for p in range(22) if word >> p & 1] for word in octads if word & fixed == fixed]
    index = {pair: i for i, pair in enumerate(combinations(range(22), 2))}
    # Two disjoint pairs and the two fixed points lie in exactly one octad,
    # so each edge comes from exactly one hexad.
    edges = [
        (index[a], index[b])
        for hexad in hexads
        for a, b in combinations(combinations(hexad, 2), 2)
        if not set(a) & set(b)
    ]
    return Graph(len(index), edges)


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


def parse_pgqgraph_oracle(text):
    """parse_pgqgraph as two passes: every edge line through _int_fields,
    numbered by its line in the file, then Graph(n, edges), whose first
    range or duplicate error is the parser's."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != PGQGRAPH_HEADER:
        raise ValueError(f"missing '{PGQGRAPH_HEADER}' header")
    if len(lines) < 2:
        raise ValueError("missing vertex/edge count line")
    n, m = _int_fields(lines[1], 2, 2)
    if n < 0 or m < 0:
        raise ValueError("negative vertex or edge count")
    if n > MAX_PGQGRAPH_VERTICES:
        raise ValueError(f"line 2: vertex count {n} is too large")
    body = [(i, ln) for i, ln in enumerate(lines[2:], start=3) if ln.strip()]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, got {len(body)}")
    edges = []
    for i, ln in body:
        u, v = _int_fields(ln, 2, i)
        if not u < v:
            raise ValueError(f"line {i}: require u < v, got {u} {v}")
        edges.append((u, v))
    return Graph(n, edges)


def _int_fields(line, count, lineno):
    parts = line.split()
    if len(parts) != count:
        raise ValueError(f"line {lineno}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        # int() says so when a field exceeds its digit limit.
        if str(exc).startswith("Exceeds the limit"):
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"line {lineno}: field longer than the {limit}-digit limit") from None
        raise ValueError(f"line {lineno}: non-integer field in {line!r}") from None


#: A run of leading zeros too long for int() under Python's default limit
#: of 4300 digits.
LONG_ZEROS = "0" * 5000


def text_id(text):
    """text as a test id, with a run of ten or more zeros written
    <N zeros>, so a long field does not make a 5,000-character id."""
    return re.sub("0{10,}", lambda run: f"<{len(run[0])} zeros>", text)


def axioms_oracle(inc):
    """(ok, axiom, witness) of verify_axioms by the pairwise loops over
    plain sets: every pair of lines for (i), every point's degree for
    (ii), and every non-incident point-line pair for (iii)."""
    s, t = inc.s, inc.t
    lines = [set(line) for line in inc.lines]
    for i, line in enumerate(lines):
        if len(line) != s + 1:
            return False, "i", f"line #{i} has {len(line)} points, expected s+1={s + 1}"
    for i, j in combinations(range(len(lines)), 2):
        if len(lines[i] & lines[j]) > 1:
            return False, "i", f"lines #{i} and #{j} share more than one point"
    for p in range(inc.points):
        degree = sum(p in line for line in lines)
        if degree != t + 1:
            return False, "ii", f"point {p} lies on {degree} lines, expected t+1={t + 1}"
    for p in range(inc.points):
        collinear = set().union(*(line for line in lines if p in line)) - {p}
        for i, line in enumerate(lines):
            if p in line:
                continue
            hits = len(line & collinear)
            if hits != 1:
                return (
                    False, "iii",
                    f"point {p} is collinear with {hits} points of line #{i}, expected exactly 1",
                )
    return True, None, None
