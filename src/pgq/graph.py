"""Concrete-graph machinery: strongly-regular verification, local graphs,
claw numbers, clique partitions and clique covers.

Graphs are immutable, with one integer bitmask per adjacency row, so all
neighborhood algebra (common neighbors, induced subgraphs, independence
tests) is bitwise.  The claw number of a vertex x is the maximum size of
an induced coclique in the local graph at x, computed by exact branch and
bound; local graphs have only k vertices, so this is cheap at the scales
this package targets (k up to a few hundred; worst case is exponential).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DomainError, FormatError, InternalInconsistencyError
from .params import GQParams, SrgParams, derive_srg


def _bits(mask: int):
    """Yield set-bit positions of mask, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
        rows = [0] * n
        seen = set()
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)

    def row(self, v: int) -> int:
        """Neighborhood of v as a bitmask."""
        return self._rows[v]

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            for v in _bits(self._rows[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def common_neighbors(self, u: int, v: int) -> int:
        return self._rows[u] & self._rows[v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class LocalGraph:
    """The subgraph induced on the neighborhood of a center vertex.

    vertices holds the neighbors by original id, ascending; rows is the
    induced adjacency over local indices 0..len(vertices)-1.
    """

    center: int
    vertices: tuple[int, ...]
    rows: tuple[int, ...]

    def as_graph(self) -> Graph:
        n = len(self.vertices)
        edges = [(u, v) for u in range(n) for v in _bits(self.rows[u]) if u < v]
        return Graph(n, edges)


@dataclass(frozen=True)
class CliqueCover:
    """A family of vertex sets intended to cover every edge exactly once."""

    cliques: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_sets(sets) -> "CliqueCover":
        return CliqueCover(tuple(sorted(tuple(sorted(s)) for s in sets)))


@dataclass(frozen=True)
class SrgCheck:
    """Result of verify_srg: either the parameters or a first witness."""

    params: SrgParams | None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.params is not None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PartitionResult:
    """Result of clique_partition_of_local: a cover or a witness vertex
    whose candidate set breaks the partition."""

    cover: CliqueCover | None
    witness: int | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.cover is not None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CoverCheck:
    """Result of verify_clique_cover.

    diagonal[j] is the number of cliques containing vertex j, i.e. the
    diagonal of RR^T for the vertex-clique incidence matrix R; ok means
    RR^T - A is exactly that diagonal (every edge in exactly one clique).
    """

    ok: bool
    diagonal: tuple[int, ...]
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ClawCheck:
    """Claw-number census of a graph against the PGQ lower bound t+1."""

    ok: bool
    histogram: dict[int, int]
    minimum: int
    threshold: int

    def __bool__(self) -> bool:
        return self.ok


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    reached = 1
    frontier = 1
    while frontier:
        grow = 0
        for v in _bits(frontier):
            grow |= g.row(v)
        frontier = grow & ~reached
        reached |= frontier
    return reached.bit_count() == g.n


def verify_srg(g: Graph) -> SrgCheck:
    """Check that g is strongly regular: connected, non-complete,
    k-regular, with constant lam over adjacent pairs and constant mu over
    non-adjacent pairs.  On failure the witness names the first violation
    in vertex order."""
    if g.n == 0:
        raise ValueError("empty graph")
    k = g.degree(0)
    for v in range(g.n):
        d = g.degree(v)
        if d != k:
            return SrgCheck(None, f"not regular: deg({v})={d} but deg(0)={k}")
    if k == g.n - 1:
        return SrgCheck(None, "complete graph")
    if not _connected(g):
        return SrgCheck(None, "not connected")
    lam = mu = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            c = g.common_neighbors(u, v).bit_count()
            if g.has_edge(u, v):
                if lam is None:
                    lam = c
                elif c != lam:
                    return SrgCheck(
                        None, f"adjacent pair ({u}, {v}) has {c} common neighbors, expected {lam}"
                    )
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    return SrgCheck(
                        None, f"non-adjacent pair ({u}, {v}) has {c} common neighbors, expected {mu}"
                    )
    if lam is None or mu is None:
        raise InternalInconsistencyError(
            f"connected non-complete graph on {g.n} vertices lacks an adjacent or a non-adjacent pair"
        )
    return SrgCheck(SrgParams(g.n, k, lam, mu))


def local_graph(g: Graph, x: int) -> LocalGraph:
    """Induced subgraph on the neighborhood of x."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    vertices = tuple(_bits(g.row(x)))
    index = {v: i for i, v in enumerate(vertices)}
    rows = []
    for v in vertices:
        mask = 0
        for w in _bits(g.row(v) & g.row(x)):
            mask |= 1 << index[w]
        rows.append(mask)
    return LocalGraph(x, vertices, tuple(rows))


def _max_clique_size(rows: tuple[int, ...], cand: int, best_floor: int = 0) -> int:
    """Exact maximum clique size among the vertices of cand.

    Branch and bound with greedy-coloring bounds: candidates are colored
    so that same-color vertices are pairwise non-adjacent; a clique takes
    at most one vertex per color, so a vertex's color index bounds any
    clique extending through it.
    """
    best = best_floor

    def expand(cand_mask: int, size: int) -> None:
        nonlocal best
        if not cand_mask:
            if size > best:
                best = size
            return
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        uncolored = cand_mask
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                lsb = avail & -avail
                v = lsb.bit_length() - 1
                avail &= ~(rows[v] | lsb)
                uncolored ^= lsb
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            expand(cand_mask & rows[v], size + 1)
            cand_mask &= ~(1 << v)

    expand(cand, 0)
    return best


def _independence_number(rows: tuple[int, ...]) -> int:
    """Exact maximum independent set size = max clique of the complement."""
    n = len(rows)
    if n == 0:
        return 0
    full = (1 << n) - 1
    comp = tuple(full & ~(rows[i] | (1 << i)) for i in range(n))
    return _max_clique_size(comp, full)


def claw_number(g: Graph, x: int) -> int:
    """Largest r such that x centers an induced r-claw, i.e. the maximum
    coclique size of the local graph at x."""
    return _independence_number(local_graph(g, x).rows)


def _is_clique(g: Graph, mask: int) -> bool:
    for v in _bits(mask):
        if mask & ~(g.row(v) | (1 << v)):
            return False
    return True


def _partition_local(g: Graph, x: int, s: int, t: int):
    """Try to split the local graph at x into t+1 disjoint s-cliques.

    Each neighbor y proposes the candidate set {y} + common(x, y); the
    split exists iff every candidate is an s-clique and the distinct
    candidates are pairwise disjoint.  Returns (masks, None, None) on
    success and (None, witness_vertex, reason) otherwise.
    """
    nbrs = g.row(x)
    masks: list[int] = []
    owner: dict[int, int] = {}
    seen = 0
    for y in _bits(nbrs):
        cand = g.common_neighbors(x, y) | (1 << y)
        if cand.bit_count() != s:
            return None, y, (
                f"candidate set of vertex {y} has {cand.bit_count()} vertices, expected s={s}"
            )
        if not _is_clique(g, cand):
            return None, y, f"candidate set of vertex {y} is not a clique"
        if y in owner:
            # y was absorbed earlier; its own candidate must agree exactly.
            if masks[owner[y]] != cand:
                return None, y, (
                    f"candidate set of vertex {y} disagrees with the clique "
                    f"that already contains it"
                )
            continue
        if seen & cand:
            z = next(_bits(seen & cand))
            return None, y, (
                f"candidate set of vertex {y} collides with an earlier clique at vertex {z}"
            )
        for w in _bits(cand):
            owner[w] = len(masks)
        seen |= cand
        masks.append(cand)
    if seen != nbrs or len(masks) != t + 1:
        # Defensive: disjoint s-sets claiming every processed neighbor must
        # number deg(x)/s = t+1.
        return None, x, f"expected t+1={t + 1} cliques, found {len(masks)}"
    return masks, None, None


def _require_matching_srg(g: Graph, p: GQParams) -> SrgParams:
    expected = derive_srg(p)
    check = verify_srg(g)
    if not check.ok:
        raise DomainError(f"graph is not strongly regular: {check.failure}")
    if check.params != expected:
        raise DomainError(
            f"graph is srg{check.params.as_tuple()} but (s={p.s}, t={p.t}) "
            f"requires srg{expected.as_tuple()}"
        )
    return expected


def clique_partition_of_local(g: Graph, x: int, p: GQParams) -> PartitionResult:
    """Partition the local graph at x into t+1 disjoint maximal cliques of
    order s, the way a GQ collinearity graph decomposes around each point.

    Fails with a witness vertex y whenever {y} + common(x, y) is not an
    s-clique or collides with another candidate; this happens exactly when
    the claw number of x exceeds t+1.
    """
    _require_matching_srg(g, p)
    masks, witness, reason = _partition_local(g, x, p.s, p.t)
    if masks is None:
        return PartitionResult(None, witness, reason)
    return PartitionResult(CliqueCover.from_sets(tuple(_bits(m)) for m in masks))


def verify_clique_cover(g: Graph, cover: CliqueCover) -> CoverCheck:
    """Check that every edge of g lies in exactly one clique of the cover.

    Raises DomainError if a listed set is not a clique (a structural
    defect of the cover, distinct from a cover failure).  On success the
    off-diagonal of RR^T equals the adjacency matrix, so RR^T - A is the
    diagonal returned here (entry j = number of cliques containing j).
    """
    diagonal = [0] * g.n
    pair_counts: Counter[tuple[int, int]] = Counter()
    for idx, clique in enumerate(cover.cliques):
        for i, u in enumerate(clique):
            if not 0 <= u < g.n:
                raise DomainError(f"clique #{idx} mentions vertex {u}, out of range")
            diagonal[u] += 1
            for v in clique[i + 1:]:
                if not g.has_edge(u, v):
                    raise DomainError(
                        f"set #{idx} is not a clique: ({u}, {v}) is not an edge"
                    )
                pair_counts[(u, v)] += 1
    for u, v in g.edges():
        c = pair_counts.get((u, v), 0)
        if c != 1:
            return CoverCheck(
                False, tuple(diagonal),
                f"edge ({u}, {v}) lies in {c} cliques, expected exactly 1",
            )
    # Every counted pair is an edge (cliques were verified), so RR^T - A
    # is diagonal as soon as each edge is covered exactly once.
    return CoverCheck(True, tuple(diagonal))


def _claw_histogram(g: Graph) -> dict[int, int]:
    """Claw number -> vertex count over all of g, ascending by claw number."""
    if g.n == 0:
        raise ValueError("empty graph")
    return dict(sorted(Counter(claw_number(g, x) for x in range(g.n)).items()))


def claw_lower_bound_check(g: Graph, p: GQParams) -> ClawCheck:
    """Census of claw numbers against the structural lower bound t+1 that
    every srg of PGQ form satisfies."""
    _require_matching_srg(g, p)
    hist = _claw_histogram(g)
    minimum = min(hist)
    return ClawCheck(minimum >= p.t + 1, hist, minimum, p.t + 1)


# ---------------------------------------------------------------------------
# pgqgraph v1 file format
#
#   pgqgraph 1
#   <n> <m>
#   <u> <v>          (m lines, 0 <= u < v < n)
# ---------------------------------------------------------------------------

PGQGRAPH_HEADER = "pgqgraph 1"


def write_pgqgraph(g: Graph) -> str:
    """Serialize in pgqgraph v1 form; edges sorted, newline-terminated."""
    lines = [PGQGRAPH_HEADER, f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _int_fields(line: str, count: int, lineno: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise FormatError(f"line {lineno}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer field in {line!r}") from None


def parse_pgqgraph(text: str) -> Graph:
    """Parse pgqgraph v1; strict about header, counts, ordering and range."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != PGQGRAPH_HEADER:
        raise FormatError(f"missing '{PGQGRAPH_HEADER}' header")
    if len(lines) < 2:
        raise FormatError("missing vertex/edge count line")
    n, m = _int_fields(lines[1], 2, 2)
    if n < 0 or m < 0:
        raise FormatError("negative vertex or edge count")
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, got {len(body)}")
    edges = []
    for i, ln in enumerate(body, start=3):
        u, v = _int_fields(ln, 2, i)
        if not u < v:
            raise FormatError(f"line {i}: require u < v, got {u} {v}")
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    except (OverflowError, MemoryError):
        # n rows cannot be indexed or allocated; refused before any work.
        raise FormatError(f"line 2: vertex count {n} is too large") from None
