"""Generalized-quadrangle incidence structures.

A GQ(s,t) is a point-line geometry in which every line has s+1 points,
every point is on t+1 lines, two points share at most one line, two lines
share at most one point, and for every non-incident point-line pair (p, L)
exactly one point of L is collinear with p.

The central operation here is extraction: a strongly regular graph with
PGQ-form parameters is the collinearity graph of a GQ exactly when every
vertex has claw number t+1, in which case the lines are the maximal
(s+1)-cliques obtained from the local clique partitions.  By Caro-Wei a
vertex has claw number t+1 exactly when its local partition succeeds, so
extraction partitions first and computes a claw number only where that
fails.  Otherwise it gathers the lines {x} + C and verifies the axioms on
the result.

Also provides the test-corpus generators (rook's graphs, complete
bipartite graphs, the disjoint-pairs graph on a 6-set, the symplectic
generalized quadrangle over GF(3), and the Shrikhande graph).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError, FormatError, InternalInconsistencyError
from .graph import Graph, _bits, _partition_local, _require_matching_srg, claw_number
from .params import GQParams


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..points-1 plus lines (sorted point tuples), with the
    declared orders (s, t).  Construction normalizes and range-checks the
    lines; the geometric axioms are checked by verify_axioms."""

    points: int
    lines: tuple[tuple[int, ...], ...]
    s: int
    t: int

    def __init__(self, points: int, lines, s: int, t: int):
        if not isinstance(points, int) or points < 1:
            raise ValueError(f"point count must be a positive integer, got {points!r}")
        if s < 1 or t < 1:
            raise ValueError(f"require s >= 1 and t >= 1, got ({s}, {t})")
        norm = []
        for i, line in enumerate(lines):
            pts = tuple(sorted(line))
            if len(set(pts)) != len(pts):
                raise ValueError(f"line #{i} repeats a point")
            if pts and not (0 <= pts[0] and pts[-1] < points):
                raise ValueError(f"line #{i} mentions a point out of range")
            norm.append(pts)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "lines", tuple(norm))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class AxiomCheck:
    """Axiom verdict; on failure, axiom is "i", "ii" or "iii" and the
    witness pinpoints the first violating object in lexicographic order."""

    ok: bool
    axiom: str | None = None
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ExtractionResult:
    """Either the extracted incidence structure, or pseudo-GQ evidence:
    a witness vertex whose claw number exceeds t+1."""

    structure: IncidenceStructure | None
    witness_vertex: int | None = None
    witness_claw: int | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.structure is not None

    def __bool__(self) -> bool:
        return self.ok


def verify_axioms(inc: IncidenceStructure) -> AxiomCheck:
    """Check GQ axioms in order: line size / line pairs (i), point degree
    (ii), then the unique-collinear-point axiom (iii).  The work is bounded
    by the incidences, not by the declared point count: the degree scan
    stops at the first point no line mentions."""
    s, t = inc.s, inc.t
    for i, line in enumerate(inc.lines):
        if len(line) != s + 1:
            return AxiomCheck(False, "i", f"line #{i} has {len(line)} points, expected s+1={s + 1}")
    # Masks over the ranks of the mentioned points keep every intersection
    # size; once (ii) holds, every point is mentioned and is its own rank.
    degree = Counter(p for line in inc.lines for p in line)
    rank = {p: r for r, p in enumerate(sorted(degree))}
    masks = [sum(1 << rank[p] for p in line) for line in inc.lines]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).bit_count() > 1:
                return AxiomCheck(False, "i", f"lines #{i} and #{j} share more than one point")
    for p in range(inc.points):
        if degree[p] != t + 1:
            return AxiomCheck(False, "ii", f"point {p} lies on {degree[p]} lines, expected t+1={t + 1}")
    # No point-pair pass for (ii): two points on two common lines would
    # make those lines share two points, which (i) has already rejected.
    collinear = [0] * inc.points
    for mask, line in zip(masks, inc.lines):
        for p in line:
            collinear[p] |= mask
    for p in range(inc.points):
        others = collinear[p] & ~(1 << p)
        for i, mask in enumerate(masks):
            if mask >> p & 1:
                continue
            hits = (mask & others).bit_count()
            if hits != 1:
                return AxiomCheck(
                    False, "iii",
                    f"point {p} is collinear with {hits} points of line #{i}, expected exactly 1",
                )
    return AxiomCheck(True)


def extract_gq(g: Graph, p: GQParams) -> ExtractionResult:
    """Extract the GQ underlying g, or report pseudo-GQ evidence.

    Requires verify_srg(g) == derive_srg(p) (DomainError otherwise).  Each
    local graph is (s-1)-regular on s(t+1) vertices, so by Caro-Wei its
    claw number is at least t+1, with equality iff it splits into t+1
    disjoint s-cliques.  The partition is tried at every vertex in
    ascending order; the first vertex where it fails is the smallest with
    claw number above t+1 and is returned as the witness.  Otherwise the
    lines {x} + C are gathered into a set.  The line through an edge xy is
    {x, y} + common(x, y) from either endpoint, and every vertex lies on
    t+1 lines of s+1 points, so no edge gets two lines and there are
    (st+1)(t+1) of them.  The result is axiom-verified; a failure there
    indicates a bug, not bad input.
    """
    _require_matching_srg(g, p)
    t = p.t
    lines: set[tuple[int, ...]] = set()
    for x in range(g.n):
        masks, witness = _partition_local(g, x)
        if masks is None:
            phi = claw_number(g, x)
            if phi <= t + 1:
                raise InternalInconsistencyError(
                    f"local partition failed at vertex {x} (candidate set of vertex "
                    f"{witness} is not a clique) with claw number {phi} <= t+1"
                )
            return ExtractionResult(
                None, x, phi,
                f"pseudo-GQ evidence: claw number {phi} > t+1 = {t + 1} at vertex {x}",
            )
        lines.update(tuple(sorted([x, *_bits(mask)])) for mask in masks)
    inc = IncidenceStructure(g.n, sorted(lines), p.s, t)
    check = verify_axioms(inc)
    if not check.ok:
        raise InternalInconsistencyError(
            f"extracted structure fails axiom ({check.axiom}): {check.witness}"
        )
    return ExtractionResult(inc)


def dual(inc: IncidenceStructure) -> IncidenceStructure:
    """Swap points and lines; a GQ(s,t) dualizes to a GQ(t,s).

    The input is verified (DomainError otherwise).  The output needs no
    check: the axioms are self-dual, (i) and (ii) swap and (iii) is fixed.
    """
    check = verify_axioms(inc)
    if not check.ok:
        raise DomainError(f"dual requires a verified GQ; axiom ({check.axiom}): {check.witness}")
    new_lines = [[] for _ in range(inc.points)]
    for i, line in enumerate(inc.lines):
        for p in line:
            new_lines[p].append(i)
    return IncidenceStructure(len(inc.lines), new_lines, inc.t, inc.s)


def collinearity_graph(inc: IncidenceStructure) -> Graph:
    """Graph on the points, adjacent iff they share a line."""
    check = verify_axioms(inc)
    if not check.ok:
        raise DomainError(
            f"collinearity graph requires a verified GQ; axiom ({check.axiom}): {check.witness}"
        )
    edges = set()
    for line in inc.lines:
        edges.update(combinations(line, 2))
    return Graph(inc.points, sorted(edges))


# ---------------------------------------------------------------------------
# Test-corpus generators
# ---------------------------------------------------------------------------

def gen_rook(m: int) -> Graph:
    """m x m rook's graph: cells adjacent iff same row or column.
    Collinearity graph of the trivial GQ(m-1, 1)."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"require integer m >= 2, got {m!r}")
    edges = []
    for a in range(m * m):
        for b in range(a + 1, m * m):
            if a // m == b // m or a % m == b % m:
                edges.append((a, b))
    return Graph(m * m, edges)


def gen_complete_bipartite(m: int) -> Graph:
    """K_{m,m} on parts {0..m-1} and {m..2m-1}: the trivial GQ(1, m-1)."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"require integer m >= 2, got {m!r}")
    return Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def gen_kneser_6_2() -> Graph:
    """Disjointness graph on the 15 unordered pairs of a 6-set: srg(15,6,1,3),
    the collinearity graph of GQ(2,2) (lines = perfect matchings)."""
    duads = list(combinations(range(6), 2))
    edges = [
        (i, j)
        for i in range(15)
        for j in range(i + 1, 15)
        if not set(duads[i]) & set(duads[j])
    ]
    return Graph(15, edges)


def gen_symplectic_w3() -> Graph:
    """Collinearity graph of the symplectic GQ(3,3): the 40 projective
    points of GF(3)^4, adjacent iff distinct and orthogonal under the
    alternating form x0*y1 - x1*y0 + x2*y3 - x3*y2.

    Projective points are canonicalized by scaling the first nonzero
    coordinate to 1, enumerated in lexicographic order.  Expected
    srg(40, 12, 2, 4).
    """
    points = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    vec = (a, b, c, d)
                    nz = next((x for x in vec if x), 0)
                    if nz == 1:
                        points.append(vec)
    if len(points) != 40:
        raise InternalInconsistencyError(f"found {len(points)} projective points, expected 40")

    def form(x, y):
        return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % 3

    edges = [
        (i, j)
        for i in range(40)
        for j in range(i + 1, 40)
        if form(points[i], points[j]) == 0
    ]
    return Graph(40, edges)


def gen_shrikhande() -> Graph:
    """Shrikhande graph: Cayley graph on Z4 x Z4 with connection set
    {+-(1,0), +-(0,1), +-(1,1)}.  Shares srg(16,6,2,2) with the 4x4 rook's
    graph but is not a GQ collinearity graph (every claw number is 3)."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(16):
        for b in range(a + 1, 16):
            diff = ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4)
            if diff in conn:
                edges.append((a, b))
    return Graph(16, edges)


# ---------------------------------------------------------------------------
# pgqinc v1 file format
#
#   pgqinc 1
#   <points> <lines> <s> <t>
#   <p1> <p2> ... <pk>      (one line of the structure per row, sorted ids)
# ---------------------------------------------------------------------------

PGQINC_HEADER = "pgqinc 1"


def write_pgqinc(inc: IncidenceStructure) -> str:
    out = [PGQINC_HEADER, f"{inc.points} {len(inc.lines)} {inc.s} {inc.t}"]
    out.extend(" ".join(str(p) for p in line) for line in inc.lines)
    return "\n".join(out) + "\n"


def parse_pgqinc(text: str) -> IncidenceStructure:
    lines = text.splitlines()
    if not lines or lines[0].strip() != PGQINC_HEADER:
        raise FormatError(f"missing '{PGQINC_HEADER}' header")
    if len(lines) < 2:
        raise FormatError("missing counts line")
    parts = lines[1].split()
    if len(parts) != 4:
        raise FormatError(f"line 2: expected 'points lines s t', got {lines[1]!r}")
    try:
        points, nlines, s, t = (int(p) for p in parts)
    except ValueError:
        raise FormatError(f"line 2: non-integer field in {lines[1]!r}") from None
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != nlines:
        raise FormatError(f"expected {nlines} line rows, got {len(body)}")
    structure_lines = []
    for i, ln in enumerate(body, start=3):
        try:
            pts = [int(p) for p in ln.split()]
        except ValueError:
            raise FormatError(f"line {i}: non-integer point id in {ln!r}") from None
        if pts != sorted(set(pts)):
            raise FormatError(f"line {i}: point ids must be strictly increasing")
        structure_lines.append(pts)
    try:
        return IncidenceStructure(points, structure_lines, s, t)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
