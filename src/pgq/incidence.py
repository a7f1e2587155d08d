"""Generalized-quadrangle incidence structures.

A GQ(s,t) is a point-line geometry in which every line has s+1 points,
every point is on t+1 lines, two points share at most one line, two lines
share at most one point, and for every non-incident point-line pair (p, L)
exactly one point of L is collinear with p.

The central operation here is extraction: a graph is the collinearity
graph of a GQ(s,t) exactly when its local clique partitions succeed
everywhere and the lines they give pass graph._gq_rows, the check
that lines form a GQ that collinearity_graph makes too; then the lines
are the (s+1)-cliques obtained from those partitions, and the srg
parameters of g follow with no srg check.
Otherwise, for an srg with PGQ-form parameters, a vertex has claw number
t+1 exactly when its local partition succeeds (Caro-Wei), so the first
vertex whose partition failed is the pseudo-GQ witness, and its claw
number is the one coclique search an extraction runs.

Also provides the test-corpus generators (rook's graphs, complete
bipartite graphs, the disjoint-pairs graph on a 6-set, the symplectic
generalized quadrangle over GF(3), and the Shrikhande graph).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product
from math import isqrt

from .graph import (MAX_PGQGRAPH_VERTICES, Graph, _bits, _body_line, _coclique_claw, _gq_params, _gq_rows,
                    _gq_walked, _line_rows, _refused_field)
from .params import GQParams, _check_int


class IncidenceStructure(namedtuple("IncidenceStructure", "points lines s t")):
    """Points 0..points-1 plus lines (sorted point tuples), with the
    declared orders (s, t).  Construction normalizes the lines and checks
    that their point ids are ints in range; the geometric axioms are
    checked by verify_axioms.  extract_gq and dual, whose proofs make
    their records valid and normalized, build them with _make, which
    checks nothing, as Graph._from_rows does for rows."""

    __slots__ = ()

    def __new__(cls, points: int, lines, s: int, t: int):
        if not isinstance(points, int) or isinstance(points, bool) or points < 1:
            raise ValueError(f"point count must be a positive integer, got {points!r}")
        _check_int("s", s)
        _check_int("t", t)
        if s < 1 or t < 1:
            raise ValueError(f"require s >= 1 and t >= 1, got ({s}, {t})")
        norm = []
        for i, line in enumerate(lines):
            pts = tuple(line)
            if not set(map(type, pts)) <= {int}:  # refuses bool and float ids
                raise ValueError(f"line #{i} mentions a point that is not an integer")
            pts = tuple(sorted(pts))
            if len(set(pts)) != len(pts):
                raise ValueError(f"line #{i} repeats a point")
            if pts and not (0 <= pts[0] and pts[-1] < points):
                raise ValueError(f"line #{i} mentions a point out of range")
            norm.append(pts)
        return super().__new__(cls, points, tuple(norm), s, t)


class AxiomCheck(namedtuple("AxiomCheck", "ok axiom witness", defaults=(None, None))):
    """Axiom verdict ok (bool); on failure, axiom is "i", "ii" or "iii"
    and the witness (str) pinpoints the first violating object in
    lexicographic order.  axiom and witness default to None."""

    __slots__ = ()


class ExtractionResult(namedtuple("ExtractionResult", "structure witness_vertex witness_claw reason",
                                  defaults=(None, None, None))):
    """Either the extracted IncidenceStructure structure, or None and
    pseudo-GQ evidence: a witness_vertex (int) whose claw number
    witness_claw (int) exceeds t+1, and the reason (str).  The last
    three default to None."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.structure is not None


def verify_axioms(inc: IncidenceStructure) -> AxiomCheck:
    """Check GQ axioms in order: line size / line pairs (i), point degree
    (ii), then the unique-collinear-point axiom (iii).

    The checks are indexed by point: through[p] is the bitmask of the
    lines through p.  Line i meets another line twice exactly when that
    line is in the masks of two points of line i; met[i] is their union.
    Once (i) holds, the points of line i other than p meet the lines of
    met[i] not through p, each once, so (iii) takes one mask per line
    through p.  Each check reports the first violation of the pairwise
    loops (tests/oracles.py): the lowest line pair, then the lowest
    (point, line).  The work is bounded by the incidences, not by the
    declared point count: the degree scan stops at the first point no
    line mentions.
    """
    s, t = inc.s, inc.t
    for i, line in enumerate(inc.lines):
        if len(line) != s + 1:
            return AxiomCheck(False, "i", f"line #{i} has {len(line)} points, expected s+1={s + 1}")
    through: dict[int, int] = {}
    for i, line in enumerate(inc.lines):
        for p in line:
            through[p] = through.get(p, 0) | 1 << i
    met = []
    for i, line in enumerate(inc.lines):
        seen = twice = 0
        for p in line:
            twice |= seen & through[p]
            seen |= through[p]
        twice >>= i + 1  # a pair with an earlier line was reported at its turn
        if twice:
            j = i + (twice & -twice).bit_length()
            return AxiomCheck(False, "i", f"lines #{i} and #{j} share more than one point")
        met.append(seen)
    for p in range(inc.points):
        degree = through.get(p, 0).bit_count()
        if degree != t + 1:
            return AxiomCheck(False, "ii", f"point {p} lies on {degree} lines, expected t+1={t + 1}")
    # No point-pair pass for (ii): two points on two common lines would
    # make those lines share two points, which (i) has already rejected.
    # For the same reason each point collinear with p is on exactly one
    # line through p, so the walk below sees each such point once.
    all_lines = (1 << len(inc.lines)) - 1
    for p in range(inc.points):
        own = through[p]
        seen = twice = 0
        for i in _bits(own):
            other = met[i] & ~own
            twice |= seen & other
            seen |= other
        bad = twice | (all_lines & ~own & ~seen)
        if bad:
            i = (bad & -bad).bit_length() - 1
            hits = sum(1 for q in inc.lines[i] if through[q] & own)
            return AxiomCheck(
                False, "iii",
                f"point {p} is collinear with {hits} points of line #{i}, expected exactly 1",
            )
    return AxiomCheck(True)


def extract_gq(g: Graph, p: GQParams | None = None) -> ExtractionResult:
    """Extract the GQ underlying g, or report pseudo-GQ evidence.

    The cover walks are tried first (graph._gq_walked): where they prove
    g a GQ(s,t), with (s, t) = p if p is given, its lines are returned,
    each gathered once at its lowest point, with no srg check.  The
    result is a GQ by that proof, so it is not checked, and its record
    is built with _make: the lines are tuples of points 0..n-1 with no
    repeat, each ascending and all in sorted order (see _gq_walked);
    n = (s+1)(st+1) >= 1; and s and t are ints >= 1.

    Otherwise g must pass verify_srg with derive_srg(p), where p None
    stands for the (s, t) of g's srg parameters (ValueError otherwise,
    see graph._gq_params).  Then g passes the checks _gq_walked makes
    before its walks, and where every walk succeeds it passes
    graph._gq_rows too.  By lam = s-1, the one s-clique of N(a) through
    a neighbor b is {b} + common(a, b), so it is the mask of a through b,
    and an (s+1)-clique K through a is a with the mask of a through any
    other point of K.  So the lines through a are a with its t+1 masks,
    each line has s+1 points, and there are n(t+1)/(s+1) = (st+1)(t+1)
    of them; and no vertex outside a line K is adjacent to two of its
    points a, b, as common(a, b) = K - {a, b}, so the rows of K cover all
    n.  So the walks stopped at a vertex x whose walk failed, having
    walked each vertex up to x once.  Each local graph is (s-1)-regular
    on s(t+1) vertices, so by Caro-Wei its claw number is at least t+1,
    with equality iff it splits into t+1 disjoint s-cliques, which is
    when the walk succeeds.  So x is the smallest vertex with claw
    number above t+1, with no check, and is returned as the witness,
    with its claw number from one coclique search over N(x), the only
    one.
    """
    q, found = _gq_walked(g, p)
    if q is not None:
        return ExtractionResult(IncidenceStructure._make((g.n, tuple(found), q.s, q.t)))
    t = _gq_params(g, p).t
    phi = _coclique_claw(g, found)
    return ExtractionResult(
        None, found, phi, f"pseudo-GQ evidence: claw number {phi} > t+1 = {t + 1} at vertex {found}",
    )


def _require_gq(inc: IncidenceStructure, operation: str) -> None:
    """Refuse an inc that fails verify_axioms, naming the operation."""
    check = verify_axioms(inc)
    if not check.ok:
        raise ValueError(f"{operation} requires a verified GQ; axiom ({check.axiom}): {check.witness}")


def dual(inc: IncidenceStructure) -> IncidenceStructure:
    """Swap points and lines; a GQ(s,t) dualizes to a GQ(t,s).

    The input is verified (ValueError otherwise).  The output needs no
    check: the axioms are self-dual, (i) and (ii) swap and (iii) is fixed.
    Nor does its record, built with _make: dual line p holds the indices
    i of the lines through p, each once (line i names p once), appended
    in ascending i and in range; there is at least one line, as by (ii)
    t+1 >= 2 lines pass through point 0; and t, s are inc's orders.
    """
    _require_gq(inc, "dual")
    new_lines = [[] for _ in range(inc.points)]
    for i, line in enumerate(inc.lines):
        for p in line:
            new_lines[p].append(i)
    return IncidenceStructure._make((len(inc.lines), tuple(map(tuple, new_lines)), inc.t, inc.s))


def collinearity_graph(inc: IncidenceStructure) -> Graph:
    """Graph on the points, adjacent iff they share a line.  The input is
    verified (ValueError otherwise).  Where there are at least as many
    lines as points (for a GQ, s <= t), graph._gq_rows accepts a GQ with
    the rows it built; where it refuses, so does verify_axioms, by its
    claim, and names the first violation.  With fewer lines than points,
    n rows of n bits built only to be refused would cost more than
    verify_axioms' masks of one bit per line, so it decides first, and
    the rows are built after it accepts."""
    n = inc.points
    rows = _gq_rows(n, inc.lines, inc.s, inc.t) if len(inc.lines) >= n else None
    if rows is None:
        _require_gq(inc, "collinearity graph")
        rows = _line_rows(n, inc.lines)
    return Graph._from_rows(n, rows)


# ---------------------------------------------------------------------------
# Test-corpus generators
# ---------------------------------------------------------------------------

def _require_m(m, largest: int) -> None:
    """Refuse an m outside [2, largest], where largest is the last m whose
    graph fits the MAX_PGQGRAPH_VERTICES of a pgqgraph file."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"require integer m >= 2, got {m!r}")
    if m > largest:
        raise ValueError(
            f"require m <= {largest}, got {m}: a pgqgraph holds at most {MAX_PGQGRAPH_VERTICES} vertices"
        )


def gen_rook(m: int) -> Graph:
    """m x m rook's graph: cells adjacent iff same row or column.
    Collinearity graph of the trivial GQ(m-1, 1).

    Cell i*m + j is adjacent to the rest of row line i and column line j.
    m is at most 1024, so that the m^2 vertices fit a pgqgraph file; the
    rows take m^4/8 bytes (32 MiB at m = 128, 128 GiB at m = 1024).
    """
    _require_m(m, isqrt(MAX_PGQGRAPH_VERTICES))
    row_line = (1 << m) - 1
    column_line = sum(1 << i * m for i in range(m))
    return Graph._from_rows(m * m, [
        (row_line << i * m | column_line << j) ^ 1 << i * m + j for i in range(m) for j in range(m)
    ])


def gen_complete_bipartite(m: int) -> Graph:
    """K_{m,m} on parts {0..m-1} and {m..2m-1}: the trivial GQ(1, m-1).

    Each vertex is adjacent to the whole other part.  m is at most 2^19,
    so that the 2m vertices fit a pgqgraph file; its pgqgraph has m^2 edge
    lines (2^38 at m = 2^19).
    """
    _require_m(m, MAX_PGQGRAPH_VERTICES // 2)
    left = (1 << m) - 1
    return Graph._from_rows(2 * m, [left << m] * m + [left] * m)


def gen_kneser_6_2() -> Graph:
    """Disjointness graph on the 15 unordered pairs of a 6-set: srg(15,6,1,3),
    the collinearity graph of GQ(2,2) (lines = perfect matchings)."""
    pairs = combinations(enumerate(combinations(range(6), 2)), 2)
    return Graph(15, [(i, j) for (i, a), (j, b) in pairs if not set(a) & set(b)])


def gen_symplectic_w3() -> Graph:
    """Collinearity graph of the symplectic GQ(3,3): the 40 projective
    points of GF(3)^4, adjacent iff distinct and orthogonal under the
    alternating form x0*y1 - x1*y0 + x2*y3 - x3*y2.

    Projective points are canonicalized by scaling the first nonzero
    coordinate to 1, enumerated in lexicographic order: (3^4 - 1)/2 = 40
    of them.  Expected srg(40, 12, 2, 4).
    """
    points = [v for v in product(range(3), repeat=4) if next((c for c in v if c), 0) == 1]
    pairs = combinations(enumerate(points), 2)
    return Graph(40, [
        (i, j) for (i, x), (j, y) in pairs
        if (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % 3 == 0
    ])


def gen_shrikhande() -> Graph:
    """Shrikhande graph: Cayley graph on Z4 x Z4 with connection set
    {+-(1,0), +-(0,1), +-(1,1)}.  Shares srg(16,6,2,2) with the 4x4 rook's
    graph but is not a GQ collinearity graph (every claw number is 3)."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    pairs = combinations(range(16), 2)
    return Graph(16, [
        (a, b) for a, b in pairs if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in conn
    ])


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
        raise ValueError(f"missing '{PGQINC_HEADER}' header")
    if len(lines) < 2:
        raise ValueError("missing counts line")
    parts = lines[1].split()
    if len(parts) != 4:
        raise ValueError(f"line 2: expected 'points lines s t', got {lines[1]!r}")
    try:
        points, nlines, s, t = (int(p) for p in parts)
    except ValueError:
        raise ValueError(_refused_field(lines[1], 2, "non-integer field")) from None
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != nlines:
        raise ValueError(f"expected {nlines} line rows, got {len(body)}")
    structure_lines = []
    for i, ln in enumerate(body):
        try:
            pts = [int(p) for p in ln.split()]
        except ValueError:
            raise ValueError(_refused_field(ln, _body_line(lines, i), "non-integer point id")) from None
        if pts != sorted(set(pts)):
            raise ValueError(f"line {_body_line(lines, i)}: point ids must be strictly increasing")
        structure_lines.append(pts)
    return IncidenceStructure(points, structure_lines, s, t)
