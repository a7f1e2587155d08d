"""Concrete-graph machinery: strongly-regular verification, claw numbers
and the local clique partition behind them.

Graphs are immutable, with one integer bitmask per adjacency row, so all
neighborhood algebra (common neighbors, induced subgraphs, independence
tests) is bitwise.  The claw number of a vertex x is the maximum size of
a coclique among the neighbors of x.  One greedy cover walk of N(x)
settles it whenever every candidate set the walk takes is a clique
(always, in a GQ collinearity graph); only where the walk fails is it
computed by exact branch and bound over the graph's own rows restricted
to N(x), whose worst case is exponential in the k neighbors of x.  The
walks of all vertices serve two readers: claw_numbers, and _gq_walked,
which proves g a GQ from its walks alone, with no srg check and no
coclique search.  Where that proof fails, the (s, t) of a graph is
checked in one place, _gq_params, by one verify_srg pass.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import reduce
from itertools import compress
from operator import lt, or_

from .params import GQParams, SrgParams, derive_srg, identify_gq_form


def _bits(mask: int):
    """Yield set-bit positions of mask, ascending.

    Read backwards, bin(mask) holds bit i at index i, and str.find steps
    from one set bit to the next: one pass over the mask in all, where
    mask & -mask would take a pass over the whole mask per set bit."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
        rows = [0] * n
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)) or bool in (type(u), type(v)):
                raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n, self._rows = n, tuple(rows)

    @classmethod
    def _from_rows(cls, n: int, rows) -> "Graph":
        """A graph on rows already known to be symmetric, loop-free and in range."""
        g = cls.__new__(cls)
        g.n, g._rows = n, tuple(rows)
        return g

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
        return [(u, u + 1 + i) for u, r in enumerate(self._rows) for i in _bits(r >> (u + 1))]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class SrgCheck(namedtuple("SrgCheck", "params failure", defaults=(None,))):
    """Result of verify_srg: either the SrgParams params, or None and the
    first failure (str); failure defaults to None."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.params is not None


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


_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _digits(mask: int) -> bytes:
    """Byte i is bit i of mask, for i below its bit length."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)


def verify_srg(g: Graph) -> SrgCheck:
    """Check that g is strongly regular: connected, non-complete,
    k-regular, with constant lam over adjacent pairs and constant mu over
    non-adjacent pairs.  On failure the witness names the first violation
    in the lexicographic order of the pairs (u, v), u < v.

    lam is read from vertex 0 and its first neighbor, mu from vertex 0
    and its first non-neighbor, and both exist: a connected graph on
    n >= 2 vertices has an edge, so the regular vertex 0 has k >= 1
    neighbors, and a regular graph that is not complete has k < n-1.
    (n = 1 is the complete graph K1.)  Vertex 0's pairs come first in
    pair order, so these are the first adjacent and the first
    non-adjacent pair, and the first violating pair and its text are
    those of a pairwise loop that takes each value from the first pair
    of its kind (tests/oracles.py::srg_oracle).

    The pairs are counted one row of A^2 at a time.  The spread of a
    vertex set S is the integer whose field v is 1 if v is in S, else 0,
    with fields w bytes wide, where k < 256^w.  Row u of A^2, whose field
    v is the number of common neighbors of u and v (k at v = u), is the
    sum of the spreads of u's neighbors.  The expected row is
    mu*J + (lam - mu)*spread(N(u)) + (k - mu)*e_u, with J the spread of
    all n vertices and e_u the unit at field u: mu, lam or k in each
    field.  No field of either exceeds k < 256^w, so no sum carries and
    the fields of each integer are its digits in base 256^w: the two are
    equal exactly when every field is.  Otherwise the lowest set bit of
    their XOR lies in the lowest differing field v, and v > u: field u
    is k by regularity, and a field v < u is the count of the pair
    (v, u), which is symmetric and passed at row v.  So the first failing
    row u and its lowest bad field v are the first violating pair, with
    the same count and the same expected value.

    A spread is built the first time a row needs it, so a pass that
    fails at row u holds the spreads of 0..u and their neighbors only;
    one that succeeds holds n of n*w bytes each."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    k = g.degree(0)
    for v in range(n):
        d = g.degree(v)
        if d != k:
            return SrgCheck(None, f"not regular: deg({v})={d} but deg(0)={k}")
    if k == n - 1:
        return SrgCheck(None, "complete graph")
    if not _connected(g):
        return SrgCheck(None, "not connected")
    rows = g._rows
    r0 = rows[0]
    lam = (r0 & rows[(r0 & -r0).bit_length() - 1]).bit_count()
    non = ~r0 & ((1 << n) - 2)  # the non-neighbors of vertex 0
    mu = (r0 & rows[(non & -non).bit_length() - 1]).bit_count()

    w = (k.bit_length() + 7) // 8
    bits = 8 * w

    def spread(mask: int) -> int:
        digits = _digits(mask)
        if w > 1:
            fields = bytearray(w * len(digits))
            fields[::w] = digits
            digits = fields
        return int.from_bytes(digits, "little")

    base = mu * spread((1 << n) - 1)
    spreads = [0] * n
    seen = 0
    for u, ru in enumerate(rows):
        missing = (ru | 1 << u) & ~seen
        for v in _bits(missing):
            spreads[v] = spread(rows[v])
        seen |= missing
        counts = sum(compress(spreads, _digits(ru)))
        diff = counts ^ (base + (lam - mu) * spreads[u] + ((k - mu) << bits * u))
        if diff:
            v = ((diff & -diff).bit_length() - 1) // bits
            c = counts >> bits * v & ((1 << bits) - 1)
            kind, expected = ("adjacent", lam) if ru >> v & 1 else ("non-adjacent", mu)
            return SrgCheck(None, f"{kind} pair ({u}, {v}) has {c} common neighbors, expected {expected}")
    return SrgCheck(SrgParams(n, k, lam, mu))


def _max_coclique_size(rows: tuple[int, ...], cand: int) -> int:
    """Exact maximum coclique size among the vertices of cand.

    Branch and bound with greedy clique-cover bounds: candidates are split
    into cliques, each grown greedily from its lowest vertex; a coclique
    takes at most one vertex per clique, so a vertex's clique index bounds
    any coclique extending through it.  Taking v leaves the candidates not
    adjacent to v.  The search keeps one frame
    [cand_mask, size, order, bounds, i] per level on an explicit stack,
    so a coclique of any size is found without deep recursion.
    """
    best = 0
    stack: list[list] = []
    cand_mask, size = cand, 0
    while True:
        if not cand_mask:
            best = max(best, size)
        else:
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
                    avail &= rows[v]
                    uncolored ^= lsb
                    order.append(v)
                    bounds.append(color)
            stack.append([cand_mask, size, order, bounds, len(order) - 1])
        while stack:
            frame = stack[-1]
            cand_mask, size, order, bounds, i = frame
            if i < 0 or size + bounds[i] <= best:
                stack.pop()
                continue
            v = order[i]
            frame[0], frame[4] = cand_mask & ~(1 << v), i - 1
            cand_mask, size = cand_mask & ~(rows[v] | 1 << v), size + 1
            break
        else:
            return best


def _is_clique(rows: tuple[int, ...], mask: int) -> bool:
    for v in _bits(mask):
        if mask & ~(rows[v] | (1 << v)):
            return False
    return True


def _partition_local(g: Graph, x: int, known: set):
    """Cover the local graph at x by cliques, one candidate set
    {y} + common(x, y) at a time, always for the lowest neighbor y not yet
    covered.  Returns the masks, or None at the first y whose candidate
    set is not a clique.

    On success, for any graph, the number m of masks is the claw number
    of x.  Each y taken lies outside the candidate sets taken before it,
    and the candidate set of y' is y' with all its neighbors inside N(x);
    so no two ys taken are adjacent, and they form a coclique of size m.
    The m masks are cliques covering N(x), and a coclique meets each
    clique at most once, so no coclique is larger than m.

    In an srg with PGQ(s,t) parameters, lam = s-1 decides everything but
    the clique test:

    - every candidate set has 1 + lam = s vertices;
    - an s-clique inside N(x) containing z has its other s-1 members in
      common(x, z), which has exactly s-1 vertices, so it is z's candidate
      set.  Candidate sets that are cliques therefore coincide or are
      disjoint, and a covered neighbor's candidate is the clique covering it;
    - so the walk fails first at the smallest y whose candidate set is not
      a clique, and on success the masks are t+1 disjoint s-cliques
      covering the k = s(t+1) neighbors.

    known is the set of vertex masks that the walks of one operation on g
    share.  The walk adds each {x} + cand that passes, keyed by that exact
    vertex set: cand is a clique iff it is, as x is adjacent to all of
    cand.  In a GQ it is a line, tested once instead of once from each of
    its points.
    """
    rows = g._rows
    rx = rows[x]
    masks: list[int] = []
    uncovered = rx
    while uncovered:
        y = (uncovered & -uncovered).bit_length() - 1
        cand = (rx & rows[y]) | (1 << y)
        key = cand | 1 << x
        if key not in known:
            if not _is_clique(rows, cand):
                return None
            known.add(key)
        masks.append(cand)
        uncovered &= ~cand
    return masks


def _coclique_claw(g: Graph, x: int) -> int:
    """The claw number of x from one coclique search over N(x), for a
    vertex whose cover walk failed."""
    return _max_coclique_size(g._rows, g._rows[x])


def claw_numbers(g: Graph) -> tuple[int, ...]:
    """The claw numbers of g, indexed by vertex: that of x is the largest
    r such that x centers an induced r-claw, i.e. the maximum coclique
    size among the neighbors of x.  ValueError for the empty graph.

    The walks of all vertices share one set of known cliques, created
    here and dropped on return; the claw number of x is the number of
    masks of its walk, or where the walk fails one coclique search."""
    if g.n == 0:
        raise ValueError("empty graph")
    known: set[int] = set()
    walks = (_partition_local(g, x, known) for x in range(g.n))
    return tuple(_coclique_claw(g, x) if masks is None else len(masks) for x, masks in enumerate(walks))


def _line_rows(n: int, lines) -> list[int]:
    """The rows of the points 0..n-1 by the lines: the row of p is the
    union of the lines through p, less p."""
    rows = [0] * n
    for line in lines:
        mask = sum(1 << p for p in line)
        for p in line:
            rows[p] |= mask ^ 1 << p
    return rows


def _gq_rows(n: int, lines, s: int, t: int, rows=None):
    """The collinearity rows of lines where they are the lines of a
    GQ(s,t) on the points 0..n-1, else None.  _gq_walked decides here,
    and so does collinearity_graph where there are at least as many
    lines as points; verify_axioms' search decides everything else and
    names every violation.  Each line holds distinct points of 0..n-1.
    rows, if given, are the rows of a graph of which every line is a
    clique, and the lines are distinct; by default they are
    _line_rows(n, lines).  The checks, in order:

    - n = (s+1)(st+1);
    - there are (st+1)(t+1) lines;
    - every line has s+1 points (only then are the default rows built,
      so no row is allocated for a count the lines do not bear out);
    - every row has k = s(t+1) bits;
    - for every line, the rows of its points OR to all n points.

    Claim: where they pass, the lines are those of a GQ(s,t), each once,
    and rows is its collinearity graph; and every GQ(s,t) passes.

    Proof.  A line K is a clique of s+1 points, each with s neighbors in
    K and k-s outside, so the rows of K cover K and at most
    (s+1)(k-s) = n-(s+1) points off it: covering all n, each point off K
    is adjacent to exactly one point of K.  So two lines that differ
    share at most one point, as a point of one off the other would be
    adjacent to two of its points, and the lines that differ are
    edge-disjoint cliques.  The rows hold nk/2 = |L|s(s+1)/2 edges.
    With the lines distinct, those cliques hold |L|s(s+1)/2 edges, so
    every edge; with the default rows every edge is in a line, so the
    cliques hold all |L|s(s+1)/2 edges, and no line repeats.  Either
    way every edge lies in exactly one line, so adjacency is
    collinearity, and the lines through a point split its k = s(t+1)
    neighbors into s-sets: t+1 lines through each point.  That is
    axioms (i) and (ii), and a point off a line is collinear with exactly
    one of its points, axiom (iii).  Conversely a GQ(s,t) has
    (s+1)(st+1) points and (st+1)(t+1) lines, each point is collinear
    with s(t+1) others, and by (iii) the rows of a line cover every
    point (Payne and Thas, Finite Generalized Quadrangles, 1.2.1); its
    collinearity graph is srg(derive_srg((s, t))) (ibid., ch. 1).
    """
    if n != (s + 1) * (s * t + 1) or len(lines) != (s * t + 1) * (t + 1) or any(len(ln) != s + 1 for ln in lines):
        return None
    rows = _line_rows(n, lines) if rows is None else rows
    regular = set(map(int.bit_count, rows)) == {s * (t + 1)}
    return rows if regular and all(reduce(or_, [rows[p] for p in ln]).bit_count() == n for ln in lines) else None


def _gq_walked(g: Graph, p: GQParams | None = None):
    """Prove g the collinearity graph of a GQ(s,t) from its cover walks,
    with no srg check and no coclique search.

    Returns (GQParams(s, t), lines) where every check below passes, the
    lines as extract_gq returns them; otherwise (None, x), where x
    counts the vertices, from 0, whose walks passed: the vertex whose walk
    failed, 0 where a check before the walks failed, or n where the last
    check failed.  The checks, in order:

    - g is k-regular, with k >= 1;
    - s is 1 + |common(0, y)| for the lowest neighbor y of vertex 0 (the
      size of vertex 0's first mask), t = k/s - 1 is an integer >= 1,
      n = (s+1)(st+1), and p, if given, is (s, t);
    - the walk at every vertex succeeds, all walks sharing one set of
      known cliques, whose members {x} + mask are the keys;
    - _gq_rows holds for g's rows and the lines, x with each mask of x
      that has no vertex below x.

    Each line is a key, so a clique of g, and no two lines are the same
    (their lowest points differ, or at one x their masks do, as each
    takes a vertex the ones before it did not cover).  So by the claim of
    _gq_rows, g is the collinearity graph of a GQ(s,t), so
    srg(derive_srg((s, t))), and the lines returned are its lines, each
    once, as extract_gq returns them.

    They come out sorted, with no sort.  A line is x, then the vertices
    of a mask of x with none below x, ascending.  The lines come in
    order of x, and at one x in the order their masks were taken, which
    is the order of the y that opened each: y is the lowest vertex of
    its mask, as the masks of x are disjoint and each y is the lowest
    vertex not covered before.  So two lines differ first at x, or at
    one x at their second points, the ys, in order.
    """
    n, rows = g.n, g._rows
    k = rows[0].bit_count() if n else 0
    if not k or set(map(int.bit_count, rows)) != {k}:
        return None, 0
    r0 = rows[0]
    s = (r0 & rows[(r0 & -r0).bit_length() - 1]).bit_count() + 1
    t = k // s - 1
    if k % s or t < 1 or n != (s + 1) * (s * t + 1) or p is not None and p != (s, t):
        return None, 0
    known: set[int] = set()
    lines: list[tuple[int, ...]] = []
    for x in range(n):
        masks = _partition_local(g, x, known)
        if masks is None:
            return None, x
        below = (1 << x) - 1
        lines.extend((x, *_bits(mask)) for mask in masks if not mask & below)
    if _gq_rows(n, lines, s, t, rows) is None:
        return None, n
    return GQParams(s, t), lines


def _gq_params(g: Graph, p: GQParams | None = None) -> GQParams:
    """The (s, t) of g, from one verify_srg pass: p, if g has its srg
    parameters derive_srg(p), or with p None the (s, t) identify_gq_form
    finds.  ValueError if g is not strongly regular, or its parameters do
    not match p, or (with p None) are not of PGQ form."""
    check = verify_srg(g)
    if not check.ok:
        raise ValueError(f"graph is not strongly regular: {check.failure}")
    if p is None:
        p = identify_gq_form(check.params)
        if p is None:
            raise ValueError(
                f"srg{tuple(check.params)} is not of (P)GQ form; pass --s and --t explicitly"
            )
    elif check.params != derive_srg(p):
        raise ValueError(
            f"graph is srg{tuple(check.params)} but (s={p.s}, t={p.t}) "
            f"requires srg{tuple(derive_srg(p))}"
        )
    return p


# ---------------------------------------------------------------------------
# pgqgraph v1 file format
#
#   pgqgraph 1
#   <n> <m>          (n <= 2^20)
#   <u> <v>          (m lines, 0 <= u < v < n)
# ---------------------------------------------------------------------------

PGQGRAPH_HEADER = "pgqgraph 1"
MAX_PGQGRAPH_VERTICES = 1 << 20


def write_pgqgraph(g: Graph) -> str:
    """Serialize in pgqgraph v1 form; edges sorted, newline-terminated.
    Each row u writes its edges (u, v), v > u, as one string, picking the
    names of the vertices above u by the bits of the row above u."""
    names = list(map(str, range(g.n)))
    out = [f"{PGQGRAPH_HEADER}\n{g.n} {g.edge_count}\n"]
    for u, r in enumerate(g._rows):
        higher = r >> (u + 1)
        if higher:
            out.append(f"{u} " + f"\n{u} ".join(compress(names[u + 1:], _digits(higher))) + "\n")
    return "".join(out)


def _body_line(lines: list[str], i: int) -> int:
    """The file line number of body line i (from 0), where the body is
    the non-blank lines after the first two.  Parsers call it only to
    report an error, so a well-formed file never pays for it."""
    return [n for n, ln in enumerate(lines[2:], start=3) if ln.strip()][i]


def _not_two_ints(line: str, lineno: int) -> str:
    parts = line.split()
    if len(parts) != 2:
        return f"line {lineno}: expected 2 fields, got {len(parts)}"
    return _refused_field(line, lineno, "non-integer field")


def _refused_field(line: str, lineno: int, what: str) -> str:
    """The message for a line with a field int() refuses: what, then the
    line quoted; or, where a field is longer than Python's limit on the
    digits int() converts (sys.get_int_max_str_digits(), 4300 by
    default; none before it exists), that limit, and not the line."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < max(map(len, line.split())):
        return f"line {lineno}: field longer than the {limit}-digit limit"
    return f"line {lineno}: {what} in {line!r}"


_DELETE_DIGITS = str.maketrans("", "", "0123456789")
_CHUNK = 1 << 13  # characters of edge lines whose fields are held at once


def parse_pgqgraph(text: str) -> Graph:
    """Parse pgqgraph v1; strict about header, counts, ordering and range.

    The vertex count is capped at MAX_PGQGRAPH_VERTICES (2^20), since
    one adjacency row is allocated per declared vertex.  Text laid out
    as write_pgqgraph writes it is parsed in bulk (_parse_canonical);
    any other text, and any text with an error, goes through the loop
    over its lines (_parse_lines), which reports the error.
    """
    try:
        g = _parse_canonical(text)
    except ValueError:  # a line of one field, or one longer than int() converts
        g = None
    return g if g is not None else _parse_lines(text)


def _parse_canonical(text: str) -> Graph | None:
    """The graph of text, if after the header line every line is two
    fields of ASCII digits split by one space and ended by a newline,
    and they name a valid graph; else None.

    The check is that, with the digits deleted, the lines leave one
    space and one newline each; so no blank or other line break is left,
    the lines are the ones _parse_lines reads, and each has at most two
    fields, the ints it reads.  Where every check below passes, it would
    build the same rows without an error: the count line has two fields
    (unpacking them raises ValueError otherwise) and m + 1 lines after
    it, the edges have u < v (and u >= 0 with no sign) and v < n, and
    the rows hold 2m bits.  That rules out a repeated edge, and an edge
    line with an empty field too: it would leave fewer than 2m fields,
    so fewer than m pairs (range-checked, if they straddle lines) to set
    bits.  Each check is a C-level pass, over the edge lines _CHUNK
    characters at a time, so a large file's fields are never all held
    at once.

    Fields are converted by looking their text up in a table of the n
    vertex names, which is faster than int(); a chunk with a field not
    in it (leading zeros, or a value of n or more) is converted again by
    int().  The table takes about 140 bytes a vertex, so it is built only
    where 16n <= m: then it takes at most about 9 bytes per edge line,
    against at least 4 characters of text each, and never more memory
    than a few copies of the text, which parsing holds anyway.  Otherwise
    every field goes through int().
    """
    head = PGQGRAPH_HEADER + "\n"
    if not text.startswith(head):
        return None
    rest = text[len(head):]
    layout = rest.translate(_DELETE_DIGITS)
    lines = len(layout) // 2
    if not lines or layout != " \n" * lines:
        return None
    start = rest.index("\n") + 1
    n, m = map(int, rest[:start].split())
    if m != lines - 1 or n > MAX_PGQGRAPH_VERTICES:
        return None
    rows = [0] * n
    vertex = {str(v): v for v in range(n)}.__getitem__ if 16 * n <= m else int
    while start < len(rest):
        stop = rest.find("\n", start + _CHUNK) + 1 or len(rest)
        words = rest[start:stop].split()
        try:
            fields = list(map(vertex, words))
        except KeyError:  # a field with leading zeros, or one >= n
            fields = list(map(int, words))
        us, vs = fields[::2], fields[1::2]
        if max(vs) >= n or not all(map(lt, us, vs)):
            return None
        for u, v in zip(us, vs):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        start = stop
    return Graph._from_rows(n, rows) if sum(map(int.bit_count, rows)) == 2 * m else None


def _parse_lines(text: str) -> Graph:
    """parse_pgqgraph, one line at a time.  One pass checks the syntax of
    every edge line (field count, integer fields, u < v) and builds the
    rows, noting only whether an edge is out of range or repeated.  If
    one is, Graph(n, edges) is built from the same edges in the same
    order: it refuses exactly those edges, so its error is the first such
    edge's, worded by Graph alone."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != PGQGRAPH_HEADER:
        raise ValueError(f"missing '{PGQGRAPH_HEADER}' header")
    if len(lines) < 2:
        raise ValueError("missing vertex/edge count line")
    try:
        n, m = map(int, lines[1].split())
    except ValueError:
        raise ValueError(_not_two_ints(lines[1], 2)) from None
    if n < 0 or m < 0:
        raise ValueError("negative vertex or edge count")
    if n > MAX_PGQGRAPH_VERTICES:
        raise ValueError(f"line 2: vertex count {n} is too large")
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, got {len(body)}")
    rows = [0] * n
    bad = False  # an edge out of range or repeated
    for i, ln in enumerate(body):
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(_not_two_ints(ln, _body_line(lines, i))) from None
        if not u < v:
            raise ValueError(f"line {_body_line(lines, i)}: require u < v, got {u} {v}")
        if u < 0 or v >= n or rows[u] >> v & 1:
            bad = True
        else:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    if bad:
        return Graph(n, (map(int, ln.split()) for ln in body))
    return Graph._from_rows(n, rows)
