"""Graph kernel: construction, file format, SRG verification, claw
numbers and local clique partitions, plus the RR^T = A + D cover oracle."""

import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pgq.graph import (
    Graph,
    _gq_params,
    _partition_local,
    _max_coclique_size,
    _parse_lines,
    claw_numbers,
    parse_pgqgraph,
    verify_srg,
    write_pgqgraph,
)
from pgq.incidence import (
    extract_gq,
    gen_complete_bipartite,
    gen_kneser_6_2,
    gen_rook,
    gen_shrikhande,
    gen_symplectic_w3,
)
from pgq.params import GQParams

from oracles import (
    LONG_ZEROS,
    branching_max_coclique,
    brute_max_coclique,
    clique_cover_oracle,
    edge_set,
    local_coclique_oracle,
    local_partition_oracle,
    parse_pgqgraph_oracle,
    relabel,
    srg_oracle,
    symplectic_graph,
    text_id,
)
from strategies import NOISE, mutated_lines


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


ALL_GENERATORS = [
    ("kneser", gen_kneser_6_2(), GQParams(2, 2)),
    ("rook4", gen_rook(4), GQParams(3, 1)),
    ("bipartite3", gen_complete_bipartite(3), GQParams(1, 2)),
    ("w3", gen_symplectic_w3(), GQParams(3, 3)),
    ("shrikhande", gen_shrikhande(), GQParams(3, 1)),
]


# ---------------------------------------------------------------------------
# Construction and format
# ---------------------------------------------------------------------------

def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    for edges in ([(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 0), (1, 0)]):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(3, edges)
    with pytest.raises(ValueError):
        Graph(-1, [])


@pytest.mark.parametrize("edges,shown", [
    ([(True, 2), (False, True)], "(True, 2)"),
    ([(0, 1), (2, False)], "(2, False)"),
    ([(0, 1.0)], "(0, 1.0)"),
], ids=["bools", "bool-v", "float"])
def test_graph_refuses_endpoints_that_are_not_ints(edges, shown):
    # True and False would be read as vertices 1 and 0, as GQParams and
    # IncidenceStructure would not read them.
    with pytest.raises(ValueError) as exc:
        Graph(3, edges)
    assert str(exc.value) == f"edge endpoints must be integers, got {shown}"


def test_graph_symmetry_and_counts():
    g = gen_rook(4)
    assert g.n == 16 and g.edge_count == 48
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == g.has_edge(v, u)
            assert not g.has_edge(u, u)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, picks)


@given(graphs())
def test_pgqgraph_round_trip(g):
    text = write_pgqgraph(g)
    # Written text takes the bulk parse, never the per-line loop.
    with mock.patch("pgq.graph._parse_lines", side_effect=AssertionError("per-line loop")):
        back = parse_pgqgraph(text)
    assert back == g
    assert write_pgqgraph(back) == text
    # symmetry survives the parser path
    for u, v in g.edges():
        assert back.has_edge(v, u)
    assert g.edges() == [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


#: Malformed pgqgraph text -> the exact ValueError message, one per branch.
#: (sys.get_int_max_str_digits() is 4300 unless the environment sets it.)
PGQGRAPH_ERRORS = {
    "nope 1\n1 0\n": "missing 'pgqgraph 1' header",
    "pgqgraph 1\n": "missing vertex/edge count line",
    "pgqgraph 1\n2\n": "line 2: expected 2 fields, got 1",
    "pgqgraph 1\n2 y\n": "line 2: non-integer field in '2 y'",
    "pgqgraph 1\n-1 0\n": "negative vertex or edge count",
    "pgqgraph 1\n1048577 0\n": "line 2: vertex count 1048577 is too large",
    "pgqgraph 1\n2 1\n": "expected 1 edge lines, got 0",
    "pgqgraph 1\n2 0\n0 1\n": "expected 0 edge lines, got 1",  # extra edge line
    "pgqgraph 1\n3 1\n0 1 2\n": "line 3: expected 2 fields, got 3",
    "pgqgraph 1\n2 1\n0 x\n": "line 3: non-integer field in '0 x'",
    "pgqgraph 1\n2 1\n1 0\n": "line 3: require u < v, got 1 0",
    "pgqgraph 1\n2 1\n0 2\n": "edge (0, 2) out of range for n=2",
    "pgqgraph 1\n3 2\n-1 1\n0 1\n": "edge (-1, 1) out of range for n=3",
    "pgqgraph 1\n2 2\n0 1\n0 1\n": "duplicate edge (0, 1)",
    # The first range or duplicate error in file order is reported, in
    # any layout.
    "pgqgraph 1\n3 3\n0 5\n0 1\n0 1\n": "edge (0, 5) out of range for n=3",
    "pgqgraph 1\n3 2\n0\t1\n0\t1\n": "duplicate edge (0, 1)",
    # Every syntax error comes before the first range or duplicate error,
    # wherever they are; a line is reported by its place in the file,
    # blank lines counted.
    "pgqgraph 1\n3 2\n0 5\n1 x\n": "line 4: non-integer field in '1 x'",
    "pgqgraph 1\n3 2\n0 5\n2 1\n": "line 4: require u < v, got 2 1",
    "pgqgraph 1\n3 3\n0 1\n\n0 1\n \n0 5\n": "duplicate edge (0, 1)",
    "pgqgraph 1\n3 2\n\n0 1\n \n1 2 0\n": "line 6: expected 2 fields, got 3",
    "pgqgraph 1\n3 2\n\n0 x\n0 1\n": "line 4: non-integer field in '0 x'",
    "pgqgraph 1\n3 2\n0 1\n\t\n\n2 1\n": "line 6: require u < v, got 2 1",
    # int() refuses a field only for its length, Python's digit limit:
    # the message names the limit, and does not echo a 5,000-digit line.
    f"pgqgraph 1\n{LONG_ZEROS}3 1\n0 1\n": "line 2: field longer than the 4300-digit limit",
    f"pgqgraph 1\n3 1\n0 {LONG_ZEROS}2\n": "line 3: field longer than the 4300-digit limit",
}


@pytest.mark.parametrize("text", PGQGRAPH_ERRORS, ids=text_id)
def test_pgqgraph_parse_errors(text):
    with pytest.raises(ValueError) as exc:
        parse_pgqgraph(text)
    assert str(exc.value) == PGQGRAPH_ERRORS[text]
    with pytest.raises(ValueError) as exc:
        parse_pgqgraph_oracle(text)
    assert str(exc.value) == PGQGRAPH_ERRORS[text]


def parse_outcome(parse, text):
    """("graph", g) or ("error", message); any other exception propagates."""
    try:
        return "graph", parse(text)
    except ValueError as exc:
        return "error", str(exc)


@given(st.one_of(st.text(max_size=40), NOISE.map(lambda body: "pgqgraph 1\n" + body)))
def test_parser_matches_two_pass_oracle_on_arbitrary_text(text):
    assert parse_outcome(parse_pgqgraph, text) == parse_outcome(parse_pgqgraph_oracle, text)


@st.composite
def mutated_pgqgraph(draw):
    """A valid pgqgraph file with a few lines edited (an edge may be out
    of range, repeated or reversed), the edge lines perhaps shuffled, and
    the count line perhaps made to agree with them again."""
    g = draw(graphs())
    ints = st.integers(-2, g.n + 2).map(str)
    lines = draw(mutated_lines(write_pgqgraph(g), st.tuples(ints, ints).map(" ".join)))
    body = lines[2:]
    draw(st.randoms()).shuffle(body)
    if draw(st.booleans()):
        lines[2:] = body
    if len(lines) > 1 and draw(st.booleans()):
        lines[1] = f"{g.n} {sum(1 for ln in body if ln.strip())}"
    return "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(mutated_pgqgraph())
def test_parser_matches_two_pass_oracle_on_mutated_files(text):
    assert parse_outcome(parse_pgqgraph, text) == parse_outcome(parse_pgqgraph_oracle, text)


def test_pgqgraph_accepts_vertex_count_at_limit():
    g = parse_pgqgraph(f"pgqgraph 1\n{2**20} 1\n0 {2**20 - 1}\n")
    assert (g.n, g.has_edge(2**20 - 1, 0)) == (2**20, True)


W5_TEXT = write_pgqgraph(symplectic_graph(5))


def edit_line(i, edit):
    """A text edit that applies edit to line i of the file (from 0)."""
    def apply(text):
        lines = text.split("\n")
        lines[i] = edit(lines[i])
        return "\n".join(lines)
    return apply


#: ASCII digits to the Arabic-Indic digits U+0660..U+0669, which int() reads.
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

#: One-edit variants of W(5)'s file -> whether the bulk parse takes them.
#: The file has 2,342 lines; line 900 is in the first 8 KB that the bulk
#: parse converts at once, and line 2000 in the second.
PARSE_EDITS = {
    "crlf": (lambda text: text.replace("\n", "\r\n"), False),
    "blank-line": (edit_line(900, lambda ln: ln + "\n"), False),
    "tab": (edit_line(2000, lambda ln: ln.replace(" ", "\t")), False),
    "leading-plus": (edit_line(900, lambda ln: "+" + ln), False),
    "leading-zeros": (edit_line(2000, lambda ln: "00" + ln.replace(" ", " 0")), True),
    "count-leading-zero": (edit_line(1, lambda ln: "0" + ln), True),
    "no-final-newline": (lambda text: text[:-1], False),
    "trailing-space": (edit_line(2000, lambda ln: ln + " "), False),
    "empty-first-field": (edit_line(900, lambda ln: " " + ln.split()[1]), False),
    "empty-second-field": (edit_line(2000, lambda ln: ln.split()[0] + " "), False),
    "count-empty-field": (edit_line(1, lambda ln: ln.split()[0] + " "), False),
    "duplicate-edge": (lambda text: edit_line(2001, lambda _: text.split("\n")[2000])(text), False),
    "u-not-below-v": (edit_line(900, lambda ln: " ".join(ln.split()[::-1])), False),
    "v-out-of-range": (edit_line(2000, lambda ln: ln.split()[0] + " 156"), False),
    "count-off-by-one": (edit_line(1, lambda ln: "156 2341"), False),
    "non-ascii-digits": (edit_line(2000, lambda ln: ln.translate(ARABIC_INDIC)), False),
    # Past int()'s digit limit (4,300 digits from Python 3.11 on).
    "long-field": (edit_line(900, lambda ln: ln + "0" * 5000), False),
    "long-count": (edit_line(1, lambda ln: "0" * 5000 + ln), False),
}


@pytest.mark.parametrize("name", PARSE_EDITS)
def test_bulk_parse_agrees_with_the_oracle_on_one_edit(name):
    edit, bulk = PARSE_EDITS[name]
    text = edit(W5_TEXT)
    assert text != W5_TEXT
    with mock.patch("pgq.graph._parse_lines", wraps=_parse_lines) as loop:
        assert parse_outcome(parse_pgqgraph, text) == parse_outcome(parse_pgqgraph_oracle, text)
    assert loop.called != bulk


#: W(7)'s file, whose bulk parse converts fields through the table of
#: vertex names (16n <= m: 6,400 <= 11,200), and one-edit variants ->
#: whether the bulk parse takes them.  A field missing from the table
#: sends its chunk through int(), which takes leading zeros.
W7_TEXT = write_pgqgraph(symplectic_graph(7))
NAME_TABLE_EDITS = {
    "none": (lambda text: text, True),
    "leading-zeros": (edit_line(2000, lambda ln: "00" + ln.replace(" ", " 0")), True),
    "v-is-n": (edit_line(2000, lambda ln: ln.split()[0] + " 400"), False),
    "v-far-out-of-range": (edit_line(9000, lambda ln: ln.split()[0] + " 1000000"), False),
    "u-not-below-v": (edit_line(900, lambda ln: " ".join(ln.split()[::-1])), False),
    "duplicate-edge": (lambda text: edit_line(2001, lambda _: text.split("\n")[2000])(text), False),
}


@pytest.mark.parametrize("name", NAME_TABLE_EDITS)
def test_bulk_parse_through_the_name_table_agrees_with_the_oracle(name):
    edit, bulk = NAME_TABLE_EDITS[name]
    text = edit(W7_TEXT)
    with mock.patch("pgq.graph._parse_lines", wraps=_parse_lines) as loop:
        assert parse_outcome(parse_pgqgraph, text) == parse_outcome(parse_pgqgraph_oracle, text)
    assert loop.called != bulk


def test_a_sparse_header_builds_no_name_table():
    # 2^20 vertices and one edge: a table of 2^20 names would take over
    # 100 MB, the rows 8 MB.
    tracemalloc.start()
    try:
        g = parse_pgqgraph(f"pgqgraph 1\n{2**20} 1\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.edge_count) == (2**20, 1)
    assert peak < 24 * 2**20, peak


@pytest.mark.parametrize("g", [Graph(0, []), symplectic_graph(5), *(g for _, g, _ in ALL_GENERATORS)],
                         ids=["empty", "w5", *(name for name, _, _ in ALL_GENERATORS)])
def test_written_corpus_never_reaches_the_line_loop(g):
    with mock.patch("pgq.graph._parse_lines", side_effect=AssertionError("per-line loop")):
        assert parse_pgqgraph(write_pgqgraph(g)) == g


def test_a_valid_file_in_another_layout_never_builds_through_graph():
    # The per-line loop builds the rows of a valid file itself; only an
    # edge out of range or repeated sends it to Graph(n, edges).
    head, rest = W5_TEXT.split("\n", 1)
    text = head + "\n" + rest.replace(" ", "\t").replace("\n", "\n\n")
    with mock.patch("pgq.graph._parse_lines", wraps=_parse_lines) as loop, \
            mock.patch.object(Graph, "__init__", side_effect=AssertionError("Graph(n, edges)")):
        g = parse_pgqgraph(text)
    assert loop.called
    assert g == parse_pgqgraph(W5_TEXT)


@pytest.mark.parametrize("text", ["pgqgraph 1\n3 3\n0 5\n0 1\n0 1\n", "pgqgraph 1\n3 2\n0\t1\n0 1\n"],
                         ids=["out-of-range", "duplicate"])
def test_edge_errors_are_worded_by_graph(text):
    with mock.patch.object(Graph, "__init__", side_effect=ValueError("worded by Graph")):
        with pytest.raises(ValueError, match="^worded by Graph$"):
            parse_pgqgraph(text)


# ---------------------------------------------------------------------------
# SRG verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "g,expected",
    [
        (gen_kneser_6_2(), (15, 6, 1, 3)),
        (gen_shrikhande(), (16, 6, 2, 2)),
        (gen_rook(4), (16, 6, 2, 2)),
        (cycle(5), (5, 2, 0, 1)),
    ],
)
def test_verify_srg_positives(g, expected):
    check = verify_srg(g)
    assert check.ok
    assert check.params == expected
    assert srg_oracle(g.n, edge_set(g)) == (expected, None)


def test_verify_srg_failures():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert "not regular" in verify_srg(path).failure
    complete = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert verify_srg(complete).failure == "complete graph"
    two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert verify_srg(two_triangles).failure == "not connected"
    hexagon = verify_srg(cycle(6))
    assert not hexagon.ok and "non-adjacent pair" in hexagon.failure
    with pytest.raises(ValueError):
        verify_srg(Graph(0, []))


def test_verify_srg_matches_the_oracle_on_every_small_graph():
    # Every graph on at most 6 vertices: a connected non-complete graph has
    # an adjacent and a non-adjacent pair, so lam and mu are always found.
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for chosen in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if chosen >> i & 1]
            check = verify_srg(Graph(n, edges))
            expected = srg_oracle(n, {frozenset(e) for e in edges})
            assert (check.params, check.failure) == expected


def test_verify_srg_first_witness_is_deterministic():
    check = verify_srg(cycle(6))
    # (0, 2) is the first non-adjacent pair in order; (0, 3) disagrees.
    assert "(0, 3)" in check.failure


#: Strongly regular graphs on at most 40 vertices, the bases of near_srgs.
SRG_BASES = [gen_symplectic_w3(), gen_rook(4), gen_rook(5), gen_rook(6), gen_shrikhande(), gen_kneser_6_2()]


@st.composite
def near_srgs(draw):
    """(n, edges) of a base srg after one to three edits: an edge toggled,
    or a 2-switch that keeps every degree (edges ab and cd become ac and
    bd, where those were non-edges)."""
    g = draw(st.sampled_from(SRG_BASES))
    edges = edge_set(g)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
            edges ^= {frozenset((u, v))}
            continue
        listed = sorted(tuple(sorted(e)) for e in edges)
        a, b = draw(st.sampled_from(listed))
        partners = [
            (c, d) for e in listed for c, d in (e, e[::-1])
            if len({a, b, c, d}) == 4 and not {frozenset((a, c)), frozenset((b, d))} & edges
        ]
        if partners:
            c, d = draw(st.sampled_from(partners))
            edges = edges - {frozenset((a, b)), frozenset((c, d))} | {frozenset((a, c)), frozenset((b, d))}
    return g.n, edges


@settings(max_examples=300)
@given(near_srgs())
def test_verify_srg_matches_the_pairwise_oracle(case):
    # The parameters and the first-violation witness are the contract.
    n, edges = case
    check = verify_srg(Graph(n, edges))
    assert (check.params, check.failure) == srg_oracle(n, edges)


def two_switch(edges, rng, low=0):
    """edges after one 2-switch among the vertices >= low: edges ab and cd
    become ac and bd, where those were non-edges, so every degree stays."""
    listed = sorted(tuple(sorted(e)) for e in edges if min(e) >= low)
    while True:
        (a, b), (c, d) = rng.sample(listed, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not {frozenset((a, c)), frozenset((b, d))} & edges:
            return edges - {frozenset((a, b)), frozenset((c, d))} | {frozenset((a, c)), frozenset((b, d))}


def test_verify_srg_matches_the_oracle_on_switched_w5():
    # W(5) is srg(156, 30, 4, 6); one to three 2-switches keep it regular,
    # and those among the upper half move the first bad pair off vertex 0.
    w5 = symplectic_graph(5)
    assert verify_srg(w5).params == (156, 30, 4, 6)
    for seed in range(12):
        rng = random.Random(seed)
        edges = edge_set(w5)
        for _ in range(1 + seed % 3):
            edges = two_switch(edges, rng, low=78 if seed % 2 else 0)
        check = verify_srg(Graph(w5.n, [tuple(sorted(e)) for e in edges]))
        assert not check.ok
        assert (check.params, check.failure) == srg_oracle(w5.n, edges)


def test_verify_srg_with_counts_above_255():
    # Common-neighbor counts of 256 and more take two bytes a field.
    # The cocktail-party graph CP(150), partners 2i and 2i+1, is
    # srg(300, 298, 296, 298), and so is its 2-switch of 0-2 and 1-3 into
    # 0-1 and 2-3: the non-edges are again a perfect matching.
    cp = Graph(300, [(u, v) for u in range(300) for v in range(u + 1, 300) if u // 2 != v // 2])
    switched = edge_set(cp) - {frozenset((0, 2)), frozenset((1, 3))} | {frozenset((0, 1)), frozenset((2, 3))}
    for edges in (edge_set(cp), switched):
        check = verify_srg(Graph(300, [tuple(sorted(e)) for e in edges]))
        assert (check.params, check.failure) == srg_oracle(300, edges) == ((300, 298, 296, 298), None)
    # The complement of the 300-cycle is 297-regular but not strongly regular.
    c300 = Graph(300, [(u, v) for u in range(300) for v in range(u + 1, 300) if v - u not in (1, 299)])
    failure = "adjacent pair (0, 3) has 294 common neighbors, expected 295"
    assert srg_oracle(300, edge_set(c300)) == (None, failure)
    assert verify_srg(c300) == (None, failure)


def test_verify_srg_builds_only_the_rows_it_reads():
    # C_5000 fails at row 0; the pass holds the fields of vertices 0, 1
    # and 4999 only, where a table of every row would take 13.6 MB.
    c5000 = cycle(5000)
    tracemalloc.start()
    try:
        check = verify_srg(c5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check == (None, "non-adjacent pair (0, 3) has 0 common neighbors, expected 1")
    assert peak < 2**20, peak


# ---------------------------------------------------------------------------
# Claw numbers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "g,expected",
    [
        (gen_kneser_6_2(), 3),
        (gen_shrikhande(), 3),
        (gen_rook(4), 2),
    ],
)
def test_claw_number_examples(g, expected):
    assert claw_numbers(g)[0] == expected


@pytest.mark.parametrize("name,g,p", ALL_GENERATORS)
def test_claw_number_matches_brute_force(name, g, p):
    assert claw_numbers(g) == tuple(local_coclique_oracle(g, x) for x in range(g.n))


@given(graphs())
def test_claw_number_matches_brute_force_random(g):
    assert claw_numbers(g) == tuple(local_coclique_oracle(g, x) for x in range(g.n))


@given(graphs(), st.randoms())
def test_claw_numbers_do_not_depend_on_visit_order(g, rng):
    # The walks of a census share one dict of known cliques and run in
    # ascending order; relabelled, the same graph is walked in another
    # order, and every vertex must keep its claw number.
    perm = rng.sample(range(g.n), g.n)
    claws = claw_numbers(relabel(g, perm))
    assert [claws[perm[x]] for x in range(g.n)] == [local_coclique_oracle(g, x) for x in range(g.n)]


@given(graphs(), st.data())
def test_coclique_search_matches_subset_enumeration_on_any_vertex_set(g, data):
    # The search behind claw_numbers, on any candidate mask, not only N(x).
    cand = data.draw(st.integers(0, (1 << g.n) - 1))
    index = {v: i for i, v in enumerate(members(cand))}
    induced = {frozenset((index[u], index[v])) for u, v in g.edges() if u in index and v in index}
    assert _max_coclique_size(g._rows, cand) == brute_max_coclique(len(index), induced)


@given(graphs())
def test_branching_coclique_oracle_matches_subset_enumeration(g):
    adj = {v: {w for w in range(g.n) if g.has_edge(v, w)} for v in range(g.n)}
    assert branching_max_coclique(adj, set(range(g.n))) == brute_max_coclique(g.n, edge_set(g))


# ---------------------------------------------------------------------------
# Clique partitions of local graphs
# ---------------------------------------------------------------------------

def members(mask):
    """The vertices of a bitmask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_partition_kneser():
    masks = _partition_local(gen_kneser_6_2(), 0, {})
    assert [m.bit_count() for m in masks] == [2, 2, 2]


def test_partition_rook():
    masks = _partition_local(gen_rook(4), 0, {})
    assert [members(m) for m in masks] == [(1, 2, 3), (4, 8, 12)]  # row and column of cell 0


def test_partition_shrikhande_fails_with_witness():
    g = gen_shrikhande()
    assert _partition_local(g, 0, {}) is None
    assert local_partition_oracle(g, 0)[0] is not None


def test_partition_requires_matching_parameters():
    # Extraction, the one caller that partitions under given parameters.
    with pytest.raises(ValueError):
        extract_gq(gen_kneser_6_2(), GQParams(3, 1))
    with pytest.raises(ValueError):
        extract_gq(cycle(6), GQParams(2, 2))


@pytest.mark.parametrize("name,g,p", ALL_GENERATORS)
def test_partition_succeeds_exactly_at_minimum_claw(name, g, p):
    # phi(x) = t+1 is equivalent to the local graph splitting into t+1
    # disjoint s-cliques; by Caro-Wei phi(x) is never below t+1.
    for x, phi in enumerate(claw_numbers(g)):
        masks = _partition_local(g, x, {})
        assert phi >= p.t + 1
        assert (masks is not None) == (phi == p.t + 1)
        if masks is not None:
            assert len(masks) == p.t + 1
            assert all(m.bit_count() == p.s for m in masks)


# ---------------------------------------------------------------------------
# Clique covers: the RR^T = A + D oracle
# ---------------------------------------------------------------------------

K4_EDGES = edge_set(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))


def test_cover_k4_double_edge_fails():
    ok, _, failure = clique_cover_oracle(4, K4_EDGES, ((0, 1, 2), (0, 1, 3)))
    assert not ok
    assert "edge (0, 1) lies in 2 cliques" in failure


def test_cover_k4_missing_edge_fails():
    ok, _, failure = clique_cover_oracle(4, K4_EDGES, ((0, 1, 2),))
    assert not ok
    assert "lies in 0 cliques" in failure


def test_cover_k4_valid_partition():
    ok, diagonal, _ = clique_cover_oracle(4, K4_EDGES, ((0, 1, 2), (0, 3), (1, 3), (2, 3)))
    assert ok
    assert diagonal == (2, 2, 2, 3)


def test_cover_structural_errors_are_distinct():
    c4 = edge_set(cycle(4))
    with pytest.raises(ValueError):
        clique_cover_oracle(4, c4, ((0, 1, 2),))  # not a clique
    with pytest.raises(ValueError):
        clique_cover_oracle(4, c4, ((0, 9),))  # out of range


def test_cover_uniqueness_by_direct_count():
    g = gen_kneser_6_2()
    lines = sorted({tuple(sorted((x, *members(m)))) for x in range(g.n) for m in _partition_local(g, x, {})})
    ok, diagonal, _ = clique_cover_oracle(g.n, edge_set(g), lines)
    assert ok
    assert set(diagonal) == {3}
    for u, v in g.edges():
        containing = [c for c in lines if u in c and v in c]
        assert len(containing) == 1


# ---------------------------------------------------------------------------
# Claw lower bound
# ---------------------------------------------------------------------------

def test_claw_lower_bound_histograms():
    # Under matching srg parameters every local graph is (s-1)-regular on
    # s(t+1) vertices, so by Caro-Wei every claw number is at least t+1.
    for g, p, histogram in [
        (gen_kneser_6_2(), GQParams(2, 2), {3: 15}),
        (gen_shrikhande(), GQParams(3, 1), {3: 16}),
        (gen_rook(4), GQParams(3, 1), {2: 16}),
    ]:
        assert _gq_params(g, p) == _gq_params(g) == p
        assert Counter(claw_numbers(g)) == histogram and min(histogram) >= p.t + 1


def test_claw_lower_bound_requires_matching_srg():
    with pytest.raises(ValueError, match=r"^graph is srg\(16, 6, 2, 2\) but \(s=2, t=2\) requires "):
        _gq_params(gen_rook(4), GQParams(2, 2))


def test_gq_params_refuses_what_it_cannot_identify():
    with pytest.raises(ValueError, match=r"^srg\(5, 2, 0, 1\) is not of \(P\)GQ form; pass --s and --t"):
        _gq_params(cycle(5))
    for p in (None, GQParams(2, 2)):  # the srg check comes first either way
        with pytest.raises(ValueError, match=r"^graph is not strongly regular: non-adjacent pair"):
            _gq_params(cycle(6), p)
