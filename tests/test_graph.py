"""Graph kernel: construction, file format, SRG verification, claw
numbers, clique partitions and covers."""

import pytest
from hypothesis import given, strategies as st

from pgq.errors import DomainError, FormatError, InternalInconsistencyError
from pgq.graph import (
    CliqueCover,
    Graph,
    claw_lower_bound_check,
    claw_number,
    clique_partition_of_local,
    local_graph,
    parse_pgqgraph,
    verify_clique_cover,
    verify_srg,
    write_pgqgraph,
)
from pgq.incidence import (
    gen_complete_bipartite,
    gen_kneser_6_2,
    gen_rook,
    gen_shrikhande,
    gen_symplectic_w3,
)
from pgq.params import GQParams

from oracles import brute_srg_params, edge_set, local_coclique_oracle


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
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1, [])


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
    back = parse_pgqgraph(text)
    assert back == g
    assert write_pgqgraph(back) == text
    # symmetry survives the parser path
    for u, v in g.edges():
        assert back.has_edge(v, u)


@pytest.mark.parametrize(
    "text",
    [
        "nope 1\n1 0\n",
        "pgqgraph 1\n",
        "pgqgraph 1\n2 1\n",
        "pgqgraph 1\n2 1\n1 0\n",        # u >= v
        "pgqgraph 1\n2 1\n0 2\n",        # out of range
        "pgqgraph 1\n2 2\n0 1\n0 1\n",   # duplicate
        "pgqgraph 1\n2 0\n0 1\n",        # extra edge line
        "pgqgraph 1\n2 1\n0 x\n",
    ],
)
def test_pgqgraph_parse_errors(text):
    with pytest.raises(FormatError):
        parse_pgqgraph(text)


def test_pgqgraph_accepts_vertex_count_at_limit():
    g = parse_pgqgraph(f"pgqgraph 1\n{2**20} 1\n0 {2**20 - 1}\n")
    assert (g.n, g.has_edge(2**20 - 1, 0)) == (2**20, True)


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
    assert check.params.as_tuple() == expected
    assert brute_srg_params(g.n, edge_set(g)) == expected


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


def test_verify_srg_missing_pair_type_is_internal_error(monkeypatch):
    # A connected non-complete graph has both an adjacent and a
    # non-adjacent pair; force the connectivity check to lie.
    monkeypatch.setattr("pgq.graph._connected", lambda g: True)
    with pytest.raises(InternalInconsistencyError):
        verify_srg(Graph(3, []))


def test_verify_srg_first_witness_is_deterministic():
    check = verify_srg(cycle(6))
    # (0, 2) is the first non-adjacent pair in order; (0, 3) disagrees.
    assert "(0, 3)" in check.failure


# ---------------------------------------------------------------------------
# Local graphs and claw numbers
# ---------------------------------------------------------------------------

def test_local_graph_shapes():
    rook_local = local_graph(gen_rook(4), 0).as_graph()
    assert rook_local.n == 6 and rook_local.edge_count == 6
    assert sorted(rook_local.degree(v) for v in range(6)) == [2] * 6  # two triangles
    shrik_local = local_graph(gen_shrikhande(), 0).as_graph()
    assert shrik_local.n == 6 and shrik_local.edge_count == 6
    k33_local = local_graph(gen_complete_bipartite(3), 0).as_graph()
    assert k33_local.n == 3 and k33_local.edge_count == 0


def test_local_graph_vertex_set():
    g = gen_kneser_6_2()
    lg = local_graph(g, 7)
    assert lg.center == 7
    assert set(lg.vertices) == {v for v in range(g.n) if g.has_edge(7, v)}
    with pytest.raises(ValueError):
        local_graph(g, 15)


@pytest.mark.parametrize(
    "g,expected",
    [
        (gen_kneser_6_2(), 3),
        (gen_shrikhande(), 3),
        (gen_rook(4), 2),
    ],
)
def test_claw_number_examples(g, expected):
    assert claw_number(g, 0) == expected


@pytest.mark.parametrize("name,g,p", ALL_GENERATORS)
def test_claw_number_matches_brute_force(name, g, p):
    for x in range(g.n):
        assert claw_number(g, x) == local_coclique_oracle(g, x)


@given(graphs())
def test_claw_number_matches_brute_force_random(g):
    for x in range(g.n):
        assert claw_number(g, x) == local_coclique_oracle(g, x)


# ---------------------------------------------------------------------------
# Clique partitions of local graphs
# ---------------------------------------------------------------------------

def test_partition_kneser():
    g = gen_kneser_6_2()
    res = clique_partition_of_local(g, 0, GQParams(2, 2))
    assert res.ok
    assert [len(c) for c in res.cover.cliques] == [2, 2, 2]


def test_partition_rook():
    g = gen_rook(4)
    res = clique_partition_of_local(g, 0, GQParams(3, 1))
    assert res.ok
    assert res.cover.cliques == ((1, 2, 3), (4, 8, 12))  # row and column of cell 0


def test_partition_shrikhande_fails_with_witness():
    g = gen_shrikhande()
    res = clique_partition_of_local(g, 0, GQParams(3, 1))
    assert not res.ok
    assert res.witness is not None
    assert "not a clique" in res.reason


def test_partition_requires_matching_parameters():
    with pytest.raises(DomainError):
        clique_partition_of_local(gen_kneser_6_2(), 0, GQParams(3, 1))
    with pytest.raises(DomainError):
        clique_partition_of_local(cycle(6), 0, GQParams(2, 2))


@pytest.mark.parametrize("name,g,p", ALL_GENERATORS)
def test_partition_succeeds_exactly_at_minimum_claw(name, g, p):
    # phi(x) = t+1 is equivalent to the local graph splitting into t+1
    # disjoint s-cliques; by Caro-Wei phi(x) is never below t+1.
    for x in range(g.n):
        res = clique_partition_of_local(g, x, p)
        phi = claw_number(g, x)
        assert phi >= p.t + 1
        assert res.ok == (phi == p.t + 1)
        if res.ok:
            assert len(res.cover.cliques) == p.t + 1
            assert all(len(c) == p.s for c in res.cover.cliques)


# ---------------------------------------------------------------------------
# Clique covers
# ---------------------------------------------------------------------------

def k4():
    return Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def test_cover_k4_double_edge_fails():
    check = verify_clique_cover(k4(), CliqueCover(((0, 1, 2), (0, 1, 3))))
    assert not check.ok
    assert "edge (0, 1) lies in 2 cliques" in check.failure


def test_cover_k4_missing_edge_fails():
    check = verify_clique_cover(k4(), CliqueCover(((0, 1, 2),)))
    assert not check.ok
    assert "lies in 0 cliques" in check.failure


def test_cover_k4_valid_partition():
    check = verify_clique_cover(k4(), CliqueCover(((0, 1, 2), (0, 3), (1, 3), (2, 3))))
    assert check.ok
    assert check.diagonal == (2, 2, 2, 3)


def test_cover_structural_errors_are_distinct():
    with pytest.raises(DomainError):
        verify_clique_cover(cycle(4), CliqueCover(((0, 1, 2),)))  # not a clique
    with pytest.raises(DomainError):
        verify_clique_cover(cycle(4), CliqueCover(((0, 9),)))  # out of range


def test_cover_uniqueness_by_direct_count():
    g = gen_kneser_6_2()
    lines = []
    for x in range(g.n):
        res = clique_partition_of_local(g, x, GQParams(2, 2))
        lines.extend(tuple(sorted((x,) + c)) for c in res.cover.cliques)
    cover = CliqueCover(tuple(sorted(set(lines))))
    check = verify_clique_cover(g, cover)
    assert check.ok
    assert set(check.diagonal) == {3}
    for u, v in g.edges():
        containing = [c for c in cover.cliques if u in c and v in c]
        assert len(containing) == 1


# ---------------------------------------------------------------------------
# Claw lower bound
# ---------------------------------------------------------------------------

def test_claw_lower_bound_histograms():
    check = claw_lower_bound_check(gen_kneser_6_2(), GQParams(2, 2))
    assert check.ok and check.histogram == {3: 15} and check.minimum == 3
    check = claw_lower_bound_check(gen_shrikhande(), GQParams(3, 1))
    assert check.ok and check.histogram == {3: 16}  # 3 >= t+1 = 2
    check = claw_lower_bound_check(gen_rook(4), GQParams(3, 1))
    assert check.ok and check.histogram == {2: 16}


def test_claw_lower_bound_requires_matching_srg():
    with pytest.raises(DomainError):
        claw_lower_bound_check(gen_rook(4), GQParams(2, 2))
