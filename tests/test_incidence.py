"""Incidence structures: axiom verification, extraction, duality,
collinearity graphs, generators, and the pgqinc format."""

import random
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, strategies as st

import pgq.graph
from pgq.graph import (
    Graph,
    _gq_rows,
    _gq_walked,
    _max_coclique_size,
    _partition_local,
    claw_numbers,
    verify_srg,
)
from pgq.incidence import (
    IncidenceStructure,
    collinearity_graph,
    dual,
    extract_gq,
    gen_complete_bipartite,
    gen_kneser_6_2,
    gen_rook,
    gen_shrikhande,
    gen_symplectic_w3,
    parse_pgqinc,
    verify_axioms,
    write_pgqinc,
)
from pgq.params import GQParams, SrgParams, derive_srg, identify_gq_form

from oracles import (
    LONG_ZEROS,
    axioms_oracle,
    bipartite_edges,
    cameron_graph,
    census_witness,
    clique_cover_oracle,
    edge_set,
    gathered_lines,
    godsil_mckay_switch,
    gq_oracle,
    local_coclique_oracle,
    local_partition_oracle,
    paley_graph,
    relabel,
    rook_edges,
    srg_oracle,
    symplectic_graph,
    text_id,
)
from strategies import NOISE, mutated_lines

W3_GRAPH = gen_symplectic_w3()
W3 = extract_gq(W3_GRAPH, GQParams(3, 3)).structure
Q43 = collinearity_graph(dual(W3))
# Godsil-McKay switching of the Q(4,3) graph: srg(40,12,2,4), the
# parameters of a GQ(3,3), but with claw numbers up to 6 > t+1 = 4.
SWITCHED_Q43 = godsil_mckay_switch(Q43, (0, 5, 10, 15))
# The Cameron graph, srg(231,30,9,3): a pseudo-GQ(10,2) with every claw
# number 5 > t+1 = 3.
CAMERON = cameron_graph()
W5_GRAPH = symplectic_graph(5)
W7_GRAPH = symplectic_graph(7)
GQ22 = extract_gq(gen_kneser_6_2(), GQParams(2, 2)).structure
GQ31 = extract_gq(gen_rook(4), GQParams(3, 1)).structure


@pytest.fixture(scope="module")
def gq22():
    return GQ22


@pytest.fixture(scope="module")
def gq31():
    return GQ31


# ---------------------------------------------------------------------------
# Construction and axioms
# ---------------------------------------------------------------------------

def test_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 3)], 1, 1)  # point out of range
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 0)], 1, 1)  # repeated point
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 1)], 0, 1)  # s < 1


def test_axioms_pass_on_extracted(gq22):
    assert verify_axioms(gq22).ok
    assert len(gq22.lines) == 15
    assert all(len(line) == 3 for line in gq22.lines)


def test_axioms_fail_after_deleting_a_line(gq22):
    broken = IncidenceStructure(gq22.points, gq22.lines[1:], 2, 2)
    check = verify_axioms(broken)
    assert not check.ok
    assert check.axiom == "ii"  # the deleted line's points lost a pencil line
    assert check.witness is not None


def test_axioms_fail_on_wrong_line_size(gq22):
    lines = list(gq22.lines)
    lines[0] = lines[0][:2]
    check = verify_axioms(IncidenceStructure(gq22.points, lines, 2, 2))
    assert check.axiom == "i"


def test_axioms_fail_on_repeated_line(gq22):
    lines = list(gq22.lines) + [gq22.lines[0]]
    check = verify_axioms(IncidenceStructure(gq22.points, lines, 2, 2))
    assert check.axiom == "i"
    assert "share" in check.witness


def test_axiom_iii_disjoint_grids():
    # Two disjoint quadrilaterals satisfy the counting axioms (i) and (ii)
    # for (s, t) = (1, 1) but points see no collinear partner on the far
    # component, violating (iii).
    lines = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    check = verify_axioms(IncidenceStructure(8, lines, 1, 1))
    assert not check.ok
    assert check.axiom == "iii"
    assert "point 0" in check.witness


def axiom_mutations(inc):
    """inc itself and deterministic breakages of it: a point moved to
    another line, two points swapped between lines, a point dropped, a
    line duplicated or deleted, line 1 overwritten by a copy of line 0
    (as many lines as before, so only the rows of graph._gq_rows catch
    it), the lines reversed, the points relabelled."""
    lines = [list(line) for line in inc.lines]
    rng = random.Random(len(lines))
    out = [lines, lines + [lines[1]], lines[1:], lines[:1] * 2 + lines[2:], lines[::-1]]
    for k in range(4):
        i, j = rng.sample(range(len(lines)), 2)
        a = next(p for p in lines[i] if p not in lines[j])
        b = next(p for p in lines[j] if p not in lines[i])
        moved, swapped, dropped = ([list(line) for line in lines] for _ in range(3))
        moved[i].remove(a)
        moved[j].append(a)
        swapped[i][swapped[i].index(a)] = b
        swapped[j][swapped[j].index(b)] = a
        dropped[j].pop(k % len(dropped[j]))
        out += [moved, swapped, dropped]
    perm = rng.sample(range(inc.points), inc.points)
    out.append([[perm[p] for p in line] for line in lines])
    return [IncidenceStructure(inc.points, m, inc.s, inc.t) for m in out]


AXIOM_BASES = {"gq22": GQ22, "w3": W3, "gq31": GQ31}
AXIOM_BASES.update({f"dual-{name}": dual(inc) for name, inc in AXIOM_BASES.items()})


def collinear_row(inc, p):
    """The points other than p on a line through p, as a bitmask."""
    return sum(1 << q for q in set().union(*(line for line in inc.lines if p in line)) - {p})


@pytest.mark.parametrize("inc", AXIOM_BASES.values(), ids=AXIOM_BASES.keys())
def test_axioms_match_pairwise_oracle(inc):
    # The point-indexed checks must name the same first violation as the
    # loops over every line pair and every point-line pair; and
    # graph._gq_rows, the one GQ decision, must hold exactly where they
    # find none, with the lines' collinearity rows.
    for mutated in axiom_mutations(inc):
        check = verify_axioms(mutated)
        assert (check.ok, check.axiom, check.witness) == axioms_oracle(mutated)
        rows = _gq_rows(mutated.points, mutated.lines, mutated.s, mutated.t)
        assert (rows is not None) == check.ok
        if check.ok:
            assert rows == [collinear_row(mutated, p) for p in range(mutated.points)]


def grid_gq(m):
    """The m x m grid GQ(m-1, 1), built from its lines directly."""
    rows = [[i * m + j for j in range(m)] for i in range(m)]
    return IncidenceStructure(m * m, rows + [list(column) for column in zip(*rows)], m - 1, 1)


@pytest.mark.parametrize("run", [verify_axioms, dual], ids=["verify_axioms", "dual"])
def test_fewer_lines_than_points_build_no_point_rows(run):
    # The 128 x 128 grid GQ(127,1) has 256 lines and 16,384 points: the
    # search's masks take about 1.4 MiB (2.5 with dual's output), where
    # n rows of n bits, as graph._gq_rows builds, would take 34.5 MiB.
    inc = grid_gq(128)
    tracemalloc.start()
    try:
        run(inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_collinearity_refuses_fewer_lines_than_points_before_any_row():
    # The same grid with points 0 and 129 swapped between rows 0 and 1,
    # so that row 0 shares points 1 and 129 with column 1: the search
    # refuses it within the peak above, where building its rows first
    # would take 32 MiB.
    lines = [list(line) for line in grid_gq(128).lines]
    lines[0][0], lines[1][1] = 129, 0
    inc = IncidenceStructure(128 * 128, lines, 127, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            collinearity_graph(inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        "collinearity graph requires a verified GQ; axiom (i): lines #0 and #129 share more than one point"
    )
    assert peak < 4 * 2**20, peak


def test_counts_and_line_sizes_come_before_any_row():
    # The counts of a GQ(10^6, 1), each line of one point: a row per point
    # would be 10^12 rows, yet the line size refuses the input first, in
    # graph._gq_rows itself and in collinearity_graph.
    inc = IncidenceStructure._make(((10**6 + 1) ** 2, ((0,),) * (2 * 10**6 + 2), 10**6, 1))
    assert _gq_rows(inc.points, inc.lines, inc.s, inc.t) is None
    with pytest.raises(ValueError) as exc:
        collinearity_graph(inc)
    assert str(exc.value) == (
        "collinearity graph requires a verified GQ; axiom (i): line #0 has 1 points, expected s+1=1000001"
    )


def test_axiom_mutations_reach_every_verdict():
    verdicts = {
        (check.axiom, (check.witness or "").split(" ")[0])
        for inc in AXIOM_BASES.values()
        for check in map(verify_axioms, axiom_mutations(inc))
    }
    assert verdicts == {(None, ""), ("i", "line"), ("i", "lines"), ("ii", "point"), ("iii", "point")}


def test_k33_as_gq_1_2():
    # Lines = the 9 edges of K_{3,3}.
    g = gen_complete_bipartite(3)
    inc = IncidenceStructure(6, g.edges(), 1, 2)
    assert verify_axioms(inc).ok


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "g,p,n_lines",
    [
        (gen_kneser_6_2(), GQParams(2, 2), 15),
        (gen_rook(4), GQParams(3, 1), 8),
        (gen_complete_bipartite(3), GQParams(1, 2), 9),
        (gen_symplectic_w3(), GQParams(3, 3), 40),
    ],
)
def test_extract_positives(g, p, n_lines):
    result = extract_gq(g, p)
    assert result.ok
    inc = result.structure
    assert len(inc.lines) == n_lines == (p.s * p.t + 1) * (p.t + 1)
    assert all(len(line) == p.s + 1 for line in inc.lines)
    assert verify_axioms(inc).ok
    assert collinearity_graph(inc) == g


@pytest.mark.parametrize("seed", [None, *range(3)])
@pytest.mark.parametrize(
    "g,p",
    [
        (gen_rook(4), GQParams(3, 1)),
        (W3_GRAPH, GQParams(3, 3)),
        (Q43, GQParams(3, 3)),
        (W5_GRAPH, GQParams(5, 5)),
        (W7_GRAPH, GQParams(7, 7)),
    ],
    ids=["rook4", "w3", "q43", "w5", "w7"],
)
def test_extract_lines_match_lines_gathered_from_every_point(g, p, seed):
    # extract_gq gathers each line once, at its lowest point; the pgqinc
    # bytes must equal those of the lines gathered at all of their points.
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    expected = IncidenceStructure(g.n, gathered_lines(g), p.s, p.t)
    assert write_pgqinc(extract_gq(g, p).structure) == write_pgqinc(expected)


POSITIVES = {
    "rook4": (gen_rook(4), GQParams(3, 1)),
    "w3": (W3_GRAPH, GQParams(3, 3)),
    "q43": (Q43, GQParams(3, 3)),
    "w5": (W5_GRAPH, GQParams(5, 5)),
    "w7": (W7_GRAPH, GQParams(7, 7)),
}


@pytest.mark.parametrize("seed", [None, 0])
@pytest.mark.parametrize("g,p", POSITIVES.values(), ids=POSITIVES.keys())
def test_extraction_is_a_gq_by_proof(g, p, seed, monkeypatch):
    # extract_gq runs no axiom check (its docstring proves the result is a
    # GQ); both axiom checks must agree with the proof.
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    monkeypatch.setattr("pgq.incidence.verify_axioms", None)
    inc = extract_gq(Graph(g.n, g.edges()), p).structure
    monkeypatch.undo()
    assert verify_axioms(inc).ok
    assert axioms_oracle(inc) == (True, None, None)
    # Every edge in exactly one line, and t+1 lines through each point.
    assert clique_cover_oracle(g.n, edge_set(g), inc.lines) == (True, (p.t + 1,) * g.n, None)


def test_census_tests_each_line_once(monkeypatch):
    # Each operation shares one set of known cliques over its walks, so in
    # a GQ each line passes the clique test once per operation, not once
    # from each of its s+1 points; the set is dropped when it returns.
    tested = []
    is_clique = pgq.graph._is_clique
    monkeypatch.setattr("pgq.graph._is_clique", lambda rows, m: tested.append(m) or is_clique(rows, m))
    lines = (5 * 5 + 1) * (5 + 1)
    for run in (lambda: claw_numbers(W5_GRAPH) == (6,) * 156,
                lambda: extract_gq(W5_GRAPH, GQParams(5, 5)).ok,
                lambda: claw_numbers(W5_GRAPH) == (6,) * 156):
        tested.clear()
        assert run() and len(tested) == len(set(tested)) == lines


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize(
    "g,p", [(SWITCHED_Q43, GQParams(3, 3)), (gen_shrikhande(), GQParams(3, 1))],
    ids=["switched-q43", "shrikhande"],
)
def test_negative_extraction_walks_the_witness_once(g, p, seed, monkeypatch):
    # extract_gq reads the walks of graph._walks up to the witness and no
    # further, so no vertex is walked twice and none after the witness.
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    walked = []
    partition = pgq.graph._partition_local

    def counted(g, x, known):
        walked.append(x)
        return partition(g, x, known)

    monkeypatch.setattr("pgq.graph._partition_local", counted)
    result = extract_gq(g, p)
    assert (result.witness_vertex, result.witness_claw) == census_witness(g, p.t)
    assert walked == list(range(result.witness_vertex + 1))


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize(
    "g,p,witness",
    [(W3_GRAPH, GQParams(3, 3), False), (Q43, GQParams(3, 3), False), (W5_GRAPH, GQParams(5, 5), False),
     (gen_shrikhande(), GQParams(3, 1), True), (SWITCHED_Q43, GQParams(3, 3), True),
     (CAMERON, GQParams(10, 2), True)],
    ids=["w3", "q43", "w5", "shrikhande", "switched-q43", "cameron"],
)
def test_extraction_stays_lazy(g, p, witness, seed, monkeypatch):
    # The walks are a lazy generator, so extraction runs no coclique
    # search on a GQ and one, at the witness, on a pseudo-GQ.  Every walk
    # of Cameron fails, so a census of all vertices would run 231.
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    searched = []
    search = pgq.graph._max_coclique_size

    def counted(rows, cand):
        searched.append(cand)
        return search(rows, cand)

    monkeypatch.setattr("pgq.graph._max_coclique_size", counted)
    result = extract_gq(g, p)
    assert result.ok is not witness
    assert searched == ([g.row(result.witness_vertex)] if witness else [])


# A 4-regular graph on 9 vertices, the count of a GQ(2,1), whose cover
# walks all succeed with masks of 2 vertices, and whose 6 lines of 3 are
# as many as a GQ(2,1) has; yet a vertex outside one of its lines is
# adjacent to two of its points, so it is no GQ, and only the cover check
# of graph._gq_rows refuses it.
WALKS_WITHOUT_A_GQ = Graph(9, [(0, 2), (0, 4), (0, 5), (0, 8), (1, 2), (1, 6), (1, 7), (1, 8), (2, 5),
                               (2, 6), (3, 4), (3, 5), (3, 6), (3, 7), (4, 7), (4, 8), (5, 6), (7, 8)])
# Two disjoint copies of W(3): each walk succeeds, but n = 80 is not
# (s+1)(st+1) = 40.
W3_TWICE = Graph(80, W3_GRAPH.edges() + [(u + 40, v + 40) for u, v in W3_GRAPH.edges()])
# The 4x4 rook's graph less the edge (5, 6): vertex 0 still gives s = 3,
# t = 1 and n = 16, but the graph is not regular.
ROOK4_LESS_AN_EDGE = Graph(16, [e for e in gen_rook(4).edges() if e != (5, 6)])

#: GQs, pseudo-GQs, and graphs that fail each check of graph._gq_walked.
WALKED = {
    "kneser": gen_kneser_6_2(),
    "rook3": gen_rook(3),
    "rook4": gen_rook(4),
    "bipartite2": gen_complete_bipartite(2),
    "bipartite3": gen_complete_bipartite(3),
    "w3": W3_GRAPH,
    "q43": Q43,
    "w5": W5_GRAPH,
    "w7": W7_GRAPH,
    "shrikhande": gen_shrikhande(),
    "switched-q43": SWITCHED_Q43,
    "cameron": CAMERON,
    "one-vertex": Graph(1, []),
    "k4": Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "c5": Graph(5, [(i, (i + 1) % 5) for i in range(5)]),
    "c6": Graph(6, [(i, (i + 1) % 6) for i in range(6)]),
    "paley13": paley_graph(13),
    "w3-twice": W3_TWICE,
    "rook4-less-an-edge": ROOK4_LESS_AN_EDGE,
    "walks-without-a-gq": WALKS_WITHOUT_A_GQ,
}


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", WALKED)
def test_walks_prove_a_gq_exactly_when_the_oracles_do(name, seed):
    # The walks prove g a GQ(s,t) where srg_oracle, identify_gq_form and
    # the axioms agree, with the lines gathered from every point.  Where
    # they do not, extraction falls back on the srg check: it refuses g,
    # or g is a pseudo-GQ and the walks stopped at the witness, the first
    # vertex whose walk fails.
    g = WALKED[name]
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    expected = gq_oracle(g)
    q, found = _gq_walked(g)
    if expected is not None:
        assert (q, found) == expected == _gq_walked(g, q)
        assert _gq_walked(g, GQParams(q.s + 1, q.t))[0] is None
        return
    assert q is None
    params, _ = srg_oracle(g.n, edge_set(g))
    p = params and identify_gq_form(SrgParams(*params))
    if p is None:
        with pytest.raises(ValueError, match=r"^graph is not strongly regular: |is not of \(P\)GQ form"):
            extract_gq(g)
        return
    first_failed = next(x for x in range(g.n) if local_partition_oracle(g, x)[0] is not None)
    assert found == first_failed == extract_gq(g).witness_vertex


@pytest.mark.parametrize(
    "g,p",
    [(ROOK4_LESS_AN_EDGE, None), (W3_TWICE, None), (W3_TWICE, GQParams(3, 3)), (gen_rook(4), GQParams(2, 2)),
     (gen_shrikhande(), GQParams(2, 2)), (Graph(6, [(i, (i + 1) % 6) for i in range(6)]), None)],
    ids=["not-regular", "vertex-count", "vertex-count-st", "other-st", "pseudo-other-st", "c6"],
)
def test_checks_before_the_walks_come_first(g, p, monkeypatch):
    # A graph that fails regularity, the vertex count or the given (s, t)
    # is refused before any vertex is walked.
    walked = []
    partition = pgq.graph._partition_local
    monkeypatch.setattr("pgq.graph._partition_local", lambda g, x, known: walked.append(x) or partition(g, x, known))
    assert _gq_walked(g, p) == (None, 0)
    assert walked == []


class CoCliqueSearched(Exception):
    pass


@pytest.mark.parametrize("p", [None, GQParams(3, 3)])
@pytest.mark.parametrize(
    "g",
    [Graph(6, [(i, (i + 1) % 6) for i in range(6)]), W3_TWICE, ROOK4_LESS_AN_EDGE, WALKS_WITHOUT_A_GQ,
     paley_graph(401)],
    ids=["c6", "w3-twice", "rook4-less-an-edge", "walks-without-a-gq", "paley401"],
)
def test_no_coclique_search_before_the_srg_check_passes(g, p, monkeypatch):
    # The walks run no coclique search; where they fail, extraction runs
    # the srg check next, so a graph it refuses is never searched.  Paley
    # P(401) is an srg, but not of PGQ form.
    def refuse(rows, cand):
        raise CoCliqueSearched

    monkeypatch.setattr("pgq.graph._max_coclique_size", refuse)
    with pytest.raises(ValueError, match=r"^graph is (not strongly regular|srg)|is not of \(P\)GQ form"):
        extract_gq(g, p)


CLAW_GRAPHS = {
    "cameron": CAMERON,
    "switched-q43": SWITCHED_Q43,
    "shrikhande": gen_shrikhande(),
    "w5": W5_GRAPH,
}


@cache
def oracle_claws(name):
    g = CLAW_GRAPHS[name]
    return [local_coclique_oracle(g, x) for x in range(g.n)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", CLAW_GRAPHS)
def test_claw_numbers_in_random_order_match_oracle(name, seed):
    # The walks of one census share a set of known cliques; relabelled at
    # random, the graph fills it in another order, and every claw number
    # must still equal the exhaustive one.
    g = CLAW_GRAPHS[name]
    perm = random.Random(seed).sample(range(g.n), g.n)
    claws = claw_numbers(relabel(g, perm))
    assert [claws[perm[x]] for x in range(g.n)] == oracle_claws(name)


def test_symplectic_oracle_matches_w3_generator():
    assert symplectic_graph(3) == W3_GRAPH


def test_extract_shrikhande_fails_with_claw_witness():
    result = extract_gq(gen_shrikhande(), GQParams(3, 1))
    assert not result.ok
    assert result.witness_vertex == 0
    assert result.witness_claw == 3
    assert "pseudo-GQ evidence" in result.reason


def test_switched_q43_is_a_pseudo_gq():
    assert verify_srg(SWITCHED_Q43).params == derive_srg(GQParams(3, 3))
    assert set(claw_numbers(SWITCHED_Q43)) == {4, 5, 6}
    result = extract_gq(SWITCHED_Q43, GQParams(3, 3))
    assert (result.witness_vertex, result.witness_claw) == (0, 6)
    assert result.reason == "pseudo-GQ evidence: claw number 6 > t+1 = 4 at vertex 0"


def test_cameron_graph_is_a_pseudo_gq():
    assert verify_srg(CAMERON).params == derive_srg(GQParams(10, 2))
    assert srg_oracle(CAMERON.n, edge_set(CAMERON)) == ((231, 30, 9, 3), None)
    assert claw_numbers(CAMERON) == (5,) * 231
    result = extract_gq(CAMERON, GQParams(10, 2))
    assert (result.witness_vertex, result.witness_claw) == (0, 5)
    assert result.reason == "pseudo-GQ evidence: claw number 5 > t+1 = 3 at vertex 0"


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "g,p", [(SWITCHED_Q43, GQParams(3, 3)), (gen_shrikhande(), GQParams(3, 1))],
    ids=["switched-q43", "shrikhande"],
)
def test_extract_witness_matches_claw_census(g, p, seed):
    # Partition-first extraction must name the same vertex as a census of
    # every claw number: the smallest vertex with claw number above t+1.
    perm = random.Random(seed).sample(range(g.n), g.n)
    h = relabel(g, perm)
    result = extract_gq(h, p)
    assert not result.ok
    assert (result.witness_vertex, result.witness_claw) == census_witness(h, p.t)


@pytest.mark.parametrize("g", [Q43, SWITCHED_Q43], ids=["q43", "switched-q43"])
def test_partition_succeeds_iff_claw_is_t_plus_1(g):
    # Caro-Wei: the local graph is (s-1)-regular on s(t+1) vertices, so its
    # claw number is at least t+1, with equality iff it is (t+1) K_s.
    for x, phi in enumerate(claw_numbers(g)):
        masks = _partition_local(g, x, set())
        assert phi >= 4
        assert (masks is not None) == (phi == 4)


@pytest.mark.parametrize("seed", [None, *range(5)])
@pytest.mark.parametrize(
    "g",
    [gen_rook(4), gen_kneser_6_2(), W3_GRAPH, gen_shrikhande(), SWITCHED_Q43],
    ids=["rook4", "kneser", "w3", "shrikhande", "switched-q43"],
)
def test_partition_witness_matches_oracle(g, seed):
    # The walk over uncovered neighbors must fail at the smallest neighbor
    # whose candidate set is not a clique, and otherwise return exactly the
    # distinct candidate sets.
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    for x in range(g.n):
        witness, cliques = local_partition_oracle(g, x)
        masks = _partition_local(g, x, set())
        assert (masks is None) == (witness is not None)
        if witness is None:
            assert tuple(sorted(tuple(v for v in range(g.n) if m >> v & 1) for m in masks)) == cliques


@pytest.mark.parametrize("seed", [None, *range(5)])
@pytest.mark.parametrize(
    "g,walks",
    [
        (gen_rook(4), {True}),
        (gen_kneser_6_2(), {True}),
        (gen_complete_bipartite(4), {True}),
        (W3_GRAPH, {True}),
        (Q43, {True}),
        (gen_shrikhande(), {False}),
        (SWITCHED_Q43, {True, False}),
    ],
    ids=["rook4", "kneser", "k44", "w3", "q43", "shrikhande", "switched-q43"],
)
def test_walk_claw_number_matches_branch_and_bound(g, walks, seed):
    # A cover walk that takes only cliques finds a coclique and a clique
    # cover of N(x) of one size, which is then the claw number.  walks is
    # the set of walk outcomes: all succeed on a GQ collinearity graph.
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    succeeded = set()
    for x, phi in enumerate(claw_numbers(g)):
        exact = _max_coclique_size(g._rows, g.row(x))
        masks = _partition_local(g, x, set())
        if masks is not None:
            assert len(masks) == exact
        succeeded.add(masks is not None)
        assert phi == exact
    assert succeeded == walks


def test_extract_requires_matching_parameters():
    with pytest.raises(ValueError):
        extract_gq(gen_shrikhande(), GQParams(2, 2))
    with pytest.raises(ValueError):
        extract_gq(Graph(3, [(0, 1)]), GQParams(2, 2))


#: GQ graphs whose extraction and dual build their records unchecked.
UNCHECKED = {
    "w3": (W3_GRAPH, GQParams(3, 3)),
    "w5": (W5_GRAPH, GQParams(5, 5)),
    "q43": (Q43, GQParams(3, 3)),
    "rook4": (gen_rook(4), GQParams(3, 1)),
    "k33": (gen_complete_bipartite(3), GQParams(1, 2)),
}


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", UNCHECKED)
def test_unchecked_builds_equal_the_checked_constructor(name, seed):
    # _gq_walked does not sort its lines, and extract_gq and dual build
    # their records with _make; their proofs say that sorting and the
    # checked constructor would change nothing.
    g, p = UNCHECKED[name]
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    q, lines = _gq_walked(g)
    assert q == p
    assert lines == sorted(lines)
    inc = extract_gq(g).structure
    assert type(inc) is IncidenceStructure
    assert inc == IncidenceStructure(g.n, lines, p.s, p.t)
    d = dual(inc)
    assert type(d) is IncidenceStructure
    assert d == IncidenceStructure(*d)
    through = [[i for i, line in enumerate(inc.lines) if x in line] for x in range(g.n)]
    assert d == IncidenceStructure(len(inc.lines), through, p.t, p.s)


def test_extract_each_point_on_t_plus_1_lines(gq22):
    for p in range(gq22.points):
        assert sum(1 for line in gq22.lines if p in line) == 3


# ---------------------------------------------------------------------------
# Duality and collinearity
# ---------------------------------------------------------------------------

def test_dual_of_gq22_is_gq22_shaped(gq22):
    d = dual(gq22)
    assert (d.s, d.t) == (2, 2)
    assert (d.points, len(d.lines)) == (15, 15)
    assert verify_axioms(d).ok


def test_dual_of_rook_gq(gq31):
    d = dual(gq31)
    assert (d.s, d.t) == (1, 3)
    assert (d.points, len(d.lines)) == (8, 16)
    cg = collinearity_graph(d)
    check = verify_srg(cg)
    assert check.params == (8, 4, 0, 4)
    assert check.params == derive_srg(GQParams(1, 3))
    assert srg_oracle(cg.n, edge_set(cg)) == ((8, 4, 0, 4), None)


def test_dual_is_involution_on_counts(gq22, gq31):
    for inc in (gq22, gq31):
        dd = dual(dual(inc))
        assert (dd.points, len(dd.lines)) == (inc.points, len(inc.lines))
        degrees = sorted(sum(1 for ln in inc.lines if p in ln) for p in range(inc.points))
        dd_degrees = sorted(sum(1 for ln in dd.lines if p in ln) for p in range(dd.points))
        assert degrees == dd_degrees


def test_dual_is_a_verified_involution(gq22, gq31):
    # dual verifies only its input; the axioms are self-dual, so the
    # output must pass verify_axioms without a second check inside dual.
    k33 = IncidenceStructure(6, gen_complete_bipartite(3).edges(), 1, 2)
    for inc in (W3, gq22, gq31, k33):
        d = dual(inc)
        assert verify_axioms(d).ok
        assert dual(d) == inc


#: Structures with a line repeated, and the first pair of lines that
#: share two points.  W(3) with line #5 repeated has every row and cover
#: of W(3), so only the line count (41, not 40) of graph._gq_rows refuses
#: it.  A star on 4 points with an edge doubled has the counts of a
#: GQ(1,1), and point 0 sees every point, so every cover holds: only the
#: rows' bit counts refuse it.
REPEATED_LINES = {
    "w3-line-5-twice": (IncidenceStructure(40, W3.lines + (W3.lines[5],), 3, 3), "lines #5 and #40"),
    "star-edge-twice": (IncidenceStructure(4, [(0, 1), (0, 1), (0, 2), (0, 3)], 1, 1), "lines #0 and #1"),
}


def test_dual_rejects_broken_structure(gq22):
    broken = IncidenceStructure(gq22.points, gq22.lines[1:], 2, 2)
    with pytest.raises(ValueError):
        dual(broken)
    with pytest.raises(ValueError):
        collinearity_graph(broken)
    for inc, pair in REPEATED_LINES.values():
        witness = f"{pair} share more than one point"
        assert _gq_rows(inc.points, inc.lines, inc.s, inc.t) is None
        assert verify_axioms(inc) == (False, "i", witness)
        for operation, run in (("dual", dual), ("collinearity graph", collinearity_graph)):
            with pytest.raises(ValueError) as exc:
                run(inc)
            assert str(exc.value) == f"{operation} requires a verified GQ; axiom (i): {witness}"


def test_collinearity_of_gq22(gq22):
    assert verify_srg(collinearity_graph(gq22)).params == (15, 6, 1, 3)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_generator_parameters():
    assert verify_srg(gen_rook(4)).params == (16, 6, 2, 2)
    assert verify_srg(gen_rook(3)).params == (9, 4, 1, 2)
    assert verify_srg(gen_complete_bipartite(4)).params == (8, 4, 0, 4)
    assert verify_srg(gen_kneser_6_2()).params == (15, 6, 1, 3)
    assert verify_srg(gen_symplectic_w3()).params == (40, 12, 2, 4)
    assert verify_srg(gen_shrikhande()).params == (16, 6, 2, 2)


@pytest.mark.parametrize("m", range(2, 21))
def test_rook_rows_match_the_edge_list(m):
    assert gen_rook(m) == Graph(m * m, rook_edges(m))


def test_bipartite_rows_match_the_edge_list():
    for m in range(2, 21):
        assert gen_complete_bipartite(m) == Graph(2 * m, bipartite_edges(m))


def test_generator_rejects_bad_m():
    with pytest.raises(ValueError):
        gen_rook(1)
    with pytest.raises(ValueError):
        gen_complete_bipartite(0)
    # The type is checked before m sizes anything (the upper limits are
    # test_cli::test_gen_refuses_more_vertices_than_a_pgqgraph_holds).
    for bad in ("4", None, 4.0):
        with pytest.raises(ValueError, match=r"^require integer m >= 2"):
            gen_rook(bad)


def test_rook_and_shrikhande_share_parameters_but_differ():
    rook, shrik = gen_rook(4), gen_shrikhande()
    assert verify_srg(rook).params == verify_srg(shrik).params
    assert extract_gq(rook, GQParams(3, 1)).ok
    assert not extract_gq(shrik, GQParams(3, 1)).ok


# ---------------------------------------------------------------------------
# pgqinc format
# ---------------------------------------------------------------------------

def test_pgqinc_round_trip(gq22, gq31):
    for inc in (gq22, gq31):
        text = write_pgqinc(inc)
        back = parse_pgqinc(text)
        assert back == inc
        assert write_pgqinc(back) == text


#: Malformed pgqinc text -> the exact ValueError message.
PGQINC_ERRORS = {
    "wrong 1\n1 0 1 1\n": "missing 'pgqinc 1' header",
    "pgqinc 1\n": "missing counts line",
    "pgqinc 1\n3 1 1 1\n": "expected 1 line rows, got 0",  # missing line row
    "pgqinc 1\n3 1 1 1\n1 0\n": "line 3: point ids must be strictly increasing",  # unsorted
    "pgqinc 1\n3 1 1 1\n0 0\n": "line 3: point ids must be strictly increasing",  # repeated
    "pgqinc 1\n3 1 1 1\n0 5\n": "line #0 mentions a point out of range",
    "pgqinc 1\n3 1 0 1\n0 1\n": "require s >= 1 and t >= 1, got (0, 1)",
    "pgqinc 1\n3 1 1\n0 1\n": "line 2: expected 'points lines s t', got '3 1 1'",
    "pgqinc 1\n3 1 1 1\n0 x\n": "line 3: non-integer point id in '0 x'",
    "pgqinc 1\n3 1 x 1\n0 1\n": "line 2: non-integer field in '3 1 x 1'",
    # A line is reported by its place in the file, blank lines counted.
    "pgqinc 1\n3 2 1 1\n\n0 1\n \n1 x\n": "line 6: non-integer point id in '1 x'",
    "pgqinc 1\n3 2 1 1\n0 1\n\n2 1\n": "line 5: point ids must be strictly increasing",
    # A field int() refuses only for its length names the digit limit.
    f"pgqinc 1\n3 1 1 {LONG_ZEROS}1\n0 1\n": "line 2: field longer than the 4300-digit limit",
    f"pgqinc 1\n3 1 1 1\n0 {LONG_ZEROS}1\n": "line 3: field longer than the 4300-digit limit",
}


@pytest.mark.parametrize("text", PGQINC_ERRORS, ids=text_id)
def test_pgqinc_parse_errors(text):
    with pytest.raises(ValueError) as exc:
        parse_pgqinc(text)
    assert str(exc.value) == PGQINC_ERRORS[text]


@st.composite
def mutated_pgqinc(draw):
    """The pgqinc file of a small GQ with a few lines edited."""
    inc = draw(st.sampled_from([GQ22, GQ31, dual(GQ31)]))
    row = st.lists(st.integers(-1, 17).map(str), max_size=5).map(" ".join)
    return "\n".join(draw(mutated_lines(write_pgqinc(inc), row))) + "\n"


@given(st.one_of(st.text(max_size=40), NOISE.map(lambda body: "pgqinc 1\n" + body), mutated_pgqinc()))
def test_pgqinc_parser_gives_a_structure_or_a_format_error(text):
    try:
        inc = parse_pgqinc(text)
    except ValueError:
        return
    assert isinstance(inc, IncidenceStructure)
