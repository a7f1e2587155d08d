"""Incidence structures: axiom verification, extraction, duality,
collinearity graphs, generators, and the pgqinc format."""

import random

import pytest

from pgq.errors import DomainError, FormatError
from pgq.graph import Graph, _partition_local, claw_number, clique_partition_of_local, verify_srg
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
from pgq.params import GQParams, derive_srg

from oracles import (
    brute_srg_params,
    census_witness,
    edge_set,
    godsil_mckay_switch,
    local_partition_oracle,
    relabel,
)

W3_GRAPH = gen_symplectic_w3()
W3 = extract_gq(W3_GRAPH, GQParams(3, 3)).structure
Q43 = collinearity_graph(dual(W3))
# Godsil-McKay switching of the Q(4,3) graph: srg(40,12,2,4), the
# parameters of a GQ(3,3), but with claw numbers up to 6 > t+1 = 4.
SWITCHED_Q43 = godsil_mckay_switch(Q43, (0, 5, 10, 15))


@pytest.fixture(scope="module")
def gq22():
    return extract_gq(gen_kneser_6_2(), GQParams(2, 2)).structure


@pytest.fixture(scope="module")
def gq31():
    return extract_gq(gen_rook(4), GQParams(3, 1)).structure


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


def test_extract_shrikhande_fails_with_claw_witness():
    result = extract_gq(gen_shrikhande(), GQParams(3, 1))
    assert not result.ok
    assert result.witness_vertex == 0
    assert result.witness_claw == 3
    assert "pseudo-GQ evidence" in result.reason


def test_switched_q43_is_a_pseudo_gq():
    assert verify_srg(SWITCHED_Q43).params == derive_srg(GQParams(3, 3))
    assert {claw_number(SWITCHED_Q43, x) for x in range(40)} == {4, 5, 6}
    result = extract_gq(SWITCHED_Q43, GQParams(3, 3))
    assert (result.witness_vertex, result.witness_claw) == (0, 6)
    assert result.reason == "pseudo-GQ evidence: claw number 6 > t+1 = 4 at vertex 0"


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
    for x in range(g.n):
        masks, _ = _partition_local(g, x)
        phi = claw_number(g, x)
        assert phi >= 4
        assert (masks is not None) == (phi == 4)


@pytest.mark.parametrize("seed", [None, *range(5)])
@pytest.mark.parametrize(
    "g,p",
    [
        (gen_rook(4), GQParams(3, 1)),
        (gen_kneser_6_2(), GQParams(2, 2)),
        (W3_GRAPH, GQParams(3, 3)),
        (gen_shrikhande(), GQParams(3, 1)),
        (SWITCHED_Q43, GQParams(3, 3)),
    ],
    ids=["rook4", "kneser", "w3", "shrikhande", "switched-q43"],
)
def test_partition_witness_matches_oracle(g, p, seed):
    # The walk over uncovered neighbors must fail at the smallest neighbor
    # whose candidate set is not a clique, and otherwise return exactly the
    # distinct candidate sets.
    if seed is not None:
        g = relabel(g, random.Random(seed).sample(range(g.n), g.n))
    for x in range(g.n):
        witness, cliques = local_partition_oracle(g, x)
        res = clique_partition_of_local(g, x, p)
        assert res.witness == witness
        if witness is None:
            assert (res.reason, res.cover.cliques) == (None, cliques)
        else:
            assert res.cover is None
            assert res.reason == f"candidate set of vertex {witness} is not a clique"


def test_extract_requires_matching_parameters():
    with pytest.raises(DomainError):
        extract_gq(gen_shrikhande(), GQParams(2, 2))
    with pytest.raises(DomainError):
        extract_gq(Graph(3, [(0, 1)]), GQParams(2, 2))


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
    assert check.params.as_tuple() == (8, 4, 0, 4)
    assert check.params == derive_srg(GQParams(1, 3))
    assert brute_srg_params(cg.n, edge_set(cg)) == (8, 4, 0, 4)


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


def test_dual_rejects_broken_structure(gq22):
    broken = IncidenceStructure(gq22.points, gq22.lines[1:], 2, 2)
    with pytest.raises(DomainError):
        dual(broken)
    with pytest.raises(DomainError):
        collinearity_graph(broken)


def test_collinearity_of_gq22(gq22):
    assert verify_srg(collinearity_graph(gq22)).params.as_tuple() == (15, 6, 1, 3)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_generator_parameters():
    assert verify_srg(gen_rook(4)).params.as_tuple() == (16, 6, 2, 2)
    assert verify_srg(gen_rook(3)).params.as_tuple() == (9, 4, 1, 2)
    assert verify_srg(gen_complete_bipartite(4)).params.as_tuple() == (8, 4, 0, 4)
    assert verify_srg(gen_kneser_6_2()).params.as_tuple() == (15, 6, 1, 3)
    assert verify_srg(gen_symplectic_w3()).params.as_tuple() == (40, 12, 2, 4)
    assert verify_srg(gen_shrikhande()).params.as_tuple() == (16, 6, 2, 2)


def test_generator_rejects_bad_m():
    with pytest.raises(ValueError):
        gen_rook(1)
    with pytest.raises(ValueError):
        gen_complete_bipartite(0)


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


@pytest.mark.parametrize(
    "text",
    [
        "wrong 1\n1 0 1 1\n",
        "pgqinc 1\n",
        "pgqinc 1\n3 1 1 1\n",            # missing line row
        "pgqinc 1\n3 1 1 1\n1 0\n",       # unsorted ids
        "pgqinc 1\n3 1 1 1\n0 0\n",       # repeated id
        "pgqinc 1\n3 1 1 1\n0 5\n",       # out of range
        "pgqinc 1\n3 1 0 1\n0 1\n",       # s < 1
        "pgqinc 1\n3 1 1\n0 1\n",         # short counts line
        "pgqinc 1\n3 1 1 1\n0 x\n",
    ],
)
def test_pgqinc_parse_errors(text):
    with pytest.raises(FormatError):
        parse_pgqinc(text)
