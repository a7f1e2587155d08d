"""networkx as an oracle independent of pgq's bitset graph code: the srg
parameters from the intersection array, and claw numbers as maximum
cliques of the complemented local graph.  Skipped where networkx is not
installed; it is in the test extra only."""

import pytest

from pgq.graph import claw_numbers, verify_srg

from test_cli import PGQ_FORM_CORPUS

nx = pytest.importorskip("networkx")

#: The corpus without W(7), which networkx takes about 8 s to search.
CORPUS = {name: g for name, (g, _, _) in PGQ_FORM_CORPUS.items() if name != "w7"}


def _nx_graph(g):
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.edges())
    return graph


@pytest.mark.parametrize("g", CORPUS.values(), ids=CORPUS.keys())
def test_srg_params_match_the_intersection_array(g):
    # A distance-regular graph of diameter 2 has b = [k, k-lam-1] and
    # c = [1, mu].
    (b0, b1), (_, c2) = nx.intersection_array(_nx_graph(g))
    assert verify_srg(g).params == (g.n, b0, b0 - b1 - 1, c2)


@pytest.mark.parametrize("g", CORPUS.values(), ids=CORPUS.keys())
def test_claw_histogram_matches_max_cliques_of_the_local_complement(g):
    # Per vertex, not as a histogram, which could match with the numbers
    # on the wrong vertices.
    graph = _nx_graph(g)
    claws = tuple(
        nx.max_weight_clique(nx.complement(graph.subgraph(graph[x])), weight=None)[1]
        for x in range(g.n)
    )
    assert claw_numbers(g) == claws
