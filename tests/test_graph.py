"""Tarjan SCC and terminal components against networkx on random digraphs.

`sl2.minimal_flow` runs Tarjan on int-coded states, so networkx is the
independent oracle for `_graph`: random digraphs of up to 40 int nodes
with self-loops and duplicate edges, compared as partitions.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from padyn._graph import strongly_connected_components, terminal_components


@st.composite
def digraphs(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    return n, edges


def as_graph(n, edges):
    successors = [[] for _ in range(n)]
    for source, target in edges:
        successors[source].append(target)
    oracle = nx.MultiDiGraph()
    oracle.add_nodes_from(range(n))
    oracle.add_edges_from(edges)
    return successors, oracle


def partition(components):
    blocks = [frozenset(c) for c in components]
    assert sum(map(len, blocks)) == len(frozenset().union(*blocks)), "blocks overlap"
    return set(blocks)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_scc_matches_networkx(graph):
    n, edges = graph
    successors, oracle = as_graph(n, edges)
    ours = strongly_connected_components(range(n), successors.__getitem__)
    assert sorted(node for c in ours for node in c) == list(range(n))
    assert partition(ours) == partition(nx.strongly_connected_components(oracle))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_terminal_components_are_the_condensation_sinks(graph):
    n, edges = graph
    successors, oracle = as_graph(n, edges)
    dag = nx.condensation(oracle)
    sinks = [dag.nodes[c]["members"] for c in dag if dag.out_degree(c) == 0]
    ours = terminal_components(range(n), successors.__getitem__)
    assert partition(ours) == partition(sinks)
