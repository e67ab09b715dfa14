"""Tarjan SCC, terminal components and the holonomy component count
against networkx on random digraphs.

`flows` and `proj` run Tarjan on their states, and `sl2.minimal_flow`
decides connectivity by holonomy, with Tarjan cross-checking it on
small flows, so networkx is the independent oracle for `_graph`: random
digraphs of up to 40 int nodes with self-loops and duplicate edges,
compared as partitions, and random skew products over Z/a × Z/b,
compared by the component count of the derived graph.
"""

from array import array

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from padyn._graph import skew_components, strongly_connected_components, terminal_components


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


@st.composite
def skew_products(draw):
    """Random moves on a base of up to 12 nodes, each a flat column
    (targets, twists) of translations of J = Z/a × Z/b (element x·b + y),
    the twists one int for the whole column in about half the draws.
    Column 0 is a Hamiltonian cycle in half the draws, so strongly
    connected bases are common."""
    n = draw(st.integers(1, 12))
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    node, twist = st.integers(0, n - 1), st.integers(0, a * b - 1)
    nodes = st.lists(node, min_size=n, max_size=n)
    twists = st.one_of(twist, st.lists(twist, min_size=n, max_size=n))
    columns = draw(st.lists(st.tuples(nodes, twists), min_size=1, max_size=4))
    if draw(st.booleans()):
        columns[0] = ([(u + 1) % n for u in range(n)], columns[0][1])
    if draw(st.booleans()):  # the `array('i')` layout `sl2.skew_product` writes
        columns = [
            (array("i", nodes), twists if isinstance(twists, int) else array("i", twists))
            for nodes, twists in columns
        ]
    products = [
        [(r // b + s // b) % a * b + (r + s) % b for s in range(a * b)] for r in range(a * b)
    ]
    return n, columns, products, draw(node)


@settings(max_examples=300, deadline=None)
@given(skew_products())
def test_skew_components_count_the_derived_graph(skew):
    # each flat column decoded into its (move, node) edges of the base
    # and the derived graph, which networkx counts
    n, columns, products, root = skew
    order = len(products)
    base = nx.MultiDiGraph()
    base.add_nodes_from(range(n))
    derived = nx.DiGraph()
    derived.add_nodes_from(range(n * order))
    for targets, twists in columns:
        for u, v in enumerate(targets):
            twist = twists if isinstance(twists, int) else twists[u]
            base.add_edge(u, v)
            derived.add_edges_from(
                (u * order + j, v * order + products[twist][j]) for j in range(order)
            )
    ours = skew_components(columns, products, root, 0)
    if nx.is_strongly_connected(base):
        assert ours == nx.number_strongly_connected_components(derived)
    else:
        assert ours is None
