"""Independent oracles shared by the tests (networkx is a test-only dependency)."""

import itertools

import networkx as nx


def nx_orientable(masks, W: int) -> bool:
    """Whether the Johnson-graph subgraph induced by ``masks`` has an
    orientation with every outdegree <= W, by networkx max-flow.

    Vertices are the words' bitmasks; two words are adjacent when they
    differ in exactly two positions.  The network is source -> edge
    (capacity 1) -> both endpoints (capacity 1) -> sink (capacity W).
    """
    edges = [(a, b) for a, b in itertools.combinations(masks, 2) if bin(a ^ b).count("1") == 2]
    if not edges:
        return True
    net = nx.DiGraph()
    for k, (a, b) in enumerate(edges):
        net.add_edge("source", ("edge", k), capacity=1)
        net.add_edge(("edge", k), ("vertex", a), capacity=1)
        net.add_edge(("edge", k), ("vertex", b), capacity=1)
    for v in masks:
        net.add_edge(("vertex", v), "sink", capacity=W)
    return nx.maximum_flow_value(net, "source", "sink") == len(edges)
