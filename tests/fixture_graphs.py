"""Explicit fixture graphs for the classification tests, and the edge-by-edge
oracle of the folded-cube linear map.

The package itself builds only the folded cube (`crcodes.classify.folded_cube`),
the target of its backtracking search on explicit graphs; the other families
are recognised from their intersection arrays and local structure, so their
explicit graphs are needed only to test that recognition.
"""

from functools import cache

from crcodes.classify import ISO_VERTEX_CAP, folded_cube
from crcodes.hamming_space import ambient, neighbors
from crcodes.partitions_quotients import Graph, graph_from_edges


def hamming_graph(m: int, q: int) -> Graph:
    sp = ambient(m, q)
    if sp.size > ISO_VERTEX_CAP:
        raise ValueError(f"fixture H({m},{q}) too large")
    edges = []
    for v in range(sp.size):
        for w in neighbors(v, sp):
            if v < w:
                edges.append((v, w))
    return graph_from_edges(sp.size, edges)


def shrikhande_graph() -> Graph:
    """Cayley graph on Z_4 x Z_4, connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = []
    for a in range(4):
        for b in range(4):
            v = a + 4 * b
            for da, db in conn:
                w = (a + da) % 4 + 4 * ((b + db) % 4)
                if v < w:
                    edges.append((v, w))
    return graph_from_edges(16, edges)


def complete_graph(v: int) -> Graph:
    return graph_from_edges(v, [(i, j) for i in range(v) for j in range(i + 1, v)])


def complete_bipartite(v: int) -> Graph:
    return graph_from_edges(2 * v, [(i, v + j) for i in range(v) for j in range(v)])


def cartesian_product_graph(g1: Graph, g2: Graph) -> Graph:
    n1, n2 = g1.n, g2.n
    edges = []
    for a in range(n1):
        for b in range(n2):
            v = a * n2 + b
            for a2 in g1.adjacency[a]:
                w = a2 * n2 + b
                if v < w:
                    edges.append((v, w))
            for b2 in g2.adjacency[b]:
                w = a * n2 + b2
                if v < w:
                    edges.append((v, w))
    return graph_from_edges(n1 * n2, edges)


def doob_graph(shrikhande_factors: int, clique_factors: int) -> Graph:
    if shrikhande_factors < 1:
        raise ValueError("a Doob graph has at least one Shrikhande factor")
    g = shrikhande_graph()
    for _ in range(shrikhande_factors - 1):
        g = cartesian_product_graph(g, shrikhande_graph())
    for _ in range(clique_factors):
        g = cartesian_product_graph(g, complete_graph(4))
    return g


@cache
def construct_fixture(name: str, **params) -> Graph:
    """One fixture graph by family name, built once per (name, params)."""
    builders = {
        "hamming": lambda: hamming_graph(params["m"], params["q"]),
        "folded_cube": lambda: folded_cube(params["m"]),
        "shrikhande": shrikhande_graph,
        "doob": lambda: doob_graph(params["s"], params["c"]),
        "complete": lambda: complete_graph(params["v"]),
        "complete_bipartite": lambda: complete_bipartite(params["v"]),
    }
    if name not in builders:
        raise ValueError(f"unknown fixture {name!r}")
    return builders[name]()


def expand_linear_map(basis) -> list[int]:
    """The vertex map of a folded-cube linear map given as the syndromes
    s_1, ..., s_(m-1) sent to e_1, ..., e_(m-1): mapping[v] is the fixture
    vertex u whose set bits pick the s_i that XOR to v."""
    preimage = [0]
    for s in basis:
        preimage += [x ^ s for x in preimage]
    mapping = [-1] * len(preimage)
    for u, v in enumerate(preimage):
        mapping[v] = u
    return mapping


def assert_maps_onto_folded_cube(graph, basis, m: int) -> list[int]:
    """Expand the linear map of a Cayley graph and check it edge by edge: a
    bijection onto the folded m-cube's vertices that sends every edge of
    `graph.explicit()` to an edge of the fixture, which has as many edges.
    Returns the expanded map."""
    mapping = expand_linear_map(basis)
    explicit = graph.explicit()
    assert len(basis) == m - 1 and sorted(mapping) == list(range(explicit.n))
    if 2 ** (m - 1) <= ISO_VERTEX_CAP:
        fixture = construct_fixture("folded_cube", m=m)
        assert explicit.edge_count() == fixture.edge_count()
        assert all(fixture.has_edge(mapping[u], mapping[v]) for u, v in explicit.edges())
    else:  # the fixture's edges: u ~ u ^ e_i and u ~ u ^ ones
        steps = {1 << i for i in range(m - 1)} | {2 ** (m - 1) - 1}
        assert explicit.edge_count() == 2 ** (m - 1) * m // 2
        assert all(mapping[u] ^ mapping[v] in steps for u, v in explicit.edges())
    return mapping
