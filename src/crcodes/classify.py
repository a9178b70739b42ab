"""Quotient-graph recognition, fixture graphs, and the structural
classification of linear completely regular codes with arithmetic spectra.

Recognition is parametric-plus-verification: intersection arrays are matched
against the closed families, and whenever parameters alone cannot decide
(H(m,4) vs Doob graphs; the array {6,5,4;1,2,6}) the tie is broken by local
structure or an explicit isomorphism onto a folded cube, never by assumption.
A syndrome coset graph gets that isomorphism as a linear map read off its
connection set and checked edge by edge, at any size; any other graph gets
it from a backtracking search against the fixture, up to ISO_VERTEX_CAP
vertices.

The structural classification reads a linear code's parity check H and
lists none of its members: membership is Hx = 0, the coordinate classes are
the classes of parallel columns of H, the factor on a block is the code of
H's columns there, and the extended-Hamming and replicated-normal-form
tests are identities on H.  Only ``finest_product_blocks`` scans members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import prod
from operator import xor

from .algebra import GFMatrix, rank
from .constructions import replicate_columns
from .cr_analysis import (
    CodeAnalysis,
    CrCertificate,
    analyze_code,
    certify_completely_regular,
    is_reduced,
)
from .errors import TheoremViolationError, jsonable
from .hamming_space import (
    Code,
    ambient,
    code_from_parity_check,
    code_from_words,
    decode,
    encode,
    is_additive,
    minimum_distance,
    neighbors,
    sphere_size,
    word_sub,
)
from .partitions_quotients import (
    CayleyGraph,
    Graph,
    IntersectionArray,
    certify_distance_regular,
    coset_graph_by_syndrome,
    graph_from_edges,
    local_roots,
    partition_from_classes,
    quotient_graph,
)

ISO_VERTEX_CAP = 4096
CLIQUE_VERTEX_CAP = 1 << 16


# -- fixture graphs --------------------------------------------------------------


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


def folded_cube(m: int) -> Graph:
    """Antipodal quotient of the m-cube, built as an explicit vertex partition."""
    if m < 2:
        raise ValueError("folded cube needs m >= 2")
    if 2 ** (m - 1) > ISO_VERTEX_CAP:
        raise ValueError(f"fixture folded {m}-cube too large")
    sp = ambient(m, 2)
    mask = sp.size - 1
    classes = [[v, v ^ mask] for v in range(sp.size) if v < (v ^ mask)]
    return quotient_graph(partition_from_classes(sp, classes))


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


_FIXTURES = {}


def construct_fixture(name: str, **params) -> Graph:
    """Memoized fixture dispatch; keys are (name, sorted params)."""
    key = (name, tuple(sorted(params.items())))
    if key not in _FIXTURES:
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
        _FIXTURES[key] = builders[name]()
    return _FIXTURES[key]


# -- local structure, isomorphism, cliques ---------------------------------------


def local_component_profile(graph: Graph, v: int) -> tuple[tuple[int, int], ...]:
    """(size, edge count) of each component of the neighborhood-induced graph."""
    nbrs = graph.adjacency[v]
    index = {w: i for i, w in enumerate(nbrs)}
    parent = list(range(len(nbrs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_count = [0] * len(nbrs)
    for i, w in enumerate(nbrs):
        for u in graph.adjacency[w]:
            j = index.get(u)
            if j is not None and i < j:
                edge_count[i] += 1
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    sizes: dict[int, int] = {}
    edges: dict[int, int] = {}
    for i in range(len(nbrs)):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
        edges[r] = edges.get(r, 0) + edge_count[i]
    return tuple(sorted((sizes[r], edges[r]) for r in sizes))


def _initial_invariants(graph: Graph) -> list:
    return [
        (graph.degree(v), local_component_profile(graph, v)) for v in range(graph.n)
    ]


def _joint_refine(g1: Graph, g2: Graph):
    """1-WL refinement run jointly so colors are comparable across graphs."""
    raw1, raw2 = _initial_invariants(g1), _initial_invariants(g2)
    palette = {s: i for i, s in enumerate(sorted(set(raw1) | set(raw2)))}
    c1 = [palette[s] for s in raw1]
    c2 = [palette[s] for s in raw2]
    while True:
        sig1 = [
            (c1[v], tuple(sorted(c1[w] for w in g1.adjacency[v]))) for v in range(g1.n)
        ]
        sig2 = [
            (c2[v], tuple(sorted(c2[w] for w in g2.adjacency[v]))) for v in range(g2.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig1) | set(sig2)))}
        n1 = [palette[s] for s in sig1]
        n2 = [palette[s] for s in sig2]
        if len(set(n1)) == len(set(c1)) and len(set(n2)) == len(set(c2)):
            return n1, n2
        c1, c2 = n1, n2


def graph_isomorphic(g1: Graph, g2: Graph) -> list[int] | None:
    """Explicit isomorphism g1 -> g2 or a definitive None.

    Color refinement prunes; exhaustive backtracking decides.  Vertices are
    matched most-constrained-first (rarest color, most mapped neighbors).
    """
    if max(g1.n, g2.n) > ISO_VERTEX_CAP:
        raise ValueError(f"isomorphism capped at {ISO_VERTEX_CAP} vertices")
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    c1, c2 = _joint_refine(g1, g2)
    if sorted(c1) != sorted(c2):
        return None
    by_color: dict[int, list[int]] = {}
    for w in range(g2.n):
        by_color.setdefault(c2[w], []).append(w)
    n = g1.n
    mapping = [-1] * n
    inverse = [-1] * n
    mapped_nbrs = [0] * n  # mapped neighbours of each g1 vertex
    color_rarity = {c: len(vs) for c, vs in by_color.items()}
    remaining = set(range(n))

    def fits(v: int, w: int) -> bool:
        """w can take v: edges to every mapped vertex agree both ways."""
        if inverse[w] >= 0 or g2.degree(w) != g1.degree(v):
            return False
        if any(not g2.has_edge(w, mapping[u])
               for u in g1.adjacency[v] if mapping[u] >= 0):
            return False
        return all(inverse[x] < 0 or g1.has_edge(v, inverse[x])
                   for x in g2.adjacency[w])

    def assign(v: int, w: int) -> None:
        mapping[v], inverse[w] = w, v
        for u in g1.adjacency[v]:
            mapped_nbrs[u] += 1

    def unassign(v: int) -> None:
        inverse[mapping[v]], mapping[v] = -1, -1
        for u in g1.adjacency[v]:
            mapped_nbrs[u] -= 1

    def open_frame() -> list:
        v = min(remaining,
                key=lambda x: (-mapped_nbrs[x], color_rarity[c1[x]], x))
        remaining.discard(v)
        return [v, iter(by_color[c1[v]])]

    # Depth-first backtracking on an explicit stack (the depth reaches n, past
    # Python's recursion limit for large fixtures).  A frame is a g1 vertex
    # and its remaining candidates; the top frame's vertex is unmapped.
    if not remaining:
        return mapping
    stack = [open_frame()]
    while stack:
        v, candidates = stack[-1]
        w = next((w for w in candidates if fits(v, w)), None)
        if w is None:
            stack.pop()
            remaining.add(v)
            if stack:
                unassign(stack[-1][0])
            continue
        assign(v, w)
        if not remaining:
            return mapping
        stack.append(open_frame())
    return None


def linear_folded_cube_map(graph: Graph, m: int) -> list[int] | None:
    """The isomorphism of a Cayley graph on an XOR group onto the folded
    m-cube fixture, read off its connection set S, or None.

    The fixture is Cay(GF(2)^d, {e_1, ..., e_d, 1}) with d = m - 1, vertex u
    adjacent to u ^ e_i and to u ^ ones.  When S has d + 1 elements that span
    and XOR to 0, its only dependency is the sum of all of S, so the linear
    map sending the first d elements of S to e_1..e_d sends the last one to
    ones.  The map is returned only after every vertex's neighbours are
    checked to land on the fixture's, so S is never trusted.
    """
    d = m - 1
    if not isinstance(graph, CayleyGraph) or not graph.xor_group or graph.n != 1 << d:
        return None
    conn = graph.connection
    if len(conn) != m or not all(0 < s < graph.n for s in conn) or reduce(xor, conn):
        return None
    preimage = [0]  # preimage[u]: the graph vertex sent to fixture vertex u
    for s in conn[:d]:
        preimage += [x ^ s for x in preimage]
    mapping = [-1] * graph.n
    for u, v in enumerate(preimage):
        mapping[v] = u
    if -1 in mapping:  # the first d elements do not span
        return None
    steps = {1 << i for i in range(d)} | {(1 << d) - 1}
    adjacency = graph.adjacency
    for u, v in enumerate(preimage):
        if {mapping[w] ^ u for w in adjacency[v]} != steps:
            return None
    return mapping


def folded_cube_isomorphism(graph: Graph, m: int) -> list[int] | None:
    """An isomorphism of the graph onto the folded m-cube fixture, or None:
    the linear map of a syndrome coset graph, else the backtracking search,
    which is not tried on more than ISO_VERTEX_CAP vertices."""
    mapping = linear_folded_cube_map(graph, m)
    if mapping is None and 2 ** (m - 1) <= ISO_VERTEX_CAP:
        mapping = graph_isomorphic(graph, construct_fixture("folded_cube", m=m))
    return mapping


def max_clique(graph: Graph) -> int:
    """Exact clique number by branch-and-bound with a greedy coloring bound."""
    n = graph.n
    if n > CLIQUE_VERTEX_CAP:
        raise ValueError(f"clique search capped at {CLIQUE_VERTEX_CAP} vertices")
    if n == 0:
        return 0
    masks = [0] * n
    for v in range(n):
        for w in graph.adjacency[v]:
            masks[v] |= 1 << w
    order = sorted(range(n), key=graph.degree, reverse=True)
    best = 1

    def color_bound(cand: list[int]) -> list[tuple[int, int]]:
        # greedy coloring; result sorted by color so the bound prunes validly
        class_masks: list[int] = []
        class_lists: list[list[int]] = []
        for v in cand:
            for ci, cmask in enumerate(class_masks):
                if not (cmask & masks[v]):
                    class_masks[ci] |= 1 << v
                    class_lists[ci].append(v)
                    break
            else:
                class_masks.append(1 << v)
                class_lists.append([v])
        out = []
        for ci, members in enumerate(class_lists):
            out.extend((v, ci + 1) for v in members)
        return out

    def expand(cand: list[int], size: int) -> None:
        nonlocal best
        colored = color_bound(cand)
        for i in range(len(colored) - 1, -1, -1):
            v, bound = colored[i]
            if size + bound <= best:
                return
            nxt = [u for u, _ in colored[:i] if masks[v] >> u & 1]
            if size + 1 > best:
                best = size + 1
            if nxt:
                expand(nxt, size + 1)

    expand(order, 0)
    return best


# -- quotient family recognition --------------------------------------------------


@dataclass(frozen=True)
class QuotientFamily:
    tag: str  # hamming | doob | folded_cube | ia654_non_folded |
    #           complete_bipartite | other   (complete graphs tag as hamming m=1)
    params: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {"tag": self.tag, "params": dict(self.params),
                "evidence": jsonable(self.evidence)}


def _hamming_array_params(array: IntersectionArray) -> tuple[int, int] | None:
    m = array.diameter
    if array.k % m:
        return None
    qprime = array.k // m + 1
    ok = all(array.b_at(i) == (m - i) * (qprime - 1) for i in range(m)) and all(
        array.c_at(i) == i for i in range(1, m + 1)
    )
    return (m, qprime) if ok else None


def _folded_array_m(array: IntersectionArray) -> int | None:
    """m with array == folded m-cube array, m >= 4.

    Even m = 2D: b_i = 2D-i, c_i = i (i < D), c_D = 2D.
    Odd  m = 2D+1: b_i = 2D+1-i, c_i = i (i < D), c_D = D.
    """
    d = array.diameter
    if d < 2:
        return None
    if array.k == 2 * d:  # even candidate
        ok = all(array.b_at(i) == 2 * d - i for i in range(d)) and all(
            array.c_at(i) == i for i in range(1, d)
        ) and array.c_at(d) == 2 * d
        if ok:
            return 2 * d
    if array.k == 2 * d + 1:  # odd candidate
        ok = all(array.b_at(i) == 2 * d + 1 - i for i in range(d)) and all(
            array.c_at(i) == i for i in range(1, d)
        ) and array.c_at(d) == d
        if ok:
            return 2 * d + 1
    return None


IA_654 = IntersectionArray((6, 5, 4), (1, 2, 6))


def _local_shape_census(graph: Graph):
    """Count triangle / hexagon components vertex by vertex; None on surprise."""
    shape = None
    for v in local_roots(graph):
        profile = local_component_profile(graph, v)
        tri = sum(1 for size, e in profile if (size, e) == (3, 3))
        hexa = sum(1 for size, e in profile if (size, e) == (6, 6))
        if tri + hexa != len(profile):
            return None
        if shape is None:
            shape = (hexa, tri)
        elif shape != (hexa, tri):
            return None
    return shape


def classify_quotient(graph: Graph, drg=None) -> QuotientFamily:
    """Match a certified distance-regular graph against the closed families."""
    if drg is None:
        drg = certify_distance_regular(graph)
    if not drg.is_drg:
        raise ValueError("classification needs a distance-regular input")
    array = drg.array
    evidence = {"array": array}
    d = array.diameter
    if d == 0:
        return QuotientFamily("other", {"vertices": graph.n}, evidence)
    if d == 1:
        # complete graph: the Hamming tag takes precedence for m = 1
        return QuotientFamily(
            "hamming", {"m": 1, "q": graph.n},
            {**evidence, "alias": "complete_graph"})

    ham = _hamming_array_params(array)
    if ham is not None:
        m, qprime = ham
        if qprime == 4:
            shape = _local_shape_census(graph)
            if shape is None:
                return QuotientFamily("other", {}, {**evidence, "local": "unrecognized"})
            hexa, tri = shape
            if hexa == 0:
                return QuotientFamily("hamming", {"m": m, "q": 4},
                                      {**evidence, "local": "all_triangles"})
            if 2 * hexa + tri == m:
                return QuotientFamily(
                    "doob", {"shrikhande_factors": hexa, "clique_factors": tri},
                    {**evidence, "local": f"{hexa}_hexagons_{tri}_triangles"})
            return QuotientFamily("other", {}, {**evidence, "local": "inconsistent"})
        # local graph of H(m, q') is m disjoint cliques K_{q'-1}
        clique_edges = (qprime - 1) * (qprime - 2) // 2
        want = tuple(sorted([(qprime - 1, clique_edges)] * m))
        for v in local_roots(graph):
            if local_component_profile(graph, v) != want:
                return QuotientFamily("other", {}, {**evidence, "local": "not_hamming_local"})
        return QuotientFamily("hamming", {"m": m, "q": qprime}, evidence)

    if d == 2 and array.b == (array.k, array.k - 1) and array.c == (1, array.k):
        v = array.k
        extra = {"alias": "folded_4_cube"} if v == 4 else {}
        return QuotientFamily("complete_bipartite", {"v": v}, {**evidence, **extra})

    folded_m = _folded_array_m(array)
    if folded_m is not None and folded_m >= 5:
        iso = folded_cube_isomorphism(graph, folded_m)
        if iso is None and 2 ** (folded_m - 1) > ISO_VERTEX_CAP:
            iso = "by_array_parameters"
        if iso is not None:
            return QuotientFamily("folded_cube", {"m": folded_m},
                                  {**evidence, "isomorphism": iso})
        if array == IA_654:
            return QuotientFamily("ia654_non_folded", {}, evidence)
        return QuotientFamily("other", {}, {**evidence, "folded_iso": "failed"})

    return QuotientFamily("other", {}, evidence)


# -- clique bounds on quotients ----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | INAPPLICABLE
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def clique_bound_checks(q: int, family: QuotientFamily, array: IntersectionArray,
                        min_distance: int | None) -> list[CheckResult]:
    """The four restrictions on the coset graph of an additive code over a
    q-ary alphabet that hold when the code has minimum distance at least 2;
    inapplicable (never asserted) otherwise.  ``min_distance`` is the code's
    delta, None for a one-word code."""
    names = ("hamming_alphabet_bound", "no_doob_quotient_q_ge_4",
             "no_folded_array_q_ge_3", "additive_654_array_is_folded")
    if min_distance is not None and min_distance < 2:
        return [CheckResult(n, "INAPPLICABLE", f"class min distance {min_distance} < 2")
                for n in names]
    out = []
    if family.tag == "hamming":
        status = "PASS" if family.params["q"] >= q else "FAIL"
        out.append(CheckResult(names[0], status,
                               f"q'={family.params['q']} vs q={q}"))
    else:
        out.append(CheckResult(names[0], "INAPPLICABLE", "quotient not Hamming"))
    if q >= 4:
        out.append(CheckResult(names[1], "FAIL" if family.tag == "doob" else "PASS"))
    else:
        out.append(CheckResult(names[1], "INAPPLICABLE", "q < 4"))
    if q >= 3:
        folded_m = _folded_array_m(array)
        bad = folded_m is not None and folded_m >= 4  # diameter >= 2
        out.append(CheckResult(names[2], "FAIL" if bad else "PASS"))
    else:
        out.append(CheckResult(names[2], "INAPPLICABLE", "q < 3"))
    if array == IA_654:
        ok = q == 2 and family.tag == "folded_cube" and family.params.get("m") == 6
        out.append(CheckResult(names[3], "PASS" if ok else "FAIL"))
    else:
        out.append(CheckResult(names[3], "INAPPLICABLE",
                               "not an additive partition with the {6,5,4;1,2,6} array"))
    return out


_ARITHMETIC_QUOTIENT_FAMILIES = frozenset(
    {"hamming", "doob", "folded_cube", "ia654_non_folded"})


def coset_graph_checks(code: Code, analysis: CodeAnalysis, family: QuotientFamily,
                       array: IntersectionArray) -> list[CheckResult]:
    """Every theorem check on the coset graph of a CR additive code: the
    clique bounds, no Doob coset graph for a linear code, and (for an
    arithmetic spectrum with rho >= 3) an allowed quotient family."""
    out = clique_bound_checks(code.ambient.q, family, array, analysis.delta)
    if code.is_linear:
        out.append(CheckResult("no_doob_coset_quotient",
                               "FAIL" if family.tag == "doob" else "PASS"))
    if analysis.arithmetic.arithmetic and analysis.rho >= 3:
        out.append(CheckResult(
            "arithmetic_quotient_family",
            "PASS" if family.tag in _ARITHMETIC_QUOTIENT_FAMILIES else "FAIL",
            family.tag))
    return out


# -- coordinate and column equivalence ----------------------------------------------


def _classes(n: int, joined) -> tuple[tuple[int, ...], ...]:
    """Classes of the equivalence on range(n) generated by the joined pairs,
    each sorted, listed by least member."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in joined:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def coordinate_classes(code: Code) -> tuple[tuple[int, ...], ...]:
    """Classes of i ~ j iff some scalar multiple of e_j equals e_i mod C.

    Concretely: e_i - lambda * e_j is a codeword for some nonzero lambda.
    Additivity makes this an equivalence relation.  For a linear code that
    is h_i = lambda h_j, tested as a syndrome: columns parallel over GF(q),
    with the zero columns as one more class.
    """
    if not is_additive(code):
        raise ValueError("coordinate classes need an additive code")
    space = code.ambient
    q, n = space.q, space.n
    alpha = space.alphabet
    return _classes(n, ((i, j) for i in range(n) for j in range(i + 1, n)
                        if any(q**i + alpha.neg(lam) * q**j in code
                               for lam in range(1, q))))


@dataclass(frozen=True)
class ColumnClassReport:
    classes: tuple[tuple[int, ...], ...]
    uniform: bool
    class_size: int | None
    gamma1: int
    matches_gamma1: bool
    representatives: tuple[int, ...]
    restricted_code: Code  # the code cut down to one coordinate per class
    restricted_delta: int | None

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "uniform": self.uniform,
            "class_size": self.class_size,
            "gamma1": self.gamma1,
            "matches_gamma1": self.matches_gamma1,
            "representatives": list(self.representatives),
        }


def column_classes(code: Code, analysis: CodeAnalysis | None = None) -> ColumnClassReport:
    """Parallel-column classes of the parity check of a reduced linear CR code.

    They are its coordinate classes: with no zero column, e_i - lambda e_j
    is in C exactly when h_i = lambda h_j.  Class size must be uniformly
    gamma_1; the deduplicated column selection P (smallest index per class)
    defines D = nullspace(H|_P), the factor of C on P, which is checked to
    have minimum distance >= 3 whenever it is nontrivial.
    """
    if not code.is_linear:
        raise ValueError("column classes need a linear code")
    if not is_reduced(code):
        raise ValueError("column classes are defined for reduced codes")
    analysis = analysis or analyze_code(code)
    if not analysis.cr:
        raise ValueError("column classes need a completely regular code")
    if analysis.delta is not None and analysis.delta < 2:
        raise TheoremViolationError(
            "reduced nontrivial linear CR code with minimum distance < 2",
            witness=code)
    classes = coordinate_classes(code)
    sizes = {len(c) for c in classes}
    uniform = len(sizes) == 1
    gamma1 = analysis.numbers.gamma[1] if analysis.numbers.rho >= 1 else 0
    class_size = sizes.pop() if uniform else None
    if not uniform or class_size != gamma1:
        raise TheoremViolationError(
            "column classes of a certified CR code are not uniformly gamma_1",
            witness={"classes": classes, "gamma1": gamma1})
    reps = tuple(c[0] for c in classes)
    restricted = restrict_to_coordinates(code, reps)
    delta_d = minimum_distance(restricted) if restricted.size >= 2 else None
    if delta_d is not None and delta_d < 3:
        raise TheoremViolationError(
            "deduplicated code has minimum distance < 3", witness=restricted)
    return ColumnClassReport(classes, uniform, class_size, gamma1,
                             class_size == gamma1, reps, restricted, delta_d)


# -- product decomposition ----------------------------------------------------------


def _support_mask(word: int, space) -> int:
    q, mask, i = space.q, 0, 0
    while word:
        word, d = divmod(word, q)
        if d:
            mask |= 1 << i
        i += 1
    return mask


def finest_product_blocks(code: Code) -> tuple[tuple[int, ...], ...]:
    """Finest coordinate partition with C equal to the product of its
    restrictions.

    A codeword is decomposable if it splits as a sum of two codewords with
    disjoint supports; blocks are the connected components of the supports of
    the indecomposable codewords (uncovered coordinates become singletons).
    """
    if not is_additive(code):
        raise ValueError("product decomposition needs an additive code")
    space = code.ambient
    supports = {w: _support_mask(w, space) for w in code.members if w}
    joined = []
    for c, m in supports.items():
        for c1, m1 in supports.items():
            if c1 != c and m1 & m == m1 and supports.get(word_sub(c, c1, space)) == m & ~m1:
                break  # c is decomposable
        else:
            bits = [i for i in range(space.n) if m >> i & 1]
            joined += [(bits[0], b) for b in bits[1:]]
    return _classes(space.n, joined)


def restrict_to_coordinates(code: Code, coords: tuple[int, ...]) -> Code:
    """Words of C supported inside coords, read off on those coordinates.

    For a linear code that is the code of H_B, the columns of H on the
    block B: a word x supported inside B has Hx = H_B x_B, so it is in C
    exactly when H_B x_B = 0.  Other codes are filtered member by member."""
    space = code.ambient
    q = space.q
    h = code.linear.parity_check if code.is_linear else None
    if h is not None and h.nrows:
        return code_from_parity_check(ambient(len(coords), q), h.take_columns(coords))
    coord_set = set(coords)
    members = []
    for w in code.members:
        digits = decode(w, space.n, q)
        if any(d and i not in coord_set for i, d in enumerate(digits)):
            continue
        members.append(encode([digits[i] for i in coords], q))
    return code_from_words(ambient(len(coords), q), sorted(set(members)))


def product_factors(code: Code, blocks: tuple[tuple[int, ...], ...]
                    ) -> tuple[tuple[Code, ...], tuple[CrCertificate, ...]]:
    """The factor of C on each block (``restrict_to_coordinates``) and each
    factor's completely-regular certificate."""
    factors = tuple(restrict_to_coordinates(code, b) for b in blocks)
    return factors, tuple(certify_completely_regular(f) for f in factors)


def radius_one_factors_equivalent(factors: tuple[Code, ...],
                                  certs: tuple[CrCertificate, ...]) -> bool:
    """Whether the factors of a reduced linear code are all completely
    regular with covering radius 1 and pairwise monomially equivalent.

    Let a linear code with no zero parity-check column be CR with rho = 1.
    Every nonzero syndrome s is then at distance 1, reached by exactly
    gamma_1 pairs (lambda, j) with lambda h_j = s.  Counting these pairs over
    the q - 1 nonzero vectors of one projective point gives (q - 1) gamma_1,
    and also q - 1 for each column of H on that point; so every projective
    point of GF(q)^r holds exactly gamma_1 columns of H.  Hence (n, q, |C|)
    fix H up to column permutation and scaling, and the code up to a
    monomial map.  A factor of a reduced code has no zero column: e_i in a
    factor is e_i in C.
    """
    return (all(c.completely_regular and c.partition.rho == 1 for c in certs)
            and len({(f.ambient.n, f.size) for f in factors}) == 1)


@dataclass(frozen=True)
class DecompositionReport:
    blocks: tuple[tuple[int, ...], ...]
    factors: tuple[Code, ...]
    factor_radii: tuple[int, ...]
    verified: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "factor_sizes": [f.size for f in self.factors],
            "factor_radii": list(self.factor_radii),
            "verified": self.verified,
            "detail": self.detail,
        }


def decompose_product(code: Code, family: QuotientFamily,
                      min_distance: int) -> DecompositionReport:
    """Under an H(m, q') quotient, split an additive code with min distance
    (given, as computed by ``analyze_code``) >= 2 into m blockwise factors of
    covering radius 1 and verify that their product is the code.

    The factors are the words of C supported inside disjoint blocks, so their
    direct sum is a subgroup of C of size prod |C_B|; C is that product
    exactly when prod |C_B| = |C|."""
    if family.tag != "hamming":
        raise ValueError("decomposition applies to Hamming-quotient codes")
    if not is_additive(code):
        raise ValueError("decomposition needs an additive code")
    if min_distance < 2:
        raise ValueError("decomposition needs minimum distance >= 2")
    m = family.params["m"]
    blocks = finest_product_blocks(code)
    if len(blocks) != m or len({len(b) for b in blocks}) != 1:
        return DecompositionReport(
            blocks, (), (), False,
            f"expected {m} equal blocks, found sizes {[len(b) for b in blocks]}")
    factors, certs = product_factors(code, blocks)
    if not all(c.completely_regular for c in certs):
        return DecompositionReport(blocks, factors, (), False,
                                   "factor is not completely regular")
    radii = tuple(c.partition.rho for c in certs)
    if any(r != 1 for r in radii):
        return DecompositionReport(blocks, factors, radii, False,
                                   "factor covering radius differs from 1")
    verified = prod(f.size for f in factors) == code.size
    return DecompositionReport(blocks, factors, radii, verified,
                               "" if verified else "product does not rebuild the code")


# -- code equivalence tests -----------------------------------------------------------


def is_hamming_equivalent(code: Code) -> bool:
    """Monomial equivalence to the canonical Hamming code of its parameters.

    Sound and complete: the normalized parity-check columns must be exactly
    the projective points of GF(q)^r, a condition invariant under any basis
    change of the check matrix.
    """
    if not code.is_linear:
        return False
    alpha = code.ambient.alphabet
    q, n = code.ambient.q, code.ambient.n
    h = code.linear.row_basis()
    r = h.nrows
    if r < 2 or (q**r - 1) // (q - 1) != n:
        return False
    seen = set()
    for col in h.columns():
        lead = next((x for x in col if x), None)
        if lead is None:
            return False
        inv = alpha.inv(lead)
        seen.add(tuple(alpha.mul(inv, x) for x in col))
    return len(seen) == n


def is_extended_hamming_equivalent(code: Code) -> bool:
    """Permutation equivalence to the canonical binary extended Hamming code
    of length n = 2^r, r >= 2.

    Its dual is the first-order Reed-Muller code RM(1, r) (MacWilliams &
    Sloane, ch. 13), spanned by the all-ones word and the r coordinate
    functions: its columns are (1, v) for the 2^r vectors v of GF(2)^r.  So
    a binary linear code is equivalent exactly when the row basis of its H
    has rank r + 1, has the all-ones word in its row space, and has pairwise
    distinct columns.  Sound: take a basis of the row space led by the
    all-ones word; its other r rows give n = 2^r distinct columns, so every
    vector of GF(2)^r once, which is RM(1, r) up to a coordinate permutation.
    Complete: RM(1, r) has all three properties.  A change of basis keeps
    columns distinct, so the row basis itself can be tested.
    """
    space = code.ambient
    if space.q != 2 or not code.is_linear:
        return False
    n = space.n
    r = n.bit_length() - 1
    if n != 2**r or r < 2 or code.linear.rank != r + 1:
        return False
    basis = code.linear.row_basis()
    return (len(set(basis.columns())) == n
            and rank(GFMatrix(basis.alphabet, (*basis.rows, (1,) * n))) == r + 1)


# -- covering radius <= 2 classification ----------------------------------------------


@dataclass(frozen=True)
class SmallRadiusReport:
    case: str | None  # hamming | hamming_product | extended_hamming |
    #                   None (violation)
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"case": self.case, "detail": jsonable(self.detail)}


def classify_small_covering_radius(code: Code,
                                   analysis: CodeAnalysis | None = None) -> SmallRadiusReport:
    """Covering radius 1 forces a perfect Hamming-equivalent code; radius 2
    forces a two-block product of one Hamming code or (binary) an extended
    Hamming code."""
    analysis = analysis or analyze_code(code)
    if not code.is_linear:
        raise ValueError("classification applies to linear codes")
    if analysis.delta is None or analysis.delta < 3:
        raise ValueError("classification needs minimum distance >= 3")
    if not analysis.cr or not analysis.arithmetic.arithmetic:
        raise ValueError("classification needs a CR code with arithmetic spectrum")
    rho = analysis.rho
    if rho not in (1, 2):
        raise ValueError("classification covers covering radius 1 and 2 only")
    if rho == 1:
        perfect = code.size * sphere_size(code.ambient, 1) == code.ambient.size
        if perfect and is_hamming_equivalent(code):
            return SmallRadiusReport("hamming", {"perfect": True})
        return SmallRadiusReport(None, {"perfect": perfect})
    blocks = finest_product_blocks(code)
    if len(blocks) == 2 and len(blocks[0]) == len(blocks[1]):
        # Hamming-equivalent factors are perfect, so CR with rho = 1, and of
        # one length: the rho = 1 theorem makes them equivalent
        factors, certs = product_factors(code, blocks)
        if (all(is_hamming_equivalent(f) for f in factors)
                and radius_one_factors_equivalent(factors, certs)):
            return SmallRadiusReport(
                "hamming_product",
                {"factor_length": factors[0].ambient.n,
                 "factor_size": factors[0].size})
    if code.ambient.q == 2 and is_extended_hamming_equivalent(code):
        return SmallRadiusReport("extended_hamming", {})
    return SmallRadiusReport(None, {"blocks": [list(b) for b in blocks]})


# -- replicated parity-check normal forms ----------------------------------------------


@dataclass(frozen=True)
class NormalFormResult:
    matches: bool
    normal_form: GFMatrix | None
    copies: int
    base_length: int


def replicated_normal_form(code: Code, report: ColumnClassReport) -> NormalFormResult:
    """Verify C equals, up to the class-induced monomial map M, the nullspace
    of gamma_1 side-by-side copies of its deduplicated parity-check columns.

    M sends coordinate i, the b-th member of class j, to position b*m + j,
    scaled by the c_i with h_i = c_i h_p, p the class representative.  When
    every column is so scaled, normal M(x) = sum_i c_i x_i h_p = Hx, so M(C)
    lies in ker(normal); and the columns of H span what those of H_P span,
    so rank(normal) = rank(H_P) = rank(H).  M is a bijection, so M(C) and
    ker(normal) then have one size and are equal.  H_P is the parity check
    of the report's restricted code.
    """
    alpha = code.ambient.alphabet
    cols = code.linear.parity_check.columns()

    def scaled(i: int, rep: tuple[int, ...]) -> bool:
        lead = next(k for k, x in enumerate(rep) if x)
        c = alpha.div(cols[i][lead], rep[lead])
        return cols[i] == tuple(alpha.mul(c, x) for x in rep)

    matches = all(scaled(i, cols[p])
                  for p, cls in zip(report.representatives, report.classes) for i in cls)
    normal = replicate_columns(report.restricted_code.linear.parity_check, report.class_size)
    return NormalFormResult(matches, normal if matches else None, report.class_size,
                            len(report.classes))


# -- the four coset normal forms -------------------------------------------------------


@dataclass(frozen=True)
class ArithmeticFormsReport:
    """Which of the four structural forms a reduced linear arithmetic CR code
    matches; overlapping matches report every case."""

    cases: tuple[dict, ...]
    violation: bool
    column_report: ColumnClassReport | None = field(default=None, compare=False)

    def case_names(self) -> set[str]:
        return {c["case"] for c in self.cases}

    def to_json(self) -> dict:
        return {"cases": [jsonable(c) for c in self.cases], "violation": self.violation}


def classify_arithmetic_forms(code: Code, analysis: CodeAnalysis | None = None,
                              columns: ColumnClassReport | None = None,
                              graph: Graph | None = None) -> ArithmeticFormsReport:
    """The four forms of a reduced linear arithmetic CR code.  A caller that
    already holds the code's analysis, column classes or syndrome coset graph
    passes them in, and they are not recomputed."""
    analysis = analysis or analyze_code(code)
    if not code.is_linear:
        raise ValueError("form classification applies to linear codes")
    if code.size < 2 or code.size == code.ambient.size:
        raise ValueError("form classification needs a nontrivial code")
    if not analysis.reduced:
        raise ValueError("form classification needs a reduced code")
    if not analysis.cr:
        raise ValueError("form classification needs a completely regular code")
    if not analysis.arithmetic.arithmetic:
        raise ValueError("form classification needs an arithmetic spectrum")
    q = code.ambient.q
    rho = analysis.rho
    report = columns or column_classes(code, analysis)
    form = replicated_normal_form(code, report)
    d_code = report.restricted_code
    m = d_code.ambient.n
    cases = []
    if (q == 2 and form.matches and d_code.size == 2 and 2**m - 1 in d_code
            and m >= 2):
        if folded_cube_isomorphism(graph or coset_graph_by_syndrome(code), m) is not None:
            cases.append({
                "case": "folded_cube_replication",
                "copies": form.copies,
                "base_length": m,
                "quotient": f"folded_{m}_cube",
            })
    if rho == 1 and form.matches:
        degenerate = m == 1 and d_code.size == 1
        if degenerate or is_hamming_equivalent(d_code):
            cases.append({
                "case": "hamming_replication",
                "copies": form.copies,
                "base_length": m,
                "degenerate_base": degenerate,
            })
    if rho == 2 and q == 2 and form.matches and is_extended_hamming_equivalent(d_code):
        cases.append({
            "case": "extended_hamming_replication",
            "copies": form.copies,
            "base_length": m,
        })
    if rho >= 2:
        blocks = finest_product_blocks(code)
        if len(blocks) == rho:
            factors, certs = product_factors(code, blocks)
            if radius_one_factors_equivalent(factors, certs):
                cases.append({
                    "case": "radius_one_power",
                    "exponent": rho,
                    "factor_length": factors[0].ambient.n,
                })
    return ArithmeticFormsReport(tuple(cases), violation=not cases, column_report=report)


# -- Hamming-quotient pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class HammingQuotientReport:
    m: int
    qprime: int
    derived_t: int
    stripped: tuple[int, ...]
    forms: ArithmeticFormsReport

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "qprime": self.qprime,
            "derived_t": self.derived_t,
            "stripped": list(self.stripped),
            "forms": self.forms.to_json(),
        }


_COROLLARY_CASES = {"hamming_replication", "extended_hamming_replication",
                    "radius_one_power"}


def classify_hamming_quotient_code(code: Code, analysis: CodeAnalysis,
                                   family: QuotientFamily,
                                   forms: ArithmeticFormsReport | None = None
                                   ) -> HammingQuotientReport:
    """For a linear CR code whose coset graph is H(m, q'): derive the
    arithmetic step from the quotient spectrum mapping (t = gamma_1 q' / q),
    then classify the reduced code against the replication forms.  The
    code's analysis and its coset graph's family come from the caller, and
    so may the forms report of the code itself, used when it is reduced."""
    from .cr_analysis import reduce_code

    if not analysis.cr:
        raise ValueError("pipeline needs a completely regular code")
    if family.tag != "hamming":
        raise ValueError(f"coset graph is not a Hamming graph (got {family.tag})")
    m, qprime = family.params["m"], family.params["q"]
    q = code.ambient.q
    gamma1 = analysis.numbers.gamma[1]
    if (gamma1 * qprime) % q:
        raise TheoremViolationError(
            "derived arithmetic step gamma_1 q'/q is not an integer",
            witness={"gamma1": gamma1, "qprime": qprime, "q": q})
    derived_t = gamma1 * qprime // q
    if not analysis.arithmetic.arithmetic or analysis.arithmetic.t != derived_t:
        raise TheoremViolationError(
            "spectrum is not the arithmetic progression the quotient forces",
            witness={"spectrum": analysis.spectrum, "derived_t": derived_t})
    reduced, stripped = reduce_code(code)
    if forms is None or stripped:
        forms = classify_arithmetic_forms(reduced, None if stripped else analysis)
    cases = tuple(c for c in forms.cases if c["case"] in _COROLLARY_CASES)
    restricted = ArithmeticFormsReport(cases, violation=not cases,
                                       column_report=forms.column_report)
    return HammingQuotientReport(m, qprime, derived_t, stripped, restricted)
