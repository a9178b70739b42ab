"""Quotient-graph recognition and the structural classification of linear
completely regular codes with arithmetic spectra.

Recognition is parametric-plus-verification: intersection arrays are matched
against the closed families, and whenever parameters alone cannot decide
(H(m,4) vs Doob graphs; the array {6,5,4;1,2,6}) the tie is broken by local
structure or an isomorphism onto the folded cube, never by assumption.
A syndrome coset graph, held as its connection set S, gets that isomorphism
as a linear map read off S in O(m^2) steps at any size, reported as the
m - 1 syndromes sent to the basis vectors of the folded cube
Cay(GF(2)^(m-1), {e_1, ..., e_(m-1), 1}); one with a folded-cube array and
no such map is a theorem violation.  Its local checks read vertex 0 off S
(s ~ s' when s - s' is in S).  Only an explicit quotient graph gets the
isomorphism from a backtracking search against the folded-cube fixture, up
to ISO_VERTEX_CAP vertices, and is named by its array alone above that.

The structural classification reads a linear code's parity check H and
lists none of its members: membership is Hx = 0, coordinate classes are
classes of parallel columns, product blocks are components of RREF(H), the
factor on a block is the code of H's columns there (certified on its
syndromes), and the extended-Hamming and normal-form tests are identities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import prod
from operator import xor

from .algebra import GFMatrix, alphabet, rank
from .constructions import replicate_columns
from .cr_analysis import (
    CodeAnalysis,
    CrCertificate,
    analyze_code,
    certify_completely_regular,
)
from .errors import TheoremViolationError, jsonable
from .hamming_space import (
    Code,
    ambient,
    code_from_parity_check,
    code_from_words,
    column_offsets,
    decode,
    encode,
    is_additive,
    sphere_size,
)
from .partitions_quotients import (
    CayleyGraph,
    CosetQuotient,
    DrgCertificate,
    Graph,
    IntersectionArray,
    certify_distance_regular,
    coset_graph_by_syndrome,
    coset_partition,
    drg_spectrum,
    is_syndrome_quotient,
    predicted_quotient_array,
    quotient_graph,
)

ISO_VERTEX_CAP = 4096


# -- local structure, isomorphism -----------------------------------------------


def local_component_profile(graph: Graph | CayleyGraph, v: int) -> tuple[tuple[int, int], ...]:
    """(size, edge count) of each component of the neighborhood-induced graph."""
    nbrs = graph.neighbours(v)
    index = {w: i for i, w in enumerate(nbrs)}
    edges = [(i, j) for i, w in enumerate(nbrs) for u in graph.neighbours(w)
             if (j := index.get(u, -1)) > i]
    components = _classes(len(nbrs), edges)
    where = {i: k for k, members in enumerate(components) for i in members}
    edge_count = Counter(where[i] for i, _ in edges)
    return tuple(sorted((len(members), edge_count[k]) for k, members in enumerate(components)))


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
    """Explicit isomorphism g1 -> g2 of two explicit graphs, or a definitive
    None.

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


def linear_folded_cube_map(graph: CayleyGraph, m: int) -> tuple[int, ...] | None:
    """The linear isomorphism of a Cayley graph on an XOR group onto the
    folded m-cube fixture, read off its connection set S in O(m^2) steps, as
    the m - 1 syndromes s_1, ..., s_(m-1) it sends to e_1, ..., e_(m-1); or
    None.

    The fixture is Cay(GF(2)^d, {e_1, ..., e_d, 1}) with d = m - 1, vertex u
    adjacent to u ^ e_i and to u ^ ones.  When S has d + 1 elements whose
    first d are independent and which XOR to 0, the linear map sending the
    first d elements of S to e_1..e_d sends the last one to ones.  It maps S
    onto the fixture's connection set, so it is an isomorphism of the two
    Cayley graphs: the graph vertex sent to fixture vertex u is the XOR of
    the s_i over the set bits of u (bit i - 1 for s_i).
    """
    d = m - 1
    conn = graph.connection
    if (graph.alphabet.p != 2 or graph.n != 1 << d or len(conn) != m
            or reduce(xor, conn, 0)):
        return None
    pivots = {}  # the first elements of S, reduced, by leading bit
    for s in conn[:d]:
        while s and s.bit_length() in pivots:
            s ^= pivots[s.bit_length()]
        if not s:
            return None
        pivots[s.bit_length()] = s
    return conn[:d]


def folded_cube(m: int) -> Graph:
    """Antipodal quotient of the m-cube, the Cayley graph of GF(2)^(m-1) with
    S = {e_1, ..., e_(m-1), 1}: the target of the backtracking search on an
    explicit graph."""
    if m < 2:
        raise ValueError("folded cube needs m >= 2")
    if 2 ** (m - 1) > ISO_VERTEX_CAP:
        raise ValueError(f"fixture folded {m}-cube too large")
    steps = {1 << i for i in range(m - 1)} | {2 ** (m - 1) - 1}  # e_1 = 1 when m = 2
    return CayleyGraph(alphabet(2), m - 1, tuple(sorted(steps))).explicit()


def folded_cube_isomorphism(graph: Graph | CayleyGraph, m: int) -> dict | None:
    """The evidence entry that a graph with the folded m-cube's intersection
    array is the folded m-cube, or None.

    A Cayley graph gets its linear map, ``{"linear_isomorphism": [s_1, ...,
    s_(m-1)]}``.  A binary Cayley graph with this array always has one: S
    spans GF(2)^(m-1), so exactly one subset T of its m elements XORs to 0,
    and the graph is the folded |T|-cube times the (m - |T|)-cube, whose
    diameter is floor(m/2) only when T = S.  One over any other alphabet does
    not exist (q^r is not 2^(m-1), or a scalar-closed S is too small to
    span).  So a connection set without the map raises TheoremViolationError
    with S as its witness.  An explicit graph gets the backtracking search's
    vertex map, ``{"isomorphism": [...]}``, or None when the search refutes
    it; above ISO_VERTEX_CAP vertices no search is run and the array alone
    names it, ``{"isomorphism": "by_array_parameters"}``."""
    if isinstance(graph, CayleyGraph):
        basis = linear_folded_cube_map(graph, m)
        if basis is None:
            raise TheoremViolationError(
                f"Cayley graph with the folded {m}-cube's array has no linear map "
                "onto the folded cube", witness=list(graph.connection))
        return {"linear_isomorphism": list(basis)}
    if 2 ** (m - 1) > ISO_VERTEX_CAP:
        return {"isomorphism": "by_array_parameters"}
    mapping = graph_isomorphic(graph, folded_cube(m))
    return None if mapping is None else {"isomorphism": mapping}


# -- quotient family recognition --------------------------------------------------


@dataclass(frozen=True)
class QuotientFamily:
    tag: str  # hamming | doob | folded_cube | ia654_non_folded |
    #           complete_bipartite | other   (complete graphs tag as hamming m=1)
    params: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict, compare=False)


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


def classify_quotient(graph: Graph | CayleyGraph, drg=None) -> QuotientFamily:
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
        # the local graphs: vertex 0 stands for every vertex of a Cayley graph
        # or a coset quotient, both vertex-transitive
        roots = 1 if isinstance(graph, (CayleyGraph, CosetQuotient)) else graph.n
        profiles = {local_component_profile(graph, v) for v in range(roots)}
        if qprime == 4:  # triangles and hexagons, the same at every vertex
            profile = profiles.pop()
            hexa, tri = profile.count((6, 6)), profile.count((3, 3))
            if profiles or hexa + tri != len(profile):
                return QuotientFamily("other", {}, {**evidence, "local": "unrecognized"})
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
        if profiles != {want}:
            return QuotientFamily("other", {}, {**evidence, "local": "not_hamming_local"})
        return QuotientFamily("hamming", {"m": m, "q": qprime}, evidence)

    if d == 2 and array.b == (array.k, array.k - 1) and array.c == (1, array.k):
        v = array.k
        extra = {"alias": "folded_4_cube"} if v == 4 else {}
        return QuotientFamily("complete_bipartite", {"v": v}, {**evidence, **extra})

    folded_m = _folded_array_m(array)
    if folded_m is not None and folded_m >= 5:
        iso = folded_cube_isomorphism(graph, folded_m)
        if iso is not None:
            return QuotientFamily("folded_cube", {"m": folded_m}, {**evidence, **iso})
        if array == IA_654:
            return QuotientFamily("ia654_non_folded", {}, evidence)
        return QuotientFamily("other", {}, {**evidence, "folded_iso": "failed"})

    return QuotientFamily("other", {}, evidence)


def coset_family(context: CheckContext) -> tuple[DrgCertificate, QuotientFamily] | None:
    """The DRG certificate of a CR code's coset graph and the graph's family;
    None for a code that is not CR.  A code that is not additive has no
    coset graph and is refused (`coset_partition` raises NotAdditiveError),
    and a coset graph that is not distance-regular is a theorem violation.

    A linear code whose nonzero columns of H are pairwise non-parallel (its
    (n - z)(q - 1) nonzero column offsets are distinct, z the number of zero
    columns) is, up to monomial equivalence and its z free coordinates, the
    code H' whose certificate certifies Cay(GF(q)^r, S) in
    `certify_distance_regular`.  A zero column is a loop: it leaves S, and
    the code's beta_i and gamma_i, unchanged.  The code's own CR
    certificate then gives the array b_i = beta_i, c_i = gamma_i, and H' is
    not certified again."""
    code, certificate = context.code, context.analysis.certificate
    if not certificate.completely_regular:
        return None
    graph = (coset_graph_by_syndrome(code) if code.is_linear
             else quotient_graph(coset_partition(code)))
    if code.is_linear and len(graph.connection) == (code.ambient.q - 1) * sum(
            any(col) for col in code.linear.parity_check.columns()):
        numbers = certificate.numbers
        array = IntersectionArray(numbers.beta[:numbers.rho], numbers.gamma[1:])
        array.validate()
        drg = DrgCertificate(True, array)
    else:
        drg = certify_distance_regular(graph)
    if not drg.is_drg:
        raise TheoremViolationError(
            "coset graph of a CR code is not distance-regular", witness=drg.witness)
    return drg, classify_quotient(graph, drg)


# -- clique bounds on quotients ----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | INAPPLICABLE
    detail: str = ""


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
    Additivity, not scanned again here (the coset family refuses any other
    code), makes this an equivalence relation.  For a linear code that is
    h_i = lambda h_j, tested as a syndrome: columns parallel over GF(q),
    with the zero columns as one more class.
    """
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

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "uniform": self.uniform,
            "class_size": self.class_size,
            "gamma1": self.gamma1,
            "matches_gamma1": self.matches_gamma1,
            "representatives": list(self.representatives),
        }


def column_classes(context: CheckContext) -> ColumnClassReport | None:
    """Parallel-column classes of the parity check of a reduced linear CR
    code; None for any other code.

    They are its coordinate classes: with no zero column, e_i - lambda e_j
    is in C exactly when h_i = lambda h_j.  Class size must be uniformly
    gamma_1; the deduplicated column selection P (smallest index per class)
    defines D = nullspace(H|_P), the factor of C on P, whose minimum
    distance must be >= 3 whenever it is nontrivial: H|_P's columns must be
    nonzero and pairwise non-parallel.
    """
    code, analysis = context.code, context.analysis
    if not (code.is_linear and analysis.reduced and analysis.cr):
        return None
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
    if not _is_projective(restricted.linear.parity_check):
        raise TheoremViolationError(
            "deduplicated code has minimum distance < 3", witness=restricted)
    return ColumnClassReport(classes, uniform, class_size, gamma1,
                             class_size == gamma1, reps, restricted)


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

    For a linear code: the components of the column matroid of H (Oxley,
    *Matroid Theory*, 4.2), where each row of RREF(H) joins its pivot to its
    nonzero columns; zero columns and coloops stay singletons.  Otherwise a
    codeword is decomposable if it splits as a sum of two codewords with
    disjoint supports; blocks are the connected components of the supports
    of the indecomposable codewords (uncovered coordinates are singletons).
    """
    if not is_additive(code):
        raise ValueError("product decomposition needs an additive code")
    space = code.ambient
    if code.is_linear:
        linear = code.linear
        return _classes(space.n, ((p, j) for p, row in zip(
            linear.pivots or range(linear.rank), linear.echelon.rows)
                                  for j, x in enumerate(row) if x))
    supports = {w: _support_mask(w, space) for w in code.members if w}
    # words with disjoint supports add digit by digit with no carry
    decomposable = {c1 + c2 for c1, m1 in supports.items()
                    for c2, m2 in supports.items() if not m1 & m2}
    joined = []
    for c, m in supports.items():
        if c not in decomposable:
            bits = [i for i in range(space.n) if m >> i & 1]
            joined += [(bits[0], b) for b in bits[1:]]
    return _classes(space.n, joined)


def restrict_to_coordinates(code: Code, coords: tuple[int, ...]) -> Code:
    """Words of C supported inside coords, read off on those coordinates.

    For a linear code that is the code of H_B, the columns of H on the
    block B: a word x supported inside B has Hx = H_B x_B, so it is in C
    exactly when H_B x_B = 0.  Other codes are filtered member by member.
    Every coordinate, in order, gives C itself, with no new parity check."""
    space = code.ambient
    q = space.q
    if tuple(coords) == tuple(range(space.n)):
        return code
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


def decompose_product(context: CheckContext) -> DecompositionReport | None:
    """Under an H(m, q') coset graph, split a CR code with minimum distance
    at least 2 into m blockwise factors of covering radius 1 and verify that
    their product is the code; None for any other CR code.  Like
    `coset_family`, it refuses a code that is not additive.

    The factors are the words of C supported inside disjoint blocks, so their
    direct sum is a subgroup of C of size prod |C_B|; C is that product
    exactly when prod |C_B| = |C|."""
    coset, delta = context.coset, context.analysis.delta
    if coset is None or coset[1].tag != "hamming" or delta is None or delta < 2:
        return None
    m = coset[1].params["m"]
    blocks = context.blocks
    if len(blocks) != m or len({len(b) for b in blocks}) != 1:
        return DecompositionReport(
            blocks, (), (), False,
            f"expected {m} equal blocks, found sizes {[len(b) for b in blocks]}")
    factors, certs = context.factors
    if not all(c.completely_regular for c in certs):
        return DecompositionReport(blocks, factors, (), False,
                                   "factor is not completely regular")
    radii = tuple(c.partition.rho for c in certs)
    if any(r != 1 for r in radii):
        return DecompositionReport(blocks, factors, radii, False,
                                   "factor covering radius differs from 1")
    verified = prod(f.size for f in factors) == context.code.size
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
    q, n, r = code.ambient.q, code.ambient.n, code.linear.rank
    return r >= 2 and (q**r - 1) // (q - 1) == n and _is_projective(code.linear.echelon)


def _is_projective(h: GFMatrix) -> bool:
    """Whether the columns of h are nonzero and pairwise non-parallel, that
    is, their nonzero multiples are distinct and nonzero: the code of h then
    has no word of weight 1 or 2."""
    offsets = column_offsets(h)
    return 0 not in offsets and len(set(offsets)) == len(offsets)


def is_extended_hamming_equivalent(code: Code) -> bool:
    """Permutation equivalence to the canonical binary extended Hamming code
    of length n = 2^r, r >= 2.

    Its dual is the first-order Reed-Muller code RM(1, r) (MacWilliams &
    Sloane, ch. 13), spanned by the all-ones word and the r coordinate
    functions: its columns are (1, v) for the 2^r vectors v of GF(2)^r.  So
    a binary linear code is equivalent exactly when its echelon E, a basis
    of H's row space, has rank r + 1, has the all-ones word in its row
    space, and has pairwise distinct columns.  Sound: take a basis of the
    row space led by the all-ones word; its other r rows give n = 2^r
    distinct columns, so every vector of GF(2)^r once, which is RM(1, r) up
    to a coordinate permutation.  Complete: RM(1, r) has all three
    properties.  A change of basis keeps columns distinct, so E itself can
    be tested.
    """
    space = code.ambient
    if space.q != 2 or not code.is_linear:
        return False
    n = space.n
    r = n.bit_length() - 1
    if n != 2**r or r < 2 or code.linear.rank != r + 1:
        return False
    basis = code.linear.echelon
    return (len(set(basis.columns())) == n
            and rank(GFMatrix(basis.alphabet, (*basis.rows, (1,) * n))) == r + 1)


# -- covering radius <= 2 classification ----------------------------------------------


@dataclass(frozen=True)
class SmallRadiusReport:
    case: str | None  # hamming | hamming_product | extended_hamming |
    #                   binary_repetition | None (violation)
    detail: dict = field(default_factory=dict)


def classify_small_covering_radius(context: CheckContext) -> SmallRadiusReport | None:
    """For a linear CR code with minimum distance at least 3, an arithmetic
    spectrum and covering radius 1 or 2 (None for any other code): radius 1
    forces a perfect Hamming-equivalent code; radius 2 forces a two-block
    product of one Hamming code or, binary, an extended Hamming code or the
    repetition code {00000, 11111}, whose coset graph is the folded 5-cube."""
    code, analysis = context.code, context.analysis
    delta = analysis.delta
    if not (code.is_linear and analysis.cr and delta is not None and delta >= 3
            and analysis.arithmetic.arithmetic and analysis.rho in (1, 2)):
        return None
    if analysis.rho == 1:
        perfect = code.size * sphere_size(code.ambient, 1) == code.ambient.size
        if perfect and is_hamming_equivalent(code):
            return SmallRadiusReport("hamming", {"perfect": True})
        return SmallRadiusReport(None, {"perfect": perfect})
    blocks = context.blocks
    if len(blocks) == 2 and len(blocks[0]) == len(blocks[1]):
        # Hamming-equivalent factors are perfect, so CR with rho = 1, and of
        # one length: the rho = 1 theorem makes them equivalent
        factors = context.factors[0]
        if all(is_hamming_equivalent(f) for f in factors) and context.factors_equivalent:
            return SmallRadiusReport(
                "hamming_product",
                {"factor_length": factors[0].ambient.n,
                 "factor_size": factors[0].size})
    if code.ambient.q == 2 and is_extended_hamming_equivalent(code):
        return SmallRadiusReport("extended_hamming", {})
    if code.ambient.q == 2 and code.ambient.n == 5 and code.size == 2 and 2**5 - 1 in code:
        return SmallRadiusReport("binary_repetition", {})
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
    """Which of the four structural forms a nontrivial reduced linear
    arithmetic CR code matches; overlapping matches report every case."""

    cases: tuple[dict, ...]
    violation: bool
    column_report: ColumnClassReport | None = field(default=None, compare=False)

    def case_names(self) -> set[str]:
        return {c["case"] for c in self.cases}

    def to_json(self) -> dict:
        return {"cases": [jsonable(c) for c in self.cases], "violation": self.violation}


def classify_arithmetic_forms(context: CheckContext) -> ArithmeticFormsReport | None:
    """The four forms of a nontrivial (2 <= |C| < q^n) reduced linear CR code
    with an arithmetic spectrum, with its column classes; None for any other
    code."""
    code, analysis = context.code, context.analysis
    if not (code.is_linear and 2 <= code.size < code.ambient.size and analysis.reduced
            and analysis.cr and analysis.arithmetic.arithmetic):
        return None
    q = code.ambient.q
    rho = analysis.rho
    report = column_classes(context)
    form = replicated_normal_form(code, report)
    d_code = report.restricted_code
    m = d_code.ambient.n
    cases = []
    if (q == 2 and form.matches and d_code.size == 2 and 2**m - 1 in d_code
            and m >= 2):
        # raises unless the coset graph is the folded m-cube
        folded_cube_isomorphism(coset_graph_by_syndrome(code), m)
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
        if len(context.blocks) == rho and context.factors_equivalent:
            cases.append({
                "case": "radius_one_power",
                "exponent": rho,
                "factor_length": context.factors[0][0].ambient.n,
            })
    return ArithmeticFormsReport(tuple(cases), violation=not cases, column_report=report)


# -- Hamming-quotient pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class HammingQuotientReport:
    m: int
    qprime: int
    derived_t: int
    stripped: tuple[int, ...]  # always empty: forms exist only for reduced codes
    forms: ArithmeticFormsReport


_COROLLARY_CASES = {"hamming_replication", "extended_hamming_replication",
                    "radius_one_power"}


def classify_hamming_quotient_code(context: CheckContext) -> HammingQuotientReport | None:
    """For a code with arithmetic forms (`classify_arithmetic_forms`) whose
    coset graph is H(m, q'): derive the arithmetic step from the quotient
    spectrum mapping (t = gamma_1 q' / q), then keep the replication forms
    that the quotient allows.  None for any other code."""
    if context.forms is None or context.coset[1].tag != "hamming":
        return None
    code, analysis, forms = context.code, context.analysis, context.forms
    m, qprime = context.coset[1].params["m"], context.coset[1].params["q"]
    q = code.ambient.q
    gamma1 = analysis.numbers.gamma[1]
    if (gamma1 * qprime) % q:
        raise TheoremViolationError(
            "derived arithmetic step gamma_1 q'/q is not an integer",
            witness={"gamma1": gamma1, "qprime": qprime, "q": q})
    derived_t = gamma1 * qprime // q
    if analysis.arithmetic.t != derived_t:
        raise TheoremViolationError(
            "spectrum is not the arithmetic progression the quotient forces",
            witness={"spectrum": analysis.spectrum, "derived_t": derived_t})
    cases = tuple(c for c in forms.cases if c["case"] in _COROLLARY_CASES)
    restricted = ArithmeticFormsReport(cases, violation=not cases,
                                       column_report=forms.column_report)
    return HammingQuotientReport(m, qprime, derived_t, (), restricted)


# -- the table of theorem checks ---------------------------------------------------------


class CheckContext:
    """One code and what its theorem checks read: the analysis it is given
    (or computes) and, each computed on first use and shared by every row,
    its coset graph's certificate and family, its product blocks and
    factors, and its structure reports.  Each report is its classifier's
    result, cached; the classifier decides where its theorem applies and
    returns None elsewhere."""

    def __init__(self, code: Code, analysis: CodeAnalysis | None = None):
        self.code = code
        if analysis is not None:
            self.analysis = analysis

    @cached_property
    def analysis(self) -> CodeAnalysis:
        return analyze_code(self.code)

    @cached_property
    def coset(self) -> tuple[DrgCertificate, QuotientFamily] | None:
        return coset_family(self)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return finest_product_blocks(self.code)

    @cached_property
    def factors(self) -> tuple[tuple[Code, ...], tuple[CrCertificate, ...]]:
        return product_factors(self.code, self.blocks)

    @cached_property
    def factors_equivalent(self) -> bool:
        return radius_one_factors_equivalent(*self.factors)

    @cached_property
    def decomposition(self) -> DecompositionReport | None:
        return decompose_product(self)

    @cached_property
    def forms(self) -> ArithmeticFormsReport | None:
        return classify_arithmetic_forms(self)

    @cached_property
    def hamming_quotient(self) -> HammingQuotientReport | None:
        return classify_hamming_quotient_code(self)

    @cached_property
    def small_radius(self) -> SmallRadiusReport | None:
        return classify_small_covering_radius(self)


def _verdict(name: str, holds: bool | None, detail: str = "") -> list[CheckResult]:
    """One check's result: INAPPLICABLE when ``holds`` is None."""
    status = "INAPPLICABLE" if holds is None else "PASS" if holds else "FAIL"
    return [CheckResult(name, status, detail)]


def _arithmetic_quotient_family(c: CheckContext) -> list[CheckResult]:
    tag = c.coset[1].tag
    if not (c.analysis.arithmetic.arithmetic and c.analysis.rho >= 3):
        return []
    return _verdict("arithmetic_quotient_family", tag in _ARITHMETIC_QUOTIENT_FAMILIES, tag)


def _smallest_eigenvalue_bound(c: CheckContext) -> list[CheckResult]:
    slack = c.analysis.bounds.min_eigenvalue_slack
    return _verdict("smallest_eigenvalue_bound", None if slack is None else slack >= 0)


def _spectrum_scaling(c: CheckContext) -> list[CheckResult]:
    numbers = c.analysis.numbers
    scaled = tuple((eta - numbers.alpha[0]) // numbers.gamma[1] for eta in c.analysis.spectrum)
    return _verdict("spectrum_scaling", drg_spectrum(c.coset[0].array) == scaled)


# Every theorem check on a CR code, in order, as (section, row): a row maps
# the code's CheckContext to its results, none where its check cannot apply
# at all.  `crcodes classify` runs the coset_graph section, `crcodes
# decompose` the structure section, and the census every row.
THEOREM_CHECKS = (
    ("coset_graph", lambda c: clique_bound_checks(
        c.code.ambient.q, c.coset[1], c.coset[0].array, c.analysis.delta)),
    ("coset_graph", lambda c: _verdict("no_doob_coset_quotient", c.coset[1].tag != "doob")
     if c.code.is_linear else []),
    ("coset_graph", _arithmetic_quotient_family),
    ("structure", lambda c: _verdict("coset_case_forms", c.forms and not c.forms.violation)),
    ("structure", lambda c: _verdict(
        "product_decomposition", c.decomposition and c.decomposition.verified)),
    ("structure", lambda c: _verdict(
        "small_radius_case", c.small_radius and c.small_radius.case is not None)),
    ("census", _smallest_eigenvalue_bound),
    ("census", lambda c: _verdict(
        "reduced_min_distance", c.analysis.delta >= 2 if c.analysis.reduced else None)),
    ("census", lambda c: _verdict(
        "predicted_array_matches",
        predicted_quotient_array(c.analysis.numbers) == c.coset[0].array)),
    ("census", lambda c: _verdict(
        "syndrome_graph_isomorphic",
        is_syndrome_quotient(c.code, coset_graph_by_syndrome(c.code)))),
    ("census", _spectrum_scaling),
)


def run_checks(context: CheckContext, section: str | None = None) -> list[CheckResult]:
    """The results of the THEOREM_CHECKS rows of one section, or of every row."""
    return [result for where, row in THEOREM_CHECKS if section in (None, where)
            for result in row(context)]
