"""Vertex partitions, coset partitions, quotient and coset graphs, and
distance-regularity certification with intersection arrays.

Every coset x + C of an additive code is C translated by x, an automorphism
of H(n, q) that permutes the cosets.  So the coset partition is equitable by
construction and certified by C's own certificate, each class has its
representative's neighbouring classes, and the quotient is vertex-transitive:
distance-regularity is read off class 0.

The coset graph of a linear code is the Cayley graph Cay(GF(q)^r, S), r the
rank of H, held as S, the nonzero multiples of the columns of the code's
echelon E, and certified on syndromes with no adjacency list.  Its class k
is the coset of syndrome k, so no word of the q^n is listed; the explicit
coset partition is for additive codes without a parity check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .algebra import Alphabet, GFMatrix, mat_vec
from .cr_analysis import (
    IntersectionNumbers,
    certify_completely_regular,
    first_conflict,
    layer_counts,
    tridiagonal_eigenvalues,
)
from .errors import (
    CapacityError,
    DisconnectedGraphError,
    NotAdditiveError,
    TheoremViolationError,
)
from .hamming_space import (
    DEFAULT_VERTEX_CAP,
    Code,
    ambient,
    code_from_parity_check,
    column_offsets,
    decode,
    encode,
    is_additive,
    neighbors,
    translate,
)

QUOTIENT_CLASS_CAP = 1 << 16


@dataclass(frozen=True)
class Graph:
    """Undirected loop-free graph as sorted adjacency tuples."""

    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency_sets[u]

    def __post_init__(self):
        for v, nbrs in enumerate(self.adjacency):
            if v in nbrs:
                raise ValueError("loops are not allowed")
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError("adjacency lists must be sorted and duplicate-free")
        sets = tuple(frozenset(a) for a in self.adjacency)
        for u in range(self.n):
            for v in sets[u]:
                if u not in sets[v]:
                    raise ValueError("adjacency is not symmetric")
        object.__setattr__(self, "_adjacency_sets", sets)

    def to_json(self) -> dict:
        out = {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


@dataclass(frozen=True)
class CosetQuotient(Graph):
    """The quotient of an additive code's coset partition: translations
    permute the cosets, so each class sees class 0's layering."""


@dataclass(frozen=True)
class CayleyGraph:
    """Cay(GF(q)^r, S), v ~ v + s for s in S, held as its alphabet, rank r
    and S (sorted vertex numbers, words of GF(q)^r) with no adjacency list;
    `explicit` builds one.  Translation by a vertex is an automorphism, so
    every vertex sees the layering vertex 0 sees.  ``max_vertices`` is the
    vertex cap of the code the graph comes from."""

    alphabet: Alphabet
    rank: int
    connection: tuple[int, ...]
    max_vertices: int = field(default=DEFAULT_VERTEX_CAP, compare=False)

    @property
    def n(self) -> int:
        return self.alphabet.q**self.rank

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(translate(self.connection, v, self.alphabet)))

    def explicit(self) -> Graph:
        """The adjacency list: each element of S translates every vertex."""
        q, r, count = self.alphabet.q, self.rank, self.n
        _refuse_large_quotient(count)
        translates = [translate(range(count), s, self.alphabet) for s in self.connection]
        adjacency = tuple(tuple(sorted(nbrs)) for nbrs in zip(*translates)) or ((),) * count
        labels = tuple(str(decode(s, r, q)) for s in range(count))
        return Graph(adjacency, labels)


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return Graph(tuple(tuple(sorted(a)) for a in adj),
                 tuple(labels) if labels is not None else None)


@dataclass(frozen=True)
class VertexPartition:
    """A partition of the vertices of H(n, q) into nonempty classes."""

    space: object
    class_of: tuple[int, ...] = field(compare=False)
    class_count: int
    representatives: tuple[int, ...]
    class_sizes: tuple[int, ...]


def coset_partition(code: Code) -> VertexPartition:
    """Translates of an additive code, ordered by smallest member."""
    if not is_additive(code):
        raise NotAdditiveError("coset partition needs an additive code")
    space = code.ambient
    space.require_materializable("coset partition")
    class_of = [-1] * space.size
    reps = []
    for v in range(space.size):
        if class_of[v] != -1:
            continue
        idx = len(reps)
        reps.append(v)
        for w in translate(code.members, v, space.alphabet):
            class_of[w] = idx
    sizes = (code.size,) * len(reps)
    return VertexPartition(space, tuple(class_of), len(reps), tuple(reps), sizes)


@dataclass(frozen=True)
class CrPartitionCertificate:
    is_cr_partition: bool
    numbers: IntersectionNumbers | None = None
    failure: str | None = None
    witness: object = None


def certify_cr_partition(code: Code) -> CrPartitionCertificate:
    """Certify the coset partition of the additive code C as a completely
    regular partition by C's one certificate.  Each class x + C is C
    translated by x, an automorphism of H(n, q), so the partition is
    equitable and every class has C's intersection numbers; the partition
    itself is not read.  Class 0 is C, so a C that is not CR fails as
    class 0."""
    cert = certify_completely_regular(code)
    if not cert.completely_regular:
        return CrPartitionCertificate(
            False, failure="class_not_completely_regular", witness=(0, cert.witness))
    return CrPartitionCertificate(True, numbers=cert.numbers)


def quotient_graph(partition: VertexPartition) -> CosetQuotient:
    """Classes adjacent iff some cross edge exists in H(n, q), for
    ``partition`` the coset partition of an additive code C (every
    VertexPartition the package builds).  A member x + c of the class of x
    has the neighbours x + c + lambda*e_j, in the classes of x + lambda*e_j,
    so each class is joined to the classes of its representative's n(q - 1)
    neighbours and no other word is walked."""
    _refuse_large_quotient(partition.class_count)
    class_of, space = partition.class_of, partition.space
    adjacency = tuple(
        tuple(sorted({class_of[w] for w in neighbors(rep, space)} - {c}))
        for c, rep in enumerate(partition.representatives))
    return CosetQuotient(adjacency, tuple(str(r) for r in partition.representatives))


def _refuse_large_quotient(classes: int) -> None:
    if classes > QUOTIENT_CLASS_CAP:
        raise CapacityError(f"refusing to materialize a quotient on {classes} classes; "
                            "use the syndrome construction instead")


def coset_graph_by_syndrome(code: Code) -> CayleyGraph:
    """Coset graph on syndrome words: s ~ s + lambda*h_i for nonzero lambda.

    Syndromes are taken with the code's echelon E, so the vertices are the
    q^rank words of GF(q)^rank and S is the distinct nonzero lambda*e_i,
    held alone.  Syndrome k is the coset of its least word, and least words
    keep syndrome order, so this is the quotient of the coset partition with
    class k at syndrome k (`syndrome_quotient_graph`), with no q^n word read.
    """
    if not code.is_linear:
        raise NotAdditiveError("syndrome construction needs a linear code")
    h = code.linear.echelon
    connection = tuple(sorted(set(column_offsets(h)) - {0}))
    return CayleyGraph(h.alphabet, h.nrows, connection, code.ambient.max_vertices)


def is_syndrome_quotient(code: Code, graph: CayleyGraph) -> bool:
    """Whether graph is the quotient of H(n, q) by the cosets of C, named by
    syndrome Ex, E the code's echelon: a Cayley graph on the q^rank
    syndromes whose S is the nonzero E(lambda e_j) for every coordinate j and
    nonzero lambda, each E times a word, independently of how S was found."""
    h = code.linear.echelon
    n, q = code.ambient.n, code.ambient.q
    steps = {encode(mat_vec(h, tuple(lam if i == j else 0 for i in range(n))), q)
             for j in range(n) for lam in range(1, q)} - {0}
    return (graph.alphabet, graph.rank, graph.connection) == (
        h.alphabet, h.nrows, tuple(sorted(steps)))


def syndrome_quotient_graph(code: Code, syndrome_graph: Graph) -> CosetQuotient:
    """The quotient graph of a linear code's coset partition: the explicit
    syndrome graph, class k labelled by its least word, its representative."""
    return CosetQuotient(syndrome_graph.adjacency,
                         tuple(str(code.linear.least_word(s)) for s in range(syndrome_graph.n)))


# -- distance-regularity -------------------------------------------------------


@dataclass(frozen=True)
class IntersectionArray:
    """{b_0, ..., b_{D-1}; c_1, ..., c_D} with derived a_i = k - b_i - c_i."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0]

    def b_at(self, i: int) -> int:
        return self.b[i] if i < len(self.b) else 0

    def c_at(self, i: int) -> int:
        return self.c[i - 1] if i >= 1 else 0

    def a_at(self, i: int) -> int:
        return self.k - self.b_at(i) - self.c_at(i)

    def validate(self) -> None:
        if self.c and self.c[0] != 1:
            raise TheoremViolationError("c_1 must be 1", witness=self)
        if min(self.b + self.c, default=1) < 1:
            raise TheoremViolationError(
                "every b_i and c_i must be positive", witness=self)

    def __str__(self) -> str:
        return "{%s;%s}" % (",".join(map(str, self.b)), ",".join(map(str, self.c)))


@dataclass(frozen=True)
class DrgCertificate:
    is_drg: bool
    array: IntersectionArray | None = None
    witness: object = None


def bfs_distances(graph: Graph, root: int) -> list[int]:
    dist = [-1] * graph.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in graph.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def certify_distance_regular(graph: Graph | CayleyGraph) -> DrgCertificate:
    """A regular graph is distance-regular when every vertex, as a one-vertex
    code, is completely regular with the same numbers: the `first_conflict`
    scan of the `layer_counts` of the BFS layers from every root, so b_i
    and c_i are the next and previous counts of layer i.  A CosetQuotient
    is vertex-transitive: every root repeats root 0's rows, so root 0 alone
    gives the all-roots verdict, array and witness.  A CayleyGraph is
    certified with no BFS and no adjacency list, by `_certify_cayley`.
    """
    if graph.n == 0:
        raise DisconnectedGraphError("empty graph")
    if graph.n == 1:
        return DrgCertificate(True, IntersectionArray((), ()))
    if isinstance(graph, CayleyGraph):
        return _certify_cayley(graph)
    degrees = {graph.degree(v) for v in range(graph.n)}
    if len(degrees) > 1:
        a = min(range(graph.n), key=graph.degree)
        b = max(range(graph.n), key=graph.degree)
        return DrgCertificate(False, witness=("degree", a, graph.degree(a), b, graph.degree(b)))

    def rows():
        for x in range(1 if isinstance(graph, CosetQuotient) else graph.n):
            dist = bfs_distances(graph, x)
            if min(dist) < 0:
                raise DisconnectedGraphError("graph is not connected")
            for y, i, counts in layer_counts(dist, graph.adjacency, range(graph.n)):
                yield (x, y), i, counts

    reference, conflict = first_conflict(rows())
    if conflict is not None:
        # equal degrees: a count differs one layer down or, if not, one up
        i, where, ref, at, counts = conflict
        j = 0 if ref[0] != counts[0] else 2
        return DrgCertificate(False, witness=("count", i, where, ref[j], at, counts[j]))
    diameter = len(reference) - 1
    array = IntersectionArray(
        b=tuple(reference[i][2] for i in range(diameter)),
        c=tuple(reference[i][0] for i in range(1, diameter + 1)),
    )
    array.validate()
    return DrgCertificate(True, array)


def _certify_cayley(graph: CayleyGraph) -> DrgCertificate:
    """Cay(GF(q)^r, S) is the coset graph of the projective code H', one
    column per projective point of S (its multiple whose lowest nonzero
    digit is 1).  H''s syndrome certificate is the BFS from vertex 0, so the
    graph is distance-regular exactly when H' is CR, with b_i = beta_i and
    c_i = gamma_i (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*,
    11.1).  A non-CR witness names its words' syndromes H'x, the graph's
    own vertices, and is recounted one layer down or, where those agree,
    one layer up around their syndromes Ex under the echelon E of H', which
    the class map names; E differs from H' when S holds no unit vector."""
    alpha, r, q = graph.alphabet, graph.rank, graph.alphabet.q
    columns = [d for d in (decode(s, r, q) for s in graph.connection)
               if next((x for x in d if x), 0) == 1]
    h = GFMatrix(alpha, tuple(zip(*columns)))
    if sorted(column_offsets(h)) != list(graph.connection):
        raise ValueError("the connection set must be nonzero and closed under nonzero scalars")
    m = len(columns)
    if m < r or (code := code_from_parity_check(
            ambient(m, q, graph.max_vertices), h)).linear.rank < r:
        raise DisconnectedGraphError("the connection set does not span the group")
    cert = certify_completely_regular(code)
    numbers, w = cert.numbers, cert.witness
    if w is None:
        array = IntersectionArray(numbers.beta[:numbers.rho], numbers.gamma[1:])
        array.validate()
        return DrgCertificate(True, array)
    words = [decode(x, m, q) for x in (w.vertex_a, w.vertex_b)]
    ys = [encode(mat_vec(h, x), q) for x in words]
    e = code.linear.echelon
    zs = [encode(mat_vec(e, x), q) for x in words]
    steps = column_offsets(e)
    j = 0 if w.direction == "previous" else 2
    (*_, a), (*_, b) = layer_counts(cert.partition.class_of_syndrome,
                                    {z: translate(steps, z, alpha) for z in zs}, zs)
    return DrgCertificate(False, witness=("count", w.class_index, (0, ys[0]), a[j],
                                          (0, ys[1]), b[j]))


def predicted_quotient_array(numbers: IntersectionNumbers) -> IntersectionArray:
    """Quotient array b_i = beta_i/gamma_1, c_i = gamma_i/gamma_1 (exact).
    Covering radius 0 gives the empty array of the one-vertex quotient."""
    rho = numbers.rho
    if rho == 0:
        return IntersectionArray((), ())
    g1 = numbers.gamma[1]
    values = list(numbers.beta[:rho]) + list(numbers.gamma[1:]) + [
        numbers.alpha[i] - numbers.alpha[0] for i in range(rho + 1)
    ]
    if any(v % g1 for v in values):
        raise TheoremViolationError(
            "gamma_1 does not divide the intersection data; "
            "the partition cannot have been completely regular",
            witness=numbers,
        )
    return IntersectionArray(
        b=tuple(numbers.beta[i] // g1 for i in range(rho)),
        c=tuple(numbers.gamma[i] // g1 for i in range(1, rho + 1)),
    )


def drg_spectrum(array: IntersectionArray) -> tuple[int, ...]:
    """Eigenvalues of the intersection matrix by exact integer scan."""
    d = array.diameter
    if d == 0:
        return (0,)
    k = array.k
    return tridiagonal_eigenvalues([array.a_at(i) for i in range(d + 1)],
                                   [array.c_at(i) for i in range(1, d + 1)],
                                   [array.b_at(i) for i in range(d)], range(-k, k + 1))
