"""Vertex partitions, coset partitions, quotient and coset graphs, and
distance-regularity certification with intersection arrays.

The coset graph of a linear code is built on syndrome vertices only: a
Cayley graph on GF(q)^r, r the rank of H, whose connection set is the scaled
columns of the row basis of H, so dependent parity-check rows change
nothing.  The explicit coset partition and quotient graph are for additive
codes without a parity check and for showing the quotient itself, where the
class-to-syndrome bijection lets the two constructions be compared.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .algebra import mat_vec
from .cr_analysis import (
    CrCertificate,
    IntersectionNumbers,
    certify_completely_regular,
    tridiagonal_eigenvalues,
)
from .errors import (
    CapacityError,
    DisconnectedGraphError,
    NotAdditiveError,
    SpectrumError,
    TheoremViolationError,
)
from .hamming_space import (
    Code,
    column_offsets,
    decode,
    encode,
    is_additive,
    neighbor_table,
    translate,
    word_add,
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
class CayleyGraph(Graph):
    """A Cayley graph Cay(G, S): translation by a group element is an
    automorphism, so every vertex sees the same distance layering.

    ``connection`` is S as sorted vertex numbers, and ``xor_group`` says that
    G adds vertex numbers by XOR; a graph built without them (S empty)
    records no group.  Neither is compared: equality is the adjacency's.
    """

    connection: tuple[int, ...] = field(default=(), compare=False)
    xor_group: bool = field(default=False, compare=False)


def local_roots(graph: Graph) -> range:
    """The vertices whose local view stands for every vertex: vertex 0 of a
    vertex-transitive Cayley graph, every vertex of any other graph."""
    return range(1 if isinstance(graph, CayleyGraph) else graph.n)


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

    def class_members(self, i: int) -> list[int]:
        return [v for v, c in enumerate(self.class_of) if c == i]

    def classes(self) -> list[list[int]]:
        out = [[] for _ in range(self.class_count)]
        for v, c in enumerate(self.class_of):
            out[c].append(v)
        return out


def partition_from_classes(space, class_lists) -> VertexPartition:
    space.require_materializable("vertex partition")
    class_of = [-1] * space.size
    reps = []
    sizes = []
    for idx, members in enumerate(class_lists):
        members = sorted(
            m if isinstance(m, int) else encode(list(m), space.q) for m in members
        )
        if not members:
            raise ValueError("partition classes must be nonempty")
        for m in members:
            if class_of[m] != -1:
                raise ValueError(f"vertex {m} assigned to two classes")
            class_of[m] = idx
        reps.append(members[0])
        sizes.append(len(members))
    if any(c == -1 for c in class_of):
        raise ValueError("partition does not cover the space")
    return VertexPartition(space, tuple(class_of), len(reps), tuple(reps), tuple(sizes))


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
        for c in code.members:
            class_of[word_add(v, c, space)] = idx
    sizes = (code.size,) * len(reps)
    return VertexPartition(space, tuple(class_of), len(reps), tuple(reps), sizes)


@dataclass(frozen=True)
class CrPartitionCertificate:
    is_cr_partition: bool
    numbers: IntersectionNumbers | None = None
    class_certificates: tuple[CrCertificate, ...] | None = None
    failure: str | None = None
    witness: object = None


def _partition_equitable(partition: VertexPartition):
    """Class-to-class neighbor counts, or a conflicting-vertex witness."""
    space = partition.space
    class_of = partition.class_of
    reference: dict[int, dict[int, int]] = {}
    ref_vertex: dict[int, int] = {}
    table = neighbor_table(space)
    for v in range(space.size):
        c = class_of[v]
        counts: dict[int, int] = {}
        for w in table[v]:
            cw = class_of[w]
            counts[cw] = counts.get(cw, 0) + 1
        if c not in reference:
            reference[c] = counts
            ref_vertex[c] = v
        elif reference[c] != counts:
            return None, (ref_vertex[c], v, c)
    return reference, None


def certify_cr_partition(partition: VertexPartition) -> CrPartitionCertificate:
    """Certify that every class is completely regular with equal numbers and
    that the partition itself is equitable (the full definition)."""
    _, equit_witness = _partition_equitable(partition)
    if equit_witness is not None:
        return CrPartitionCertificate(
            False, failure="partition_not_equitable", witness=equit_witness)
    certs = []
    numbers = None
    for idx in range(partition.class_count):
        members = partition.class_members(idx)
        class_code = Code(partition.space, tuple(members))
        cert = certify_completely_regular(class_code)
        certs.append(cert)
        if not cert.completely_regular:
            return CrPartitionCertificate(
                False, failure="class_not_completely_regular",
                witness=(idx, cert.witness))
        if numbers is None:
            numbers = cert.numbers
        elif numbers != cert.numbers:
            return CrPartitionCertificate(
                False, failure="intersection_numbers_differ",
                witness=(idx, numbers, cert.numbers))
    return CrPartitionCertificate(True, numbers=numbers,
                                  class_certificates=tuple(certs))


def quotient_graph(partition: VertexPartition) -> Graph:
    """Classes adjacent iff some cross edge exists in H(n, q)."""
    if partition.class_count > QUOTIENT_CLASS_CAP:
        raise CapacityError(
            f"refusing to materialize a quotient on {partition.class_count} classes; "
            "use the syndrome construction instead")
    space = partition.space
    class_of = partition.class_of
    edges = set()
    table = neighbor_table(space)
    for v in range(space.size):
        cv = class_of[v]
        for w in table[v]:
            cw = class_of[w]
            if cv != cw:
                edges.add((cv, cw) if cv < cw else (cw, cv))
    labels = tuple(str(r) for r in partition.representatives)
    return graph_from_edges(partition.class_count, edges, labels)


def coset_graph_by_syndrome(code: Code) -> CayleyGraph:
    """Coset graph on syndrome words: s ~ s + lambda*h_i for nonzero lambda.

    Syndromes are taken with the row basis of H, so the vertices are the
    q^rank words of GF(q)^rank.  Isomorphic to the quotient graph of the
    coset partition (the coset of x goes to the syndrome Hx, see
    ``coset_to_syndrome``) without touching the q^n words.  Each element of
    the connection set translates every syndrome at once.
    """
    if not code.is_linear:
        raise NotAdditiveError("syndrome construction needs a linear code")
    h = code.linear.row_basis()
    alpha = h.alphabet
    q, r = alpha.q, h.nrows
    count = q**r
    connection = tuple(sorted(set(column_offsets(h)) - {0}))
    translates = [translate(range(count), s, alpha) for s in connection]
    # no connection only for rank 0: one vertex, no edges
    adjacency = tuple(tuple(sorted(nbrs)) for nbrs in zip(*translates)) or ((),)
    labels = tuple(str(decode(s, r, q)) if r else "()" for s in range(count))
    return CayleyGraph(adjacency, labels, connection, alpha.is_field and alpha.p == 2)


def coset_to_syndrome(code: Code, partition: VertexPartition) -> tuple[int, ...]:
    """The syndrome, under the row basis of H, of each class of the coset
    partition of a linear code, checked to be a bijection onto the q^rank
    syndromes."""
    h = code.linear.row_basis()
    space = code.ambient
    q = space.q
    r = h.nrows
    mapping = [encode(mat_vec(h, decode(rep, space.n, q)), q) if r else 0
               for rep in partition.representatives]
    if sorted(mapping) != list(range(q**r)):
        raise TheoremViolationError("coset-to-syndrome map is not a bijection",
                                    witness=mapping)
    return tuple(mapping)


def coset_graph(code: Code) -> Graph:
    """The coset graph of an additive code: the syndrome Cayley graph of a
    linear code, the explicit quotient of the coset partition otherwise."""
    if code.is_linear:
        return coset_graph_by_syndrome(code)
    return quotient_graph(coset_partition(code))


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

    def to_json(self) -> dict:
        return {"b": list(self.b), "c": list(self.c)}

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


def certify_distance_regular(graph: Graph) -> DrgCertificate:
    """BFS from every vertex; all (distance, direction) counts must agree.

    A CayleyGraph is vertex-transitive, so the BFS from vertex 0 alone gives
    the same verdict, array and witness (root 0 is scanned first either way).
    """
    if graph.n == 0:
        raise DisconnectedGraphError("empty graph")
    if graph.n == 1:
        return DrgCertificate(True, IntersectionArray((), ()))
    degrees = {graph.degree(v) for v in range(graph.n)}
    if len(degrees) > 1:
        a = min(range(graph.n), key=graph.degree)
        b = max(range(graph.n), key=graph.degree)
        return DrgCertificate(False, witness=("degree", a, graph.degree(a), b, graph.degree(b)))
    diameter = 0
    b_ref: dict[int, int] = {}
    c_ref: dict[int, int] = {}
    b_where: dict[int, tuple[int, int]] = {}
    c_where: dict[int, tuple[int, int]] = {}
    for x in local_roots(graph):
        dist = bfs_distances(graph, x)
        if min(dist) < 0:
            raise DisconnectedGraphError("graph is not connected")
        diameter = max(diameter, max(dist))
        for y in range(graph.n):
            i = dist[y]
            down = sum(1 for w in graph.adjacency[y] if dist[w] == i - 1)
            up = sum(1 for w in graph.adjacency[y] if dist[w] == i + 1)
            for ref, where, val in ((c_ref, c_where, down), (b_ref, b_where, up)):
                if i not in ref:
                    ref[i] = val
                    where[i] = (x, y)
                elif ref[i] != val:
                    return DrgCertificate(
                        False,
                        witness=("count", i, where[i], ref[i], (x, y), val),
                    )
    array = IntersectionArray(
        b=tuple(b_ref[i] for i in range(diameter)),
        c=tuple(c_ref[i] for i in range(1, diameter + 1)),
    )
    array.validate()
    return DrgCertificate(True, array)


def predicted_quotient_array(numbers: IntersectionNumbers) -> IntersectionArray:
    """Quotient array b_i = beta_i/gamma_1, c_i = gamma_i/gamma_1 (exact)."""
    rho = numbers.rho
    if rho == 0:
        raise ValueError("quotient prediction needs covering radius >= 1")
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
    diag = [array.a_at(i) for i in range(d + 1)]
    sub = [array.c_at(i) for i in range(1, d + 1)]
    sup = [array.b_at(i) for i in range(d)]
    k = array.k
    roots = tridiagonal_eigenvalues(diag, sub, sup, range(-k, k + 1))
    if len(roots) != d + 1:
        raise SpectrumError(
            f"intersection matrix has a non-integral eigenvalue "
            f"(found {len(roots)} of {d + 1} integer roots)"
        )
    return tuple(sorted(roots, reverse=True))
