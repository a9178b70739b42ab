"""Partitions of H(n, q) given class by class, their equitability scan and
quotient graph over all q^n words, and the class-by-class certificate of a
completely regular partition: the oracles of
`crcodes.partitions_quotients.certify_cr_partition` and `quotient_graph`.

The package handles only coset partitions of additive codes, which are
equitable by construction: it certifies the code once and reads the quotient
off the class representatives.  Here every word's neighbour list is walked
and every class is certified as its own word-listed code, which is the full
definition of a completely regular partition and of its quotient and holds
for any partition.
"""

from collections import Counter

from crcodes.cr_analysis import certify_completely_regular, first_conflict
from crcodes.hamming_space import Code, encode, neighbor_table
from crcodes.partitions_quotients import (
    CrPartitionCertificate,
    Graph,
    VertexPartition,
    graph_from_edges,
)


def partition_from_classes(space, class_lists) -> VertexPartition:
    """The partition of ``space`` into the given classes, each a list of
    vertex numbers or digit lists."""
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


def partition_classes(partition: VertexPartition) -> list[list[int]]:
    """The members of every class, in class order."""
    out = [[] for _ in range(partition.class_count)]
    for v, c in enumerate(partition.class_of):
        out[c].append(v)
    return out


def partition_equitable(partition: VertexPartition):
    """The first vertex whose class-to-class neighbour counts differ from
    those of its class's first vertex, as (first vertex, vertex, class), or
    None."""
    class_of = partition.class_of
    table = neighbor_table(partition.space)
    _, conflict = first_conflict(
        (v, class_of[v], Counter(map(class_of.__getitem__, table[v])))
        for v in range(partition.space.size))
    return None if conflict is None else (conflict[1], conflict[3], conflict[0])


def quotient_graph_of_all_words(partition: VertexPartition) -> Graph:
    """Classes adjacent iff some cross edge exists in H(n, q), from every
    edge of H(n, q); labelled by the representatives."""
    class_of = partition.class_of
    table = neighbor_table(partition.space)
    edges = {(class_of[v], class_of[w]) for v in range(partition.space.size)
             for w in table[v]}
    labels = tuple(str(r) for r in partition.representatives)
    return graph_from_edges(partition.class_count, edges, labels)


def certify_partition_class_by_class(partition: VertexPartition):
    """The certificate of any partition by the full definition: equitable,
    and every class completely regular with equal intersection numbers.
    Returns it with the certificates of the classes certified, in class
    order (all of them when the partition is completely regular)."""
    certs = []
    equit_witness = partition_equitable(partition)
    if equit_witness is not None:
        return CrPartitionCertificate(
            False, failure="partition_not_equitable", witness=equit_witness), certs
    numbers = None
    for idx, members in enumerate(partition_classes(partition)):
        cert = certify_completely_regular(Code(partition.space, tuple(members)))
        certs.append(cert)
        if not cert.completely_regular:
            return CrPartitionCertificate(
                False, failure="class_not_completely_regular",
                witness=(idx, cert.witness)), certs
        if numbers is None:
            numbers = cert.numbers
        elif numbers != cert.numbers:
            return CrPartitionCertificate(
                False, failure="intersection_numbers_differ",
                witness=(idx, numbers, cert.numbers)), certs
    return CrPartitionCertificate(True, numbers=numbers), certs
