"""Partitions of H(n, q) given class by class, and the class-by-class
certificate of a completely regular partition: the oracle of
`crcodes.partitions_quotients.certify_cr_partition`.

The package certifies only coset partitions of additive codes, by the code's
one certificate and an equitability scan; here every class is listed by a
scan of all q^n words and certified as its own word-listed code, which is
the full definition of a completely regular partition and holds for any
partition.
"""

from crcodes.cr_analysis import certify_completely_regular
from crcodes.hamming_space import Code, encode
from crcodes.partitions_quotients import (
    CrPartitionCertificate,
    VertexPartition,
    _partition_equitable,
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


def certify_partition_class_by_class(partition: VertexPartition):
    """The certificate of any partition by the full definition: equitable,
    and every class completely regular with equal intersection numbers.
    Returns it with the certificates of the classes certified, in class
    order (all of them when the partition is completely regular)."""
    certs = []
    equit_witness = _partition_equitable(partition)
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
