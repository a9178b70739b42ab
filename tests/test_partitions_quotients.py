import functools
import random

import pytest

from crcodes.algebra import alphabet, gf_matrix, mat_vec
from crcodes.classify import classify_quotient
from crcodes.constructions import (
    extended_hamming_code,
    hamming_code,
    hamming_parity_check,
    pad_code,
    replicate_columns,
)
from crcodes.cr_analysis import (
    analyze_code,
    certify_completely_regular,
    code_spectrum,
    quotient_matrix,
)
from crcodes.errors import NotAdditiveError, jsonable
from crcodes.hamming_space import (
    AmbientSpace,
    ambient,
    code_from_parity_check,
    code_from_words,
    decode,
    encode,
    translate,
)
from crcodes.partitions_quotients import (
    CayleyGraph,
    CosetQuotient,
    Graph,
    IntersectionArray,
    bfs_distances,
    certify_cr_partition,
    certify_distance_regular,
    coset_graph_by_syndrome,
    coset_partition,
    drg_spectrum,
    graph_from_edges,
    predicted_quotient_array,
    quotient_graph,
    syndrome_quotient_graph,
)
from crcodes.search import enumerate_linear_codes
from partition_oracle import (
    certify_partition_class_by_class,
    partition_classes,
    partition_equitable,
    partition_from_classes,
    quotient_graph_of_all_words,
)


def _rep6():
    return code_from_words(ambient(6, 2), [0, 63])


def _h24_partition():
    sp = ambient(2, 4)
    classes = [
        [[0, 0], [0, 1], [1, 0], [1, 1]],
        [[0, 2], [0, 3], [1, 2], [1, 3]],
        [[2, 0], [2, 1], [3, 0], [3, 1]],
        [[2, 2], [2, 3], [3, 2], [3, 3]],
    ]
    return partition_from_classes(sp, classes)


def _is_complete(graph):
    n = graph.n
    return all(graph.degree(v) == n - 1 for v in range(n))


def test_coset_partition_repetition3():
    rep = hamming_code(2, 2)
    part = coset_partition(rep)
    assert part.class_count == 4
    assert part.class_sizes == (2,) * 4


def test_coset_partition_hamming74_matches_syndromes():
    ham = hamming_code(3, 2)
    part = coset_partition(ham)
    assert part.class_count == 8
    # the coset of e_1 is exactly the words whose syndrome is column 1
    from crcodes.algebra import mat_vec
    from crcodes.hamming_space import decode

    h = ham.linear.parity_check
    col0 = h.column(0)
    coset_idx = part.class_of[1]  # word e_0 has encoding 1
    for v in partition_classes(part)[coset_idx]:
        assert mat_vec(h, decode(v, 7, 2)) == col0


def test_h24_partition_is_coset_partition():
    sp = ambient(2, 4)
    p1 = code_from_words(sp, [[0, 0], [0, 1], [1, 0], [1, 1]])
    explicit = _h24_partition()
    cosets = coset_partition(p1)
    as_sets = lambda part: {frozenset(c) for c in partition_classes(part)}
    assert as_sets(explicit) == as_sets(cosets)


def test_certify_cr_partition_full_check():
    ham = hamming_code(3, 2)
    part = coset_partition(ham)
    cert = certify_cr_partition(ham)
    assert cert.is_cr_partition
    assert cert.numbers.gamma == (0, 1)
    oracle, class_certs = certify_partition_class_by_class(part)
    assert oracle == cert
    assert len(class_certs) == 8


def test_certify_h24_partition():
    cert, _ = certify_partition_class_by_class(_h24_partition())
    assert cert.is_cr_partition
    assert cert.numbers.gamma == (0, 2, 4)
    assert cert.numbers.alpha == (2, 2, 2)
    assert cert.numbers.beta == (4, 2, 0)


def test_singleton_plus_rest_is_not_cr_partition():
    sp = ambient(2, 2)
    part = partition_from_classes(sp, [[0], [1, 2, 3]])
    cert, _ = certify_partition_class_by_class(part)
    assert not cert.is_cr_partition


@functools.lru_cache(maxsize=None)
def _census_codes():
    """(code, analysis) for every code of the census at q=2 n<=6, q=3 n<=5
    and q=4 n<=4."""
    return tuple((code, analyze_code(code)) for q, top in ((2, 6), (3, 5), (4, 4))
                 for n in range(1, top + 1) for code in enumerate_linear_codes(n, q))


def _census_cr_codes():
    """The CR codes of `_census_codes`."""
    return tuple(item for item in _census_codes() if item[1].cr)


def _listed_additive_codes():
    """Subgroups of H(n, q) as word lists over GF(4), over Z_4 (the
    cyclic-group alphabet of size 4, which the package only builds for q not
    a prime power) and over Z_6: diagonal ones, then closures of one to
    three random generators under translation."""
    from crcodes.algebra import CYCLIC, _with_additive_tables

    z4 = _with_additive_tables(4, CYCLIC, 0, 0, modulus=None)
    out = [code_from_words(space, [[d] * space.n for d in digits], additive=True)
           for space, digits in ((ambient(2, 4), range(4)), (ambient(3, 4), (0, 1)),
                                 (AmbientSpace(2, z4), range(4)),
                                 (AmbientSpace(3, z4), (0, 2)), (ambient(2, 6), (0, 3)),
                                 (ambient(3, 6), (0, 2, 4)))]
    spaces = (ambient(3, 4), ambient(4, 4), AmbientSpace(3, z4), AmbientSpace(4, z4),
              ambient(3, 6))
    rng = random.Random(26)
    for space in spaces:
        n, q = space.n, space.q
        for _ in range(12):
            words = [0]
            for _ in range(rng.randint(1, 3)):
                g = encode([rng.randrange(q) for _ in range(n)], q)
                while True:
                    grown = sorted(set(words) | set(translate(words, g, space.alphabet)))
                    if grown == words:
                        break
                    words = grown
            out.append(code_from_words(space, words, additive=True))
    return out


def test_coset_partition_of_a_cr_code_is_a_cr_partition():
    # the code's one certificate against the full definition, the partition
    # scanned for equitability and every class certified as its own word
    # list, on every census code (CR or not) and on word-listed subgroups
    # over GF(4), Z_4 and Z_6
    codes = [code for code, _ in _census_codes()] + _listed_additive_codes()
    verdicts = set()
    for code in codes:
        partition = coset_partition(code)
        cert = certify_cr_partition(code)
        oracle, _ = certify_partition_class_by_class(partition)
        assert (cert.is_cr_partition, cert.failure, cert.numbers) == (
            oracle.is_cr_partition, oracle.failure, oracle.numbers)
        verdicts.add((code.is_linear, cert.is_cr_partition))
    assert len(_census_cr_codes()) > 50
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_quotient_graph_of_the_representatives_matches_the_all_words_walk():
    # every coset partition is equitable, which is why neither the package's
    # certificate nor its quotient walks the q^n words, and its quotient read
    # off the class representatives is the one every edge of H(n, q) gives,
    # on every census code and on word-listed subgroups over GF(4), Z_4 and Z_6
    codes = [code for code, _ in _census_codes()] + _listed_additive_codes()
    for code in codes:
        partition = coset_partition(code)
        assert partition_equitable(partition) is None
        graph, oracle = quotient_graph(partition), quotient_graph_of_all_words(partition)
        assert (graph.adjacency, graph.labels) == (oracle.adjacency, oracle.labels)
    assert len(codes) > 700


def test_quotient_graph_h24_is_four_cycle():
    g = quotient_graph_of_all_words(_h24_partition())
    assert g.n == 4
    assert sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2]
    cert = certify_distance_regular(g)
    assert cert.is_drg and cert.array == IntersectionArray((2, 1), (1, 2))


def test_quotient_graph_hamming74_is_k8():
    g = quotient_graph(coset_partition(hamming_code(3, 2)))
    assert g.n == 8 and _is_complete(g)


def test_quotient_graph_rep6_is_folded_6_cube():
    g = quotient_graph(coset_partition(_rep6()))
    assert g.n == 32
    cert = certify_distance_regular(g)
    assert cert.is_drg
    assert cert.array == IntersectionArray((6, 5, 4), (1, 2, 6))


def test_syndrome_graph_hamming74():
    ham = hamming_code(3, 2)
    syn = coset_graph_by_syndrome(ham)
    assert syn.n == 8 and _is_complete(syn.explicit())


def test_syndrome_graph_extended_hamming_is_k88():
    ext = extended_hamming_code(3)
    g = coset_graph_by_syndrome(ext)
    explicit = g.explicit()
    assert g.n == explicit.n == 16
    assert all(explicit.degree(v) == 8 for v in range(16))
    # bipartite: a BFS 2-colouring leaves no edge inside a colour class
    side = [d % 2 for d in bfs_distances(explicit, 0)]
    assert all(side[u] != side[v] for u, v in explicit.edges())
    cert = certify_distance_regular(g)
    assert cert.array == IntersectionArray((8, 7), (1, 8))


def test_syndrome_graph_replicated_check_is_k8_again():
    hh = replicate_columns(hamming_parity_check(3, 2), 2)
    code = code_from_parity_check(ambient(14, 2), hh)
    syn = coset_graph_by_syndrome(code)
    assert syn.n == 8 and _is_complete(syn.explicit())


def test_syndrome_map_is_graph_isomorphism():
    # the quotient `crcodes quotient` reads off a linear code's syndromes
    # (class k at syndrome k, labelled by its least word) against the coset
    # partition of all q^n words, on named codes up to q = 5, every census
    # code, its copy with the columns of H reversed (mostly outside RREF), a
    # rank-deficient H and Hamming [15,11] padded by 3; class k's
    # representative has syndrome k
    from crcodes.constructions import repetition_code

    named = [hamming_code(2, 2), hamming_code(3, 2), repetition_code(6, 2),
             extended_hamming_code(3), hamming_code(2, 3), hamming_code(2, 4),
             repetition_code(4, 3), repetition_code(3, 5), pad_code(hamming_code(4, 2), 3)]
    census = [code for code, _ in _census_codes()]
    reversed_columns = [code_from_parity_check(code.ambient, code.linear.parity_check.take_columns(
        range(code.ambient.n - 1, -1, -1))) for code in census]
    rank_deficient = code_from_parity_check(ambient(4, 2), gf_matrix(
        alphabet(2), [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
    outside_rref = 0
    for code in named + census + reversed_columns + [rank_deficient]:
        partition = coset_partition(code)
        oracle = quotient_graph(partition)
        graph = syndrome_quotient_graph(code, coset_graph_by_syndrome(code).explicit())
        assert graph.n == partition.class_count == code.ambient.q**code.linear.rank
        assert (graph.adjacency, graph.labels) == (oracle.adjacency, oracle.labels)
        h, n, q = code.linear.echelon, code.ambient.n, code.ambient.q
        syndromes = [encode(mat_vec(h, decode(rep, n, q)), q) if h.nrows else 0
                     for rep in partition.representatives]
        assert syndromes == list(range(partition.class_count))
        outside_rref += code.linear.pivots is not None
    assert len(census) > 700 and outside_rref > 600
    assert rank_deficient.linear.rank == 2


def test_a_coset_quotient_is_certified_from_class_0_alone(monkeypatch):
    # the quotient of a coset partition is vertex-transitive: its DRG
    # certificate runs one BFS, from class 0, and equals the all-roots scan
    # of a plain Graph with the same adjacency, as do its witness when it is
    # not distance-regular and its family
    import crcodes.partitions_quotients as pq_mod

    real_bfs, roots = pq_mod.bfs_distances, []

    def counted(graph, root):
        roots.append(root)
        return real_bfs(graph, root)

    monkeypatch.setattr(pq_mod, "bfs_distances", counted)
    rep12 = quotient_graph(coset_partition(code_from_words(ambient(12, 2), [0, 4095])))
    assert type(rep12) is CosetQuotient and rep12.n == 2048
    cert = certify_distance_regular(rep12)
    assert roots == [0]
    assert cert == certify_distance_regular(Graph(rep12.adjacency, rep12.labels))
    assert len(roots) == 1 + 2048
    assert cert.array == IntersectionArray((12, 11, 10, 9, 8, 7), (1, 2, 3, 4, 5, 12))
    verdicts = set()
    for code in _listed_additive_codes():
        quotient = quotient_graph(coset_partition(code))
        plain = Graph(quotient.adjacency, quotient.labels)
        roots.clear()
        cert = certify_distance_regular(quotient)
        assert len(roots) <= 1 and cert == certify_distance_regular(plain)
        if cert.is_drg:
            assert jsonable(classify_quotient(quotient, cert)) == jsonable(
                classify_quotient(plain, cert))
        verdicts.add(cert.is_drg)
    assert verdicts == {True, False}


def test_cayley_graph_compares_by_its_connection_set_and_serializes_its_adjacency():
    from crcodes.algebra import alphabet
    from crcodes.constructions import repetition_code

    graph = coset_graph_by_syndrome(repetition_code(6, 2))
    assert graph.connection == (1, 2, 4, 8, 16, 31) and graph.rank == 5
    same = CayleyGraph(alphabet(2), 5, (1, 2, 4, 8, 16, 31), max_vertices=64)
    assert same == graph and hash(same) == hash(graph)
    assert CayleyGraph(alphabet(2), 5, (1, 2, 4, 8, 17, 30)) != graph
    plain, quotient = graph.explicit(), quotient_graph(coset_partition(_rep6()))
    assert type(plain) is Graph and type(quotient) is CosetQuotient
    assert plain.adjacency == quotient.adjacency
    assert plain.labels == tuple(str(decode(s, 5, 2)) for s in range(32))
    assert syndrome_quotient_graph(repetition_code(6, 2), plain).labels == quotient.labels
    assert plain.to_json() == same.explicit().to_json()
    assert set(plain.to_json()) == {"n", "edges", "labels"}
    assert all(plain.adjacency[v] == graph.neighbours(v) for v in range(32))
    # S holds every nonzero multiple of each column
    quaternary = coset_graph_by_syndrome(hamming_code(2, 4))
    assert quaternary.n == 16 and len(quaternary.connection) == 15
    ternary = coset_graph_by_syndrome(hamming_code(2, 3))
    assert ternary.n == 9 and len(ternary.connection) == 8


def test_a_cayley_graph_certificate_needs_a_spanning_scalar_closed_connection_set():
    from crcodes.algebra import alphabet
    from crcodes.errors import DisconnectedGraphError

    gf3 = alphabet(3)
    for connection in ((1, 3, 6), (0, 1, 2, 3, 6)):  # no (2, 0), or the zero word
        with pytest.raises(ValueError, match="closed under nonzero scalars"):
            certify_distance_regular(CayleyGraph(gf3, 2, connection))
    for connection in ((), (1, 2)):  # nothing, or only the first coordinate
        with pytest.raises(DisconnectedGraphError):
            certify_distance_regular(CayleyGraph(gf3, 2, connection))
    cert = certify_distance_regular(CayleyGraph(gf3, 2, (1, 2, 3, 6)))
    assert cert.array == IntersectionArray((4, 2), (1, 2))  # the 3 x 3 rook's graph


def test_syndrome_graph_requires_linear():
    with pytest.raises(NotAdditiveError):
        coset_graph_by_syndrome(code_from_words(ambient(3, 2), [0, 7]))


def test_certify_drg_k8():
    g = graph_from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    cert = certify_distance_regular(g)
    assert cert.is_drg and cert.array == IntersectionArray((7,), (1,))


def test_certify_drg_path_fails():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    cert = certify_distance_regular(g)
    assert not cert.is_drg
    assert cert.witness[0] == "degree"


def test_certify_drg_nonregular_counts():
    # 4-cycle plus a chord: regular? no, degrees 2,3 -> witness; use 5-cycle
    # plus chord to get an equal-degree failure instead
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    cert = certify_distance_regular(g)
    assert not cert.is_drg


def test_predicted_quotient_arrays():
    rep = certify_completely_regular(_rep6())
    assert predicted_quotient_array(rep.numbers) == IntersectionArray((6, 5, 4), (1, 2, 6))

    eh, _ = certify_partition_class_by_class(_h24_partition())
    assert predicted_quotient_array(eh.numbers) == IntersectionArray((2, 1), (1, 2))

    ext = certify_completely_regular(extended_hamming_code(3))
    assert predicted_quotient_array(ext.numbers) == IntersectionArray((8, 7), (1, 8))


def test_predicted_array_matches_certified_quotient():
    for code in (hamming_code(2, 2), hamming_code(3, 2), _rep6(), extended_hamming_code(3)):
        cert = certify_completely_regular(code)
        part = coset_partition(code)
        quotient = quotient_graph(part)
        drg = certify_distance_regular(quotient)
        assert drg.is_drg
        assert drg.array == predicted_quotient_array(cert.numbers)


def test_drg_spectrum_examples():
    assert drg_spectrum(IntersectionArray((7,), (1,))) == (7, -1)
    assert drg_spectrum(IntersectionArray((6, 5, 4), (1, 2, 6))) == (6, 2, -2, -6)
    assert drg_spectrum(IntersectionArray((8, 7), (1, 8))) == (8, 0, -8)


def test_quotient_spectrum_scaling_consistency():
    for code in (hamming_code(3, 2), _rep6(), extended_hamming_code(3)):
        cert = certify_completely_regular(code)
        spec = code_spectrum(quotient_matrix(cert.numbers), code.ambient)
        array = predicted_quotient_array(cert.numbers)
        scaled = tuple(
            (eta - cert.numbers.alpha[0]) // cert.numbers.gamma[1] for eta in spec
        )
        assert drg_spectrum(array) == scaled


def test_bfs_distances():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_distances(g, 0) == [0, 1, 2, 3]


def test_min_eigenvalue_bound_on_certified_partitions():
    # theorem-level invariant: on every certified CR partition the smallest
    # code eigenvalue is at most alpha_0 - gamma_1
    from crcodes.cr_analysis import code_spectrum, quotient_matrix

    for code in (hamming_code(2, 2), hamming_code(3, 2), _rep6(),
                 extended_hamming_code(3), hamming_code(2, 3)):
        part = coset_partition(code)
        cert = certify_cr_partition(code)
        assert cert.is_cr_partition
        numbers = cert.numbers
        spec = code_spectrum(quotient_matrix(numbers), part.space)
        assert spec[-1] <= numbers.alpha[0] - numbers.gamma[1]


def test_validate_raises_with_a_witness():
    from crcodes.cr_analysis import IntersectionNumbers
    from crcodes.errors import TheoremViolationError

    broken = (IntersectionArray((3, 2), (2, 1)), IntersectionArray((3, 0), (1, 1)),
              IntersectionNumbers((0, 0), (0, 3), (3, 0)),
              IntersectionNumbers((0, 1), (0, 2), (3, 1)),
              IntersectionNumbers((1, 1), (0, 1), (1, 0)))
    for item in broken:
        with pytest.raises(TheoremViolationError) as caught:
            item.validate()
        assert caught.value.witness is item


def test_validate_survives_python_optimize_flag():
    # python -O strips assert statements; the theorem checks must still fire
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from crcodes.cr_analysis import IntersectionNumbers\n"
        "from crcodes.errors import TheoremViolationError\n"
        "from crcodes.partitions_quotients import IntersectionArray\n"
        "assert False, 'asserts are live'\n"
        "for broken in (IntersectionArray((3, 2), (2, 1)),\n"
        "               IntersectionNumbers((0, 0), (0, 3), (3, 0))):\n"
        "    try:\n"
        "        broken.validate()\n"
        "    except TheoremViolationError as exc:\n"
        "        print(type(exc.witness).__name__)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["IntersectionArray", "IntersectionNumbers"]
