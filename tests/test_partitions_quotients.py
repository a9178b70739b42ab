import functools

import pytest

from crcodes.constructions import (
    extended_hamming_code,
    hamming_code,
    hamming_parity_check,
    replicate_columns,
)
from crcodes.cr_analysis import (
    analyze_code,
    certify_completely_regular,
    code_spectrum,
    quotient_matrix,
)
from crcodes.errors import NotAdditiveError
from crcodes.hamming_space import ambient, code_from_parity_check, code_from_words
from crcodes.partitions_quotients import (
    CayleyGraph,
    Graph,
    IntersectionArray,
    bfs_distances,
    certify_cr_partition,
    certify_distance_regular,
    coset_graph_by_syndrome,
    coset_partition,
    coset_to_syndrome,
    drg_spectrum,
    graph_from_edges,
    partition_from_classes,
    predicted_quotient_array,
    quotient_graph,
)
from crcodes.search import enumerate_linear_codes


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
    for v in part.class_members(coset_idx):
        assert mat_vec(h, decode(v, 7, 2)) == col0


def test_h24_partition_is_coset_partition():
    sp = ambient(2, 4)
    p1 = code_from_words(sp, [[0, 0], [0, 1], [1, 0], [1, 1]])
    explicit = _h24_partition()
    cosets = coset_partition(p1)
    as_sets = lambda part: {frozenset(c) for c in part.classes()}
    assert as_sets(explicit) == as_sets(cosets)


def test_certify_cr_partition_full_check():
    part = coset_partition(hamming_code(3, 2))
    cert = certify_cr_partition(part)
    assert cert.is_cr_partition
    assert cert.numbers.gamma == (0, 1)
    assert len(cert.class_certificates) == 8


def test_certify_h24_partition():
    cert = certify_cr_partition(_h24_partition())
    assert cert.is_cr_partition
    assert cert.numbers.gamma == (0, 2, 4)
    assert cert.numbers.alpha == (2, 2, 2)
    assert cert.numbers.beta == (4, 2, 0)


def test_singleton_plus_rest_is_not_cr_partition():
    sp = ambient(2, 2)
    part = partition_from_classes(sp, [[0], [1, 2, 3]])
    cert = certify_cr_partition(part)
    assert not cert.is_cr_partition


@functools.lru_cache(maxsize=None)
def _census_cr_codes():
    """(code, analysis) for every CR code of the census at q=2 n<=6,
    q=3 n<=5 and q=4 n<=4."""
    out = []
    for q, top in ((2, 6), (3, 5), (4, 4)):
        for n in range(1, top + 1):
            for code in enumerate_linear_codes(n, q):
                analysis = analyze_code(code)
                if analysis.cr:
                    out.append((code, analysis))
    return tuple(out)


def test_coset_partition_of_a_cr_code_is_a_cr_partition():
    # the full definition, class by class, agrees with the code's certificate
    codes = _census_cr_codes()
    assert len(codes) > 50
    for code, analysis in codes:
        cert = certify_cr_partition(coset_partition(code))
        assert cert.is_cr_partition
        assert cert.numbers == analysis.numbers


def test_quotient_graph_h24_is_four_cycle():
    g = quotient_graph(_h24_partition())
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
    assert syn.n == 8 and _is_complete(syn)


def test_syndrome_graph_extended_hamming_is_k88():
    ext = extended_hamming_code(3)
    g = coset_graph_by_syndrome(ext)
    assert g.n == 16
    assert all(g.degree(v) == 8 for v in range(16))
    # bipartition by last syndrome bit: no edge joins same-parity syndromes
    side = [s >> 3 & 1 for s in range(16)]
    assert all(side[u] != side[v] for u, v in g.edges())
    cert = certify_distance_regular(g)
    assert cert.array == IntersectionArray((8, 7), (1, 8))


def test_syndrome_graph_replicated_check_is_k8_again():
    hh = replicate_columns(hamming_parity_check(3, 2), 2)
    code = code_from_parity_check(ambient(14, 2), hh)
    syn = coset_graph_by_syndrome(code)
    assert syn.n == 8 and _is_complete(syn)


def test_syndrome_map_is_graph_isomorphism():
    from crcodes.constructions import repetition_code

    named = (hamming_code(2, 2), hamming_code(3, 2), repetition_code(6, 2),
             extended_hamming_code(3), hamming_code(2, 3), hamming_code(2, 4),
             repetition_code(4, 3), repetition_code(3, 5))
    for code in named + tuple(code for code, _ in _census_cr_codes()):
        part = coset_partition(code)
        quotient = quotient_graph(part)
        syn = coset_graph_by_syndrome(code)
        phi = coset_to_syndrome(code, part)
        assert sorted(phi) == list(range(quotient.n))
        assert quotient.edge_count() == syn.edge_count()
        for u, v in quotient.edges():
            assert syn.has_edge(phi[u], phi[v])


def test_cayley_graph_compares_hashes_and_serializes_by_its_adjacency():
    from crcodes.constructions import repetition_code

    graph = coset_graph_by_syndrome(repetition_code(6, 2))
    assert graph.connection == (1, 2, 4, 8, 16, 31) and graph.xor_group
    bare = CayleyGraph(graph.adjacency, graph.labels)
    assert bare.connection == () and not bare.xor_group
    assert bare == graph and hash(bare) == hash(graph)
    plain = Graph(graph.adjacency, graph.labels).to_json()
    assert graph.to_json() == bare.to_json() == plain
    assert set(plain) == {"n", "edges", "labels"}
    # syndromes add by XOR in characteristic 2 only
    assert coset_graph_by_syndrome(hamming_code(2, 4)).xor_group
    ternary = coset_graph_by_syndrome(hamming_code(2, 3))
    assert not ternary.xor_group and len(ternary.connection) == 8


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

    eh = certify_cr_partition(_h24_partition())
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
        cert = certify_cr_partition(part)
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
