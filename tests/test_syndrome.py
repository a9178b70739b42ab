"""The syndrome certificate of linear codes and the one-root DRG certificate
of syndrome coset graphs, each against its full-space oracle, and the
translation kernel under both against digit-by-digit addition."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crcodes import partitions_quotients
from crcodes.algebra import alphabet, gf_matrix, mat_vec, rank
from crcodes.constructions import hamming_code, pad_code, replicate_columns
from crcodes.cr_analysis import (
    DistancePartition,
    SyndromePartition,
    _word_syndromes,
    certify_completely_regular,
    distance_partition,
    free_coordinates,
    is_reduced,
)
from crcodes.hamming_space import (
    Translations,
    ambient,
    code_from_parity_check,
    column_offsets,
    decode,
    encode,
    translate,
)
from crcodes.partitions_quotients import (
    CayleyGraph,
    Graph,
    certify_distance_regular,
    coset_graph_by_syndrome,
    graph_from_edges,
)
from crcodes.search import _is_syndrome_quotient, enumerate_linear_codes

# (q, largest n): every census code up to these lengths.
CENSUSES = ((2, 6), (3, 5), (4, 4), (5, 4))


def _census_codes():
    for q, top in CENSUSES:
        for n in range(1, top + 1):
            yield from enumerate_linear_codes(n, q)


CODES = list(_census_codes())


def _summary(cert):
    witness = cert.witness.to_json() if cert.witness else None
    return (cert.completely_regular, cert.numbers, cert.partition.rho,
            cert.partition.class_sizes, witness)


def test_syndrome_certificate_equals_the_full_space_scan():
    refuted = 0
    for code in CODES:
        part = distance_partition(code)
        fast = certify_completely_regular(code)
        slow = certify_completely_regular(code, part)
        assert isinstance(fast.partition, SyndromePartition)
        assert isinstance(slow.partition, DistancePartition)
        assert _summary(fast) == _summary(slow), code.linear.parity_check
        h = code.linear.parity_check
        columns = Translations(h.alphabet, column_offsets(h), h.alphabet.q**h.nrows)
        syndromes = _word_syndromes(h, columns)
        leader_weight = fast.partition.class_of_syndrome
        assert bytes(leader_weight[s] for s in syndromes) == part.class_of
        refuted += not fast.completely_regular
    assert refuted > len(CODES) // 2  # the witness walk is exercised


def test_word_syndromes_follow_the_encoding_order():
    for q, n in ((2, 5), (3, 4), (4, 3), (5, 3), (7, 3), (8, 2), (9, 2)):
        for code in enumerate_linear_codes(n, q):
            h = code.linear.parity_check
            columns = Translations(h.alphabet, column_offsets(h), q**h.nrows)
            want = [encode(mat_vec(h, decode(x, n, q)), q) for x in range(q**n)]
            assert list(_word_syndromes(h, columns)) == want


def test_zero_and_repeated_columns_count_with_multiplicity():
    # pad: every free coordinate is a zero column, q-1 loops each
    padded = pad_code(hamming_code(2, 3), 2)
    cert = certify_completely_regular(padded)
    assert cert.numbers.alpha == (4, 11)
    # two copies of each column: gamma_1 counts both
    twice = code_from_parity_check(
        ambient(14, 2), replicate_columns(hamming_code(3, 2).linear.parity_check, 2))
    cert = certify_completely_regular(twice)
    assert cert.numbers.gamma == (0, 2)
    for code in (padded, twice):
        slow = certify_completely_regular(code, distance_partition(code))
        assert _summary(certify_completely_regular(code)) == _summary(slow)


def test_rank_deficient_parity_check_scans_every_word():
    space = ambient(4, 2)
    h = gf_matrix(space.alphabet, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    code = code_from_parity_check(space, h)
    cert = certify_completely_regular(code)
    assert isinstance(cert.partition, DistancePartition)
    assert cert.completely_regular and cert.partition.class_sizes == (4, 8, 4)


def test_linear_is_reduced_agrees_with_free_coordinates():
    for code in CODES:
        assert is_reduced(code) == (not free_coordinates(code))


def test_one_root_drg_certificate_equals_all_roots():
    for code in CODES:
        graph = coset_graph_by_syndrome(code)
        assert isinstance(graph, CayleyGraph)
        plain = Graph(graph.adjacency, graph.labels)
        assert certify_distance_regular(graph) == certify_distance_regular(plain)


def _count_bfs(monkeypatch):
    roots = []
    bfs = partitions_quotients.bfs_distances

    def counting(graph, root):
        roots.append(root)
        return bfs(graph, root)

    monkeypatch.setattr(partitions_quotients, "bfs_distances", counting)
    return roots


def test_cayley_graphs_take_one_bfs_and_others_take_one_per_vertex(monkeypatch):
    roots = _count_bfs(monkeypatch)
    graph = coset_graph_by_syndrome(hamming_code(3, 2))
    assert certify_distance_regular(graph).is_drg
    assert roots == [0]
    roots.clear()
    assert certify_distance_regular(Graph(graph.adjacency)).is_drg
    assert roots == list(range(graph.n))


# Cubic on 10 vertices: the layering seen from vertex 0 is distance-regular,
# the one seen from vertex 1 is not, so the graph is not vertex-transitive.
_LOCALLY_REGULAR_AT_0 = [(0, 3), (0, 4), (0, 9), (1, 2), (1, 3), (1, 7), (2, 6), (2, 9),
                         (3, 7), (4, 5), (4, 6), (5, 7), (5, 8), (6, 8), (8, 9)]


def test_unmarked_graph_that_looks_regular_from_vertex_0_is_refuted(monkeypatch):
    graph = graph_from_edges(10, _LOCALLY_REGULAR_AT_0)
    assert not isinstance(graph, CayleyGraph)
    roots = _count_bfs(monkeypatch)
    cert = certify_distance_regular(graph)
    assert not cert.is_drg
    assert cert.witness[0] == "count" and cert.witness[4][0] == 1
    assert roots == [0, 1]
    # the marker alone would have accepted it: only root 0 is scanned
    assert certify_distance_regular(CayleyGraph(graph.adjacency)).is_drg


def _add_digits(v, s, r, alpha):
    """v + s, one symbol at a time through the alphabet's addition."""
    q = alpha.q
    return encode([alpha.add(a, b) for a, b in zip(decode(v, r, q), decode(s, r, q))], q)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 27])
def test_translations_add_digit_by_digit(q):
    alpha = alphabet(q)
    rnd = random.Random(q)
    for r in (0, 1, 2, 3, 5):  # odd and even splits
        size = q**r
        drawn = [rnd.randrange(size) for _ in range(3)]
        offsets = [0, size - 1, *drawn, drawn[0], 0, size - 1]  # zeros and repeats
        step = Translations(alpha, offsets, size)
        words = range(size) if size <= 729 else [rnd.randrange(size) for _ in range(729)]
        for v in words:
            want = [_add_digits(v, s, r, alpha) for s in offsets]
            assert step.all(v) == want
            assert [step.one(v, k) for k in range(len(offsets))] == want
        for s in offsets:
            assert translate(words, s, alpha) == [_add_digits(v, s, r, alpha) for v in words]


def test_translation_tables_stay_at_the_square_root_of_the_space():
    alpha = alphabet(3)
    size = 3**12
    h = gf_matrix(alpha, [[1 if i == j else 0 for j in range(12)] + [1] for i in range(12)])
    step = Translations(alpha, column_offsets(h), size)
    assert len(step.halves) == 26
    assert all(len(a) <= 3**6 and len(b) <= 3**6 for a, b in step.halves)
    rnd = random.Random(12)
    for v in (rnd.randrange(size) for _ in range(200)):
        assert step.all(v) == [_add_digits(v, s, 12, alpha) for s in step.offsets]


# q^n <= 3^7 keeps the full-space oracle fast
_HYPOTHESIS_MAX_N = {2: 7, 3: 7, 4: 5, 5: 4, 7: 4}


@st.composite
def full_rank_parity_checks(draw):
    q = draw(st.sampled_from(sorted(_HYPOTHESIS_MAX_N)))
    n = draw(st.integers(1, _HYPOTHESIS_MAX_N[q]))
    r = draw(st.integers(1, n))
    alpha = alphabet(q)
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=r, max_size=r))
    h = gf_matrix(alpha, rows)
    assume(rank(h) == r)
    return code_from_parity_check(ambient(n, q), h)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(full_rank_parity_checks())
def test_random_parity_checks_certify_as_the_full_space_scan(code):
    fast = certify_completely_regular(code)
    slow = certify_completely_regular(code, distance_partition(code))
    assert isinstance(fast.partition, SyndromePartition)
    assert _summary(fast) == _summary(slow)
    assert _is_syndrome_quotient(code, coset_graph_by_syndrome(code))
