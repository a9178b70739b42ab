"""The syndrome certificate of linear codes and the one-root DRG certificate
of syndrome coset graphs, each against its full-space oracle; the lane-vector
certificate against the per-syndrome BFS; the least-word witness walk against
a brute force; parity checks with dependent rows against their full-rank
twins; and the translation kernels against digit-by-digit addition."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crcodes import cr_analysis, hamming_space, partitions_quotients
from crcodes.algebra import (
    alphabet,
    gf_identity,
    gf_matrix,
    mat_vec,
    nullspace_basis,
    rank,
    rref,
)
from crcodes.constructions import (
    extended_hamming_code,
    hamming_code,
    pad_code,
    repetition_code,
    replicate_columns,
)
from crcodes.cr_analysis import (
    DistancePartition,
    SyndromePartition,
    _lane_width,
    _lanes,
    _least_words,
    _scan,
    analyze_code,
    certify_completely_regular,
    distance_partition,
    free_coordinates,
    is_reduced,
)
from crcodes.hamming_space import (
    DEFAULT_VERTEX_CAP,
    ambient,
    code_from_generators,
    code_from_parity_check,
    code_from_words,
    column_offsets,
    decode,
    encode,
    minimum_distance,
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


def _per_syndrome_certificate(code):
    """The oracle of the lane-vector certificate: BFS from syndrome 0 with one
    step per edge, the (previous, same, next) counts of every syndrome, and,
    for a code that is not completely regular, the words in encoding order
    looked up by their syndromes H x.  Its delta is the weight scan over the
    spanned members."""
    h = code.linear.row_basis()
    alpha = h.alphabet
    q, n, r = alpha.q, h.ncols, h.nrows
    size = q**r
    translates = [translate(range(size), s, alpha) for s in column_offsets(h)]
    dist = bytearray([255]) * size
    counts = [None] * size
    dist[0] = 0
    order = [0]
    for v in order:  # grows while it is walked: a BFS queue
        c = dist[v]
        prev = same = nxt = 0
        for w in (t[v] for t in translates):
            dw = dist[w]
            if dw == 255:
                dist[w] = dw = c + 1
                order.append(w)
            if dw == c:
                same += 1
            elif dw < c:
                prev += 1
            else:
                nxt += 1
        counts[v] = (prev, same, nxt)
    assert len(order) == size
    rho = dist[order[-1]]
    sizes = tuple(dist.count(i) * code.size for i in range(rho + 1))
    delta = minimum_distance(code) if code.size >= 2 else None
    part = SyndromePartition(code, bytes(dist), rho, sizes, delta)
    cert = _scan(part, ((s, dist[s], counts[s]) for s in order))
    if cert.completely_regular:
        return cert
    syndromes = (encode(mat_vec(h, decode(x, n, q)), q) for x in range(q**n))
    return _scan(part, ((x, dist[s], counts[s]) for x, s in enumerate(syndromes)))


def _lane_summary(cert):
    part = cert.partition
    return _summary(cert) + (part.class_of_syndrome, part.delta)


# (q, largest n) of the lane-vector differential check: every census code.
ORACLE_CENSUSES = ((2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3))


def test_lane_certificate_equals_the_per_syndrome_bfs():
    checked = refuted = 0
    for q, top in ORACLE_CENSUSES:
        for n in range(1, top + 1):
            for code in enumerate_linear_codes(n, q):
                want = _lane_summary(_per_syndrome_certificate(code))
                analysis = analyze_code(code)
                assert _lane_summary(analysis.certificate) == want, (
                    code.linear.parity_check)
                assert analysis.delta == minimum_distance(code)
                checked += 1
                refuted += not want[0]
    assert checked == 17617 and refuted > checked // 2


def _word_syndromes(h, n):
    """The syndromes H x of the words x = 0, 1, ..., q^n - 1."""
    q = h.alphabet.q
    return [encode(mat_vec(h, decode(x, n, q)), q) for x in range(q**n)]


def test_syndrome_certificate_equals_the_full_space_scan():
    refuted = 0
    for code in CODES:
        part = distance_partition(code)
        fast = certify_completely_regular(code)
        slow = certify_completely_regular(code, part)
        assert isinstance(fast.partition, SyndromePartition)
        assert isinstance(slow.partition, DistancePartition)
        assert _summary(fast) == _summary(slow), code.linear.parity_check
        syndromes = _word_syndromes(code.linear.parity_check, code.ambient.n)
        leader_weight = fast.partition.class_of_syndrome
        assert bytes(leader_weight[s] for s in syndromes) == part.class_of
        refuted += not fast.completely_regular
    assert refuted > len(CODES) // 2  # the witness walk is exercised


# (q, largest n) of the least-word walk's brute-force check
LEAST_WORD_CENSUSES = ((2, 6), (3, 5), (4, 4), (7, 3), (8, 3), (9, 3))


def test_least_words_list_each_syndrome_once_with_its_least_word():
    walked = 0
    for q, top in LEAST_WORD_CENSUSES:
        for n in range(1, top + 1):
            for code in enumerate_linear_codes(n, q):
                h = code.linear.parity_check
                least = {}
                for x, s in enumerate(_word_syndromes(h, n)):
                    least.setdefault(s, x)
                want = sorted((x, s) for s, x in least.items())
                got = list(_least_words(column_offsets(h), h.alphabet))
                assert got == want, h  # strictly increasing words, one per syndrome
                assert len(got) == q**code.linear.rank
                walked += 1
    assert walked == 769


def test_late_conflict_walk_stops_at_the_full_space_witness():
    # Hamming [15,11] x {0}: the first conflict needs the top coordinate
    ham = hamming_code(4, 2)
    rows = [r + (0,) for r in ham.linear.parity_check.rows] + [(0,) * 15 + (1,)]
    code = code_from_parity_check(ambient(16, 2), gf_matrix(alphabet(2), rows))
    fast = certify_completely_regular(code)
    slow = certify_completely_regular(code, distance_partition(code))
    assert not fast.completely_regular
    assert _summary(fast) == _summary(slow)
    assert fast.witness.vertex_b >= 1 << 15


def _golay_times_zero():
    """The binary Golay code [23,12] x {0} in H(24, 2)."""
    alpha = alphabet(2)
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]  # 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11
    h = nullspace_basis(gf_matrix(alpha, [[0] * i + g + [0] * (11 - i) for i in range(12)]))
    rows = [r + (0,) for r in h.rows] + [(0,) * 23 + (1,)]
    return code_from_parity_check(ambient(24, 2), gf_matrix(alpha, rows))


def test_late_conflict_walk_lists_at_most_the_syndromes(monkeypatch):
    listed = []

    def counting(words, offset, alpha):
        out = translate(words, offset, alpha)
        listed.append(len(out))
        return out

    monkeypatch.setattr(cr_analysis, "translate", counting)
    code = _golay_times_zero()
    cert = certify_completely_regular(code)
    assert not cert.completely_regular and cert.partition.delta == 7
    # the full-space scan reads 2^23 + 4 words to reach this conflict
    assert cert.witness.to_json() == {
        "class": 3, "direction": "same", "vertex_a": 7, "count_a": 20,
        "vertex_b": (1 << 23) + 3, "count_b": 0}
    assert 0 < sum(listed) <= 1 << 12


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


def test_rank_deficient_parity_check_certifies_on_its_row_basis():
    space = ambient(4, 2)
    h = gf_matrix(space.alphabet, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    code = code_from_parity_check(space, h)
    cert = certify_completely_regular(code)
    assert isinstance(cert.partition, SyndromePartition)
    assert len(cert.partition.class_of_syndrome) == 4
    assert cert.completely_regular and cert.partition.class_sizes == (4, 8, 4)
    assert _summary(cert) == _summary(certify_completely_regular(code, distance_partition(code)))


def test_rank_zero_code_certifies_with_the_full_valency():
    # the whole space: a row basis with no rows, whether H is zero or empty
    for space in (ambient(3, 2), ambient(2, 3), ambient(9, 2)):
        alpha = space.alphabet
        identity = gf_matrix(alpha, [[int(i == j) for j in range(space.n)]
                                     for i in range(space.n)])
        for code in (code_from_generators(space, identity),
                     code_from_parity_check(space, gf_matrix(alpha, [[0] * space.n] * 2))):
            cert = certify_completely_regular(code)
            assert isinstance(cert.partition, SyndromePartition)
            assert cert.numbers.alpha == (space.valency,)
            assert cert.partition.class_sizes == (space.size,)
            assert cert.partition.delta == 1
            assert coset_graph_by_syndrome(code).adjacency == ((),)


def _whole_spaces():
    """Rank-0 codes: the whole space, spanned by the identity, whose parity
    check has no rows."""
    for q, n in ((2, 1), (2, 3), (3, 2), (4, 2), (5, 1)):
        yield code_from_generators(ambient(n, q), gf_identity(alphabet(q), n))


def test_linear_is_reduced_agrees_with_free_coordinates():
    for code in (*CODES, *_whole_spaces()):
        assert is_reduced(code) == (not free_coordinates(code))


def test_a_whole_space_code_is_not_reduced():
    code = code_from_generators(ambient(3, 2), gf_identity(alphabet(2), 3))
    assert code.linear.parity_check.nrows == 0
    assert not is_reduced(code) and free_coordinates(code) == [0, 1, 2]


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 27])
def test_translations_add_digit_by_digit(q):
    alpha = alphabet(q)
    rnd = random.Random(q)
    for r in (0, 1, 2, 3, 5):
        size = q**r
        drawn = [rnd.randrange(size) for _ in range(3)]
        offsets = [0, size - 1, *drawn, drawn[0], 0, size - 1]  # zeros and repeats
        words = range(size) if size <= 729 else [rnd.randrange(size) for _ in range(729)]
        for s in offsets:
            assert translate(words, s, alpha) == [_add_digits(v, s, r, alpha) for v in words]
        if size > 729:
            continue
        # lane v holds v+1; translating the lane vector by s moves it to lane v+s
        lanes = _lanes(q, r, 2)
        vector = sum((v + 1) << (16 * v) for v in words)
        for s in offsets:
            want = [0] * size
            for v in words:
                want[_add_digits(v, s, r, alpha)] = v + 1
            assert lanes.read(lanes.translate(vector, lanes.plan(s))) == want


# q^n <= 3^7 keeps the full-space oracle fast
_HYPOTHESIS_MAX_N = {2: 7, 3: 7, 4: 5, 5: 4, 7: 4}


@st.composite
def full_rank_parity_checks(draw):
    """Column j is drawn afresh, zero, or a copy of an earlier column."""
    q = draw(st.sampled_from(sorted(_HYPOTHESIS_MAX_N)))
    n = draw(st.integers(1, _HYPOTHESIS_MAX_N[q]))
    r = draw(st.integers(1, n))
    columns = []
    for j in range(n):
        source = draw(st.integers(-2, j - 1))
        if source == -2:
            columns.append(draw(st.lists(st.integers(0, q - 1), min_size=r, max_size=r)))
        else:
            columns.append([0] * r if source == -1 else columns[source])
    h = gf_matrix(alphabet(q), zip(*columns))
    assume(rank(h) == r)
    return code_from_parity_check(ambient(n, q), h)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(full_rank_parity_checks())
def test_random_parity_checks_certify_as_the_full_space_scan(code):
    fast = certify_completely_regular(code)
    slow = certify_completely_regular(code, distance_partition(code))
    assert isinstance(fast.partition, SyndromePartition)
    assert _summary(fast) == _summary(slow)
    # the lane summary holds delta, against the weight scan of the oracle
    assert _lane_summary(fast) == _lane_summary(_per_syndrome_certificate(code))
    assert analyze_code(code).delta == fast.partition.delta
    assert _is_syndrome_quotient(code, coset_graph_by_syndrome(code))


@st.composite
def dependent_row_parity_checks(draw):
    """A full-rank example and its code with a random combination of the
    rows of H appended."""
    code = draw(full_rank_parity_checks())
    h = code.linear.parity_check
    alpha = h.alphabet
    coefficients = draw(st.lists(st.integers(0, alpha.q - 1),
                                 min_size=h.nrows, max_size=h.nrows))
    extra = [0] * h.ncols
    for c, row in zip(coefficients, h.rows):
        extra = [alpha.add(e, alpha.mul(c, x)) for e, x in zip(extra, row)]
    return code, code_from_parity_check(code.ambient, gf_matrix(alpha, [*h.rows, extra]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dependent_row_parity_checks())
def test_dependent_rows_certify_as_the_full_rank_code(pair):
    code, dependent = pair
    assert dependent.linear.rank == code.linear.rank
    cert, dep = certify_completely_regular(code), certify_completely_regular(dependent)
    assert isinstance(dep.partition, SyndromePartition)
    assert _summary(dep) == _summary(cert)
    assert analyze_code(dependent).delta == dep.partition.delta == cert.partition.delta
    # the two name a coset by its syndrome under H and under RREF(H)
    h, basis = code.linear.parity_check, dependent.linear.row_basis()
    assert basis.rows == rref(h)[0].rows
    space = code.ambient
    relabel = {}
    for x, s in enumerate(_word_syndromes(h, space.n)):
        relabel.setdefault(s, encode(mat_vec(basis, decode(x, space.n, space.q)), space.q))
    assert sorted(relabel.values()) == list(range(space.q**code.linear.rank))
    assert all(dep.partition.class_of_syndrome[relabel[s]] == c
               for s, c in enumerate(cert.partition.class_of_syndrome))
    graph, dep_graph = coset_graph_by_syndrome(code), coset_graph_by_syndrome(dependent)
    assert dep_graph.n == graph.n and dep_graph.edge_count() == graph.edge_count()
    assert all(dep_graph.has_edge(relabel[u], relabel[v]) for u, v in graph.edges())
    drg, dep_drg = certify_distance_regular(graph), certify_distance_regular(dep_graph)
    assert (dep_drg.is_drg, dep_drg.array) == (drg.is_drg, drg.array)


def test_lanes_widen_past_a_valency_of_255():
    assert [_lane_width(k) for k in (0, 255, 256, 65535, 65536)] == [1, 1, 2, 2, 4]
    # the [3,2] code over GF(128) with H = [1 2 3]: valency 3*127 = 381
    code = code_from_parity_check(ambient(3, 128), gf_matrix(alphabet(128), [[1, 2, 3]]))
    cert = certify_completely_regular(code)
    assert cert.numbers.gamma == (0, 3)
    assert cert.numbers.alpha == (0, 378)
    assert cert.numbers.beta == (381, 0)
    assert cert.partition.delta == 2
    assert _lane_summary(cert) == _lane_summary(_per_syndrome_certificate(code))


def test_class_bytes_never_saturate_under_the_vertex_cap():
    # every syndrome is a sum of at most r independent columns, so rho <= r,
    # and 2^r <= q^r <= q^n <= 2^26 words under the default cap gives r <= 26,
    # far below the 255 a class byte holds
    assert DEFAULT_VERTEX_CAP.bit_length() - 1 == 26 < 255
    for code in CODES:
        assert certify_completely_regular(code).partition.rho <= code.linear.rank
    # the zero code of H(12, 2) reaches rho = r = 12
    zero = code_from_words(ambient(12, 2), [0])
    h = gf_matrix(alphabet(2), [[int(i == j) for j in range(12)] for i in range(12)])
    cert = certify_completely_regular(code_from_parity_check(ambient(12, 2), h))
    assert cert.partition.rho == 12 == max(cert.partition.class_of_syndrome)
    assert distance_partition(zero).rho == 12


def _forbid_span(monkeypatch):
    def forbidden(*args):
        raise AssertionError("members spanned")

    monkeypatch.setattr(hamming_space, "_span", forbidden)


@pytest.mark.parametrize("code, delta", [
    (hamming_code(3, 2), 3),
    (hamming_code(4, 2), 3),
    (extended_hamming_code(4), 4),
    (repetition_code(21, 2), 21),
    (repetition_code(12, 3), 12),
    (code_from_parity_check(ambient(3, 128), gf_matrix(alphabet(128), [[1, 2, 3]])), 2),
], ids=["hamming-7-4", "hamming-15-11", "extended-hamming-16-11", "repetition-2-21",
        "repetition-3-12", "gf128-3-2"])
def test_minimum_distance_of_closed_forms_comes_from_the_syndrome_bfs(
        monkeypatch, code, delta):
    _forbid_span(monkeypatch)
    assert analyze_code(code).delta == delta
