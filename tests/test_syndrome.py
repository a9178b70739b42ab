"""The syndrome certificate of linear codes against its full-space oracle;
the coset graph's DRG certificate, census check and folded-cube map, read off
its connection set, against the walks of the adjacency list built from it;
the lane-vector certificate against the per-syndrome BFS, and its packed
chunks against the per-code lane kernel they replaced; parity checks
outside RREF and with dependent rows against the full-space scan and their
full-rank twins; and the translation kernels against digit-by-digit
addition."""

import random
import sys
from collections import Counter
from itertools import combinations

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
)
from crcodes.classify import (
    CheckContext,
    coset_family,
    linear_folded_cube_map,
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
    _scan,
    analyze_code,
    certify_codes,
    certify_completely_regular,
    distance_partition,
    free_coordinates,
    is_reduced,
    layer_counts,
)
from crcodes.errors import TheoremViolationError
from crcodes.hamming_space import (
    DEFAULT_VERTEX_CAP,
    Code,
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
    IntersectionArray,
    bfs_distances,
    certify_distance_regular,
    coset_graph_by_syndrome,
    graph_from_edges,
    is_syndrome_quotient,
)
from crcodes.search import CensusParams, enumerate_linear_codes, run_census
from fixture_graphs import assert_maps_onto_folded_cube

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


def _word_listed(code):
    """The code as a list of its words, which the full-space scan certifies."""
    return Code(code.ambient, code.members)


def _per_syndrome_certificate(code):
    """The oracle of the lane-vector certificate: BFS from syndrome 0 with one
    step per edge, the (previous, same, next) counts of every syndrome, and,
    for a code that is not completely regular, the words in encoding order
    looked up by their syndromes E x.  Its delta is the weight scan over the
    spanned members."""
    h = code.linear.echelon
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


def _read_lanes(lanes, vector):
    """The lanes of a lane vector, as ints, syndrome-major."""
    raw = vector.to_bytes(lanes.size * lanes.unit, "little")
    return [int.from_bytes(raw[i:i + lanes.width], "little")
            for i in range(0, len(raw), lanes.width)]


def _per_code_lane_certificate(code):
    """The per-code lane kernel that the packed chunks replaced, kept as
    their oracle: one BFS loop per code, each layer's lowest lane's counts
    added into two reference vectors as the layer completes, and the verdict
    and witness read off the differences with them."""
    space = code.ambient
    q, n, size = space.q, space.n, code.size
    h, pivots = code.linear.echelon, code.linear.pivots
    multiplicity = Counter(column_offsets(h))
    loops = multiplicity.pop(0, 0)
    moves = space.valency - loops  # the loop-free degree
    lanes = _lanes(q, h.nrows, _lane_width(space.valency), 1)
    steps = [(lanes.plan(t), k) for t, k in multiplicity.items()]
    full, bits, move = lanes.full, lanes.bits, lanes.translate
    around = sum(k << bits * t for t, k in multiplicity.items())  # N_0
    layer, unseen = 1, lanes.ones ^ 1
    dist = prev = same = prev_ref = same_ref = 0
    sizes, firsts = [], []
    delta, shell = None, 1  # shell: C(n, c+1) (q-1)^(c+1), the words of weight c+1
    while layer:
        c = len(sizes)
        sizes.append(layer.bit_count() * size)
        dist += c * layer
        if unseen:
            reached = lanes.nonzero(around) & unseen
            assert reached, "a full-rank parity check reaches every syndrome"
            unseen ^= reached
            back = around & reached * full
            around &= layer * full
        else:  # the last layer: no next count
            reached = back = 0
            around = moves * layer - (prev & layer * full)
        low = (layer & -layer).bit_length() - 1
        firsts.append(low // bits)
        prev_ref += (prev >> low & full) * layer
        same_ref += (around >> low & full) * layer
        same += around
        prev += back
        shell = shell * (n - c) * (q - 1) // (c + 1)
        if delta is None and reached.bit_count() != shell:
            delta = (2 * c + 1 if sum(_read_lanes(lanes, back)) < (c + 1) * shell
                     else 2 * c + 2)
        layer = reached
        if unseen:
            around = sum(move(layer, plan) * k for plan, k in steps)
    class_of = bytes(_read_lanes(lanes, dist))

    def row(s):
        g, m = prev >> s * bits & full, same >> s * bits & full
        word = s if pivots is None else sum(s // q**i % q * q**j for i, j in enumerate(pivots))
        return word, dist >> s * bits & full, (g, m + loops, moves - g - m)

    differ = (prev ^ prev_ref) | (same ^ same_ref)
    if differ:  # the lowest lane that differs, after the lowest lane of its class
        b = ((differ & -differ).bit_length() - 1) // bits
        firsts = [firsts[class_of[b]], b]
    part = SyndromePartition(code, class_of, c, tuple(sizes), delta)
    return _scan(part, map(row, firsts))


# (q, largest n) of the lane-vector differential check: every census code.
ORACLE_CENSUSES = ((2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3))


def test_lane_certificate_equals_the_per_syndrome_bfs():
    # one code at a time, a census length's packed chunks, and the per-code
    # lane kernel the chunks replaced, each against the per-syndrome BFS
    checked = refuted = 0
    for q, top in ORACLE_CENSUSES:
        for n in range(1, top + 1):
            for code, packed in certify_codes(enumerate_linear_codes(n, q)):
                want = _lane_summary(_per_syndrome_certificate(code))
                analysis = analyze_code(code)
                assert _lane_summary(analysis.certificate) == want, (
                    code.linear.parity_check)
                assert _lane_summary(packed) == want, code.linear.parity_check
                assert _lane_summary(_per_code_lane_certificate(code)) == want
                assert analysis.delta == minimum_distance(code)
                checked += 1
                refuted += not want[0]
    assert checked == 17617 and refuted > checked // 2


def _count_chunks(monkeypatch):
    """The (r, codes) of every packed BFS run."""
    chunks = []
    packed = cr_analysis._packed_bfs

    def counting(space, r, offsets):
        chunks.append((r, len(offsets)))
        return packed(space, r, offsets)

    monkeypatch.setattr(cr_analysis, "_packed_bfs", counting)
    return chunks


def test_a_census_length_spans_several_chunks_and_a_chunk_of_one(monkeypatch):
    # the 122 ternary [6,1] codes of redundancy 5 have 243 syndromes each:
    # 11 codes to a chunk leaves one code for the last
    chunks = _count_chunks(monkeypatch)
    monkeypatch.setattr(cr_analysis, "_CHUNK_LANES", 243 * 11)
    codes = [code for code in enumerate_linear_codes(6, 3) if code.linear.rank == 5]
    certified = list(certify_codes(codes))
    assert chunks == [(5, 11)] * 11 + [(5, 1)]
    assert [code for code, _ in certified] == codes
    for code, cert in certified:
        assert _lane_summary(cert) == _lane_summary(_per_code_lane_certificate(code))


def test_one_chunk_mixes_zero_repeated_and_parallel_columns(monkeypatch):
    # [I_2 | a b] over GF(3) for every pair of columns a, b: zero columns,
    # equal and parallel pairs, and both tail slots differ across the chunk
    chunks = _count_chunks(monkeypatch)
    alpha, space = alphabet(3), ambient(4, 3)
    columns = [(x, y) for x in range(3) for y in range(3)]
    codes = [code_from_parity_check(space, gf_matrix(alpha, [[1, 0, a[0], b[0]],
                                                             [0, 1, a[1], b[1]]]))
             for a in columns for b in columns]
    refuted = 0
    for code, cert in certify_codes(codes):
        assert _lane_summary(cert) == _lane_summary(_per_code_lane_certificate(code))
        slow = certify_completely_regular(_word_listed(code))
        assert _summary(cert) == _summary(slow)
        refuted += not cert.completely_regular
    assert chunks == [(2, 81)] and 0 < refuted < 81


def test_packed_lanes_widen_past_a_valency_of_255(tmp_path):
    # GF(128): valency 381 at n = 3 needs two-byte lanes, and the redundancy-1
    # codes of one length share a chunk
    assert _lane_width(ambient(3, 128).valency) == 2
    summary = run_census(CensusParams(q=128, max_n=3, max_redundancy=1), tmp_path)
    codes = [code for n in (2, 3) for code in enumerate_linear_codes(n, 128, 1)]
    assert summary["recorded"] == len(codes) == 5
    for code, cert in certify_codes(codes):
        assert _lane_summary(cert) == _lane_summary(_per_code_lane_certificate(code))
        assert _lane_summary(cert) == _lane_summary(_per_syndrome_certificate(code))


def test_offsets_that_miss_a_syndrome_are_a_theorem_violation():
    # columns of a full-rank H reach every syndrome; offsets that span only
    # e_1 of GF(2)^2 stop the BFS, in a chunk as for one code
    for offsets, reached in (([[1, 1, 0]], 2), ([[1, 2, 3], [1, 1, 0]], 2)):
        with pytest.raises(TheoremViolationError) as caught:
            cr_analysis._packed_bfs(ambient(3, 2), 2, offsets)
        assert caught.value.witness == {"syndrome": 2, "reached": reached}


def test_projective_codes_take_their_drg_array_from_their_own_certificate(monkeypatch):
    # the nonzero columns of H pairwise non-parallel (H projective, or so up
    # to zero columns, which are loops): the coset graph's array is read off
    # the code's own certificate and equals the certificate of H' it
    # replaces, which is not run
    import crcodes.classify as classify_mod

    runs = []
    real = classify_mod.certify_distance_regular
    monkeypatch.setattr(classify_mod, "certify_distance_regular",
                        lambda graph: runs.append(graph.n) or real(graph))
    reused = with_zero_columns = 0
    for q, top in ORACLE_CENSUSES:
        for n in range(1, top + 1):
            for code, cert in certify_codes(enumerate_linear_codes(n, q)):
                if not cert.completely_regular:
                    continue
                graph = coset_graph_by_syndrome(code)
                runs.clear()
                drg, _ = coset_family(CheckContext(code, analyze_code(code, cert)))
                assert drg.array == certify_distance_regular(graph).array
                offsets = [s for s in column_offsets(code.linear.parity_check) if s]
                if len(set(offsets)) < len(offsets):
                    assert len(runs) == 1
                    continue
                assert runs == []
                reused += 1
                with_zero_columns += len(offsets) < code.ambient.valency
    assert (reused, with_zero_columns) == (192, 123)


def _word_syndromes(h, n):
    """The syndromes H x of the words x = 0, 1, ..., q^n - 1."""
    q = h.alphabet.q
    return [encode(mat_vec(h, decode(x, n, q)), q) for x in range(q**n)]


def test_syndrome_certificate_equals_the_full_space_scan():
    refuted = 0
    for code in CODES:
        part = distance_partition(code)
        fast = certify_completely_regular(code)
        slow = certify_completely_regular(_word_listed(code))
        assert isinstance(fast.partition, SyndromePartition)
        assert isinstance(slow.partition, DistancePartition)
        assert _summary(fast) == _summary(slow), code.linear.parity_check
        syndromes = _word_syndromes(code.linear.parity_check, code.ambient.n)
        leader_weight = fast.partition.class_of_syndrome
        assert bytes(leader_weight[s] for s in syndromes) == part.class_of
        refuted += not fast.completely_regular
    assert refuted > len(CODES) // 2  # the witness walk is exercised


def test_late_conflict_walk_stops_at_the_full_space_witness():
    # Hamming [15,11] x {0}: the first conflict needs the top coordinate
    ham = hamming_code(4, 2)
    rows = [r + (0,) for r in ham.linear.parity_check.rows] + [(0,) * 15 + (1,)]
    code = code_from_parity_check(ambient(16, 2), gf_matrix(alphabet(2), rows))
    fast = certify_completely_regular(code)
    slow = certify_completely_regular(_word_listed(code))
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
    # the full-space scan reads 2^23 + 4 words to reach this conflict; H is
    # not in RREF, and the certificate still lists no word
    assert cert.witness.to_json() == {
        "class": 3, "direction": "same", "vertex_a": 7, "count_a": 20,
        "vertex_b": (1 << 23) + 3, "count_b": 0}
    assert code.linear.pivots is not None and listed == []


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
        slow = certify_completely_regular(_word_listed(code))
        assert _summary(certify_completely_regular(code)) == _summary(slow)


def test_rank_deficient_parity_check_certifies_on_its_row_basis():
    space = ambient(4, 2)
    h = gf_matrix(space.alphabet, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    code = code_from_parity_check(space, h)
    cert = certify_completely_regular(code)
    assert isinstance(cert.partition, SyndromePartition)
    assert len(cert.partition.class_of_syndrome) == 4
    assert cert.completely_regular and cert.partition.class_sizes == (4, 8, 4)
    assert _summary(cert) == _summary(certify_completely_regular(_word_listed(code)))


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
            graph = coset_graph_by_syndrome(code)
            assert graph.connection == () and graph.explicit().adjacency == ((),)
            assert certify_distance_regular(graph).array == IntersectionArray((), ())


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


# (q, largest n): the census codes on which the checks that used to walk a
# coset graph at run time are held to that walk (census codes have rank >= 1)
WALK_CENSUSES = ((2, 7), (3, 5), (4, 4))
WALK_CODES = [code for q, top in WALK_CENSUSES for n in range(1, top + 1)
                for code in enumerate_linear_codes(n, q)]


def _confirmed_by_layer_counts(graph, witness) -> bool:
    """Whether the BFS from each root of a DRG witness and the layer counts
    of the explicit graph put both vertices in layer i with the counts it
    names: one layer down where those differ, else one layer up."""
    _, i, (xa, ya), ca, (xb, yb), cb = witness
    (la, ra), (lb, rb) = [next((layer, counts) for _, layer, counts in layer_counts(
        bfs_distances(graph, x), graph.adjacency, [y])) for x, y in ((xa, ya), (xb, yb))]
    j = 0 if ra[0] != rb[0] else 2
    return la == lb == i and ca != cb and (ra[j], rb[j]) == (ca, cb)


def test_one_root_drg_certificate_equals_all_roots():
    # the certificate read off S against the BFS from every root of the
    # adjacency list built from S
    refuted = 0
    for code in WALK_CODES:
        graph = coset_graph_by_syndrome(code)
        plain = graph.explicit()
        fast, slow = certify_distance_regular(graph), certify_distance_regular(plain)
        assert (fast.is_drg, fast.array) == (slow.is_drg, slow.array)
        if not fast.is_drg:
            assert _confirmed_by_layer_counts(plain, fast.witness)
            assert _confirmed_by_layer_counts(plain, slow.witness)
            refuted += 1
    assert len(WALK_CODES) == 2238 + 229 + 58 and refuted > 1000


def test_a_connection_set_with_no_unit_vector_gets_the_explicit_graphs_witness():
    # every spanning, scalar-closed S of GF(2)^4 and GF(3)^3 with no unit
    # vector: H' has no identity column, so it is not its own echelon E,
    # and the witness names the graph's vertices H'x, not the syndromes Ex
    refuted = 0
    for q, r in ((2, 4), (3, 3)):
        alpha = alphabet(q)
        points = [p for p in range(1, q**r) if p not in {q**i for i in range(r)}
                  and next(d for d in decode(p, r, q) if d) == 1]
        for k in range(r, len(points) + 1):
            for chosen in combinations(points, k):
                h = gf_matrix(alpha, zip(*(decode(p, r, q) for p in chosen)))
                if rank(h) < r:
                    continue
                graph = CayleyGraph(alpha, r, tuple(sorted(column_offsets(h))))
                cert, plain = certify_distance_regular(graph), graph.explicit()
                assert cert.is_drg == certify_distance_regular(plain).is_drg
                if not cert.is_drg:
                    assert _confirmed_by_layer_counts(plain, cert.witness), chosen
                    refuted += 1
    assert refuted == 1363 + 844


def _quotient_edges(code) -> set:
    """The edges s ~ s + E(lambda e_j) of the quotient of H(n, q) by the
    cosets of C, for every syndrome s = Ex, each step summed digit by digit
    in the alphabet."""
    h = code.linear.echelon
    alpha = h.alphabet
    n, q, r = code.ambient.n, code.ambient.q, h.nrows
    steps = {mat_vec(h, tuple(lam if i == j else 0 for i in range(n)))
             for j in range(n) for lam in range(1, q)}
    edges = set()
    for s in range(q**r):
        for step in steps:
            t = encode(tuple(alpha.add(a, b) for a, b in zip(decode(s, r, q), step)), q)
            if s < t:
                edges.add((s, t))
    return edges


def test_syndrome_quotient_check_agrees_with_the_edge_comparison():
    for code in WALK_CODES:
        graph = coset_graph_by_syndrome(code)
        assert is_syndrome_quotient(code, graph)
        assert _quotient_edges(code) == set(graph.explicit().edges())


def test_linear_folded_cube_maps_are_isomorphisms_edge_by_edge():
    graphs = [coset_graph_by_syndrome(code) for code in WALK_CODES]
    graphs += [coset_graph_by_syndrome(repetition_code(n, 2)) for n in range(5, 13)]
    mapped = []
    for graph in graphs:
        m = len(graph.connection)
        basis = linear_folded_cube_map(graph, m)
        if basis is None:
            continue
        assert_maps_onto_folded_cube(graph, basis, m)
        mapped.append(m)
    assert set(range(5, 13)) <= set(mapped) and len(mapped) > 20


def _count_bfs(monkeypatch):
    roots = []
    bfs = partitions_quotients.bfs_distances

    def counting(graph, root):
        roots.append(root)
        return bfs(graph, root)

    monkeypatch.setattr(partitions_quotients, "bfs_distances", counting)
    return roots


def test_cayley_graphs_take_no_bfs_and_others_take_one_per_vertex(monkeypatch):
    roots = _count_bfs(monkeypatch)
    graph = coset_graph_by_syndrome(hamming_code(3, 2))
    assert certify_distance_regular(graph).is_drg
    assert roots == []
    assert certify_distance_regular(graph.explicit()).is_drg
    assert roots == list(range(graph.n))


# Cubic on 10 vertices: the layering seen from vertex 0 is distance-regular,
# the one seen from vertex 1 is not, so the graph is not vertex-transitive.
_LOCALLY_REGULAR_AT_0 = [(0, 3), (0, 4), (0, 9), (1, 2), (1, 3), (1, 7), (2, 6), (2, 9),
                         (3, 7), (4, 5), (4, 6), (5, 7), (5, 8), (6, 8), (8, 9)]


def test_unmarked_graph_that_looks_regular_from_vertex_0_is_refuted(monkeypatch):
    graph = graph_from_edges(10, _LOCALLY_REGULAR_AT_0)
    roots = _count_bfs(monkeypatch)
    cert = certify_distance_regular(graph)
    assert not cert.is_drg
    assert cert.witness[0] == "count" and cert.witness[4][0] == 1
    assert roots == [0, 1]
    assert _confirmed_by_layer_counts(graph, cert.witness)


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
        lanes = _lanes(q, r, 2, 1)
        vector = sum((v + 1) << (16 * v) for v in words)
        for s in offsets:
            want = [0] * size
            for v in words:
                want[_add_digits(v, s, r, alpha)] = v + 1
            assert _read_lanes(lanes, lanes.translate(vector, lanes.plan(s))) == want
        # three codes, syndrome-major: lane 3v + k holds 3v + k + 1.  A plan
        # moves every code by one offset; selectors move code k by its own,
        # and drop a code whose offset is 0
        if size > 256:
            continue
        packed = _lanes(q, r, 2, 3)
        vector = sum((lane + 1) << (16 * lane) for lane in range(3 * size))

        def moved(shifts):
            want = [0] * (3 * size)
            for v in words:
                for k, t in enumerate(shifts):
                    if t is not None:
                        want[3 * _add_digits(v, t, r, alpha) + k] = 3 * v + k + 1
            return want

        s = offsets[2]
        assert _read_lanes(packed, packed.translate(vector, packed.plan(s))) == moved([s] * 3)
        own = [offsets[2], 0, offsets[3]]
        if any(own):
            got = packed.translate_each(vector, packed.each_plan(own, {}))
            assert _read_lanes(packed, got) == moved([t or None for t in own])


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
    slow = certify_completely_regular(_word_listed(code))
    assert isinstance(fast.partition, SyndromePartition)
    assert _summary(fast) == _summary(slow)
    # the lane summary holds delta, against the weight scan of the oracle
    assert _lane_summary(fast) == _lane_summary(_per_syndrome_certificate(code))
    assert analyze_code(code).delta == fast.partition.delta
    assert is_syndrome_quotient(code, coset_graph_by_syndrome(code))


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
    # H and H with a dependent row share one echelon, so one name per coset
    assert dependent.linear.echelon == code.linear.echelon
    assert dep.partition.class_of_syndrome == cert.partition.class_of_syndrome
    assert coset_graph_by_syndrome(dependent) == coset_graph_by_syndrome(code)


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


def _count_lane_translations(monkeypatch):
    calls = []
    move = cr_analysis._Lanes.translate

    def counting(vector, steps):
        calls.append(steps)
        return move(vector, steps)

    monkeypatch.setattr(cr_analysis._Lanes, "translate", staticmethod(counting))
    return calls


@pytest.mark.parametrize("code, translations", [
    (hamming_code(3, 2), 0),
    (hamming_code(3, 3), 0),
    (repetition_code(5, 2), 5),
], ids=["hamming-7-4", "hamming-13-10", "repetition-2-5"])
def test_layer_zero_and_the_last_layer_take_no_translation(monkeypatch, code, translations):
    # layer 0 is read off the columns and the last layer off its previous
    # count, so only the middle layers are translated, once per distinct
    # nonzero offset: none for rho = 1, layer 1's for rho = 2
    calls = _count_lane_translations(monkeypatch)
    cert = certify_completely_regular(code)
    assert cert.completely_regular and cert.partition.rho == (2 if translations else 1)
    h = code.linear.parity_check
    assert translations in (0, len(set(column_offsets(h)) - {0}))
    assert len(calls) == translations


def test_a_chunk_translates_only_its_middle_layers(monkeypatch):
    # the chunk of [I_2 | a b] over GF(3) reaches rho = 2: only layer 1 is
    # translated, by the 4 offsets of I_2 shared by every code and by the
    # 4 tail slots (two columns, two scalars) under selectors
    alpha, space = alphabet(3), ambient(4, 3)
    columns = [(x, y) for x in range(3) for y in range(3)]
    codes = [code_from_parity_check(space, gf_matrix(alpha, [[1, 0, a[0], b[0]],
                                                             [0, 1, a[1], b[1]]]))
             for a in columns for b in columns]
    shared = _count_lane_translations(monkeypatch)
    each = []
    move_each = cr_analysis._Lanes.translate_each

    def counting(vector, steps):
        each.append(steps)
        return move_each(vector, steps)

    monkeypatch.setattr(cr_analysis._Lanes, "translate_each", staticmethod(counting))
    certified = list(certify_codes(codes))
    assert max(cert.partition.rho for _, cert in certified) == 2
    assert (len(shared), len(each)) == (4, 4)


def test_a_systematic_parity_check_takes_its_witness_off_the_lanes():
    refuted = [code for n in (5, 6) for code in enumerate_linear_codes(n, 3)
               if not analyze_code(code).cr]
    for code, packed in certify_codes(refuted[::10]):
        slow = certify_completely_regular(_word_listed(code))
        assert _summary(certify_completely_regular(code)) == _summary(slow)
        assert _summary(packed) == _summary(slow)
    assert len(refuted[::10]) > 150


def test_parity_checks_outside_rref_certify_as_the_full_space_scan():
    # the census H = [I_r | A] with its columns reversed is mostly not in
    # RREF: the lanes and the class map are the syndromes of E = RREF(H),
    # and the witness places a lane's digits on E's pivots
    checked = outside = refuted = 0
    for n in range(1, 6):
        reversed_codes = [code_from_parity_check(census_code.ambient, h.take_columns(
            range(n - 1, -1, -1))) for census_code in enumerate_linear_codes(n, 3)
            for h in [census_code.linear.parity_check]]
        for code, packed in certify_codes(reversed_codes):
            h = code.linear.parity_check
            part = distance_partition(code)
            fast = certify_completely_regular(code)
            assert _summary(fast) == _summary(certify_completely_regular(_word_listed(code))), h
            assert _lane_summary(packed) == _lane_summary(fast)
            assert _lane_summary(fast) == _lane_summary(_per_code_lane_certificate(code))
            leader_weight = fast.partition.class_of_syndrome
            syndromes = _word_syndromes(code.linear.echelon, n)
            assert bytes(leader_weight[s] for s in syndromes) == part.class_of
            checked += 1
            reduced = h.rows != code.linear.echelon.rows
            outside += reduced
            refuted += reduced and not fast.completely_regular
    assert (checked, outside) == (229, 204) and refuted > 150
