import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcodes.classify import (
    IA_654,
    QuotientFamily,
    classify_arithmetic_forms,
    classify_hamming_quotient_code,
    classify_quotient,
    classify_small_covering_radius,
    clique_bound_checks,
    column_classes,
    complete_bipartite,
    complete_graph,
    construct_fixture,
    coordinate_classes,
    decompose_product,
    finest_product_blocks,
    folded_cube,
    folded_cube_isomorphism,
    graph_isomorphic,
    hamming_graph,
    is_extended_hamming_equivalent,
    is_hamming_equivalent,
    linear_folded_cube_map,
    local_component_profile,
    max_clique,
    product_factors,
    radius_one_factors_equivalent,
    replicated_normal_form,
    restrict_to_coordinates,
    shrikhande_graph,
)
from crcodes.constructions import (
    cartesian_product,
    extended_hamming_code,
    hamming_code,
    hamming_parity_check,
    repetition_code,
    replicate_columns,
)
from crcodes.algebra import alphabet, gf_identity, gf_matrix, hstack
from crcodes.cr_analysis import analyze_code
from crcodes.hamming_space import (
    Code,
    ambient,
    code_from_parity_check,
    decode,
    encode,
    minimum_distance,
)
from crcodes.partitions_quotients import (
    CayleyGraph,
    Graph,
    certify_distance_regular,
    coset_graph_by_syndrome,
    coset_partition,
    graph_from_edges,
    partition_from_classes,
    quotient_graph,
)


# -- fixtures ---------------------------------------------------------------


def test_folded_4_cube_is_k44():
    assert graph_isomorphic(folded_cube(4), complete_bipartite(4)) is not None


def test_folded_3_cube_is_k4():
    assert graph_isomorphic(folded_cube(3), complete_graph(4)) is not None


def _srg_parameters(g):
    n = g.n
    k = g.degree(0)
    lam = mu = None
    for u in range(n):
        for v in range(u + 1, n):
            common = len(set(g.adjacency[u]) & set(g.adjacency[v]))
            if g.has_edge(u, v):
                lam = common if lam is None else lam
                assert common == lam
            else:
                mu = common if mu is None else mu
                assert common == mu
    return (n, k, lam, mu)


def test_shrikhande_is_srg_16_6_2_2_locally_hexagon():
    g = shrikhande_graph()
    assert _srg_parameters(g) == (16, 6, 2, 2)
    for v in range(16):
        assert local_component_profile(g, v) == ((6, 6),)


def test_h24_is_srg_16_6_2_2_locally_two_triangles():
    g = hamming_graph(2, 4)
    assert _srg_parameters(g) == (16, 6, 2, 2)
    for v in range(16):
        assert local_component_profile(g, v) == ((3, 3), (3, 3))


def test_shrikhande_not_isomorphic_to_h24():
    assert graph_isomorphic(shrikhande_graph(), hamming_graph(2, 4)) is None


def test_folded_6_cube_isomorphic_to_relabeled_self():
    g = folded_cube(6)
    rng = random.Random(99)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    mapping = graph_isomorphic(g, relabeled)
    assert mapping is not None
    for u, v in g.edges():
        assert relabeled.has_edge(mapping[u], mapping[v])


def test_four_cycle_is_h22():
    square = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert graph_isomorphic(square, hamming_graph(2, 2)) is not None


def test_max_clique():
    assert max_clique(complete_graph(8)) == 8
    assert max_clique(folded_cube(6)) == 2
    assert max_clique(shrikhande_graph()) == 3
    assert max_clique(hamming_graph(2, 4)) == 4


# -- classification ----------------------------------------------------------


def test_classify_fixture_round_trip():
    cases = [
        (construct_fixture("hamming", m=2, q=2), "hamming", {"m": 2, "q": 2}),
        (construct_fixture("hamming", m=2, q=3), "hamming", {"m": 2, "q": 3}),
        (construct_fixture("hamming", m=3, q=2), "hamming", {"m": 3, "q": 2}),
        (construct_fixture("hamming", m=2, q=4), "hamming", {"m": 2, "q": 4}),
        (construct_fixture("hamming", m=3, q=4), "hamming", {"m": 3, "q": 4}),
        (construct_fixture("shrikhande"), "doob",
         {"shrikhande_factors": 1, "clique_factors": 0}),
        (construct_fixture("doob", s=1, c=1), "doob",
         {"shrikhande_factors": 1, "clique_factors": 1}),
        (construct_fixture("complete", v=8), "hamming", {"m": 1, "q": 8}),
        (construct_fixture("complete_bipartite", v=8), "complete_bipartite", {"v": 8}),
        (construct_fixture("folded_cube", m=4), "complete_bipartite", {"v": 4}),
        (construct_fixture("folded_cube", m=5), "folded_cube", {"m": 5}),
        (construct_fixture("folded_cube", m=6), "folded_cube", {"m": 6}),
        (construct_fixture("folded_cube", m=7), "folded_cube", {"m": 7}),
    ]
    for graph, tag, params in cases:
        family = classify_quotient(graph)
        assert family.tag == tag, (tag, params, family)
        assert family.params == params


def test_classify_separates_shrikhande_from_h24():
    srg1 = classify_quotient(shrikhande_graph())
    srg2 = classify_quotient(hamming_graph(2, 4))
    assert srg1.tag == "doob" and srg1.params == {"shrikhande_factors": 1, "clique_factors": 0}
    assert srg2.tag == "hamming" and srg2.params == {"m": 2, "q": 4}
    # identical intersection arrays
    a1 = certify_distance_regular(shrikhande_graph()).array
    a2 = certify_distance_regular(hamming_graph(2, 4)).array
    assert a1 == a2


def test_classify_quotients_of_codes():
    k8 = quotient_graph(coset_partition(hamming_code(3, 2)))
    fam = classify_quotient(k8)
    assert fam.tag == "hamming" and fam.params == {"m": 1, "q": 8}

    folded = quotient_graph(coset_partition(repetition_code(6, 2)))
    fam = classify_quotient(folded)
    assert fam.tag == "folded_cube" and fam.params == {"m": 6}

    k88 = coset_graph_by_syndrome(extended_hamming_code(3))
    fam = classify_quotient(k88)
    assert fam.tag == "complete_bipartite" and fam.params == {"v": 8}


# -- clique bound checks -------------------------------------------------------


def _class_min_distance(partition):
    """Oracle: least minimum distance over the classes with two or more
    members, each scanned as a word list; None when all are singletons."""
    dists = [minimum_distance(Code(partition.space, tuple(members)))
             for members in partition.classes() if len(members) >= 2]
    return min(dists, default=None)


def test_clique_checks_hamming74():
    part = coset_partition(hamming_code(3, 2))
    g = quotient_graph(part)
    drg = certify_distance_regular(g)
    family = classify_quotient(g, drg)
    results = {r.name: r.status for r in clique_bound_checks(
        2, family, drg.array, _class_min_distance(part))}
    assert results["hamming_alphabet_bound"] == "PASS"
    assert results["no_doob_quotient_q_ge_4"] == "INAPPLICABLE"
    assert results["no_folded_array_q_ge_3"] == "INAPPLICABLE"


def test_clique_checks_h24_partition_inapplicable():
    sp = ambient(2, 4)
    part = partition_from_classes(sp, [
        [[0, 0], [0, 1], [1, 0], [1, 1]],
        [[0, 2], [0, 3], [1, 2], [1, 3]],
        [[2, 0], [2, 1], [3, 0], [3, 1]],
        [[2, 2], [2, 3], [3, 2], [3, 3]],
    ])
    g = quotient_graph(part)
    drg = certify_distance_regular(g)
    family = classify_quotient(g, drg)
    assert family.tag == "hamming" and family.params == {"m": 2, "q": 2}
    assert _class_min_distance(part) == 1
    results = clique_bound_checks(4, family, drg.array, 1)
    assert all(r.status == "INAPPLICABLE" for r in results)


def test_clique_checks_repetition6():
    part = coset_partition(repetition_code(6, 2))
    g = quotient_graph(part)
    drg = certify_distance_regular(g)
    family = classify_quotient(g, drg)
    results = {r.name: r.status for r in clique_bound_checks(
        2, family, drg.array, _class_min_distance(part))}
    assert results["no_folded_array_q_ge_3"] == "INAPPLICABLE"  # q = 2
    assert results["additive_654_array_is_folded"] == "PASS"
    assert drg.array == IA_654


# -- coordinate and column classes ----------------------------------------------


def _doubled_hamming():
    hh = replicate_columns(hamming_parity_check(3, 2), 2)
    return code_from_parity_check(ambient(14, 2), hh)


def test_coordinate_classes():
    doubled = _doubled_hamming()
    classes = coordinate_classes(doubled)
    assert classes == tuple((i, i + 7) for i in range(7))

    ham = hamming_code(3, 2)
    assert coordinate_classes(ham) == tuple((i,) for i in range(7))

    hamham = cartesian_product(ham, ham)
    assert coordinate_classes(hamham) == tuple((i,) for i in range(14))


def test_column_classes_doubled_hamming():
    doubled = _doubled_hamming()
    report = column_classes(doubled)
    assert report.classes == tuple((i, i + 7) for i in range(7))
    assert report.class_size == 2 and report.gamma1 == 2
    ham = hamming_code(3, 2)
    assert report.restricted_code.members == ham.members
    assert report.restricted_delta == 3


def test_column_classes_hamming_itself():
    ham = hamming_code(3, 2)
    report = column_classes(ham)
    assert report.class_size == 1 and report.gamma1 == 1
    assert report.restricted_code.members == ham.members


def test_column_classes_triple_repetition_check():
    alpha = alphabet(2)
    m = hstack([gf_identity(alpha, 3), gf_matrix(alpha, [[1], [1], [1]])])
    mmm = replicate_columns(m, 3)
    code = code_from_parity_check(ambient(12, 2), mmm)
    report = column_classes(code)
    assert len(report.classes) == 4
    assert report.class_size == 3 and report.gamma1 == 3


def test_column_classes_match_coordinate_classes():
    for code in (_doubled_hamming(), hamming_code(3, 2), repetition_code(5, 2)):
        assert column_classes(code).classes == coordinate_classes(code)


# -- decomposition ----------------------------------------------------------------


def test_finest_blocks():
    rep2 = repetition_code(2, 2)
    sq = cartesian_product(rep2, rep2)
    assert finest_product_blocks(sq) == ((0, 1), (2, 3))
    ham = hamming_code(3, 2)
    assert finest_product_blocks(ham) == (tuple(range(7)),)
    assert finest_product_blocks(extended_hamming_code(3)) == (tuple(range(8)),)


def test_decompose_hamming_squared():
    ham = hamming_code(3, 2)
    hamham = cartesian_product(ham, ham)
    syn = coset_graph_by_syndrome(hamham)
    family = classify_quotient(syn)
    assert family.tag == "hamming" and family.params == {"m": 2, "q": 8}
    report = decompose_product(hamham, family, minimum_distance(hamham))
    assert report.verified
    assert report.blocks == (tuple(range(7)), tuple(range(7, 14)))
    assert all(f.members == ham.members for f in report.factors)
    assert report.factor_radii == (1, 1)


def test_decompose_single_factor():
    doubled = _doubled_hamming()
    family = classify_quotient(coset_graph_by_syndrome(doubled))
    assert family.params == {"m": 1, "q": 8}
    report = decompose_product(doubled, family, minimum_distance(doubled))
    assert report.verified and len(report.factors) == 1
    assert report.factors[0].members == doubled.members


def test_decompose_rep2_squared():
    rep2 = repetition_code(2, 2)
    sq = cartesian_product(rep2, rep2)
    family = classify_quotient(coset_graph_by_syndrome(sq))
    assert family.tag == "hamming" and family.params == {"m": 2, "q": 2}
    report = decompose_product(sq, family, minimum_distance(sq))
    assert report.verified
    assert all(f.members == rep2.members for f in report.factors)


# -- equivalence tests --------------------------------------------------------------


def test_hamming_equivalence():
    assert is_hamming_equivalent(hamming_code(3, 2))
    assert is_hamming_equivalent(hamming_code(2, 3))
    assert not is_hamming_equivalent(extended_hamming_code(3))
    assert not is_hamming_equivalent(repetition_code(4, 2))
    # scrambled Hamming stays equivalent
    h = hamming_parity_check(3, 2)
    perm = [3, 0, 6, 1, 5, 2, 4]
    scrambled = gf_matrix(h.alphabet, [[row[p] for p in perm] for row in h.rows])
    assert is_hamming_equivalent(code_from_parity_check(ambient(7, 2), scrambled))


def _scrambled_extended_hamming(seed):
    code = extended_hamming_code(3)
    rng = random.Random(seed)
    perm = list(range(8))
    rng.shuffle(perm)
    e = code.linear.parity_check
    scrambled = gf_matrix(e.alphabet, [[row[p] for p in perm] for row in e.rows])
    return code_from_parity_check(ambient(8, 2), scrambled)


def test_extended_hamming_equivalence():
    assert is_extended_hamming_equivalent(extended_hamming_code(3))
    assert is_extended_hamming_equivalent(extended_hamming_code(2))
    for seed in (1, 2, 3):
        assert is_extended_hamming_equivalent(_scrambled_extended_hamming(seed))
    rep2 = repetition_code(2, 2)
    four_dim = cartesian_product(cartesian_product(rep2, rep2), cartesian_product(rep2, rep2))
    assert not is_extended_hamming_equivalent(four_dim)


def test_extended_hamming_equivalence_matches_brute_force():
    from itertools import permutations
    from crcodes.hamming_space import decode, encode

    target = set(extended_hamming_code(3).members)
    code = _scrambled_extended_hamming(5)
    words = [decode(w, 8, 2) for w in code.members]
    brute = any(
        {encode([d[p[i]] for i in range(8)], 2) for d in words} == target
        for p in permutations(range(8))
    )
    assert brute == is_extended_hamming_equivalent(code) == True  # noqa: E712


def _punctured_and_extended(code: Code) -> bool:
    """The member form of is_extended_hamming_equivalent: the code is an
    even-weight extension, of minimum distance 4, of a perfect
    Hamming-equivalent code whose weight-3 words span it, which pins it up
    to a coordinate permutation."""
    from crcodes.algebra import rref
    from crcodes.hamming_space import code_from_generators, weight

    space = code.ambient
    n = space.n
    r = n.bit_length() - 1
    if space.q != 2 or n != 2**r or r < 2 or code.size != 2 ** (n - 1 - r):
        return False
    if minimum_distance(code) != 4 or any(weight(w, space) % 2 for w in code.members):
        return False
    punctured_space = ambient(n - 1, 2)
    words = sorted({w % punctured_space.size for w in code.members})
    assert len(words) == code.size  # distance 4: puncturing is injective
    reduced, k, _ = rref(gf_matrix(space.alphabet, [decode(w, n - 1, 2) for w in words]))
    punctured = code_from_generators(punctured_space, gf_matrix(space.alphabet, reduced.rows[:k]))
    assert list(punctured.members) == words
    if minimum_distance(punctured) != 3 or not is_hamming_equivalent(punctured):
        return False
    weight3 = [decode(w, n - 1, 2) for w in words if weight(w, punctured_space) == 3]
    return bool(weight3) and rref(gf_matrix(space.alphabet, weight3))[1] == k


def _scrambled(h, rng):
    """A binary H with its columns permuted and its rows mixed by an
    invertible matrix: one row added to another, over and over."""
    perm = list(range(h.ncols))
    rng.shuffle(perm)
    rows = [[row[j] for j in perm] for row in h.rows]
    for _ in range(3 * len(rows) if len(rows) > 1 else 0):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
    return gf_matrix(h.alphabet, rows)


def test_extended_hamming_identity_agrees_with_puncture_and_extend():
    from crcodes.search import systematic_parity_checks

    rng = random.Random(13)
    verdicts = []
    for n in (4, 8):
        for h in systematic_parity_checks(n, 2):
            for check in (h, _scrambled(h, rng)):
                code = code_from_parity_check(ambient(n, 2), check)
                verdict = is_extended_hamming_equivalent(code)
                assert verdict == _punctured_and_extended(code), check
                verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


# -- small covering radius classification ---------------------------------------------


def test_small_radius_hamming():
    report = classify_small_covering_radius(hamming_code(3, 2))
    assert report.case == "hamming"


def test_small_radius_extended_hamming():
    report = classify_small_covering_radius(extended_hamming_code(3))
    assert report.case == "extended_hamming"


def test_small_radius_product_branch():
    rep3 = hamming_code(2, 2)
    sq = cartesian_product(rep3, rep3)
    report = classify_small_covering_radius(sq)
    assert report.case == "hamming_product"
    assert report.detail["factor_length"] == 3


# -- the four normal-form cases --------------------------------------------------------


def test_forms_folded_cube_case():
    alpha = alphabet(2)
    m = hstack([gf_identity(alpha, 3), gf_matrix(alpha, [[1], [1], [1]])])
    mm = replicate_columns(m, 2)
    code = code_from_parity_check(ambient(8, 2), mm)
    forms = classify_arithmetic_forms(code)
    assert "folded_cube_replication" in forms.case_names()
    case = next(c for c in forms.cases if c["case"] == "folded_cube_replication")
    assert case["copies"] == 2 and case["base_length"] == 4
    # quotient is the folded 4-cube, i.e. K_{4,4}
    syn = coset_graph_by_syndrome(code)
    assert graph_isomorphic(syn, complete_bipartite(4)) is not None


def test_forms_hamming_replication_case():
    forms = classify_arithmetic_forms(_doubled_hamming())
    assert "hamming_replication" in forms.case_names()
    case = next(c for c in forms.cases if c["case"] == "hamming_replication")
    assert case["copies"] == 2 and not case["degenerate_base"]


def test_forms_even_weight_degenerate_hamming():
    code = code_from_parity_check(ambient(4, 2), gf_matrix(alphabet(2), [[1, 1, 1, 1]]))
    forms = classify_arithmetic_forms(code)
    case = next(c for c in forms.cases if c["case"] == "hamming_replication")
    assert case["degenerate_base"] and case["copies"] == 4


def test_forms_repetition3_matches_two_cases():
    forms = classify_arithmetic_forms(hamming_code(2, 2))
    assert {"folded_cube_replication", "hamming_replication"} <= forms.case_names()


def test_forms_extended_hamming_case():
    forms = classify_arithmetic_forms(extended_hamming_code(3))
    assert "extended_hamming_replication" in forms.case_names()


def test_forms_power_case():
    ham = hamming_code(3, 2)
    forms = classify_arithmetic_forms(cartesian_product(ham, ham))
    assert "radius_one_power" in forms.case_names()
    case = next(c for c in forms.cases if c["case"] == "radius_one_power")
    assert case["exponent"] == 2 and case["factor_length"] == 7


def test_replicated_normal_form_direct():
    doubled = _doubled_hamming()
    report = column_classes(doubled)
    result = replicated_normal_form(doubled, report)
    assert result.matches and result.copies == 2 and result.base_length == 7


# -- Hamming-quotient pipeline -----------------------------------------------------------


def _pipeline(code):
    family = classify_quotient(coset_graph_by_syndrome(code))
    return classify_hamming_quotient_code(code, analyze_code(code), family)


def test_pipeline_hamming74():
    report = _pipeline(hamming_code(3, 2))
    assert report.m == 1 and report.qprime == 8
    assert report.derived_t == 4
    assert {"hamming_replication"} <= {c["case"] for c in report.forms.cases}


def test_pipeline_doubled_hamming():
    report = _pipeline(_doubled_hamming())
    assert report.derived_t == 8  # gamma_1 q' / q = 2*8/2
    assert "hamming_replication" in {c["case"] for c in report.forms.cases}


def test_pipeline_hamming_squared():
    ham = hamming_code(3, 2)
    report = _pipeline(cartesian_product(ham, ham))
    assert report.m == 2 and report.qprime == 8 and report.derived_t == 4
    assert "radius_one_power" in {c["case"] for c in report.forms.cases}


def test_pipeline_rejects_non_hamming_quotient():
    with pytest.raises(ValueError):
        _pipeline(repetition_code(6, 2))


# -- nonbinary paths -------------------------------------------------------------


def test_scaled_column_class_over_gf3():
    # columns (1) and (2) are dependent with scalar 2; the monomial map in
    # the normal-form check must apply that scaling
    code = code_from_parity_check(ambient(2, 3), gf_matrix(alphabet(3), [[1, 2]]))
    assert code.word_strings() == ["00", "11", "22"]
    report = column_classes(code)
    assert report.classes == ((0, 1),) and report.class_size == 2
    forms = classify_arithmetic_forms(code)
    assert forms.case_names() == {"hamming_replication"}
    assert not forms.violation


def test_decompose_ternary_hamming_squared():
    th = hamming_code(2, 3)
    sq = cartesian_product(th, th)
    family = classify_quotient(coset_graph_by_syndrome(sq))
    assert family.tag == "hamming" and family.params == {"m": 2, "q": 9}
    report = decompose_product(sq, family, minimum_distance(sq))
    assert report.verified and report.factor_radii == (1, 1)
    assert all(f.members == th.members for f in report.factors)


def _scanned_vertices(monkeypatch):
    import crcodes.classify as classify_mod

    scanned = []
    real = classify_mod.local_component_profile
    monkeypatch.setattr(classify_mod, "local_component_profile",
                        lambda graph, v: scanned.append(v) or real(graph, v))
    return scanned


def test_classify_larger_fixtures(monkeypatch):
    # plain graphs: the local checks scan every vertex
    scanned = _scanned_vertices(monkeypatch)
    fam = classify_quotient(construct_fixture("doob", s=2, c=0))
    assert fam.tag == "doob"
    assert fam.params == {"shrikhande_factors": 2, "clique_factors": 0}
    assert scanned == list(range(256))
    scanned.clear()
    fam = classify_quotient(construct_fixture("hamming", m=4, q=4))
    assert fam.tag == "hamming" and fam.params == {"m": 4, "q": 4}
    assert scanned == list(range(256))


def test_cayley_coset_graphs_take_their_local_checks_at_vertex_0(monkeypatch):
    scanned = _scanned_vertices(monkeypatch)
    gf4_square = cartesian_product(repetition_code(2, 4), repetition_code(2, 4))
    th = hamming_code(2, 3)
    for code, params in ((gf4_square, {"m": 2, "q": 4}),  # triangle/hexagon census
                         (cartesian_product(th, th), {"m": 2, "q": 9})):
        scanned.clear()
        fam = classify_quotient(coset_graph_by_syndrome(code))
        assert fam.tag == "hamming" and fam.params == params
        assert scanned == [0]


def test_isomorphism_needs_backtracking_to_refute():
    # both 2-regular, identical local profiles, 1-WL cannot separate them:
    # only exhaustive search can certify the refusal
    from crcodes.partitions_quotients import graph_from_edges

    cycle8 = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    two_squares = graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                       (4, 5), (5, 6), (6, 7), (7, 4)])
    assert graph_isomorphic(cycle8, two_squares) is None
    relabeled = graph_from_edges(8, [((i + 3) % 8, (i + 4) % 8) for i in range(8)])
    assert graph_isomorphic(cycle8, relabeled) is not None


def test_clique_checks_ternary_hamming():
    part = coset_partition(hamming_code(2, 3))
    g = quotient_graph(part)
    drg = certify_distance_regular(g)
    family = classify_quotient(g, drg)
    assert family.params == {"m": 1, "q": 9}
    results = {r.name: r.status for r in clique_bound_checks(
        3, family, drg.array, _class_min_distance(part))}
    assert results["hamming_alphabet_bound"] == "PASS"  # q' = 9 >= q = 3
    assert results["no_doob_quotient_q_ge_4"] == "INAPPLICABLE"
    assert results["no_folded_array_q_ge_3"] == "PASS"


def test_isomorphism_search_deeper_than_the_recursion_limit():
    # the folded 11-cube has 1,024 vertices: backtracking one level per
    # vertex would pass the interpreter's default limit of 1,000 frames
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        syn = coset_graph_by_syndrome(repetition_code(11, 2))
        fixture = construct_fixture("folded_cube", m=11)
        mapping = graph_isomorphic(syn, fixture)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(mapping) == list(range(1024))
    assert all(fixture.has_edge(mapping[u], mapping[v]) for u, v in syn.edges())
    assert classify_quotient(syn).params == {"m": 11}


def test_clique_checks_take_the_known_min_distance(monkeypatch):
    # the analysis' delta gives the same check list as the class-by-class
    # oracle, and clique_bound_checks runs no minimum-distance scan of its own
    import crcodes.classify as classify_mod
    from crcodes.search import enumerate_linear_codes

    cases = []
    for q, top in ((2, 5), (3, 4), (4, 3)):
        for n in range(1, top + 1):
            for code in enumerate_linear_codes(n, q):
                analysis = analyze_code(code)
                if not analysis.cr:
                    continue
                part = coset_partition(code)
                graph = coset_graph_by_syndrome(code)
                drg = certify_distance_regular(graph)
                family = classify_quotient(graph, drg)
                assert analysis.delta == _class_min_distance(part)
                cases.append((q, family, drg.array, analysis.delta,
                              clique_bound_checks(q, family, drg.array,
                                                  _class_min_distance(part))))
    assert len(cases) > 50
    assert {r.status for *_, results in cases for r in results} == {
        "PASS", "INAPPLICABLE"}

    def no_scan(code):
        raise AssertionError("minimum distance recomputed")

    monkeypatch.setattr(classify_mod, "minimum_distance", no_scan)
    for q, family, array, delta, results in cases:
        assert clique_bound_checks(q, family, array, delta) == results


def test_decompose_product_takes_the_known_min_distance(monkeypatch):
    # on every Hamming-quotient census code the analysis' delta gives the
    # report of the weight-scan oracle, and decompose_product scans nothing
    import crcodes.classify as classify_mod
    from crcodes.search import enumerate_linear_codes

    cases = []
    for q, top in ((2, 6), (3, 5), (4, 4)):
        for n in range(1, top + 1):
            for code in enumerate_linear_codes(n, q):
                analysis = analyze_code(code)
                if not analysis.cr or analysis.delta < 2:
                    continue
                family = classify_quotient(coset_graph_by_syndrome(code))
                if family.tag != "hamming":
                    continue
                assert analysis.delta == minimum_distance(code)
                cases.append((code, family, analysis.delta,
                              decompose_product(code, family, minimum_distance(code))))
    assert len(cases) > 20
    assert all(report.verified for *_, report in cases)

    def no_scan(code):
        raise AssertionError("minimum distance recomputed")

    monkeypatch.setattr(classify_mod, "minimum_distance", no_scan)
    for code, family, delta, report in cases:
        assert decompose_product(code, family, delta) == report


# -- folded cubes from the connection set -------------------------------------------

# SHA-256 of census.jsonl and summary.csv of each whole census
_CENSUS_DIGESTS = {
    (2, 8): ("f777a018319daa678deecf13c5c5ea5b61d5380ce35e984f0ca63f00714f538b",
             "2ec75a85a60d944356c2780cae220a4e3a46fad5979643d42d208b40d72d20c0"),
    (3, 6): ("3e675bb67bb31b584cd9028f4983f27364d9ad1278859e5b8617552edcadddbc",
             "0dade0d6957a7bc7a48d6a26cf4c52ec1b7ff612b36ed11236b2a3a5ac484601"),
    (4, 5): ("cfa2f384a0078313830c3e3fd590ae1efb7d49aa41a193d75090469f4a568e01",
             "f0f8c2f6552e4ba9c74f0c3fc53ca5ba6ee48ea0d5d029c6ec26522579bcdc64"),
}


# the same for the quinary census, whose records pass the product paths
_CENSUS_Q5_DIGESTS = {
    (5, 4): ("ed29668653658c4946caf2f223c36550e0095135045ff05cc61fa8df5d4e972e",
             "5b2762f9de2eeca0c1f35fc8809d9221f7cfabdc5b9e40fe7c04586799871a1c"),
}


@pytest.fixture(scope="module")
def census_recordings(tmp_path_factory):
    """Each census of _CENSUS_DIGESTS and _CENSUS_Q5_DIGESTS, run once: the
    digests of its files, the (coset graph, DRG certificate) of every CR
    record, the number of backtracking isomorphism searches it made, the
    (factors, certificates) of every factor comparison, the (code, report)
    of every product decomposition and the (code, column report, result) of
    every replicated normal form."""
    import hashlib

    import crcodes.classify as classify_mod
    import crcodes.search as search_mod
    from crcodes.search import CensusParams, run_census

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        graphs, searches, comparisons, decompositions, forms = [], [], [], [], []
        real_classify = search_mod.classify_quotient
        real_search = classify_mod.graph_isomorphic
        real_compare = classify_mod.radius_one_factors_equivalent
        real_decompose = search_mod.decompose_product
        real_form = classify_mod.replicated_normal_form
        mp.setattr(search_mod, "classify_quotient",
                   lambda graph, drg: graphs.append((graph, drg)) or real_classify(graph, drg))
        mp.setattr(classify_mod, "graph_isomorphic",
                   lambda g1, g2: searches.append(g1.n) or real_search(g1, g2))
        mp.setattr(classify_mod, "radius_one_factors_equivalent",
                   lambda factors, certs: comparisons.append((factors, certs))
                   or real_compare(factors, certs))

        def decompose(code, family, delta):
            report = real_decompose(code, family, delta)
            decompositions.append((code, report))
            return report

        def normal_form(code, report):
            result = real_form(code, report)
            forms.append((code, report, result))
            return result

        mp.setattr(search_mod, "decompose_product", decompose)
        mp.setattr(classify_mod, "replicated_normal_form", normal_form)
        for q, top in (*_CENSUS_DIGESTS, *_CENSUS_Q5_DIGESTS):
            out = tmp_path_factory.mktemp(f"census-q{q}")
            run_census(CensusParams(q=q, max_n=top), out)
            digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("census.jsonl", "summary.csv"))
            runs[q, top] = (digests, list(graphs), len(searches), list(comparisons),
                            list(decompositions), list(forms))
            for log in (graphs, searches, comparisons, decompositions, forms):
                log.clear()
    return runs


@pytest.fixture(scope="module")
def census_runs(census_recordings):
    """Each census of _CENSUS_DIGESTS: the digests of its files, the (coset
    graph, DRG certificate) of every CR record, and the number of
    backtracking isomorphism searches it made."""
    return {key: census_recordings[key][:3] for key in _CENSUS_DIGESTS}


def test_census_makes_no_isomorphism_search_and_keeps_its_bytes(census_runs):
    for key, (digests, graphs, searches) in census_runs.items():
        assert digests == _CENSUS_DIGESTS[key]
        assert graphs and searches == 0


def _folded_m(drg):
    from crcodes.classify import _folded_array_m

    m = _folded_array_m(drg.array)
    return m if m is not None and m >= 5 else None


def test_linear_folded_cube_map_is_the_backtrackers_map(census_runs):
    cases = [(graph, drg) for graph, drg in census_runs[2, 8][1] if _folded_m(drg)]
    assert sorted(_folded_m(drg) for _, drg in cases) == [5] * 4 + [6] * 3 + [7] * 2 + [8]
    for n in (10, 11):
        graph = coset_graph_by_syndrome(repetition_code(n, 2))
        cases.append((graph, certify_distance_regular(graph)))
    for graph, drg in cases:
        m = _folded_m(drg)
        oracle = graph_isomorphic(graph, construct_fixture("folded_cube", m=m))
        assert oracle is not None
        assert linear_folded_cube_map(graph, m) == oracle
        fast = classify_quotient(graph, drg)
        slow = classify_quotient(Graph(graph.adjacency, graph.labels), drg)
        assert fast == slow and fast.params == {"m": m}
        assert fast.evidence["isomorphism"] == slow.evidence["isomorphism"] == oracle


@st.composite
def folded_cube_parity_checks(draw, m):
    """H = M [I_r | 1] P over GF(2) with r = m - 1: M = R L U with R a row
    permutation and L, U unit triangular (every invertible M has this form),
    P a column permutation."""
    r = m - 1
    bits = st.integers(0, 1)
    lower = [[1 if i == j else (draw(bits) if j < i else 0) for j in range(r)]
             for i in range(r)]
    upper = [[1 if i == j else (draw(bits) if j > i else 0) for j in range(r)]
             for i in range(r)]
    rows = draw(st.permutations(range(r)))
    cols = draw(st.permutations(range(m)))

    def product(a, b):
        return [[sum(a[i][k] & b[k][j] for k in range(len(b))) % 2
                 for j in range(len(b[0]))] for i in range(len(a))]

    mixed = product([lower[i] for i in rows], upper)
    base = [[1 if i == j else 0 for j in range(r)] + [1] for i in range(r)]
    h = product(mixed, base)
    return gf_matrix(alphabet(2), [[row[j] for j in cols] for row in h])


@pytest.mark.parametrize("m", range(5, 10))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_linear_map_of_a_random_folded_cube_check_is_an_isomorphism(m, data):
    h = data.draw(folded_cube_parity_checks(m))
    graph = coset_graph_by_syndrome(code_from_parity_check(ambient(m, 2), h))
    fixture = construct_fixture("folded_cube", m=m)
    mapping = linear_folded_cube_map(graph, m)
    assert sorted(mapping) == list(range(fixture.n))
    assert graph.edge_count() == fixture.edge_count()
    assert all(fixture.has_edge(mapping[u], mapping[v]) for u, v in graph.edges())


def _counted_searches(monkeypatch):
    import crcodes.classify as classify_mod

    searches = []
    real = classify_mod.graph_isomorphic
    monkeypatch.setattr(classify_mod, "graph_isomorphic",
                        lambda g1, g2: searches.append(g1.n) or real(g1, g2))
    return searches


def test_connection_sets_that_are_no_folded_cube_get_no_linear_map(monkeypatch):
    alpha = alphabet(2)
    searches = _counted_searches(monkeypatch)
    # the dependency {e_1, e_2, e_1 + e_2} is a proper subset of S
    subset = coset_graph_by_syndrome(code_from_parity_check(
        ambient(5, 2), hstack([gf_identity(alpha, 4), gf_matrix(alpha, [[1], [1], [0], [0]])])))
    assert len(subset.connection) == 5 and not certify_distance_regular(subset).is_drg
    assert linear_folded_cube_map(subset, 5) is None
    assert folded_cube_isomorphism(subset, 5) is None and searches == [16]
    # S XORs to 0 but spans 4 of 5 dimensions
    rank_four = CayleyGraph(graph_from_edges(
        32, [(v, v ^ s) for v in range(32) for s in (1, 2, 3, 4, 8, 12)]).adjacency,
        connection=(1, 2, 3, 4, 8, 12), xor_group=True)
    assert linear_folded_cube_map(rank_four, 6) is None


def test_a_graph_the_linear_map_refuses_gets_the_backtrackers_verdict(monkeypatch):
    true = coset_graph_by_syndrome(repetition_code(6, 2))
    fixture = construct_fixture("folded_cube", m=6)
    oracle = graph_isomorphic(true, fixture)
    searches = _counted_searches(monkeypatch)
    assert classify_quotient(true).evidence["isomorphism"] == oracle
    assert searches == []
    # a connection set that spans and XORs to 0 but is not the adjacency's
    wrong = CayleyGraph(true.adjacency, true.labels, (1, 2, 4, 8, 17, 30), True)
    explicit = quotient_graph(coset_partition(repetition_code(6, 2)))
    bare = CayleyGraph(true.adjacency, true.labels)
    for graph in (wrong, explicit, bare):
        assert certify_distance_regular(graph).is_drg
        assert linear_folded_cube_map(graph, 6) is None
        searches.clear()
        fam = classify_quotient(graph)
        assert fam.tag == "folded_cube" and fam.params == {"m": 6}
        assert fam.evidence["isomorphism"] == graph_isomorphic(graph, fixture)
        assert searches == [32]


def test_above_the_search_cap_only_a_graph_with_no_linear_map_is_named_by_its_array(
        monkeypatch):
    # the folded 14-cube has 8,192 vertices, more than ISO_VERTEX_CAP; the
    # plain graph reuses the Cayley graph's certificate (its own BFS from
    # every vertex would take minutes)
    syn = coset_graph_by_syndrome(repetition_code(14, 2))
    drg = certify_distance_regular(syn)
    searches = _counted_searches(monkeypatch)
    family = classify_quotient(syn, drg)
    mapping = family.evidence["isomorphism"]
    assert family.params == {"m": 14} and sorted(mapping) == list(range(2**13))
    steps = {1 << i for i in range(13)} | {2**13 - 1}
    assert all(mapping[u] ^ mapping[v] in steps for u, v in syn.edges())
    bare = Graph(syn.adjacency, syn.labels)
    assert folded_cube_isomorphism(bare, 14) is None
    family = classify_quotient(bare, drg)
    assert family.params == {"m": 14}
    assert family.evidence["isomorphism"] == "by_array_parameters"
    assert searches == []


def test_one_vertex_local_checks_match_the_all_vertex_scan(census_runs):
    compared = 0
    for _, graphs, _ in census_runs.values():
        for graph, drg in graphs:
            fast = classify_quotient(graph, drg)
            slow = classify_quotient(Graph(graph.adjacency, graph.labels), drg)
            assert fast == slow
            assert fast.evidence.get("local") == slow.evidence.get("local")
            compared += 1
    assert compared == 126 + 48 + 47


# -- the product paths against their old member-based forms ---------------------------


def _codes_permutation_equivalent(c1: Code, c2: Code) -> bool | None:
    """Exact decision for n <= 8 by permutation search; None when undecided."""
    from itertools import permutations

    if c1.ambient.n != c2.ambient.n or c1.ambient.q != c2.ambient.q:
        return False
    if c1.size != c2.size:
        return False
    if c1.members == c2.members:
        return True
    sp = c1.ambient
    if sp.n > 8:
        return None
    target = set(c2.members)
    words = [decode(w, sp.n, sp.q) for w in c1.members]
    for perm in permutations(range(sp.n)):
        image = {encode([d[perm[i]] for i in range(sp.n)], sp.q) for d in words}
        if image == target:
            return True
    return False


def _rebuilds(code: Code, blocks, factors) -> bool:
    """The member-for-member rebuild: every sum of one word per factor, each
    placed on its block, listed against the members of the code."""
    q = code.ambient.q
    rebuilt = [0]
    for f, b in zip(factors, blocks):
        embedded = [sum(d * q**i for d, i in zip(decode(w, len(b), q), b))
                    for w in f.members]
        rebuilt = [r + e for r in rebuilt for e in embedded]
    return sorted(rebuilt) == list(code.members)


def _rule_and_search(factors, certs):
    """(the rho = 1 rule, the permutation search, q) on each pair of the
    first factor with another, the pairs the permutation search compared."""
    return [(radius_one_factors_equivalent((factors[0], f), (certs[0], c)),
             _codes_permutation_equivalent(factors[0], f), f.ambient.q)
            for f, c in zip(factors[1:], certs[1:])]


def test_census_factor_pairs_equivalent_by_search_are_equivalent_by_rule(
        census_recordings):
    pairs = []
    for key in _CENSUS_Q5_DIGESTS:
        assert census_recordings[key][0] == _CENSUS_Q5_DIGESTS[key]
    for _, _, _, comparisons, *_ in census_recordings.values():
        for factors, certs in comparisons:
            if all(c.completely_regular and c.partition.rho == 1 for c in certs):
                pairs += _rule_and_search(factors, certs)
    assert len(pairs) == 17
    for rule, search, q in pairs:
        if search:
            assert rule
        if q == 2:  # permutation and monomial equivalence are one relation
            assert rule == search


def test_permuted_hamming_squares_are_radius_one_powers_by_rule_and_search():
    ham = hamming_code(3, 2)
    h = cartesian_product(ham, ham).linear.parity_check
    rng = random.Random(7)
    for _ in range(4):
        perm = list(range(14))
        rng.shuffle(perm)
        code = code_from_parity_check(
            ambient(14, 2), gf_matrix(h.alphabet, [[row[j] for j in perm] for row in h.rows]))
        forms = classify_arithmetic_forms(code)
        assert "radius_one_power" in forms.case_names()
        blocks = finest_product_blocks(code)
        assert len(blocks) == 2 and blocks != ((*range(7),), (*range(7, 14),))
        factors, certs = product_factors(code, blocks)
        assert _rule_and_search(factors, certs) == [(True, True, 2)]
        family = classify_quotient(coset_graph_by_syndrome(code))
        report = decompose_product(code, family, minimum_distance(code))
        assert report.verified and _rebuilds(code, report.blocks, report.factors)


def test_census_product_checks_agree_with_the_member_rebuild(census_recordings):
    compared = 0
    for _, _, _, _, decompositions, _ in census_recordings.values():
        for code, report in decompositions:
            rebuilt = (bool(report.factor_radii)
                       and all(r == 1 for r in report.factor_radii)
                       and _rebuilds(code, report.blocks, report.factors))
            assert report.verified == rebuilt
            compared += 1
    assert compared > 20


def test_wrong_blocks_fail_the_size_identity_and_the_rebuild(monkeypatch):
    import crcodes.classify as classify_mod

    ham = hamming_code(3, 2)
    hamham = cartesian_product(ham, ham)
    family = classify_quotient(coset_graph_by_syndrome(hamham))
    interleaved = ((0, 2, 4, 6, 8, 10, 12), (1, 3, 5, 7, 9, 11, 13))
    monkeypatch.setattr(classify_mod, "finest_product_blocks", lambda code: interleaved)
    report = decompose_product(hamham, family, 3)
    assert report.blocks == interleaved and not report.verified
    assert not _rebuilds(hamham, report.blocks, report.factors)
    # blocks whose factors are both CR with rho = 1, so that only the size
    # identity can refuse them: the [4, 3] even-weight code is no product of
    # two repetition codes
    even = code_from_parity_check(ambient(4, 2), gf_matrix(alphabet(2), [[1, 1, 1, 1]]))
    halves = ((0, 1), (2, 3))
    monkeypatch.setattr(classify_mod, "finest_product_blocks", lambda code: halves)
    report = decompose_product(even, QuotientFamily("hamming", {"m": 2, "q": 2}), 2)
    assert report.factor_radii == (1, 1)
    assert not report.verified and report.detail == "product does not rebuild the code"
    assert not _rebuilds(even, report.blocks, report.factors)


def _member_mapped_normal_form(code: Code, report) -> bool:
    """The member form of replicated_normal_form: map every member by the
    class-induced monomial map and list the image against the nullspace of
    the replicated check."""
    space = code.ambient
    alpha, q = space.alphabet, space.q
    cols = code.linear.parity_check.columns()
    m = len(report.classes)
    position, scale = {}, {}
    for j, (p, cls) in enumerate(zip(report.representatives, report.classes)):
        lead = next(k for k, x in enumerate(cols[p]) if x)
        for b, i in enumerate(cls):
            position[i] = b * m + j
            scale[i] = alpha.div(cols[i][lead], cols[p][lead])
    mapped = [sum(alpha.mul(scale[i], d) * q ** position[i]
                  for i, d in enumerate(decode(w, space.n, q))) for w in code.members]
    normal = replicate_columns(
        code.linear.parity_check.take_columns(report.representatives), report.class_size)
    return sorted(mapped) == list(code_from_parity_check(ambient(space.n, q), normal).members)


def test_census_normal_forms_agree_with_the_member_map(census_recordings):
    compared = 0
    for *_, forms in census_recordings.values():
        for code, report, result in forms:
            assert result.matches == _member_mapped_normal_form(code, report)
            compared += 1
    assert compared == 44
    # classes that pair columns which are not parallel: both forms refuse
    from dataclasses import replace

    doubled = _doubled_hamming()
    report = column_classes(doubled)
    wrong = replace(report, classes=tuple((i, 7 + (i + 1) % 7) for i in range(7)))
    assert replicated_normal_form(doubled, report).matches
    assert not replicated_normal_form(doubled, wrong).matches
    assert not _member_mapped_normal_form(doubled, wrong)


def test_restriction_to_a_block_agrees_with_the_member_filter():
    from crcodes.search import systematic_parity_checks

    rng = random.Random(17)
    for n, q in ((6, 2), (4, 3), (4, 4)):
        for h in systematic_parity_checks(n, q):
            code = code_from_parity_check(ambient(n, q), h)
            block = tuple(rng.sample(range(n), rng.randint(1, n)))
            members = set()
            for w in code.members:
                digits = decode(w, n, q)
                if not any(d for i, d in enumerate(digits) if i not in block):
                    members.add(encode([digits[i] for i in block], q))
            factor = restrict_to_coordinates(code, block)
            assert factor.is_linear and factor.ambient.n == len(block)
            assert factor.members == tuple(sorted(members))


def test_codes_cut_from_a_parity_check_list_no_member_of_their_source(monkeypatch):
    import crcodes.hamming_space as hamming_mod
    from crcodes.constructions import pad_code
    from crcodes.cr_analysis import reduce_code

    spanned = []
    real_span = hamming_mod._span
    monkeypatch.setattr(hamming_mod, "_span",
                        lambda space, basis: spanned.append(space.n) or real_span(space, basis))
    padded = pad_code(hamming_code(4, 2), 3)
    reduced, stripped = reduce_code(padded)
    assert stripped == (0, 1, 2) and reduced.size == 2**11
    assert is_extended_hamming_equivalent(extended_hamming_code(4))
    ham = hamming_code(3, 2)
    assert cartesian_product(ham, ham).size == 2**8
    assert spanned == []
    doubled = _doubled_hamming()
    assert coordinate_classes(doubled) == tuple((i, i + 7) for i in range(7))
    assert "hamming_replication" in classify_arithmetic_forms(doubled).case_names()
    assert spanned and set(spanned) == {7}  # only the deduplicated code D
