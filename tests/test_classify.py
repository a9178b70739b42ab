import random

import pytest

from crcodes.classify import (
    IA_654,
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
    graph_isomorphic,
    hamming_graph,
    is_extended_hamming_equivalent,
    is_hamming_equivalent,
    local_component_profile,
    max_clique,
    replicated_normal_form,
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
from crcodes.hamming_space import Code, ambient, code_from_parity_check, minimum_distance
from crcodes.partitions_quotients import (
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


def test_classify_larger_fixtures():
    fam = classify_quotient(construct_fixture("doob", s=2, c=0))
    assert fam.tag == "doob"
    assert fam.params == {"shrikhande_factors": 2, "clique_factors": 0}
    fam = classify_quotient(construct_fixture("hamming", m=4, q=4))
    assert fam.tag == "hamming" and fam.params == {"m": 4, "q": 4}


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
