"""Acceptance suite: one test per criterion, each timed against its budget
and printing a PASS line.  Every expected value is produced by the stated
independent oracle (brute force over the ambient space, direct enumeration,
or exact polynomial expansion); all arithmetic is integer, tolerance zero.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from crcodes.classify import (
    CheckContext,
    classify_arithmetic_forms,
    classify_quotient,
    classify_small_covering_radius,
    clique_bound_checks,
    column_classes,
    decompose_product,
    graph_isomorphic,
)
from crcodes.constructions import (
    cartesian_product,
    extended_hamming_code,
    hamming_code,
    hamming_parity_check,
    product_cr_criterion,
    replicate_columns,
    verify_product_cr,
)
from crcodes.cr_analysis import (
    analyze_code,
    certify_completely_regular,
    code_spectrum,
    quotient_matrix,
    recount_witness,
    tridiagonal_formula_spectrum,
    _charpoly_coefficients,
    _poly_from_roots,
)
from crcodes.errors import jsonable
from crcodes.hamming_space import (
    Code,
    ambient,
    code_from_parity_check,
    distance,
    minimum_distance,
    neighbors,
)
from crcodes.partitions_quotients import (
    IntersectionArray,
    certify_distance_regular,
    coset_graph_by_syndrome,
    coset_partition,
    predicted_quotient_array,
    quotient_graph,
)
from crcodes.search import CensusParams, run_census
from fixture_graphs import (
    complete_bipartite,
    complete_graph,
    construct_fixture,
    hamming_graph,
    shrikhande_graph,
)
from partition_oracle import (
    certify_partition_class_by_class,
    partition_classes,
    partition_from_classes,
    quotient_graph_of_all_words,
)


@contextmanager
def budget(label: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label}: {elapsed:.2f}s exceeded {seconds}s"
    print(f"{label}: PASS ({elapsed:.2f}s)")


def brute_force_numbers(code):
    """Independent oracle: per-vertex distance by scanning all codewords,
    per-class neighbor counts tallied directly; None if not equitable."""
    sp = code.ambient
    members = code.members

    def d(v):
        return min(distance(v, m, sp) for m in members)

    profiles = {}
    for v in range(sp.size):
        dv = d(v)
        counts = [0, 0, 0]
        for w in neighbors(v, sp):
            counts[d(w) - dv + 1] += 1
        profiles.setdefault(dv, set()).add(tuple(counts))
    if any(len(s) != 1 for s in profiles.values()):
        return None
    rho = max(profiles)
    rows = [next(iter(profiles[i])) for i in range(rho + 1)]
    return tuple(tuple(r[j] for r in rows) for j in range(3))  # gamma, alpha, beta


def test_acceptance_01_hamming74():
    with budget("ACCEPTANCE 1 (Hamming [7,4])", 1.0):
        ham = hamming_code(3, 2)
        analysis = analyze_code(ham)
        assert analysis.cr
        assert analysis.quotient.to_lists() == [[0, 7], [1, 6]]
        assert analysis.spectrum == (7, -1)
        assert analysis.arithmetic.arithmetic and analysis.arithmetic.t == 4
        # oracle: brute force over all 2^7 vertices
        gamma, alpha, beta = brute_force_numbers(ham)
        assert (gamma, alpha, beta) == (
            analysis.numbers.gamma, analysis.numbers.alpha, analysis.numbers.beta)
        syn = coset_graph_by_syndrome(ham)
        assert graph_isomorphic(syn.explicit(), complete_graph(8)) is not None
        family = classify_quotient(syn)
        assert family.tag == "hamming" and family.params == {"m": 1, "q": 8}


def test_acceptance_02_repetition6_folded_cube():
    with budget("ACCEPTANCE 2 (repetition-6 quotient)", 1.0):
        from crcodes.constructions import repetition_code

        rep6 = repetition_code(6, 2)
        analysis = analyze_code(rep6)
        assert analysis.rho == 3
        predicted = predicted_quotient_array(analysis.numbers)
        assert predicted == IntersectionArray((6, 5, 4), (1, 2, 6))
        explicit = quotient_graph(coset_partition(rep6))
        fixture = construct_fixture("folded_cube", m=6)
        assert graph_isomorphic(explicit, fixture) is not None
        # quotient family restriction exercised at rho >= 3 with branch (a)
        family = classify_quotient(explicit)
        assert analysis.arithmetic.arithmetic and analysis.rho >= 3
        assert family.tag == "folded_cube" and family.params == {"m": 6}


def test_acceptance_03_extended_hamming():
    with budget("ACCEPTANCE 3 (extended Hamming [8,4])", 1.0):
        ext = extended_hamming_code(3)
        analysis = analyze_code(ext)
        assert analysis.cr
        assert analysis.quotient.to_lists() == [[0, 8, 0], [1, 0, 7], [0, 8, 0]]
        assert analysis.spectrum == (8, 0, -8)
        assert analysis.arithmetic.t == 4
        gamma, alpha, beta = brute_force_numbers(ext)  # oracle over 2^8
        assert (gamma, alpha, beta) == (
            analysis.numbers.gamma, analysis.numbers.alpha, analysis.numbers.beta)
        syn = coset_graph_by_syndrome(ext)
        assert graph_isomorphic(syn.explicit(), complete_bipartite(8)) is not None
        drg = certify_distance_regular(syn)
        assert drg.array == IntersectionArray((8, 7), (1, 8))
        small = classify_small_covering_radius(CheckContext(ext, analysis))
        assert small.case == "extended_hamming"


def test_acceptance_04_product_criterion_both_directions():
    with budget("ACCEPTANCE 4 (product criterion)", 5.0):
        rep3 = hamming_code(2, 2)
        compat = product_cr_criterion(rep3, rep3)
        assert compat.compatible and (compat.n1, compat.n2) == (1, 3)
        assert compat.predicted.gamma == (0, 1, 2)
        assert compat.predicted.beta == (6, 3, 0)
        verified = verify_product_cr(rep3, rep3, compat)
        assert verified["product_cr"] and verified["matches_prediction"]
        product = cartesian_product(rep3, rep3)
        cert = certify_completely_regular(product)
        assert code_spectrum(quotient_matrix(cert.numbers), product.ambient) == (6, 2, -2)

        ham = hamming_code(3, 2)
        incompat = product_cr_criterion(ham, rep3)
        assert not incompat.compatible
        bad = cartesian_product(ham, rep3)  # lives in H(10,2)
        bad_cert = certify_completely_regular(bad)
        assert not bad_cert.completely_regular
        counts = recount_witness(bad, bad_cert.witness)  # witness replays
        assert counts[0] != counts[1]


def test_acceptance_05_tridiagonal_formula_sweep():
    with budget("ACCEPTANCE 5 (tridiagonal spectrum formula)", 1.0):
        rng = random.Random(54321)
        for _ in range(200):
            rho = rng.randint(1, 6)
            gamma = rng.randint(1, 6)
            beta = rng.randint(1, 6)
            k = max(rho * gamma, rho * beta) + rng.randint(0, 12)
            spectrum = tridiagonal_formula_spectrum(k, gamma, beta, rho)
            t = gamma + beta
            assert spectrum == tuple(k - t * i for i in range(rho + 1))
            # oracle: exact characteristic polynomial equals the factored form
            diag = [k - i * gamma - (rho - i) * beta for i in range(rho + 1)]
            sub = [i * gamma for i in range(1, rho + 1)]
            sup = [(rho - i) * beta for i in range(rho)]
            assert _charpoly_coefficients(diag, sub, sup) == _poly_from_roots(spectrum)


def test_acceptance_06_decompose_hamming_squared():
    with budget("ACCEPTANCE 6 (product decomposition in H(14,2))", 30.0):
        ham = hamming_code(3, 2)
        hamham = cartesian_product(ham, ham)
        syn = coset_graph_by_syndrome(hamham)
        family = classify_quotient(syn)
        assert family.tag == "hamming" and family.params == {"m": 2, "q": 8}
        report = decompose_product(CheckContext(hamham))
        assert report.verified
        assert len(report.factors) == 2
        assert all(f.members == ham.members for f in report.factors)
        assert report.factor_radii == (1, 1)


def test_acceptance_07_replicated_parity_check():
    with budget("ACCEPTANCE 7 (replicated parity check)", 30.0):
        hh = replicate_columns(hamming_parity_check(3, 2), 2)
        code = code_from_parity_check(ambient(14, 2), hh)
        analysis = analyze_code(code)
        context = CheckContext(code, analysis)
        report = column_classes(context)
        assert len(report.classes) == 7
        assert report.class_size == 2 == analysis.numbers.gamma[1]
        forms = classify_arithmetic_forms(context)
        assert "hamming_replication" in forms.case_names()
        syn = coset_graph_by_syndrome(code)
        assert graph_isomorphic(syn.explicit(), complete_graph(8)) is not None


def test_acceptance_08_h24_partition():
    with budget("ACCEPTANCE 8 (H(2,4) four-class partition)", 1.0):
        sp = ambient(2, 4)
        partition = partition_from_classes(sp, [
            [[0, 0], [0, 1], [1, 0], [1, 1]],
            [[0, 2], [0, 3], [1, 2], [1, 3]],
            [[2, 0], [2, 1], [3, 0], [3, 1]],
            [[2, 2], [2, 3], [3, 2], [3, 3]],
        ])
        cert, _ = certify_partition_class_by_class(partition)
        assert cert.is_cr_partition
        assert cert.numbers.gamma[1] == 2 and cert.numbers.beta[0] == 4
        graph = quotient_graph_of_all_words(partition)
        assert graph_isomorphic(graph, hamming_graph(2, 2)) is not None
        drg = certify_distance_regular(graph)
        family = classify_quotient(graph, drg)
        assert family.tag == "hamming" and family.params == {"m": 2, "q": 2}
        # classes have minimum distance 1, so every clique check must be
        # reported inapplicable rather than asserted
        class_delta = min(minimum_distance(Code(sp, tuple(members)))
                          for members in partition_classes(partition))
        assert class_delta == 1
        checks = clique_bound_checks(4, family, drg.array, class_delta)
        assert all(c.status == "INAPPLICABLE" for c in checks)


def _has_clique(graph, size):
    return any(all(graph.has_edge(u, v) for u, v in combinations(vertices, 2))
               for vertices in combinations(range(graph.n), size))


def test_acceptance_09_classifier_separation():
    with budget("ACCEPTANCE 9 (Shrikhande vs H(2,4))", 1.0):
        shrik = shrikhande_graph()
        rook = hamming_graph(2, 4)
        a1 = certify_distance_regular(shrik).array
        a2 = certify_distance_regular(rook).array
        assert a1 == a2 == IntersectionArray((6, 3), (1, 2))
        f1 = classify_quotient(shrik)
        f2 = classify_quotient(rook)
        assert f1.tag == "doob"
        assert f1.params == {"shrikhande_factors": 1, "clique_factors": 0}
        assert f2.tag == "hamming" and f2.params == {"m": 2, "q": 4}
        # oracle: brute force over vertex subsets
        assert _has_clique(shrik, 3) and not _has_clique(shrik, 4)
        assert _has_clique(rook, 4) and not _has_clique(rook, 5)


def test_acceptance_10_census_binary_n7(tmp_path):
    with budget("ACCEPTANCE 10 (binary census, n <= 7)", 600.0):
        params = CensusParams(q=2, max_n=7)
        first = run_census(params, tmp_path / "run1")  # raises on any FAIL
        assert first["failures"] == 0
        assert first["reconciled"]
        scan = first["question_scan"]
        assert scan["min_eigenvalue_slack_minimum"] is not None
        assert scan["min_eigenvalue_slack_minimum"] >= 0
        second = run_census(params, tmp_path / "run2")
        blob1 = (tmp_path / "run1" / "census.jsonl").read_bytes()
        blob2 = (tmp_path / "run2" / "census.jsonl").read_bytes()
        assert blob1 == blob2, "census reruns must be byte-identical"
        assert (tmp_path / "run1" / "summary.csv").read_bytes() == (
            tmp_path / "run2" / "summary.csv").read_bytes()
        assert second["question_scan"] == scan


def _product_coset_graph_matches(c1, c2, predicted) -> bool:
    """The coset graph of C1 x C2 is the cartesian product of the factors'
    (connection set S1 x {0} u {0} x S2: the syndrome of (u, v) is that of u
    plus q^r1 times that of v) and has the array of the predicted numbers."""
    from crcodes.cr_analysis import IntersectionNumbers

    q = c1.ambient.q
    k = (c1.ambient.n + c2.ambient.n) * (q - 1)
    numbers = IntersectionNumbers(predicted.gamma, tuple(
        k - g - b for g, b in zip(predicted.gamma, predicted.beta)), predicted.beta)
    graph = coset_graph_by_syndrome(cartesian_product(c1, c2))
    shift = q ** c1.linear.rank
    connection = set(coset_graph_by_syndrome(c1).connection) | {
        shift * s for s in coset_graph_by_syndrome(c2).connection}
    return (set(graph.connection) == connection
            and certify_distance_regular(graph).array == predicted_quotient_array(numbers))


def test_acceptance_11_product_criterion_census_sweep():
    # the paper's product theorem on every pair of CR census codes with
    # rho >= 1 (itself included) under a length bound: the criterion, read
    # off the factors, against the certificate of the block-diagonal product
    # and, for a compatible pair, against the product's coset graph
    from crcodes.search import enumerate_linear_codes

    with budget("ACCEPTANCE 11 (product criterion, census sweep)", 30.0):
        pairs = compatible = 0
        disagreements = []
        for q, top, bound in ((2, 7, 12), (3, 5, 8), (4, 4, 7)):
            codes = []
            for n in range(1, top + 1):
                for code in enumerate_linear_codes(n, q):
                    cert = certify_completely_regular(code)
                    if cert.completely_regular and cert.partition.rho >= 1:
                        codes.append(code)
            for i, c1 in enumerate(codes):
                for c2 in codes[i:]:
                    if c1.ambient.n + c2.ambient.n > bound:
                        continue
                    pairs += 1
                    compat = product_cr_criterion(c1, c2)
                    compatible += compat.compatible
                    verified = verify_product_cr(c1, c2, compat)
                    agree = verified["matches_prediction"]
                    if agree and compat.compatible:
                        agree = _product_coset_graph_matches(c1, c2, compat.predicted)
                    if not agree:
                        disagreements.append((c1.linear.parity_check.to_lists(),
                                              c2.linear.parity_check.to_lists(),
                                              jsonable(compat), verified))
        assert not disagreements, f"criterion and product disagree: {disagreements}"
        assert (pairs, compatible) == (2784, 395)
