import random

import pytest

from crcodes.constructions import (
    extended_hamming_code,
    hamming_code,
    pad_code,
    repetition_code,
)
from crcodes.cr_analysis import (
    IntersectionNumbers,
    QuotientMatrix,
    arithmetic_certificate,
    certify_completely_regular,
    code_spectrum,
    covering_radius,
    distance_partition,
    eigenvalue_bounds,
    formula_matrix,
    free_coordinates,
    is_reduced,
    quotient_matrix,
    recount_witness,
    reduce_code,
    tridiagonal_formula_spectrum,
    _charpoly_coefficients,
    _poly_from_roots,
)
from crcodes.errors import SpectrumError, TheoremViolationError
from crcodes.hamming_space import ambient, code_from_words, decode, distance, neighbors


def _rep6():
    return code_from_words(ambient(6, 2), [0, 63])


def test_distance_partition_whole_space():
    sp = ambient(3, 2)
    part = distance_partition(code_from_words(sp, range(8)))
    assert part.rho == 0
    assert part.class_sizes == (8,)


def test_distance_partition_repetition6():
    part = distance_partition(_rep6())
    assert part.rho == 3
    # classes collect weights {0,6}, {1,5}, {2,4}, {3}
    assert part.class_sizes == (2, 12, 30, 20)
    sp = ambient(6, 2)
    for v in range(64):
        w = bin(v).count("1")
        assert part.class_of[v] == min(w, 6 - w)


def test_distance_partition_hamming74():
    ham = hamming_code(3, 2)
    part = distance_partition(ham)
    assert part.rho == 1
    assert part.class_sizes == (16, 112)
    assert covering_radius(ham) == 1


def test_certify_hamming74():
    cert = certify_completely_regular(hamming_code(3, 2))
    assert cert.completely_regular
    assert cert.numbers.gamma == (0, 1)
    assert cert.numbers.alpha == (0, 6)
    assert cert.numbers.beta == (7, 0)


def test_certify_non_cr_with_replayable_witness():
    sp = ambient(3, 2)
    code = code_from_words(sp, [[0, 0, 0], [0, 1, 1]])
    cert = certify_completely_regular(code)
    assert not cert.completely_regular
    w = cert.witness
    counts = recount_witness(code, w)
    assert counts[0] == w.count_a and counts[1] == w.count_b
    assert counts[0] != counts[1]


def test_certify_repetition6():
    cert = certify_completely_regular(_rep6())
    assert cert.completely_regular
    assert cert.numbers.gamma == (0, 1, 2, 6)
    assert cert.numbers.alpha == (0, 0, 0, 0)
    assert cert.numbers.beta == (6, 5, 4, 0)


def _slow_cr_oracle(code):
    """Per-vertex neighbor counting with no class-map reuse."""
    sp = code.ambient
    members = code.members

    def d(v):
        return min(distance(v, m, sp) for m in members)

    profiles = {}
    for v in range(sp.size):
        dv = d(v)
        counts = [0, 0, 0]
        for w in neighbors(v, sp):
            dw = d(w)
            counts[dw - dv + 1] += 1
        profiles.setdefault(dv, set()).add(tuple(counts))
    return all(len(s) == 1 for s in profiles.values())


@pytest.mark.parametrize("builder", [
    lambda: hamming_code(3, 2),
    lambda: _rep6(),
    lambda: code_from_words(ambient(3, 2), [0, 3]),
    lambda: code_from_words(ambient(4, 3), [0, 40]),
    lambda: repetition_code(4, 3),
    lambda: code_from_words(ambient(2, 4), [[0, 0], [0, 1], [1, 0], [1, 1]]),
])
def test_certifier_matches_slow_oracle(builder):
    code = builder()
    assert code.ambient.size <= 2**12
    fast = certify_completely_regular(code).completely_regular
    assert fast == _slow_cr_oracle(code)


def test_certifier_matches_slow_oracle_random_codes():
    rng = random.Random(31)
    for _ in range(15):
        sp = ambient(rng.randint(2, 4), rng.choice([2, 3]))
        size = rng.randint(1, min(6, sp.size))
        words = rng.sample(range(sp.size), size)
        code = code_from_words(sp, words)
        fast = certify_completely_regular(code).completely_regular
        assert fast == _slow_cr_oracle(code)


def test_quotient_matrix_examples():
    ham = certify_completely_regular(hamming_code(3, 2))
    assert quotient_matrix(ham.numbers).to_lists() == [[0, 7], [1, 6]]

    rep = certify_completely_regular(_rep6())
    u = quotient_matrix(rep.numbers)
    assert u.to_lists() == [
        [0, 6, 0, 0],
        [1, 0, 5, 0],
        [0, 2, 0, 4],
        [0, 0, 6, 0],
    ]

    ext = certify_completely_regular(extended_hamming_code(3))
    assert quotient_matrix(ext.numbers).to_lists() == [[0, 8, 0], [1, 0, 7], [0, 8, 0]]


def test_code_spectrum_examples():
    sp7 = ambient(7, 2)
    ham = certify_completely_regular(hamming_code(3, 2))
    assert code_spectrum(quotient_matrix(ham.numbers), sp7) == (7, -1)

    rep = certify_completely_regular(_rep6())
    assert code_spectrum(quotient_matrix(rep.numbers), ambient(6, 2)) == (6, 2, -2, -6)

    ext = certify_completely_regular(extended_hamming_code(3))
    assert code_spectrum(quotient_matrix(ext.numbers), ambient(8, 2)) == (8, 0, -8)


def test_code_spectrum_rejects_foreign_matrix():
    # valid numbers for H(7,2) evaluated against the wrong ambient space
    ham = certify_completely_regular(hamming_code(3, 2))
    with pytest.raises(SpectrumError):
        code_spectrum(quotient_matrix(ham.numbers), ambient(7, 3))


def test_tridiagonal_formula_example():
    assert tridiagonal_formula_spectrum(6, 1, 2, 2) == (6, 3, 0)
    assert formula_matrix(6, 1, 2, 2) == ((2, 4, 0), (1, 3, 2), (0, 2, 4))


def test_tridiagonal_formula_two_by_two():
    # rho = 1: eigenvalues k and k - gamma - beta by trace/determinant
    k, gamma, beta = 9, 2, 3
    spec = tridiagonal_formula_spectrum(k, gamma, beta, 1)
    assert spec == (k, k - gamma - beta)
    m = formula_matrix(k, gamma, beta, 1)
    assert m[0][0] + m[1][1] == sum(spec)
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == spec[0] * spec[1]


def test_tridiagonal_formula_random_sweep():
    rng = random.Random(2024)
    for _ in range(200):
        rho = rng.randint(1, 6)
        gamma = rng.randint(1, 6)
        beta = rng.randint(1, 6)
        k = max(rho * gamma, rho * beta) + rng.randint(0, 10)
        spec = tridiagonal_formula_spectrum(k, gamma, beta, rho)
        t = gamma + beta
        assert spec == tuple(k - t * i for i in range(rho + 1))


def test_charpoly_expansion_against_roots():
    diag, sub, sup = [2, 3, 4], [1, 2], [4, 2]
    coeffs = _charpoly_coefficients(diag, sub, sup)
    assert coeffs == _poly_from_roots([6, 3, 0])


def test_arithmetic_certificate():
    assert arithmetic_certificate((7, -1), 2).t == 4
    assert arithmetic_certificate((6, 2, -2, -6), 2).t == 2
    cert = arithmetic_certificate((8, 4, -8), 2)
    assert not cert.arithmetic and cert.t is None
    degenerate = arithmetic_certificate((6,), 2)
    assert degenerate.arithmetic and degenerate.degenerate and degenerate.t == 0


def test_eigenvalue_bounds():
    sp7 = ambient(7, 2)
    cert = certify_completely_regular(hamming_code(3, 2))
    spec = code_spectrum(quotient_matrix(cert.numbers), sp7)
    arith = arithmetic_certificate(spec, 2)
    bounds = eigenvalue_bounds(cert.numbers, spec, arith, sp7)
    assert bounds.min_eigenvalue_slack == 0  # -1 <= 0 - 1 with equality
    assert bounds.arithmetic_covering_slack == 2 * 1 * 4 - 7

    sp6 = ambient(6, 2)
    cert = certify_completely_regular(_rep6())
    spec = code_spectrum(quotient_matrix(cert.numbers), sp6)
    arith = arithmetic_certificate(spec, 2)
    bounds = eigenvalue_bounds(cert.numbers, spec, arith, sp6)
    assert bounds.min_eigenvalue_slack == 0 - 1 - (-6)
    assert bounds.arithmetic_covering_slack == 2 * 3 * 2 - 6

    whole = code_from_words(ambient(3, 2), range(8))
    cert = certify_completely_regular(whole)
    spec = code_spectrum(quotient_matrix(cert.numbers), ambient(3, 2))
    arith = arithmetic_certificate(spec, 2)
    bounds = eigenvalue_bounds(cert.numbers, spec, arith, ambient(3, 2))
    assert bounds.min_eigenvalue_slack is None


def test_reduce_round_trip_through_padding():
    ham = hamming_code(3, 2)
    padded = pad_code(ham)
    assert padded.ambient.n == 8 and padded.size == 32
    assert not is_reduced(padded)
    reduced, stripped = reduce_code(padded)
    assert stripped == (0,)
    assert reduced.ambient.n == 7
    assert list(reduced.members) == list(ham.members)


def test_reduce_already_reduced():
    ham = hamming_code(3, 2)
    reduced, stripped = reduce_code(ham)
    assert stripped == ()
    assert list(reduced.members) == list(ham.members)
    assert is_reduced(ham)


def test_reduce_full_space_stops_at_one_coordinate():
    whole = code_from_words(ambient(3, 2), range(8))
    assert free_coordinates(whole) == [0, 1, 2]
    reduced, stripped = reduce_code(whole)
    assert reduced.ambient.n == 1
    assert reduced.size == 2
    assert stripped == (0, 1)


# -- theorem checks raise with a witness (they survive python -O) -------------------


def test_recount_witness_rejects_a_vertex_outside_its_class():
    from dataclasses import replace

    code = code_from_words(ambient(3, 2), [[0, 0, 0], [0, 1, 1]])
    w = certify_completely_regular(code).witness
    with pytest.raises(TheoremViolationError) as caught:
        recount_witness(code, replace(w, class_index=w.class_index + 1))
    assert caught.value.witness["vertex"] == w.vertex_a
    assert caught.value.witness["distance"] == w.class_index


def test_code_spectrum_rejects_a_top_root_below_the_valency():
    # eigenvalues 0 and -2 are ambient roots of H(2,2), but the valency 2 is not
    numbers = IntersectionNumbers(gamma=(0, 1), alpha=(-1, -1), beta=(1, 0))
    u = QuotientMatrix(((-1, 1), (1, -1)), numbers)
    with pytest.raises(TheoremViolationError) as caught:
        code_spectrum(u, ambient(2, 2))
    assert caught.value.witness["roots"] == [0, -2]
    assert caught.value.witness["valency"] == 2


def test_arithmetic_certificate_rejects_a_gap_not_divisible_by_q():
    with pytest.raises(TheoremViolationError) as caught:
        arithmetic_certificate((7, 4, 1), 2)
    assert caught.value.witness == {"spectrum": [7, 4, 1], "q": 2}


def test_reduce_code_rejects_a_free_coordinate_with_a_nonzero_column(monkeypatch):
    import crcodes.cr_analysis as cr_mod

    code = hamming_code(3, 2)
    monkeypatch.setattr(cr_mod, "free_coordinates", lambda code: [0])
    # the linear form reads free coordinates as zero columns of H: none here
    assert reduce_code(code) == (code, ())
    with pytest.raises(TheoremViolationError) as caught:
        reduce_code(code_from_words(code.ambient, code.members))
    assert caught.value.witness == {"coordinates": [0], "sizes": [16, 32]}


def test_relinearize_rejects_a_parity_check_for_other_members(monkeypatch):
    import crcodes.cr_analysis as cr_mod
    from crcodes.algebra import gf_matrix
    from crcodes.hamming_space import code_from_parity_check

    space = ambient(3, 2)
    code = code_from_parity_check(space, gf_matrix(space.alphabet, [[1, 1, 0]]))
    assert [c.members for c in reduce_code(code)[:1]] == [(0, 3)]
    # a shortened parity check whose code is {00}, not {00, 11}
    monkeypatch.setattr(cr_mod, "code_from_parity_check", lambda sp, h: code_from_parity_check(
        sp, gf_matrix(sp.alphabet, [[1, 0], [0, 1]])))
    with pytest.raises(TheoremViolationError) as caught:
        reduce_code(code)
    assert caught.value.witness == {"coordinates": [2], "sizes": [4, 2]}


def _member_strip(code):
    """The member form of reduce_code: strip the lowest free coordinate,
    found by scanning the members, until none is left or n = 1."""
    current, stripped, index_map = code, [], list(range(code.ambient.n))
    while current.ambient.n >= 2 and free_coordinates(current):
        i = free_coordinates(current)[0]
        stripped.append(index_map.pop(i))
        sp = current.ambient
        keep = [j for j in range(sp.n) if j != i]
        words = {tuple(decode(w, sp.n, sp.q)[j] for j in keep) for w in current.members}
        current = code_from_words(ambient(sp.n - 1, sp.q), words)
    return current, tuple(stripped)


def test_reduce_code_agrees_with_the_member_strip():
    from crcodes.algebra import alphabet, gf_matrix
    from crcodes.hamming_space import code_from_parity_check
    from crcodes.search import systematic_parity_checks

    checks = [h for n, q in ((5, 2), (4, 3), (3, 4)) for h in systematic_parity_checks(n, q)]
    checks += [gf_matrix(alphabet(2), [[0, 0, 0]]),  # every column zero
               gf_matrix(alphabet(3), [[0, 1, 0, 2], [0, 2, 0, 1]]),  # dependent rows
               pad_code(hamming_code(3, 2), 2).linear.parity_check]
    rng = random.Random(3)
    stripped_some = 0
    for h in checks:
        perm = list(range(h.ncols))
        rng.shuffle(perm)
        for cols in (range(h.ncols), perm):
            code = code_from_parity_check(ambient(h.ncols, h.alphabet.q), h.take_columns(cols))
            oracle, oracle_stripped = _member_strip(code)
            listed = code_from_words(code.ambient, code.members)
            for reduced, stripped in (reduce_code(code), reduce_code(listed)):
                assert stripped == oracle_stripped
                assert reduced.ambient.n == oracle.ambient.n
                assert reduced.members == oracle.members
            assert reduce_code(code)[0].is_linear
            stripped_some += bool(oracle_stripped)
    assert stripped_some > 50
