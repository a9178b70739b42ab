import pytest

from crcodes.algebra import alphabet, gf_matrix, mat_vec
from crcodes.constructions import (
    NotCompletelyRegularError,
    cartesian_product,
    extended_hamming_code,
    hamming_code,
    hamming_parity_check,
    pad_code,
    product_cr_criterion,
    repetition_code,
    replicate_columns,
    verify_product_cr,
)
from crcodes.cr_analysis import (
    certify_completely_regular,
    code_spectrum,
    distance_partition,
    quotient_matrix,
)
from crcodes.hamming_space import (
    ambient,
    code_from_parity_check,
    code_from_words,
    minimum_distance,
    sphere_size,
)


def _is_perfect(code):
    sp = code.ambient
    return code.size * sphere_size(sp, 1) == sp.size and distance_partition(code).rho == 1


def test_hamming_r2_is_repetition3():
    code = hamming_code(2, 2)
    assert code.word_strings() == ["000", "111"]


def test_hamming_74_perfect():
    code = hamming_code(3, 2)
    assert code.ambient.n == 7 and code.size == 16
    assert minimum_distance(code) == 3
    assert _is_perfect(code)
    # spheres of radius 1 partition the space: perfectness again, directly
    sp = code.ambient
    covered = set(code.members)
    from crcodes.hamming_space import neighbors

    for c in code.members:
        covered.update(neighbors(c, sp))
    assert len(covered) == sp.size


def test_ternary_hamming():
    code = hamming_code(2, 3)
    assert code.ambient.n == 4 and code.size == 9
    assert _is_perfect(code)  # 9 * (1 + 4*2) = 81


def test_extended_hamming_r2():
    code = extended_hamming_code(2)
    assert code.word_strings() == ["0000", "1111"]


def test_extended_hamming_r3():
    code = extended_hamming_code(3)
    assert code.ambient.n == 8 and code.size == 16
    assert minimum_distance(code) == 4
    cert = certify_completely_regular(code)
    assert cert.partition.rho == 2
    assert quotient_matrix(cert.numbers).to_lists() == [[0, 8, 0], [1, 0, 7], [0, 8, 0]]
    spec = code_spectrum(quotient_matrix(cert.numbers), code.ambient)
    assert spec == (8, 0, -8)


def test_replicate_columns_identity():
    h = hamming_parity_check(3, 2)
    assert replicate_columns(h, 1) == h
    hh = replicate_columns(h, 2)
    assert hh.ncols == 14 and hh.rows[0][:7] == hh.rows[0][7:]


def test_replicated_hamming_check_is_cr_radius_one():
    hh = replicate_columns(hamming_parity_check(3, 2), 2)
    code = code_from_parity_check(ambient(14, 2), hh)
    assert code.size == 2**11
    cert = certify_completely_regular(code)
    assert cert.completely_regular
    assert cert.partition.rho == 1
    assert cert.numbers.gamma == (0, 2)


def test_replicate_nullspace_matches_direct_enumeration():
    f2 = alphabet(2)
    h = gf_matrix(f2, [[1, 1]])
    hh = replicate_columns(h, 2)
    code = code_from_parity_check(ambient(4, 2), hh)
    brute = sorted(
        v for v in range(16)
        if all(s == 0 for s in mat_vec(hh, tuple((v >> i) & 1 for i in range(4))))
    )
    assert list(code.members) == brute


def test_cartesian_product_sizes():
    rep = hamming_code(2, 2)
    prod = cartesian_product(rep, rep)
    assert prod.ambient.n == 6 and prod.size == 4

    ham = hamming_code(3, 2)
    hamham = cartesian_product(ham, ham)
    assert hamham.ambient.n == 14 and hamham.size == 256


def test_cartesian_product_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        cartesian_product(hamming_code(2, 2), hamming_code(2, 3))


def test_derived_spaces_keep_the_lower_vertex_cap():
    listed = code_from_words(ambient(3, 2, 8), [0, 3, 5])
    capped = cartesian_product(hamming_code(2, 2), listed)
    assert capped.ambient.max_vertices == 8
    assert cartesian_product(listed, hamming_code(2, 2)).ambient.max_vertices == 8
    assert pad_code(listed, 2).ambient.max_vertices == 8
    assert pad_code(hamming_code(2, 2, 16)).ambient.max_vertices == 16


def test_pad_is_completely_regular_and_non_reduced():
    from crcodes.cr_analysis import is_reduced

    padded = pad_code(hamming_code(3, 2))
    assert padded.ambient.n == 8 and padded.size == 32
    assert not is_reduced(padded)
    assert certify_completely_regular(padded).completely_regular


def test_product_criterion_repetition3_squared():
    rep = hamming_code(2, 2)
    compat = product_cr_criterion(rep, rep)
    assert compat.compatible and compat.n1 == 1 and compat.n2 == 3
    assert compat.predicted.rho == 2
    assert compat.predicted.gamma == (0, 1, 2)
    assert compat.predicted.beta == (6, 3, 0)
    verified = verify_product_cr(rep, rep, compat)
    assert verified["product_cr"] and verified["matches_prediction"]
    prod = cartesian_product(rep, rep)
    cert = certify_completely_regular(prod)
    spec = code_spectrum(quotient_matrix(cert.numbers), prod.ambient)
    assert spec == (6, 2, -2)


def test_product_criterion_incompatible_and_brute_confirmed():
    ham = hamming_code(3, 2)
    rep = hamming_code(2, 2)
    compat = product_cr_criterion(ham, rep)
    assert not compat.compatible
    assert compat.failing_condition == "beta_slope_mismatch"
    verified = verify_product_cr(ham, rep, compat)
    assert not verified["product_cr"]
    assert verified["matches_prediction"]  # prediction: not CR
    assert "witness" in verified


def test_product_criterion_hamming_squared():
    ham = hamming_code(3, 2)
    compat = product_cr_criterion(ham, ham)
    assert compat.compatible and compat.n1 == 1 and compat.n2 == 7
    assert compat.predicted.rho == 2
    verified = verify_product_cr(ham, ham, compat)
    assert verified["product_cr"] and verified["matches_prediction"]


def test_product_criterion_requires_cr_factors():
    not_cr = code_from_words(ambient(3, 2), [0, 3])
    rep = hamming_code(2, 2)
    with pytest.raises(NotCompletelyRegularError):
        product_cr_criterion(not_cr, rep)


def test_product_associativity_up_to_fixed_coordinate_order():
    a = hamming_code(2, 2)
    b = repetition_code(2, 2)
    c = code_from_words(ambient(2, 2), [0, 1])
    left = cartesian_product(cartesian_product(a, b), c)
    right = cartesian_product(a, cartesian_product(b, c))
    assert left.members == right.members


def test_repetition_code_general_q():
    code = repetition_code(4, 3)
    assert code.size == 3
    assert code.word_strings() == ["0000", "1111", "2222"]
