import random

import pytest

from crcodes import algebra
from crcodes.algebra import (
    _nullspace_by_rref,
    alphabet,
    field_alphabet,
    gf_identity,
    gf_matrix,
    hstack,
    mat_vec,
    nullspace_basis,
    rref,
)
from crcodes.errors import FieldRequiredError
from crcodes.search import systematic_parity_checks


FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 16, 27, 64]


def test_gf2_characteristic_two():
    a = alphabet(2)
    assert a.is_field
    assert a.add(1, 1) == 0


def test_gf4_structure():
    a = alphabet(4)
    # modulus x^2 + x + 1, labels 0,1,x,x+1
    assert a.modulus == (1, 1, 1)
    assert a.mul(2, 2) == 3  # x * x = x + 1
    assert a.mul(2, 3) == 1
    assert a.add(1, 2) == 3


def test_gf8_modulus_is_standard():
    assert alphabet(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1


def test_non_prime_power_degrades_to_cyclic():
    for q in (6, 10, 12):
        a = alphabet(q)
        assert not a.is_field
        assert a.add(q - 1, 1) == 0
        assert a.sub(0, 1) == q - 1
        with pytest.raises(FieldRequiredError):
            a.mul(1, 1)
    with pytest.raises(FieldRequiredError):
        field_alphabet(6)


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms_exhaustive(q):
    a = alphabet(q)
    elems = range(q)
    for x in elems:
        assert a.add(x, 0) == x
        assert a.mul(x, 1) == x
        assert a.add(x, a.neg(x)) == 0
        if x:
            assert a.mul(x, a.inv(x)) == 1
        for y in elems:
            assert a.add(x, y) == a.add(y, x)
            assert a.mul(x, y) == a.mul(y, x)
    for x in elems:
        for y in elems:
            for z in elems:
                assert a.mul(a.mul(x, y), z) == a.mul(x, a.mul(y, z))
                assert a.add(a.add(x, y), z) == a.add(x, a.add(y, z))
                assert a.mul(x, a.add(y, z)) == a.add(a.mul(x, y), a.mul(x, z))


def test_rref_examples():
    f2 = alphabet(2)
    m = gf_matrix(f2, [[1, 1, 1]])
    red, rk, pivots = rref(m)
    assert rk == 1 and pivots == [0]
    assert red.rows == ((1, 1, 1),)

    m = gf_matrix(f2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    _, rk, _ = rref(m)
    assert rk == 2  # row3 = row1 + row2

    f3 = alphabet(3)
    eye = gf_identity(f3, 3)
    red, rk, pivots = rref(eye)
    assert red == eye and rk == 3 and pivots == [0, 1, 2]


def test_rref_is_idempotent_and_scales_pivots():
    f4 = alphabet(4)
    m = gf_matrix(f4, [[2, 1, 3, 0], [1, 1, 0, 2], [3, 0, 3, 2]])
    red, rk, pivots = rref(m)
    again, rk2, pivots2 = rref(red)
    assert again == red and rk2 == rk and pivots2 == pivots
    for i, p in enumerate(pivots):
        assert red.rows[i][p] == 1


def test_nullspace_parity_triple():
    f2 = alphabet(2)
    h = gf_matrix(f2, [[1, 1, 1]])
    basis = nullspace_basis(h)
    assert basis.rows == ((1, 1, 0), (1, 0, 1))
    # spans exactly the words of even weight: enumerate all 8
    span = set()
    for c0 in range(2):
        for c1 in range(2):
            word = tuple((c0 * basis.rows[0][j] + c1 * basis.rows[1][j]) % 2 for j in range(3))
            span.add(word)
    expected = {w for w in _all_words(2, 3) if _syndrome(h, w) == (0,)}
    assert span == expected


def test_nullspace_full_rank_is_empty():
    f2 = alphabet(2)
    basis = nullspace_basis(gf_identity(f2, 3))
    assert basis.nrows == 0


def _all_words(q, n):
    words = [()]
    for _ in range(n):
        words = [w + (d,) for w in words for d in range(q)]
    return words


def _syndrome(h, word):
    return mat_vec(h, word)


def test_nullspace_binary_hamming_check():
    f2 = alphabet(2)
    cols = [(j >> 2 & 1, j >> 1 & 1, j & 1) for j in range(1, 8)]
    h = gf_matrix(f2, [[c[i] for c in cols] for i in range(3)])
    basis = nullspace_basis(h)
    assert basis.nrows == 4 and basis.ncols == 7
    # oracle: enumerate all 128 words, keep Hx^T = 0
    kernel = [w for w in _all_words(2, 7) if _syndrome(h, w) == (0, 0, 0)]
    assert len(kernel) == 16
    weights = sorted(sum(w) for w in kernel)
    assert weights[0] == 0 and weights[1] == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rank_nullity_random(q):
    rng = random.Random(1000 + q)
    a = alphabet(q)
    for _ in range(25):
        r = rng.randint(1, 4)
        n = rng.randint(1, 6)
        m = gf_matrix(a, [[rng.randrange(q) for _ in range(n)] for _ in range(r)])
        _, rk, _ = rref(m)
        basis = nullspace_basis(m)
        assert rk + basis.nrows == n
        # every basis row is in the nullspace
        for row in basis.rows:
            assert all(s == 0 for s in mat_vec(m, row))
        # rows are linearly independent
        if basis.nrows:
            assert rref(basis)[1] == basis.nrows


def test_matrix_rejects_cyclic_alphabet():
    with pytest.raises(FieldRequiredError):
        gf_matrix(alphabet(6), [[1, 2]])


def test_hstack():
    f2 = alphabet(2)
    m = gf_matrix(f2, [[1, 0], [0, 1]])
    assert hstack([m, m]).rows == ((1, 0, 1, 0), (0, 1, 0, 1))


def _count_rref(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return rref(m)

    monkeypatch.setattr(algebra, "rref", counting)
    return calls


# (q, largest n): every census parity check up to these lengths
_CENSUS_CHECKS = ((2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3))


def test_systematic_nullspace_equals_the_rref_route_on_every_census_check(monkeypatch):
    checks = [h for q, top in _CENSUS_CHECKS for n in range(1, top + 1)
              for h in systematic_parity_checks(n, q)]
    assert len(checks) == 17617
    calls = _count_rref(monkeypatch)
    fast = [nullspace_basis(h) for h in checks]
    assert calls == []  # [I_r | A] is its own RREF
    assert fast == [_nullspace_by_rref(h) for h in checks]
    assert len(calls) == len(checks)


@pytest.mark.parametrize("q, rows", [
    (2, [[1, 1, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]]),  # [A | I_r]
    (3, [[2, 0, 1, 1], [0, 1, 2, 0]]),  # a pivot scaled by 2
    (3, [[0, 1, 0, 2], [0, 0, 1, 1]]),  # a leading zero column
    (2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]]),  # identity prefix in the first r-1 rows only
], ids=["a-then-identity", "scaled-pivot", "leading-zero-column", "dependent-rows"])
def test_non_systematic_checks_take_the_rref_route(monkeypatch, q, rows):
    h = gf_matrix(alphabet(q), rows)
    calls = _count_rref(monkeypatch)
    basis = nullspace_basis(h)
    assert calls == [h]
    assert basis == _nullspace_by_rref(h)
    assert basis.nrows == h.ncols - rref(h)[1]
    assert all(not any(mat_vec(h, row)) for row in basis.rows)
