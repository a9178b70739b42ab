import copy
import itertools
import pickle
import random

import pytest

from crcodes import hamming_space
from crcodes.algebra import alphabet, gf_identity, gf_matrix, mat_vec
from crcodes.constructions import cartesian_product, hamming_code
from crcodes.errors import CapacityError, NotAdditiveError, UndefinedMinimumDistanceError
from crcodes.hamming_space import (
    ADDITIVE_CHECK_WORDS,
    Code,
    ambient,
    code_from_generators,
    code_from_parity_check,
    code_from_words,
    decode,
    distance,
    encode,
    is_additive,
    minimum_distance,
    neighbor_table,
    neighbors,
    sphere_size,
    translate,
    weight,
    word_string,
)


def test_encode_decode_roundtrip():
    rng = random.Random(7)
    for q in (2, 3, 4, 6):
        for _ in range(50):
            n = rng.randint(1, 8)
            digits = tuple(rng.randrange(q) for _ in range(n))
            assert decode(encode(digits, q), n, q) == digits


def test_distance_examples():
    h32 = ambient(3, 2)
    assert distance(0, 0, h32) == 0
    h43 = ambient(4, 3)
    # words written coordinate 0 first: 0102 vs 0100 differ at coordinate 3
    u = encode([0, 1, 0, 2], 3)
    v = encode([0, 1, 0, 0], 3)
    assert distance(u, v, h43) == 1
    assert word_string(u, h43) == "0102"


def test_distance_matches_digit_oracle():
    rng = random.Random(11)
    for q in (2, 3, 4, 5):
        sp = ambient(5, q)
        for _ in range(100):
            u = rng.randrange(sp.size)
            v = rng.randrange(sp.size)
            oracle = sum(a != b for a, b in zip(decode(u, 5, q), decode(v, 5, q)))
            assert distance(u, v, sp) == oracle
            assert distance(v, u, sp) == oracle


def test_triangle_inequality_sampled():
    rng = random.Random(13)
    sp = ambient(6, 3)
    for _ in range(200):
        u, v, w = (rng.randrange(sp.size) for _ in range(3))
        assert distance(u, w, sp) <= distance(u, v, sp) + distance(v, w, sp)


def test_neighbors_examples():
    h22 = ambient(2, 2)
    assert [word_string(w, h22) for w in neighbors(0, h22)] == ["10", "01"]
    h24 = ambient(2, 4)
    assert [word_string(w, h24) for w in neighbors(0, h24)] == ["10", "20", "30", "01", "02", "03"]


def test_neighbors_consistent_with_distance():
    rng = random.Random(17)
    for q in (2, 3, 4):
        sp = ambient(4, q)
        for _ in range(20):
            u = rng.randrange(sp.size)
            ns = neighbors(u, sp)
            assert len(ns) == sp.valency
            assert len(set(ns)) == len(ns)
            assert all(distance(u, v, sp) == 1 for v in ns)


def test_neighbor_table_above_the_cap_is_an_on_demand_view():
    import crcodes.hamming_space as hs

    sp = ambient(18, 2)
    assert sp.size > hs._TABLE_CAP
    before = hs._tabulate.cache_info()
    table = neighbor_table(sp)
    for v in (0, 1, 12345, sp.size - 1):
        assert table[v] == neighbors(v, sp)
    assert hs._tabulate.cache_info() == before  # nothing was tabulated


def test_neighbor_table_cache_stays_bounded():
    import crcodes.hamming_space as hs

    spaces = [ambient(n, q) for q in (2, 3) for n in range(1, 6)]
    assert len(spaces) > hs._TABLE_CACHE_SIZE
    for sp in spaces:
        table = neighbor_table(sp)
        assert [table[v] for v in range(sp.size)] == [
            neighbors(v, sp) for v in range(sp.size)]
        assert hs._tabulate.cache_info().currsize <= hs._TABLE_CACHE_SIZE
    assert neighbor_table(spaces[-1]) is table  # the latest one is kept


def test_sphere_size_identity():
    rng = random.Random(19)
    for q in (2, 3, 4):
        sp = ambient(4, q)
        u = rng.randrange(sp.size)
        for r in range(sp.n + 1):
            ball = sum(1 for v in range(sp.size) if distance(u, v, sp) <= r)
            assert ball == sphere_size(sp, r)


def test_code_from_parity_check_triple():
    sp = ambient(3, 2)
    h = gf_matrix(alphabet(2), [[1, 1, 1]])
    code = code_from_parity_check(sp, h)
    assert code.word_strings() == ["000", "110", "101", "011"]
    # oracle: all words with zero syndrome
    kernel = sorted(v for v in range(8) if bin(v).count("1") % 2 == 0)
    assert list(code.members) == kernel


@pytest.mark.parametrize("q, rows", [
    (2, [[1, 1, 1]]),
    (3, [[1, 0, 2, 1], [0, 1, 1, 1]]),
    (4, [[1, 2, 0, 3], [0, 0, 1, 1]]),
    (2, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]),  # rank 2 of 3 rows
])
def test_parity_check_codes_span_members_only_when_read(monkeypatch, q, rows):
    space = ambient(len(rows[0]), q)
    h = gf_matrix(alphabet(q), rows)
    kernel = [x for x in range(space.size) if not any(mat_vec(h, decode(x, space.n, q)))]
    spans = []
    real_span = hamming_space._span
    monkeypatch.setattr(hamming_space, "_span",
                        lambda *args: spans.append(args) or real_span(*args))
    lazy = code_from_parity_check(space, h)
    eager = Code(space, code_from_words(space, kernel).members, lazy.linear)
    assert lazy.size == eager.size == len(kernel)
    assert repr(lazy) == repr(eager)
    assert hash(lazy) == hash(eager)
    assert spans == []
    assert lazy == eager and eager == lazy
    assert spans == []  # equal linear structure decides without a span
    assert [x for x in range(space.size) if x in lazy] == kernel
    assert 0 in lazy and lazy.word_strings() == eager.word_strings()
    assert lazy.members == eager.members and len(spans) == 1  # cached
    other = code_from_parity_check(space, gf_matrix(alphabet(q), [[1] + [0] * (space.n - 1)]))
    assert lazy != other and lazy != code_from_words(space, kernel)
    assert copy.copy(lazy) == pickle.loads(pickle.dumps(lazy)) == lazy
    with pytest.raises(AttributeError):
        lazy.linear = None


def test_equal_long_linear_codes_compare_without_spanning():
    # Hamming [63,57] has 2^57 members, far above the cap
    assert hamming_code(6, 2) == hamming_code(6, 2)
    assert hamming_code(6, 2) != hamming_code(5, 2)


def test_syndrome_membership_agrees_with_the_member_set():
    # Hx = 0 against the spanned members on every word, and on the two
    # encodings just outside the space, which are no members
    from crcodes.search import systematic_parity_checks

    checks = [h for n, q in ((4, 2), (3, 3), (3, 4), (3, 5))
              for h in systematic_parity_checks(n, q)]
    checks.append(gf_matrix(alphabet(2), [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
    for h in checks:
        space = ambient(h.ncols, h.alphabet.q)
        code = code_from_parity_check(space, h)
        members = set(code.members)
        assert all((x in code) == (x in members) for x in range(-1, space.size + 1))


def test_code_from_words_h24_class():
    sp = ambient(2, 4)
    code = code_from_words(sp, [[0, 0], [0, 1], [1, 0], [1, 1]], additive=True)
    assert code.size == 4
    assert is_additive(code)


def _zero_sum_words(n, q):
    """The words whose symbols sum to 0 mod q: an additive code of q^(n-1)."""
    space = ambient(n, q)
    return space, [w for w in range(space.size) if sum(decode(w, n, q)) % q == 0]


def test_additivity_check_up_to_its_bound():
    for n, q in ((11, 2), (7, 3)):
        space, words = _zero_sum_words(n, q)
        assert len(words) <= ADDITIVE_CHECK_WORDS
        assert is_additive(code_from_words(space, words))
        # swap the largest member for a word outside the code
        outside = next(w for w in range(space.size - 1, 0, -1) if w not in set(words))
        assert not is_additive(code_from_words(space, words[:-1] + [outside]))
    assert len(_zero_sum_words(11, 2)[1]) == ADDITIVE_CHECK_WORDS


def test_additivity_check_refuses_more_words_than_its_bound():
    space, words = _zero_sum_words(12, 2)
    assert len(words) > ADDITIVE_CHECK_WORDS
    code = code_from_words(space, words)
    with pytest.raises(CapacityError):
        is_additive(code)
    with pytest.raises(CapacityError):
        code_from_words(space, words, additive=True)


def _digitwise(op, u: int, v: int, space) -> int:
    """u op v coordinate by coordinate, by the alphabet's own tables."""
    n, q = space.n, space.q
    return encode([op(a, b) for a, b in zip(decode(u, n, q), decode(v, n, q))], q)


def _closure_under_subtraction(words, space) -> bool:
    return all(_digitwise(space.alphabet.sub, u, v, space) in words
               for u in words for v in words)


def test_is_additive_agrees_with_a_subtraction_closure_oracle():
    # the subgroup generated by a few random words, sometimes with a word
    # taken out, a stray word put in or a second subgroup joined to it, over
    # fields and over Z_6
    rng = random.Random(25)

    def subgroup(space):
        words = {0}
        for g in rng.sample(range(space.size), rng.randint(0, 2)):
            while True:
                grown = words | {_digitwise(space.alphabet.add, w, g, space) for w in words}
                if grown == words:
                    return words
                words = grown
        return words

    for q in (2, 3, 4, 5, 6):
        space = ambient(3, q)
        verdicts = set()
        for _ in range(40):
            words = subgroup(space)
            change = rng.randrange(4)
            if change == 1 and len(words) > 1:
                words.discard(rng.choice(sorted(words)))
            elif change == 2:
                words.add(rng.randrange(space.size))
            elif change == 3:
                words |= subgroup(space)
            want = _closure_under_subtraction(words, space)
            assert is_additive(code_from_words(space, sorted(words))) == want
            verdicts.add(want)
        assert verdicts == {True, False}


def _span_oracle(g, space) -> list[int]:
    """Every combination sum_i c_i g_i, summed in the test's own arithmetic."""
    alpha = space.alphabet
    span = set()
    for coeffs in itertools.product(range(space.q), repeat=g.nrows):
        vec = [0] * space.n
        for c, row in zip(coeffs, g.rows):
            vec = [alpha.add(x, alpha.mul(c, y)) for x, y in zip(vec, row)]
        span.add(encode(vec, space.q))
    return sorted(span)


def test_members_of_a_generated_code_are_the_span_of_its_generators():
    # a zero G, an identity G (whose parity check has no rows) and random
    # G, alone and as the factors of a cartesian product
    rng = random.Random(11)
    codes = []
    for q, n in ((2, 4), (3, 3), (4, 2), (5, 2)):
        space = ambient(n, q)
        alpha = space.alphabet
        for g in (gf_matrix(alpha, [[0] * n]), gf_identity(alpha, n),
                  gf_matrix(alpha, [[rng.randrange(q) for _ in range(n)] for _ in range(2)])):
            code = code_from_generators(space, g)
            assert code.members == tuple(_span_oracle(g, space))
            codes.append((code, g))
    assert any(code.linear.parity_check.nrows == 0 for code, _ in codes)
    for (c1, g1), (c2, g2) in itertools.product(codes, repeat=2):
        s1, s2 = c1.ambient, c2.ambient
        if s1.q != s2.q:
            continue
        product = cartesian_product(c1, c2)
        diagonal = gf_matrix(s1.alphabet, [r + (0,) * s2.n for r in g1.rows]
                             + [(0,) * s1.n + r for r in g2.rows])
        assert product.linear is not None
        assert product.members == tuple(_span_oracle(diagonal, product.ambient))


def test_code_from_generators_repetition():
    sp = ambient(3, 2)
    code = code_from_generators(sp, gf_matrix(alphabet(2), [[1, 1, 1]]))
    assert code.word_strings() == ["000", "111"]
    assert code.linear.rank == 2


def test_duplicate_words_rejected():
    sp = ambient(2, 2)
    with pytest.raises(ValueError):
        code_from_words(sp, [[0, 0], [0, 0]])


def test_non_additive_declaration_rejected():
    sp = ambient(2, 2)
    with pytest.raises(NotAdditiveError):
        code_from_words(sp, [[0, 0], [0, 1], [1, 0]], additive=True)


def test_capacity_guard():
    sp = ambient(8, 2, max_vertices=100)
    with pytest.raises(CapacityError):
        sp.require_materializable()
    # q^k = 128 members: the code is built, but spanning them is refused
    code = code_from_parity_check(sp, gf_matrix(alphabet(2), [[1] * 8]))
    assert code.size == 128
    with pytest.raises(CapacityError):
        code.members
    # 16 members a factor, 256 in their product, which bypasses construction
    factor = code_from_parity_check(ambient(5, 2, max_vertices=100),
                                    gf_matrix(alphabet(2), [[1] * 5]))
    assert len(factor.members) == 16
    product = cartesian_product(factor, factor)
    assert product.size == 256
    with pytest.raises(CapacityError):
        product.members


def _binary_hamming_check(r):
    cols = sorted(tuple((j >> (r - 1 - i)) & 1 for i in range(r)) for j in range(1, 2**r))
    return gf_matrix(alphabet(2), [[c[i] for c in cols] for i in range(r)])


def test_minimum_distance():
    sp = ambient(7, 2)
    ham = code_from_parity_check(sp, _binary_hamming_check(3))
    assert minimum_distance(ham) == 3
    rep = code_from_words(ambient(6, 2), [0, 2**6 - 1])
    assert minimum_distance(rep) == 6
    single = code_from_words(ambient(3, 2), [0])
    with pytest.raises(UndefinedMinimumDistanceError):
        minimum_distance(single)


def test_minimum_distance_pairwise_agrees_with_weight_route():
    rng = random.Random(23)
    sp = ambient(7, 2)
    ham = code_from_parity_check(sp, _binary_hamming_check(3))
    pairwise = min(
        distance(u, v, sp) for u in ham.members for v in ham.members if u != v
    )
    assert pairwise == minimum_distance(ham)
    # translation invariance: distance multiset to the code is shift-invariant
    for _ in range(5):
        c = rng.choice(ham.members)
        base = sorted(
            min(distance(x, m, sp) for m in ham.members) for x in range(0, sp.size, 7)
        )
        shifted = sorted(
            min(distance(y, m, sp) for m in ham.members)
            for y in translate(range(0, sp.size, 7), c, sp.alphabet)
        )
        assert base == shifted


def test_translate_by_a_word_then_its_negation_is_the_identity():
    for q in (2, 3, 4, 6):
        sp = ambient(3, q)
        alpha = sp.alphabet
        rng = random.Random(q)
        for _ in range(30):
            u = rng.randrange(sp.size)
            v = rng.randrange(sp.size)
            minus_v = encode([alpha.neg(d) for d in decode(v, 3, q)], q)
            assert translate(translate([u], v, alpha), minus_v, alpha) == [u]


def test_weight_counts_nonzero_digits():
    sp = ambient(4, 3)
    assert weight(encode([0, 2, 0, 1], 3), sp) == 2
