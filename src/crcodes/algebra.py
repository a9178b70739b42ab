"""Exact arithmetic over GF(q) and Z_q, plus matrix reduction and nullspaces.

Element labels are the integers 0..q-1.  For a prime q the label is the
residue itself.  For q = p^e with e >= 2, the label is the base-p digit
encoding of a polynomial of degree < e over GF(p) (digit i = coefficient of
x^i), and multiplication reduces modulo a fixed irreducible polynomial: the
lexicographically smallest monic irreducible of degree e, where the lex key
reads coefficients from x^(e-1) down to the constant term.  This makes every
label reproducible across runs.

A q that is not a prime power degrades to the cyclic group Z_q: addition,
negation and subtraction work, multiplicative structure is unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import FieldRequiredError

FIELD = "field"
CYCLIC = "cyclic-group"


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p^e and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)  # q itself is prime
        if q % p:
            continue
        e, m = 0, q
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
    return None


# -- polynomial helpers over Z_p (coefficient tuples, low order first) --------


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            div = []
            k = idx
            for _ in range(d):
                div.append(k % p)
                k //= p
            div.append(1)  # monic
            if not any(_poly_mod(m, div, p)):
                return False
    return True


@lru_cache(maxsize=None)
def _irreducible_poly(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e, keyed (c_{e-1},...,c_1,c_0)."""
    count = p**e
    for idx in range(count):
        # base-p digits of idx, most significant first, are (c_{e-1},...,c_0),
        # so ascending idx walks the keys in ascending lex order.
        coeffs = []
        k = idx
        for _ in range(e):
            coeffs.append(k % p)
            k //= p
        poly = tuple(coeffs) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {e} over GF({p})")


@dataclass(frozen=True)
class Alphabet:
    """The symbol set of one coordinate: GF(q) or the cyclic group Z_q."""

    q: int
    kind: str
    p: int
    e: int
    modulus: tuple[int, ...] | None
    _mul: tuple[tuple[int, ...], ...] = field(default=None, compare=False, repr=False)
    _inv: tuple[int, ...] = field(default=None, compare=False, repr=False)
    _add: tuple[tuple[int, ...], ...] = field(default=None, compare=False, repr=False)
    _neg: tuple[int, ...] = field(default=None, compare=False, repr=False)

    @property
    def is_field(self) -> bool:
        return self.kind == FIELD

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if not self.is_field:
            raise FieldRequiredError(f"q={self.q} is not a prime power")
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if not self.is_field:
            raise FieldRequiredError(f"q={self.q} is not a prime power")
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def __repr__(self) -> str:  # keep hashing cheap, tables out of repr
        if self.is_field:
            return f"Alphabet(GF({self.q}))"
        return f"Alphabet(Z_{self.q})"


def _add_table(q: int, p: int, e: int) -> tuple[tuple[int, ...], ...]:
    """Z_q addition for e <= 1; otherwise digit-wise mod p on the base-p
    labels (XOR when p = 2)."""
    if e <= 1:
        return tuple(tuple((a + b) % q for b in range(q)) for a in range(q))

    def add(a: int, b: int) -> int:
        out, mult = 0, 1
        for _ in range(e):
            out += (a % p + b % p) % p * mult
            a, b, mult = a // p, b // p, mult * p
        return out

    return tuple(tuple(add(a, b) for b in range(q)) for a in range(q))


def _with_additive_tables(q: int, kind: str, p: int, e: int, **fields) -> Alphabet:
    add = _add_table(q, p, e)
    neg = tuple(row.index(0) for row in add)
    return Alphabet(q=q, kind=kind, p=p, e=e, _add=add, _neg=neg, **fields)


@lru_cache(maxsize=None)
def alphabet(q: int) -> Alphabet:
    """Deterministic alphabet for size q: GF(q) if q is a prime power, else Z_q.

    Falling back to Z_q is signalled by ``kind`` (and ``is_field``), not by an
    exception: Hamming-graph operations only need the abelian group.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    pe = _prime_power(q)
    if pe is None:
        return _with_additive_tables(q, CYCLIC, 0, 0, modulus=None)
    p, e = pe
    if e == 1:
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
        modulus = None
    else:
        modulus = _irreducible_poly(p, e)

        def digits(a: int) -> list[int]:
            out = []
            for _ in range(e):
                out.append(a % p)
                a //= p
            return out

        def label(coeffs: Sequence[int]) -> int:
            out = 0
            for i in range(e - 1, -1, -1):
                out = out * p + (coeffs[i] if i < len(coeffs) else 0)
            return out

        mul_rows = []
        for a in range(q):
            row = []
            da = digits(a)
            for b in range(q):
                prod = _poly_mod(_poly_mul(da, digits(b), p), modulus, p)
                row.append(label(prod))
            mul_rows.append(tuple(row))
        mul = tuple(mul_rows)
    inv = [0] * q
    for a in range(1, q):
        for b in range(1, q):
            if mul[a][b] == 1:
                inv[a] = b
                break
        else:
            raise AssertionError(f"element {a} of GF({q}) has no inverse")
    return _with_additive_tables(q, FIELD, p, e, modulus=modulus,
                                 _mul=mul, _inv=tuple(inv))


def field_alphabet(q: int) -> Alphabet:
    """Like alphabet(q) but insist on a field."""
    a = alphabet(q)
    if not a.is_field:
        raise FieldRequiredError(f"q={q} is not a prime power")
    return a


# -- matrices over GF(q) -------------------------------------------------------


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix of element labels over a field alphabet."""

    alphabet: Alphabet
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.alphabet.is_field:
            raise FieldRequiredError("matrices require a field alphabet")
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        q = self.alphabet.q
        for r in self.rows:
            for x in r:
                if not (0 <= x < q):
                    raise ValueError(f"entry {x} out of range for q={q}")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))

    def take_columns(self, cols: Sequence[int]) -> GFMatrix:
        """The columns at the given indices, in that order."""
        return GFMatrix(self.alphabet, tuple(tuple(r[j] for j in cols) for r in self.rows))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def gf_matrix(alpha: Alphabet, rows: Iterable[Iterable[int]]) -> GFMatrix:
    return GFMatrix(alpha, tuple(tuple(int(x) for x in r) for r in rows))


def gf_identity(alpha: Alphabet, n: int) -> GFMatrix:
    return gf_matrix(alpha, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def hstack(mats: Sequence[GFMatrix]) -> GFMatrix:
    alpha = mats[0].alphabet
    nrows = mats[0].nrows
    if any(m.alphabet != alpha or m.nrows != nrows for m in mats):
        raise ValueError("hstack needs matching alphabets and row counts")
    rows = [sum((tuple(m.rows[i]) for m in mats), ()) for i in range(nrows)]
    return GFMatrix(alpha, tuple(rows))


def mat_vec(m: GFMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    """m times the column vector vec, as a tuple of labels."""
    alpha = m.alphabet
    out = []
    for row in m.rows:
        acc = 0
        for a, x in zip(row, vec):
            if a and x:
                acc = alpha.add(acc, alpha.mul(a, x))
        out.append(acc)
    return tuple(out)


def rref(m: GFMatrix) -> tuple[GFMatrix, int, list[int]]:
    """Reduced row-echelon form, rank and pivot columns (unique for m)."""
    alpha = m.alphabet
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), m.ncols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = alpha.inv(rows[r][col])
        if inv != 1:
            rows[r] = [alpha.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [alpha.sub(x, alpha.mul(c, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    reduced = GFMatrix(alpha, tuple(tuple(row) for row in rows))
    return reduced, r, pivots


def rank(m: GFMatrix) -> int:
    return rref(m)[1]


def nullspace_basis(m: GFMatrix) -> GFMatrix:
    """Canonical basis of the right nullspace {x : m x^T = 0}.

    One row per free column of the RREF, in increasing free-column order;
    each row carries a 1 in its own free position.  An m = [I_r | A] is its
    own RREF, so its basis [-A^T | I] is read off without row reduction.
    """
    alpha = m.alphabet
    n, r = m.ncols, m.nrows
    if r <= n and all(row[i] == 1 and not any(row[:i]) and not any(row[i + 1:r])
                      for i, row in enumerate(m.rows)):
        neg = alpha._neg
        return GFMatrix(alpha, tuple(
            tuple(neg[row[f]] for row in m.rows) + tuple(int(j == f) for j in range(r, n))
            for f in range(r, n)))
    return _nullspace_by_rref(m)


def _nullspace_by_rref(m: GFMatrix) -> GFMatrix:
    """The basis read off the RREF of m, for any m not of the form [I_r | A]."""
    alpha, n = m.alphabet, m.ncols
    reduced, _, pivots = rref(m)
    free = [j for j in range(n) if j not in pivots]
    rows = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = alpha.neg(reduced.rows[i][f])
        rows.append(tuple(vec))
    return GFMatrix(alpha, tuple(rows))
