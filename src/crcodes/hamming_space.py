"""Words of Q^n, Hamming distance, neighbor iteration, and explicit codes.

A word is an integer in [0, q^n): digit i of the base-q expansion is the
symbol at coordinate i (coordinate 0 is the lowest-order digit).  Display
strings list coordinate 0 first.  All reported member lists are sorted on
this encoding so output is reproducible.

Operations that list words or syndromes (the full space, a code's members,
a certificate's q^rank syndromes) check their count against a configurable
cap, 2^26 by default.  It counts entries, not bytes: the syndrome
certificate peaks at 70-74 MB at 2^21 syndromes.

Words add digit by digit over the alphabet through `translate`, which moves
a whole list of words by one offset: coset partitions, the additivity check
and Cayley-graph walks all use it.

A linear code holds only H, the echelon E that names its syndromes Ex (H
itself when H = [I_r | A], else RREF(H), row-reduced once) and its rank;
its q^k members are spanned from the nullspace basis of E on first read and
cached, and that read is refused above the vertex cap.  Its size,
membership (Hx = 0), the syndrome certificate and the minimum distance that
certificate reports read only H and E, so certifying such a code lists no
member.  Codes derived from a linear code (factors on a block, the reduced
code, cartesian products) are cut from its H and list nothing either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .algebra import (
    Alphabet,
    GFMatrix,
    alphabet,
    echelon_nullspace,
    is_systematic,
    mat_vec,
    nullspace_basis,
    rref,
)
from .errors import (
    CapacityError,
    FieldRequiredError,
    NotAdditiveError,
    UndefinedMinimumDistanceError,
)

DEFAULT_VERTEX_CAP = 1 << 26
_TABLE_CAP = 1 << 17
_TABLE_CACHE_SIZE = 4
ADDITIVE_CHECK_WORDS = 1 << 10

_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ+/"


@dataclass(frozen=True)
class AmbientSpace:
    """The Hamming graph H(n, q): length-n words over a size-q alphabet."""

    n: int
    alphabet: Alphabet
    max_vertices: int = DEFAULT_VERTEX_CAP

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("word length must be >= 1")

    @property
    def q(self) -> int:
        return self.alphabet.q

    @property
    def size(self) -> int:
        return self.q**self.n

    @property
    def valency(self) -> int:
        return self.n * (self.q - 1)

    def require_materializable(self, what: str = "operation", count: int | None = None) -> None:
        """Refuse to list `count` vertices (all q^n by default) above the cap."""
        count = self.size if count is None else count
        if count > self.max_vertices:
            raise CapacityError(
                f"{what} would materialize {count} vertices "
                f"(cap {self.max_vertices}); raise max_vertices explicitly to proceed"
            )


def ambient(n: int, q: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> AmbientSpace:
    return AmbientSpace(n=n, alphabet=alphabet(q), max_vertices=max_vertices)


def encode(digits: Sequence[int], q: int) -> int:
    word = 0
    for d in reversed(digits):
        if not (0 <= d < q):
            raise ValueError(f"symbol {d} out of range for q={q}")
        word = word * q + d
    return word


def decode(word: int, n: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        word, d = divmod(word, q)
        out.append(d)
    if word:
        raise ValueError("encoding out of range")
    return tuple(out)


def word_string(word: int, space: AmbientSpace) -> str:
    return "".join(_SYMBOLS[d] for d in decode(word, space.n, space.q))


def weight(word: int, space: AmbientSpace) -> int:
    q, w = space.q, 0
    while word:
        word, d = divmod(word, q)
        if d:
            w += 1
    return w


def distance(u: int, v: int, space: AmbientSpace) -> int:
    """Number of coordinates where u and v differ."""
    q = space.q
    if q == 2:
        return bin(u ^ v).count("1")
    d = 0
    while u or v:
        u, du = divmod(u, q)
        v, dv = divmod(v, q)
        if du != dv:
            d += 1
    return d


def neighbors(u: int, space: AmbientSpace) -> list[int]:
    """The n(q-1) words at distance 1, coordinate-major then symbol-ascending."""
    q, n = space.q, space.n
    if q == 2:
        return [u ^ (1 << i) for i in range(n)]
    out = []
    base = u
    mult = 1
    for _ in range(n):
        base, d = divmod(base, q)
        anchor = u - d * mult
        out.extend(anchor + s * mult for s in range(q) if s != d)
        mult *= q
    return out


class _NeighborView:
    """Neighbour lists computed on demand, for spaces too large to tabulate."""

    def __init__(self, space: AmbientSpace):
        self.space = space

    def __getitem__(self, v: int) -> list[int]:
        return neighbors(v, self.space)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tabulate(n: int, q: int) -> list[list[int]]:
    space = ambient(n, q)
    return [neighbors(v, space) for v in range(space.size)]


def neighbor_table(space: AmbientSpace):
    """The neighbour lists of H(n, q), indexed by word: a cached table for
    spaces of at most _TABLE_CAP words (the last _TABLE_CACHE_SIZE are kept),
    ``neighbors(v, space)`` on demand above that."""
    if space.size > _TABLE_CAP:
        return _NeighborView(space)
    return _tabulate(space.n, space.q)


def translate(words: Sequence[int], offset: int, alpha: Alphabet) -> list[int]:
    """Each word plus `offset`, digit by digit over the alphabet: one pass per
    nonzero digit of the offset, through a q-entry table of digit shifts."""
    if alpha.is_field and alpha.p == 2:
        return [w ^ offset for w in words]  # digit-wise GF(2^e) addition
    q, add = alpha.q, alpha._add
    out, mult = list(words), 1
    while offset:
        offset, d = divmod(offset, q)
        if d:
            shift = [(add[x][d] - x) * mult for x in range(q)]
            out = [w + shift[w // mult % q] for w in out]
        mult *= q
    return out


def column_offsets(h: GFMatrix) -> list[int]:
    """lambda*h_j for every column j and nonzero lambda, as syndrome words;
    zero columns give 0 (loops) and repeated columns repeat."""
    return [s for col in h.columns() for s in _scaled_column(h.alphabet.q, col)]


@lru_cache(maxsize=4096)  # a census length has a few hundred distinct columns
def _scaled_column(q: int, col: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(encode([alphabet(q)._mul[lam][x] for x in col], q) for lam in range(1, q))


def sphere_size(space: AmbientSpace, radius: int) -> int:
    from math import comb

    return sum(comb(space.n, i) * (space.q - 1) ** i for i in range(radius + 1))


# -- codes ---------------------------------------------------------------------


@dataclass(frozen=True)
class LinearStructure:
    """H and the echelon E that names every syndrome.

    E is H itself when H = [I_r | A], with `pivots` None; otherwise it is
    the nonzero rows of RREF(H), with their pivot columns.  Either way its
    rows are a basis of H's row space, so the syndromes Ex are exactly the
    q^rank words of GF(q)^rank, and E, its pivots and the rank are set once,
    from H, when the structure is built.  The code's generators are the
    nullspace basis read off E and its pivots, and only spanning the members
    reads them.  Structures compare by H, which fixes the code."""

    parity_check: GFMatrix
    echelon: GFMatrix = field(init=False, compare=False, repr=False)
    pivots: tuple[int, ...] | None = field(init=False, compare=False, repr=False)
    rank: int = field(init=False, compare=False)

    def __post_init__(self):
        h = self.parity_check
        if is_systematic(h):
            echelon, rank, pivots = h, h.nrows, None
        else:
            reduced, rank, pivots = rref(h)
            echelon, pivots = GFMatrix(h.alphabet, reduced.rows[:rank]), tuple(pivots)
        object.__setattr__(self, "echelon", echelon)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "rank", rank)

    def least_word(self, syndrome: int) -> int:
        """The least x with Ex = `syndrome`: its digits on E's pivots (itself
        when E = [I_r | A]).  Pivots ascend, so this keeps syndrome order."""
        q = self.echelon.alphabet.q
        return syndrome if self.pivots is None else sum(
            syndrome // q**i % q * q**j for i, j in enumerate(self.pivots))


class Code:
    """A nonempty set of words of H(n, q), optionally with linear structure.

    `members` is the sorted tuple of encodings.  A code given only its linear
    structure (``members=None``) spans the nullspace basis of its echelon
    the first time the members are read and keeps them; its size
    (q^(n - rank)) and membership never need them.  Codes are immutable values: equality compares space,
    linear structure and the members (of a linear code only when both codes
    list them), and the hash of a linear code is taken from its space and
    structure alone.
    """

    __slots__ = ("ambient", "linear", "_members", "_member_set")

    def __init__(self, ambient: AmbientSpace, members: tuple[int, ...] | None = None,
                 linear: LinearStructure | None = None):
        if members is None:
            if linear is None:
                raise ValueError("a code without listed members needs linear structure")
        else:
            if not members:
                raise ValueError("codes are nonempty")
            prev = -1
            for w in members:
                if w <= prev:
                    raise ValueError("members must be strictly sorted")
                prev = w
            if prev >= ambient.size:
                raise ValueError("member encoding out of range")
        for name, value in (("ambient", ambient), ("linear", linear),
                            ("_members", members), ("_member_set", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Code is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle through the constructor
        return Code, (self.ambient, self._members, self.linear)

    @property
    def members(self) -> tuple[int, ...]:
        if self._members is None:
            space, linear = self.ambient, self.linear
            space.require_materializable("spanning the members", self.size)
            # n comes from the space: an H with no rows has no columns
            pivots = linear.pivots or range(linear.rank)
            basis = echelon_nullspace(linear.echelon, pivots, space.n)
            object.__setattr__(self, "_members", tuple(_span(space, basis)))
        return self._members

    @property
    def size(self) -> int:
        if self.linear is not None:
            return self.ambient.q ** (self.ambient.n - self.linear.rank)
        return len(self._members)

    @property
    def is_linear(self) -> bool:
        return self.linear is not None

    def __contains__(self, word: int) -> bool:
        """Hx = 0 for a linear code, a lookup in the member set (built on
        first use) otherwise.  Words outside [0, q^n) are not members."""
        if self.linear is None:
            if self._member_set is None:
                object.__setattr__(self, "_member_set", frozenset(self._members))
            return word in self._member_set
        space = self.ambient
        return 0 <= word < space.size and not any(
            mat_vec(self.linear.parity_check, decode(word, space.n, space.q)))

    def word_strings(self) -> list[str]:
        return [word_string(w, self.ambient) for w in self.members]

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        if self.ambient != other.ambient or self.linear != other.linear:
            return False
        if self._members is None or other._members is None:
            return True  # equal linear structure fixes the members: no span
        return self.members == other.members

    def __hash__(self):
        if self.linear is not None:
            return hash((self.ambient, self.linear))
        return hash((self.ambient, self._members))

    def __repr__(self):
        listed = f"members={self._members!r}" if self.linear is None else f"size={self.size}"
        return f"Code(ambient={self.ambient!r}, {listed}, linear={self.linear!r})"

    def to_json(self) -> dict:
        """The code-spec form: the parity check of a linear code, which lists
        no member, the words of any other."""
        space = self.ambient
        if self.linear is not None:
            return {"type": "linear", "q": space.q, "n": space.n,
                    "parity_check": self.linear.parity_check.to_lists()}
        return {"type": "words", "q": space.q, "n": space.n,
                "words": [list(decode(w, space.n, space.q)) for w in self._members]}


def _normalize_words(space: AmbientSpace, words: Iterable) -> list[int]:
    out = []
    for w in words:
        if isinstance(w, int):
            if not (0 <= w < space.size):
                raise ValueError(f"encoding {w} out of range")
            out.append(w)
        else:
            digits = list(w)
            if len(digits) != space.n:
                raise ValueError(f"word {w} has length {len(digits)}, expected {space.n}")
            out.append(encode(digits, space.q))
    return out


def code_from_words(space: AmbientSpace, words: Iterable, *, additive: bool | None = None) -> Code:
    encs = _normalize_words(space, words)
    if len(set(encs)) != len(encs):
        raise ValueError("duplicate words")
    code = Code(space, tuple(sorted(encs)))
    if additive and not is_additive(code):
        raise NotAdditiveError("declared-additive word set is not closed under subtraction")
    return code


def is_additive(code: Code) -> bool:
    """Closure under addition: a finite nonempty set closed under + is a
    subgroup of Q^n.  A word-listed code is checked on all |C|^2 sums, so it
    may have at most ADDITIVE_CHECK_WORDS words."""
    if code.is_linear:
        return True
    if 0 not in code:
        return False
    members = code.members
    if len(members) > ADDITIVE_CHECK_WORDS:
        raise CapacityError(
            f"additivity check of {len(members)} listed words would compare "
            f"{len(members)}^2 sums (cap {ADDITIVE_CHECK_WORDS} words)")
    alpha = code.ambient.alphabet
    return all(w in code for v in members for w in translate(members, v, alpha))


def _span(space: AmbientSpace, basis: GFMatrix) -> list[int]:
    """All GF(q)-linear combinations of the basis rows, as encodings."""
    alpha = space.alphabet
    q, mul = alpha.q, alpha._mul
    span = [0]
    for row in basis.rows:
        span = [w for c in range(q)
                for w in translate(span, encode([mul[c][x] for x in row], q), alpha)]
    if len(set(span)) != len(span):
        raise ValueError("basis rows are linearly dependent")
    return sorted(span)


def code_from_parity_check(space: AmbientSpace, h: GFMatrix) -> Code:
    """The code {x : H x^T = 0}.  The given H is kept verbatim; E and the
    rank are read off it with no row reduction when H = [I_r | A], and the
    members are spanned only when something reads them."""
    if not space.alphabet.is_field:
        raise FieldRequiredError("parity-check codes need a field alphabet")
    if h.alphabet != space.alphabet or h.ncols != space.n:
        raise ValueError("parity check does not match the ambient space")
    return Code(space, None, LinearStructure(h))


def code_from_generators(space: AmbientSpace, g: GFMatrix) -> Code:
    if not space.alphabet.is_field:
        raise FieldRequiredError("generator codes need a field alphabet")
    if g.alphabet != space.alphabet or g.ncols != space.n:
        raise ValueError("generator matrix does not match the ambient space")
    return Code(space, None, LinearStructure(nullspace_basis(g)))


def minimum_distance(code: Code) -> int:
    """Least pairwise distance; weight enumeration in the linear case."""
    if code.size < 2:
        raise UndefinedMinimumDistanceError("need at least two codewords")
    space = code.ambient
    if code.is_linear:
        return min(weight(w, space) for w in code.members if w)
    members = code.members
    return min(
        distance(members[i], members[j], space)
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )
