"""Distance partitions, complete-regularity certificates, and exact spectra.

The spectrum of a certified code is computed entirely in integer arithmetic:
candidate eigenvalues are the ambient Hamming eigenvalues n(q-1) - q*j, and
the characteristic polynomial of the tridiagonal quotient matrix is evaluated
with the three-term recurrence

    p_{-1} = 1,  p_0 = a_0 - x,  p_i = (a_i - x) p_{i-1} - b_{i-1} g_i p_{i-2}

so there are no tolerances anywhere.  The candidate scan is complete because
the quotient matrix of an equitable partition only has graph eigenvalues.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache

from .algebra import alphabet, is_systematic, rref
from .errors import SpectrumError, TheoremViolationError
from .hamming_space import (
    Code,
    code_from_parity_check,
    code_from_words,
    column_offsets,
    decode,
    neighbor_table,
    neighbors,
    ambient,
    translate,
)


@dataclass(frozen=True)
class DistancePartition:
    """Classes C_0..C_rho of H(n,q) by distance to a code."""

    code: Code
    class_of: bytes
    rho: int
    class_sizes: tuple[int, ...]


def distance_partition(code: Code) -> DistancePartition:
    """Multi-source BFS from all codewords; class_of[x] = d(x, C)."""
    space = code.ambient
    space.require_materializable("distance partition")
    size = space.size
    dist = bytearray([255]) * size  # unvisited; rho <= n <= 26 under the default cap
    frontier = deque(code.members)
    for w in code.members:
        dist[w] = 0
    table = neighbor_table(space)
    while frontier:
        v = frontier.popleft()
        d = dist[v] + 1
        for w in table[v]:
            if dist[w] == 255:
                dist[w] = d
                frontier.append(w)
    rho = max(dist)
    sizes = [0] * (rho + 1)
    for d in dist:
        sizes[d] += 1
    return DistancePartition(code, bytes(dist), rho, tuple(sizes))


def covering_radius(code: Code) -> int:
    return distance_partition(code).rho


@dataclass(frozen=True)
class IntersectionNumbers:
    """Per-class neighbor counts (gamma into class i-1, alpha same, beta i+1)."""

    gamma: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    @property
    def rho(self) -> int:
        return len(self.gamma) - 1

    @property
    def k(self) -> int:
        return self.gamma[0] + self.alpha[0] + self.beta[0]

    def validate(self) -> None:
        k = self.k
        rho = self.rho
        if self.gamma[0] != 0 or self.beta[rho] != 0:
            raise TheoremViolationError(
                "gamma_0 and beta_rho must be 0", witness=self)
        for i in range(rho + 1):
            if self.gamma[i] + self.alpha[i] + self.beta[i] != k:
                raise TheoremViolationError(
                    f"row sum broken at class {i}", witness=self)
            if (i >= 1 and self.gamma[i] < 1) or (i < rho and self.beta[i] < 1):
                raise TheoremViolationError(
                    f"class {i} is cut off from a neighbouring class", witness=self)


@dataclass(frozen=True)
class CrWitness:
    """Two vertices of one distance class with conflicting neighbor counts."""

    class_index: int
    direction: str  # "previous" | "same" | "next"
    vertex_a: int
    count_a: int
    vertex_b: int
    count_b: int

    def to_json(self) -> dict:
        return {
            "class": self.class_index,
            "direction": self.direction,
            "vertex_a": self.vertex_a,
            "count_a": self.count_a,
            "vertex_b": self.vertex_b,
            "count_b": self.count_b,
        }


@dataclass(frozen=True)
class CrCertificate:
    completely_regular: bool
    partition: DistancePartition | SyndromePartition
    numbers: IntersectionNumbers | None = None
    witness: CrWitness | None = None


_DIRECTIONS = ("previous", "same", "next")


@dataclass(frozen=True)
class SyndromePartition:
    """Distance classes of a linear code, read off its syndromes.

    Translation by a codeword is an automorphism of H(n,q) fixing the code,
    so d(x, C) depends only on the syndrome s = Hx, taken with the row basis
    of H: the BFS distance of s from 0 in the Cayley graph on GF(q)^r with
    connection multiset {lambda*h_j}.  class_of_syndrome[s] holds it in one
    byte (rho <= r <= 26 under the default vertex cap, as every syndrome is
    a sum of at most r independent columns); class i has (syndromes at
    distance i) * |C| words, and `distance_partition` is the word map.

    delta is the minimum distance (None for the zero code).  Let t be the
    largest radius with |L_j| = C(n,j)(q-1)^j for every j <= t, L_j the
    syndromes at distance j: the words of weight <= t have distinct
    syndromes, so delta >= 2t+1.  The E edges from L_t into L_(t+1), with
    column multiplicity, are t+1 per weight-(t+1) word whose syndrome lies
    in L_(t+1); past the last layer E = 0.  If E < (t+1)C(n,t+1)(q-1)^(t+1),
    a weight-(t+1) word shares its syndrome with a lighter one and delta =
    2t+1; otherwise two weight-(t+1) words share one and delta = 2t+2.
    """

    code: Code
    class_of_syndrome: bytes
    rho: int
    class_sizes: tuple[int, ...]
    delta: int | None


def _least_words(offsets, alpha):
    """(least word, syndrome) for every syndrome, in encoding order of the words.

    `offsets` lists lambda*h_j for lambda = 1..q-1, column by column, as
    `column_offsets` does.  The least words lie on the greedy basis P (h_j
    kept when it is not a combination of the kept lower columns: RREF(H)'s
    pivots) and are listed one kept coordinate j at a time, the list so far
    with lambda*q^j added and translated by lambda*h_j.  So the u-th word
    listed has RREF syndrome u: the listing relabels a class map to H.
    """
    q = alpha.q
    words, syndromes, spanned = [0], [0], {0}
    yield 0, 0
    for j in range(len(offsets) // (q - 1)):
        column = offsets[j * (q - 1):(j + 1) * (q - 1)]
        if column[0] in spanned:
            continue
        size = len(words)
        for lam, s in enumerate(column, 1):
            shift = lam * q**j
            words += [w + shift for w in words[:size]]
            syndromes += translate(syndromes[:size], s, alpha)
            yield from zip(words[-size:], syndromes[-size:])
        spanned.update(syndromes[size:])


def first_conflict(rows):
    """Compare each row's counts with those of the first row of its class.

    rows yields (vertex, class, counts) in scan order.  Returns (references,
    conflict): references maps each class met to its first vertex's counts,
    and conflict is None, or (class, first vertex, its counts, vertex, its
    counts) for the first vertex that differs, where the scan stops.
    """
    reference, first = {}, {}
    for v, c, counts in rows:
        ref = reference.get(c)
        if ref is None:
            reference[c] = counts
            first[c] = v
        elif ref != counts:
            return reference, (c, first[c], ref, v, counts)
    return reference, None


def layer_counts(dist, adjacency, vertices):
    """Rows (vertex, layer, (previous, same, next)) for the `first_conflict`
    scan: a vertex's neighbours one layer down, in its own layer and one
    layer up.  `dist` must move by at most one along an edge, as a BFS
    distance or the distance to a code does."""
    for v in vertices:
        c = dist[v]
        prev = same = nxt = 0
        for w in adjacency[v]:
            dw = dist[w]
            if dw == c:
                same += 1
            elif dw < c:
                prev += 1
            else:
                nxt += 1
        yield v, c, (prev, same, nxt)


def _scan(part, rows) -> CrCertificate:
    """The certificate of rows (vertex, class, (previous, same, next)): the
    first vertex that differs from the first vertex of its class is the
    witness."""
    reference, conflict = first_conflict(rows)
    if conflict is None:  # (gamma, alpha, beta) of each class, validated
        numbers = IntersectionNumbers(*zip(*(reference[c] for c in range(part.rho + 1))))
        numbers.validate()
        return CrCertificate(True, part, numbers=numbers)
    c, a, counts_a, b, counts_b = conflict
    which = next(i for i in range(3) if counts_a[i] != counts_b[i])
    return CrCertificate(False, part, witness=CrWitness(
        c, _DIRECTIONS[which], a, counts_a[which], b, counts_b[which]))


# -- lane vectors ----------------------------------------------------------------
#
# A lane vector is one Python int holding one `width`-byte lane per syndrome:
# lane s is bits [8*width*s, 8*width*(s+1)).  A field label is the base-p
# digit string of a polynomial and labels add digit-wise mod p (see
# `algebra._add_table`), so the q^r syndromes are the base-p strings of
# length r*e and translating every lane by an offset moves each p-ary digit
# independently.  For a nonzero digit d at place i, lanes whose digit is
# below p-d move up d*p^i lanes and the rest move down (p-d)*p^i lanes: one
# mask, two shifts.  In characteristic 2 that is a swap of lane-index bit i.

_LANE_CACHE_SIZE = 4
_LANE_FORMATS = {2: "H", 4: "I", 8: "Q"}


class _Lanes:
    """Lane-vector arithmetic on the q^r syndromes, `width` bytes a lane.

    Masks are built on first use, one per (digit place, digit), and shared by
    every offset's plan: r*e*(p-1) masks of q^r lanes at most, which is at
    most r*q*q^r bytes for byte lanes.
    """

    def __init__(self, q: int, r: int, width: int):
        alpha = alphabet(q)
        self.p, self.places = alpha.p, r * alpha.e
        self.size, self.width = q**r, width
        self.bits = 8 * width
        self.full = (1 << self.bits) - 1
        self.ones = int.from_bytes(b"\x01".ljust(width, b"\0") * self.size, "little")
        # shifts by bits/2, bits/4, ..., 1 OR every bit of a lane onto its lowest
        self.folds = tuple(1 << k for k in reversed(range(self.bits.bit_length() - 1)))
        self._masks: dict[tuple[int, int], int] = {}
        self._plans: dict[int, tuple] = {}

    def _mask(self, place: int, digit: int) -> int:
        """All ones on the lanes whose p-ary digit at `place` is below p-digit."""
        key = (place, digit)
        mask = self._masks.get(key)
        if mask is None:
            block = self.p**place * self.width
            period = b"\xff" * (block * (self.p - digit)) + bytes(block * digit)
            mask = int.from_bytes(period * (self.size * self.width // (block * self.p)),
                                  "little")
            self._masks[key] = mask
        return mask

    def plan(self, offset: int) -> tuple[tuple[int, int, int], ...]:
        """(mask, up, down) bit shifts translating every lane by `offset`."""
        steps = self._plans.get(offset)
        if steps is None:
            p, out, stride, rest = self.p, [], self.bits, offset
            for place in range(self.places):
                rest, d = divmod(rest, p)
                if d:
                    out.append((self._mask(place, d), d * stride, (p - d) * stride))
                stride *= p
            steps = self._plans[offset] = tuple(out)
        return steps

    @staticmethod
    def translate(vector: int, steps) -> int:
        for mask, up, down in steps:
            low = vector & mask
            vector = (low << up) | ((vector ^ low) >> down)
        return vector

    def nonzero(self, vector: int) -> int:
        """1 in each lane of `vector` that is nonzero, 0 elsewhere."""
        for k in self.folds:
            vector |= vector >> k
        return vector & self.ones

    def read(self, vector: int):
        """The lanes as bytes for byte lanes, as a list of ints otherwise."""
        raw = vector.to_bytes(self.size * self.width, sys.byteorder)
        if self.width == 1:
            return raw
        return memoryview(raw).cast(_LANE_FORMATS[self.width]).tolist()


@lru_cache(maxsize=_LANE_CACHE_SIZE)
def _lanes(q: int, r: int, width: int) -> _Lanes:
    return _Lanes(q, r, width)


def _lane_width(degree: int) -> int:
    """Bytes per lane holding counts up to the valency."""
    width = 1
    while degree >> (8 * width):
        width *= 2
    return width


def _certify_by_syndrome(code: Code) -> CrCertificate:
    """BFS from syndrome 0 in the coset graph, one layer at a time.

    Syndromes are taken with E = RREF(H), so they are the q^rank words of
    GF(q)^rank, and the least word with syndrome u is u's digits on E's
    pivot columns (u itself, with no pivots listed, when H = [I_r | A] is
    its own E): lane order is least-word order.  N_c counts, in lane s, the
    neighbours of s in layer L_c, loops aside: N_0 is read off the column
    offsets, N_c sums L_c translated by each.  Its unseen nonzero lanes are
    L_(c+1); on L_(c+1) it is the previous count, on L_c the same count.
    The last layer is not translated: its same count is the loop-free
    degree less its previous count.  Each layer adds its lowest lane's
    counts times L_c to two reference vectors.  The code is CR exactly when
    the counts equal them; otherwise the lowest lane that differs and the
    lowest lane of its class give the full-space scan's witness.  The class
    map is then renamed to the syndromes of the row basis; delta is as in
    `SyndromePartition`.  The q^rank syndromes are held to the vertex cap.
    """
    space = code.ambient
    rows = code.linear.row_basis()
    q, n, size = rows.alphabet.q, space.n, code.size
    space.require_materializable("syndrome certificate", q**rows.nrows)
    h, _, pivots = (rows, 0, None) if is_systematic(rows) else rref(rows)
    multiplicity = Counter(column_offsets(h))
    loops = multiplicity.pop(0, 0)
    moves = space.valency - loops  # the loop-free degree
    lanes = _lanes(q, h.nrows, _lane_width(space.valency))
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
            if not reached:
                raise TheoremViolationError(
                    "columns of a full-rank parity check do not reach every syndrome",
                    witness={"syndrome": ((unseen & -unseen).bit_length() - 1) // bits,
                             "reached": lanes.size - unseen.bit_count()})
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
            delta = 2 * c + 1 if sum(lanes.read(back)) < (c + 1) * shell else 2 * c + 2
        layer = reached
        if unseen:
            around = sum(move(layer, plan) * k for plan, k in steps)
    class_of = bytes(lanes.read(dist))

    def row(s):
        g, m = prev >> s * bits & full, same >> s * bits & full
        word = s if pivots is None else sum(s // q**i % q * q**j for i, j in enumerate(pivots))
        return word, dist >> s * bits & full, (g, m + loops, moves - g - m)

    differ = (prev ^ prev_ref) | (same ^ same_ref)
    if differ:  # the lowest lane that differs, after the lowest lane of its class
        b = ((differ & -differ).bit_length() - 1) // bits
        firsts = [firsts[class_of[b]], b]
    if h.rows != rows.rows:  # name each coset by its syndrome under the row basis
        relabeled = bytearray(len(class_of))
        for u, (_, s) in enumerate(_least_words(column_offsets(rows), rows.alphabet)):
            relabeled[s] = class_of[u]  # the u-th least word has E-syndrome u
        class_of = bytes(relabeled)
    part = SyndromePartition(code, class_of, c, tuple(sizes), delta)
    return _scan(part, map(row, firsts))


# Spaces of at most this many words (binary length 7) are also certified word
# by word, and the two certificates must agree: a runtime differential check
# of the syndrome path, under a millisecond per code.  The oracle lists the
# code as the words x with Hx = 0, so the member span stays unread.
_CROSS_CHECK_WORDS = 1 << 7


def _zero_syndrome_words(code: Code) -> Code:
    """The words x with Hx = 0, as a word-listed code.  The syndromes of all
    q^n words are built in encoding order a coordinate j at a time: the list
    so far, translated by lambda*h_j for lambda = 0..q-1."""
    space = code.ambient
    alpha, q = space.alphabet, space.q
    # a row basis of rank 0 has no rows, and so no columns: all are zero
    offsets = column_offsets(code.linear.row_basis()) or [0] * space.valency
    syndromes = [0]
    for j in range(0, len(offsets), q - 1):
        syndromes = [t for s in (0, *offsets[j:j + q - 1])
                     for t in translate(syndromes, s, alpha)]
    return Code(space, tuple(x for x, s in enumerate(syndromes) if not s))


def certify_completely_regular(code: Code, partition: DistancePartition | None = None) -> CrCertificate:
    """Check the distance partition is equitable; witness the first conflict.

    A linear code is certified on the q^rank syndromes of the row basis of
    its parity check, whether or not the rows of H are independent; the
    verdict, numbers, class sizes and witness are those of the full-space
    scan, which runs for word-listed codes and whenever a word-indexed
    `partition` is passed in.
    """
    if partition is None and code.is_linear:
        cert = _certify_by_syndrome(code)
        if code.ambient.size <= _CROSS_CHECK_WORDS:
            listed = _zero_syndrome_words(code)
            _cross_check(cert, _certify_words(listed, distance_partition(listed)))
        return cert
    return _certify_words(
        code, partition if partition is not None else distance_partition(code))


def _cross_check(by_syndrome: CrCertificate, by_words: CrCertificate) -> None:
    def summary(cert):
        return (cert.completely_regular, cert.numbers, cert.witness,
                cert.partition.rho, cert.partition.class_sizes)

    if summary(by_syndrome) != summary(by_words):
        raise TheoremViolationError(
            "syndrome and full-space certificates disagree",
            witness={"syndrome": summary(by_syndrome), "words": summary(by_words)})


def _certify_words(code: Code, part: DistancePartition) -> CrCertificate:
    """The equitability scan over all q^n words."""
    space = code.ambient
    return _scan(part, layer_counts(part.class_of, neighbor_table(space), range(space.size)))


def recount_witness(code: Code, witness: CrWitness) -> tuple[int, int]:
    """Replay a non-CR witness by direct neighbor counting, no class map reuse."""
    space = code.ambient
    members = code.members

    def dist_to_code(v):
        from .hamming_space import distance

        return min(distance(v, m, space) for m in members)

    offset = {"previous": -1, "same": 0, "next": 1}[witness.direction]
    target = witness.class_index + offset
    counts = []
    for v in (witness.vertex_a, witness.vertex_b):
        d = dist_to_code(v)
        if d != witness.class_index:
            raise TheoremViolationError("witness vertex is not in its claimed class",
                                        witness={"vertex": v, "distance": d})
        counts.append(sum(1 for w in neighbors(v, space) if dist_to_code(w) == target))
    return tuple(counts)


# -- quotient matrix and spectra -----------------------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    """The (rho+1)-square tridiagonal matrix of intersection numbers."""

    matrix: tuple[tuple[int, ...], ...]
    numbers: IntersectionNumbers

    @property
    def rho(self) -> int:
        return len(self.matrix) - 1

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.matrix]


def _tridiagonal(diag, sub, sup) -> tuple[tuple[int, ...], ...]:
    """The square matrix with diagonal diag, sub[i-1] left of diag[i] and
    sup[i] right of it."""
    rows = [[0] * len(diag) for _ in diag]
    for i, x in enumerate(diag):
        rows[i][i] = x
    for i, (low, high) in enumerate(zip(sub, sup)):
        rows[i + 1][i], rows[i][i + 1] = low, high
    return tuple(map(tuple, rows))


def quotient_matrix(numbers: IntersectionNumbers) -> QuotientMatrix:
    numbers.validate()
    return QuotientMatrix(_tridiagonal(numbers.alpha, numbers.gamma[1:],
                                       numbers.beta[:numbers.rho]), numbers)


def _charpoly_at(diag, sub, sup, x: int) -> int:
    """det(T - x I) for tridiagonal T given by its three bands."""
    p_prev, p = 1, diag[0] - x
    for i in range(1, len(diag)):
        p_prev, p = p, (diag[i] - x) * p - sup[i - 1] * sub[i - 1] * p_prev
    return p


def tridiagonal_eigenvalues(diag, sub, sup, candidates) -> tuple[int, ...]:
    """The candidates that are roots of det(T - x I), largest first.  Raises
    SpectrumError when they are fewer than the rows of T: some eigenvalue
    is not a candidate."""
    roots = sorted((x for x in candidates if _charpoly_at(diag, sub, sup, x) == 0),
                   reverse=True)
    if len(roots) < len(diag):
        raise SpectrumError(f"found {len(roots)} of the {len(diag)} eigenvalues of a "
                            "tridiagonal matrix among its candidates")
    return tuple(roots)


def code_spectrum(u: QuotientMatrix, space) -> tuple[int, ...]:
    """Eigenvalues of U by exact scan over the ambient eigenvalues n(q-1)-qj;
    a matrix that is not the quotient of a code in this space fails it."""
    n, q = space.n, space.q
    numbers = u.numbers
    roots = tridiagonal_eigenvalues(numbers.alpha, numbers.gamma[1:], numbers.beta[:u.rho],
                                    [n * (q - 1) - q * j for j in range(n + 1)])
    if roots[0] != space.valency:
        raise TheoremViolationError("largest quotient eigenvalue is not the valency",
                                    witness={"roots": list(roots), "valency": space.valency})
    return roots


def _charpoly_coefficients(diag, sub, sup) -> list[int]:
    """Coefficients of det(T - x I), ascending powers of x, exact integers."""
    p_prev = [1]
    p = [diag[0], -1]
    for i in range(1, len(diag)):
        # (diag[i] - x) * p  -  sup[i-1]*sub[i-1] * p_prev
        shifted = [0] + p
        term = [diag[i] * c for c in p] + [0]
        nxt = [t - s for t, s in zip(term, shifted)]
        w = sup[i - 1] * sub[i - 1]
        for j, c in enumerate(p_prev):
            nxt[j] -= w * c
        p_prev, p = p, nxt
    return p


def _poly_from_roots(roots) -> list[int]:
    out = [1]
    for r in roots:
        # multiply by (r - x), matching the det(T - xI) sign convention
        nxt = [0] * (len(out) + 1)
        for j, c in enumerate(out):
            nxt[j] += r * c
            nxt[j + 1] -= c
        out = nxt
    return out


def tridiagonal_formula_spectrum(k: int, gamma: int, beta: int, rho: int) -> tuple[int, ...]:
    """Spectrum {k - (gamma+beta)*i : 0 <= i <= rho} of the model tridiagonal
    matrix with sub-band i*gamma and super-band (rho-i)*beta, cross-verified
    against its exact characteristic polynomial.
    """
    if min(k, gamma, beta, rho) < 1:
        raise ValueError("k, gamma, beta, rho must be positive")
    diag, sub, sup = _formula_bands(k, gamma, beta, rho)
    if min(diag) < 0:
        raise ValueError("parameters give a negative diagonal entry")
    t = gamma + beta
    spectrum = tuple(k - t * i for i in range(rho + 1))
    for x in spectrum:
        if _charpoly_at(diag, sub, sup, x) != 0:
            raise TheoremViolationError(
                f"claimed eigenvalue {x} is not a root", witness=(k, gamma, beta, rho))
    if _charpoly_coefficients(diag, sub, sup) != _poly_from_roots(spectrum):
        raise TheoremViolationError(
            "characteristic polynomial does not factor over the claimed spectrum",
            witness=(k, gamma, beta, rho))
    return spectrum


def _formula_bands(k: int, gamma: int, beta: int, rho: int):
    """(diagonal, sub-band, super-band) of the model matrix."""
    return ([k - i * gamma - (rho - i) * beta for i in range(rho + 1)],
            [i * gamma for i in range(1, rho + 1)], [(rho - i) * beta for i in range(rho)])


def formula_matrix(k: int, gamma: int, beta: int, rho: int) -> tuple[tuple[int, ...], ...]:
    """The model matrix itself, for inspection and tests."""
    return _tridiagonal(*_formula_bands(k, gamma, beta, rho))


@dataclass(frozen=True)
class ArithmeticCertificate:
    """Whether the spectrum is an arithmetic progression with step q*t."""

    arithmetic: bool
    t: int | None
    degenerate: bool = False  # rho = 0: vacuously arithmetic, t unused

    def to_json(self) -> dict:
        return {"is": self.arithmetic, "t": self.t, "degenerate": self.degenerate}


def arithmetic_certificate(spectrum: tuple[int, ...], q: int) -> ArithmeticCertificate:
    if len(spectrum) == 1:
        return ArithmeticCertificate(True, 0, degenerate=True)
    gaps = {spectrum[i] - spectrum[i + 1] for i in range(len(spectrum) - 1)}
    if len(gaps) != 1:
        return ArithmeticCertificate(False, None)
    gap = gaps.pop()
    if gap % q:  # eigenvalues all equal n(q-1) mod q
        raise TheoremViolationError("spectrum gap is not a multiple of q",
                                    witness={"spectrum": list(spectrum), "q": q})
    return ArithmeticCertificate(True, gap // q)


@dataclass(frozen=True)
class BoundsReport:
    """Slack in the two eigenvalue inequalities (negative slack = violation).

    min_eigenvalue_slack:  alpha_0 - gamma_1 - eta_rho, the margin in the
        smallest-eigenvalue bound for completely regular partitions.
    arithmetic_covering_slack:  q*rho*t - (n(q-1) - alpha_0), defined only
        for arithmetic spectra with rho >= 1.
    """

    min_eigenvalue_slack: int | None
    arithmetic_covering_slack: int | None

    def to_json(self) -> dict:
        return {
            "min_eigenvalue_slack": self.min_eigenvalue_slack,
            "arithmetic_covering_slack": self.arithmetic_covering_slack,
        }


def eigenvalue_bounds(numbers: IntersectionNumbers, spectrum: tuple[int, ...],
                      arithmetic: ArithmeticCertificate, space) -> BoundsReport:
    rho = numbers.rho
    if rho == 0:
        return BoundsReport(None, None)
    eig_slack = numbers.alpha[0] - numbers.gamma[1] - spectrum[-1]
    arith_slack = None
    if arithmetic.arithmetic and not arithmetic.degenerate:
        arith_slack = space.q * rho * arithmetic.t - (space.valency - numbers.alpha[0])
    return BoundsReport(eig_slack, arith_slack)


# -- reduction -----------------------------------------------------------------


def free_coordinates(code: Code) -> list[int]:
    """Coordinates where the code is invariant under every symbol substitution."""
    space = code.ambient
    q = space.q
    out = []
    mult = 1
    for i in range(space.n):
        groups: dict[int, int] = {}
        for w in code.members:
            anchor = w - (w // mult % q) * mult
            groups[anchor] = groups.get(anchor, 0) + 1
        if all(c == q for c in groups.values()):
            out.append(i)
        mult *= q
    return out


def reduce_code(code: Code) -> tuple[Code, tuple[int, ...]]:
    """Strip free coordinates until none remain or n = 1 (the last one is
    kept then).

    Returns the reduced code and the stripped coordinates as indices into the
    original word; is_reduced(C) iff the list is empty.  C is Q^F x C' for
    its free coordinates F, and the coordinates free in C' are the others of
    F, so all go in one step.  A linear code whose parity check has a row
    reads F as the zero columns of H (see `is_reduced`), and C' is the code
    of H without them; any other code is scanned and cut member by member.
    Either way |C| = q^|F| |C'| must hold, or some stripped coordinate was
    not free.
    """
    space = code.ambient
    h = code.linear.parity_check if code.is_linear else None
    by_h = h is not None and h.nrows > 0
    free = ([i for i, col in enumerate(h.columns()) if not any(col)] if by_h
            else free_coordinates(code))[:space.n - 1]
    if not free:
        return code, ()
    keep = [i for i in range(space.n) if i not in free]
    new_space = ambient(len(keep), space.q, space.max_vertices)
    if by_h:
        reduced = code_from_parity_check(new_space, h.take_columns(keep))
    else:
        words = {tuple(decode(w, space.n, space.q)[i] for i in keep) for w in code.members}
        reduced = code_from_words(new_space, words)
    if reduced.size * space.q ** len(free) != code.size:
        raise TheoremViolationError("a stripped coordinate is not free", witness={
            "coordinates": free, "sizes": [code.size, reduced.size * space.q ** len(free)]})
    return reduced, tuple(free)


def is_reduced(code: Code) -> bool:
    """No free coordinate.  For a linear code, e_i is in C iff H e_i = 0, so
    coordinate i is free exactly when column i of H is zero.  An H with no
    rows (the whole space) has n zero columns."""
    if code.is_linear:
        h = code.linear.parity_check
        return h.nrows > 0 and all(any(col) for col in h.columns())
    return not free_coordinates(code)


# -- one-stop analysis ----------------------------------------------------------


@dataclass(frozen=True)
class CodeAnalysis:
    """Everything the reports and classifiers consume, computed once."""

    code: Code
    certificate: CrCertificate
    delta: int | None
    reduced: bool
    quotient: QuotientMatrix | None
    spectrum: tuple[int, ...] | None
    arithmetic: ArithmeticCertificate | None
    bounds: BoundsReport | None

    @property
    def cr(self) -> bool:
        return self.certificate.completely_regular

    @property
    def numbers(self) -> IntersectionNumbers | None:
        return self.certificate.numbers

    @property
    def rho(self) -> int:
        return self.certificate.partition.rho


def analyze_code(code: Code) -> CodeAnalysis:
    """Certificate, minimum distance, reducedness and, for a completely
    regular code, its quotient matrix, spectrum and bounds.  A linear code
    takes delta from its syndrome certificate, whatever the rows of its
    parity check; only a word-listed code runs the weight scan."""
    from .hamming_space import minimum_distance

    cert = certify_completely_regular(code)
    if isinstance(cert.partition, SyndromePartition):
        delta = cert.partition.delta
    else:
        delta = minimum_distance(code) if code.size >= 2 else None
    reduced = is_reduced(code)
    if not cert.completely_regular:
        return CodeAnalysis(code, cert, delta, reduced, None, None, None, None)
    u = quotient_matrix(cert.numbers)
    spectrum = code_spectrum(u, code.ambient)
    arith = arithmetic_certificate(spectrum, code.ambient.q)
    bounds = eigenvalue_bounds(cert.numbers, spectrum, arith, code.ambient)
    return CodeAnalysis(code, cert, delta, reduced, u, spectrum, arith, bounds)
