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
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, islice
from math import comb

from .algebra import alphabet
from .errors import SpectrumError, TheoremViolationError
from .hamming_space import (
    Code,
    code_from_parity_check,
    code_from_words,
    column_offsets,
    decode,
    minimum_distance,
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
    so d(x, C) depends only on the syndrome s = Ex, E the code's
    `LinearStructure.echelon`: the BFS distance of s from 0 in the Cayley
    graph on GF(q)^r with connection multiset {lambda*e_j}.
    class_of_syndrome[s] holds it in one byte (rho <= r <= 26 under the
    default vertex cap, as every syndrome is a sum of at most r independent
    columns); class i has (syndromes at distance i) * |C| words, and
    `distance_partition` is the word map.

    delta is the minimum distance (None for the zero code).  Let t be the
    largest radius with |L_j| = C(n,j)(q-1)^j for every j <= t, L_j the
    syndromes at distance j: the words of weight <= t have distinct
    syndromes, so delta >= 2t+1.  The M edges from L_t into L_(t+1), with
    column multiplicity, are t+1 per weight-(t+1) word whose syndrome lies
    in L_(t+1); past the last layer M = 0.  If M < (t+1)C(n,t+1)(q-1)^(t+1),
    a weight-(t+1) word shares its syndrome with a lighter one and delta =
    2t+1; otherwise two weight-(t+1) words share one and delta = 2t+2.
    """

    code: Code
    class_of_syndrome: bytes
    rho: int
    class_sizes: tuple[int, ...]
    delta: int | None


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
# A lane vector is one Python int holding one `width`-byte lane per syndrome
# of each of K codes, syndrome-major: lane s*K + k is syndrome s of code k,
# bits [8*width*(s*K+k), 8*width*(s*K+k+1)).  A field label is the base-p
# digit string of a polynomial and labels add digit-wise mod p (see
# `algebra._add_table`), so the q^r syndromes are the base-p strings of
# length r*e and translating every syndrome by an offset moves each p-ary
# digit independently.  For a nonzero digit d at place i, syndromes whose
# digit is below p-d move up d*p^i syndromes (d*p^i*K lanes) and the rest
# move down (p-d)*p^i: one mask, two shifts, and no lane leaves its code.
# In characteristic 2 that is a swap of syndrome bit i.  Codes whose offsets
# differ move under selectors, all ones on the codes whose offset has digit
# d at place i: a K-lane pattern, repeated once per syndrome.

_LANE_CACHE_SIZE = 4
# The lanes of one packed chunk: consecutive linear codes of one space and
# rank (a census length and redundancy) are certified _CHUNK_LANES // q^r
# at a time when q^r <= 256, so that an offset fits the byte a selector is
# translated from, and one at a time otherwise.  A chunk vector takes
# _CHUNK_LANES bytes for byte lanes, and its masks a few dozen such vectors.
_CHUNK_LANES = 4096
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Lanes:
    """Lane-vector arithmetic on the q^r syndromes of `blocks` codes,
    `width` bytes a lane.

    Masks are built on first use, one per (digit place, digit), and shared by
    every offset's plan: r*e*(p-1) masks of blocks*q^r lanes at most.
    """

    def __init__(self, q: int, r: int, width: int, blocks: int):
        alpha = alphabet(q)
        self.p, self.places = alpha.p, r * alpha.e
        self.size, self.width = q**r, width
        self.unit = blocks * width  # the bytes of one syndrome
        self.bits = 8 * width
        self.full = (1 << self.bits) - 1
        self.ones = self.fill([1] * blocks)
        # shifts by bits/2, bits/4, ..., 1 OR every bit of a lane onto its lowest
        self.folds = tuple(1 << k for k in reversed(range(self.bits.bit_length() - 1)))
        self._masks: dict[tuple[int, int], int] = {}
        self._plans: dict[int, tuple] = {}
        self._tables: dict[tuple, bytes] = {}

    def fill(self, values) -> int:
        """Code k holds values[k] in every lane."""
        return int.from_bytes(b"".join(v.to_bytes(self.width, "little") for v in values)
                              * self.size, "little")

    def _mask(self, place: int, digit: int) -> int:
        """All ones on the syndromes whose p-ary digit at `place` is below p-digit."""
        key = (place, digit)
        mask = self._masks.get(key)
        if mask is None:
            block = self.p**place * self.unit
            period = b"\xff" * (block * (self.p - digit)) + bytes(block * digit)
            mask = int.from_bytes(period * (self.size * self.unit // (block * self.p)),
                                  "little")
            self._masks[key] = mask
        return mask

    def plan(self, offset: int) -> tuple[tuple[int, int, int], ...]:
        """(mask, up, down) bit shifts translating every syndrome by `offset`."""
        steps = self._plans.get(offset)
        if steps is None:
            p, out, stride, rest = self.p, [], 8 * self.unit, offset
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

    def _select(self, offsets: bytes, place: int | None, digit: int, seen: dict) -> int:
        """All ones on code k when offsets[k] has `digit` at p-ary `place`;
        place None selects the codes whose offset is 0.  The K-lane pattern
        is the offsets through a translate table, repeated per syndrome;
        `seen` keeps each pattern's vector (lambda*t often shares them)."""
        table = self._tables.get((place, digit))
        if table is None:  # 0xff at the offsets t selected, t < 256
            if place is None:
                table = b"\xff" + bytes(255)
            else:
                step = self.p**place
                period = bytes(step * digit) + b"\xff" * step + bytes(step * (self.p - 1 - digit))
                table = (period * (256 // len(period) + 1))[:256]
            self._tables[place, digit] = table
        pattern = offsets.translate(table)
        vector = seen.get(pattern)
        if vector is None:
            wide = pattern if self.width == 1 else b"".join(
                bytes([x]) * self.width for x in pattern)
            vector = seen[pattern] = int.from_bytes(wide * self.size, "little")
        return vector

    def each_plan(self, offsets, seen: dict) -> list[tuple[int, tuple]]:
        """Steps translating code k by offsets[k], with the codes whose
        offset is 0 dropped: per digit place, the codes whose digit is 0 and
        (mask, up, rest, down) for each nonzero digit d, the mask and rest
        its selector split by d's syndrome mask."""
        offsets = bytes(offsets)  # below q^r <= 256
        everywhere = (1 << 8 * self.unit * self.size) - 1
        p, steps, stride = self.p, [], 8 * self.unit
        zero = self._select(offsets, None, 0, seen)
        for place in range(self.places):
            chosen = [self._select(offsets, place, d, seen) for d in range(p)]
            if chosen[0] != everywhere:
                moves = []
                for d in range(1, p):
                    if chosen[d]:
                        low = self._mask(place, d) & chosen[d]
                        moves.append((low, d * stride, chosen[d] ^ low, (p - d) * stride))
                steps.append((chosen[0] ^ zero, tuple(moves)))
                zero = 0
            stride *= p
        return steps

    @staticmethod
    def translate_each(vector: int, steps) -> int:
        for keep, moves in steps:
            out = vector & keep
            for low, up, rest, down in moves:
                out |= (vector & low) << up | (vector & rest) >> down
            vector = out
        return vector

    def nonzero(self, vector: int) -> int:
        """1 in each lane of `vector` that is nonzero, 0 elsewhere."""
        for k in self.folds:
            vector |= vector >> k
        return vector & self.ones


@lru_cache(maxsize=_LANE_CACHE_SIZE)
def _lanes(q: int, r: int, width: int, blocks: int) -> _Lanes:
    return _Lanes(q, r, width, blocks)


def _lane_width(degree: int) -> int:
    """Bytes per lane holding counts up to the valency."""
    width = 1
    while degree >> (8 * width):
        width *= 2
    return width


def _packed_bfs(space, r: int, offsets) -> list[tuple]:
    """BFS from syndrome 0 in the coset graphs of K codes at once, one layer
    at a time, the q^r syndromes of the K codes in one lane vector.

    offsets[k] lists code k's column offsets lambda*h_j, as `column_offsets`
    does.  A slot (one column and lambda) with one offset in every code is
    translated once per distinct offset by the shared syndrome masks; a slot
    that differs moves code k by its own offset under selectors.  N_c
    counts, in each lane, the neighbours of its syndrome in layer L_c,
    loops aside: N_0 is read off the offsets, N_c sums L_c translated.  Its
    unseen nonzero lanes are L_(c+1); on L_(c+1) it is the previous count,
    on L_c the same count.  The chunk's last layer is not translated: its
    same count is the loop-free degree less its previous count.

    Each code's lanes are read off the bytes of the dist, previous and same
    vectors.  The code is CR exactly when every syndrome's counts equal
    those of the lowest syndrome of its class (a class-indexed translate
    table), else the lowest syndrome that differs (an XOR) and the lowest of
    its class give the full-space scan's witness; delta is as in
    `SyndromePartition`.  Returns, per code, (class_of, syndromes per class,
    delta, rows): rows (syndrome, class, (previous, same, next)) for `_scan`.
    """
    q, n = space.q, space.n
    count = len(offsets)
    width = _lane_width(space.valency)
    lanes = _lanes(q, r, width, count)
    size, bits, full = lanes.size, lanes.bits, lanes.full
    slots = list(zip(*offsets))  # one offset per code
    uniform = Counter(slot[0] for slot in slots if slot.count(slot[0]) == count)
    varying = [slot for slot in slots if slot.count(slot[0]) != count]
    uniform.pop(0, None)  # loops
    loops = [offs.count(0) for offs in offsets]
    moves = [space.valency - x for x in loops]  # the loop-free degree
    roots = (1 << bits * count) // full  # syndrome 0 of every code
    around = roots * sum(k << bits * count * t for t, k in uniform.items())  # N_0
    if varying:
        counts = array(_LANE_FORMATS[width], bytes(count * size * width))
        for slot in varying:
            for k, t in enumerate(slot):
                if t:
                    counts[t * count + k] += 1
        if sys.byteorder == "big":
            counts.byteswap()
        around += int.from_bytes(counts, "little")
    steps = [(lanes.plan(t), k) for t, k in uniform.items()]
    seen: dict[bytes, int] = {}  # selectors, shared by the slots' plans
    each = [lanes.each_plan(slot, seen) for slot in varying]
    del seen
    move, move_each = lanes.translate, lanes.translate_each
    layer, unseen = roots, lanes.ones ^ roots
    dist = prev = same = c = 0
    while layer:
        dist += c * layer
        if unseen:
            reached = lanes.nonzero(around) & unseen
            unseen ^= reached
            back = around & reached * full
            around &= layer * full
        else:  # the last layer: no next count
            reached = back = 0
            spread = layer * full
            around = (lanes.fill(moves) & spread) - (prev & spread)
        same += around
        prev += back
        layer = reached
        c += 1
        if layer and unseen:
            around = (sum(move(layer, plan) * k for plan, k in steps)
                      + sum(move_each(layer, plan) for plan in each))
    if unseen:
        lane = ((unseen & -unseen).bit_length() - 1) // bits
        code = unseen.to_bytes(count * size * width, "little")[lane % count * width::lanes.unit]
        raise TheoremViolationError(
            "columns of a full-rank parity check do not reach every syndrome",
            witness={"syndrome": lane // count, "reached": code.count(0)})
    # the bytes of each vector; counts as byte planes, lowest byte first
    raw_dist, raw_prev, raw_same = [v.to_bytes(count * size * width, "little")
                                    for v in (dist, prev, same)]
    classes = raw_dist[::width]  # dist fits one byte: rho <= r <= 26
    cut = [raw[b::width] for raw in (raw_prev, raw_same) for b in range(width)]
    shells = [comb(n, i) * (q - 1)**i for i in range(1, c + 1)]  # words of weight i
    out = []
    for k in range(count):
        cls = classes[k::count]
        layers = list(map(cls.count, range(c)))
        while not layers[-1]:
            layers.pop()
        firsts = list(map(cls.index, range(len(layers))))
        planes = [plane[k::count] for plane in cut]
        differ = 0
        for plane in planes:  # each syndrome against the lowest of its class
            expected = cls.translate(bytes(map(plane.__getitem__, firsts)).ljust(256, b"\0"))
            if plane != expected:
                differ |= int.from_bytes(plane, "little") ^ int.from_bytes(expected, "little")
        if differ:  # the lowest syndrome that differs, after the lowest of its class
            lowest = ((differ & -differ).bit_length() - 1) // 8
            firsts = [firsts[cls[lowest]], lowest]
        rows = []
        for s in firsts:
            g, m = _lane_value(planes[:width], s), _lane_value(planes[width:], s)
            rows.append((s, cls[s], (g, m + loops[k], moves[k] - g - m)))
        delta = None
        for i, shell in enumerate(shells):  # M: the edges from L_i into L_(i+1)
            above = layers[i + 1] if i + 1 < len(layers) else 0
            if above != shell:
                edges = (0 if not above else moves[k] if i == 0  # all moves leave L_0
                         else _lane_sum(planes[:width], cls, i + 1))
                delta = 2 * i + 1 if edges < (i + 1) * shell else 2 * i + 2
                break
        out.append((cls, layers, delta, rows))
    return out


def _lane_value(planes, s: int) -> int:
    """Lane s of a vector read as byte planes, lowest byte first."""
    if len(planes) == 1:
        return planes[0][s]
    return sum(plane[s] << 8 * b for b, plane in enumerate(planes))


def _lane_sum(planes, cls: bytes, c: int) -> int:
    """The sum of the lanes in class c."""
    chosen = int.from_bytes(cls.translate(bytes(c) + b"\xff" + bytes(255 - c)), "little")
    return sum(sum((int.from_bytes(plane, "little") & chosen).to_bytes(len(plane), "little"))
               << 8 * b for b, plane in enumerate(planes))


def _certificate(code: Code, block) -> CrCertificate:
    """The certificate of one block of `_packed_bfs`, lanes named by least word."""
    cls, layers, delta, rows = block
    if code.linear.pivots is not None:  # else E = [I_r | A]: each lane is its least word
        rows = [(code.linear.least_word(s), c, counts) for s, c, counts in rows]
    size = code.size
    part = SyndromePartition(code, cls, len(layers) - 1, tuple(x * size for x in layers), delta)
    return _scan(part, rows)


def certify_codes(codes):
    """Each linear code with its certificate, in order, a chunk at a time.

    Consecutive codes of one space and one rank are certified together on
    the syndromes Ex of their echelons E, _CHUNK_LANES // q^r codes to a
    packed BFS when q^r <= 256 and one otherwise.  E's rows are
    independent, so its syndromes are the q^rank words of GF(q)^rank, and
    lane order is least-word order (`LinearStructure.least_word`), so the
    lowest lane that differs names the full-space scan's witness.  The
    q^rank syndromes are held to the vertex cap.  Codes in spaces of at
    most _CROSS_CHECK_WORDS words are also certified word by word, and the
    two certificates must agree.
    """
    for (space, r), group in groupby(codes, lambda code: (code.ambient, code.linear.rank)):
        size = space.q**r
        space.require_materializable("syndrome certificate", size)
        while chunk := list(islice(group, _CHUNK_LANES // size if size <= 256 else 1)):
            blocks = _packed_bfs(space, r, [column_offsets(c.linear.echelon) for c in chunk])
            for code, block in zip(chunk, blocks):
                yield code, _cross_checked(code, _certificate(code, block))


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
    # an echelon of rank 0 has no rows, and so no columns: all are zero
    offsets = column_offsets(code.linear.echelon) or [0] * space.valency
    syndromes = [0]
    for j in range(0, len(offsets), q - 1):
        syndromes = [t for s in (0, *offsets[j:j + q - 1])
                     for t in translate(syndromes, s, alpha)]
    return Code(space, tuple(x for x, s in enumerate(syndromes) if not s))


def certify_completely_regular(code: Code) -> CrCertificate:
    """Check the distance partition is equitable; witness the first conflict.

    A linear code is a chunk of one of `certify_codes`, on the q^rank
    syndromes of its echelon, whether or not the rows of H are independent;
    the verdict, numbers, class sizes and witness are those of the
    full-space scan, which runs for word-listed codes.
    """
    if code.is_linear:
        [(_, cert)] = certify_codes([code])
        return cert
    return _certify_words(code, distance_partition(code))


def _cross_checked(code: Code, cert: CrCertificate) -> CrCertificate:
    """cert, held to the full-space scan in spaces of at most
    _CROSS_CHECK_WORDS words."""
    if code.ambient.size <= _CROSS_CHECK_WORDS:
        listed = _zero_syndrome_words(code)
        _cross_check(cert, _certify_words(listed, distance_partition(listed)))
    return cert


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
        return h.nrows > 0 and all(map(any, h.columns()))
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


def analyze_code(code: Code, certificate: CrCertificate | None = None) -> CodeAnalysis:
    """Certificate, minimum distance, reducedness and, for a completely
    regular code, its quotient matrix, spectrum and bounds.  The code's
    certificate, when given (as `certify_codes` yields it), is not computed
    again.  A linear code takes delta from its syndrome certificate,
    whatever the rows of its parity check; only a word-listed code runs the
    weight scan."""
    cert = certify_completely_regular(code) if certificate is None else certificate
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
