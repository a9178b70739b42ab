"""Named code constructions and the cartesian-product compatibility test.

Coordinate conventions are fixed for bit-exact reproducibility: the left
factor of a product occupies the low-order coordinates, Hamming parity-check
columns are the projective points of GF(q)^r normalized to leading entry 1
and sorted lexicographically (top row first).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GFMatrix, field_alphabet, gf_matrix, hstack
from .cr_analysis import certify_completely_regular
from .errors import CrcodesError
from .hamming_space import Code, LinearStructure, ambient, code_from_parity_check


def hamming_parity_check(r: int, q: int) -> GFMatrix:
    """r x (q^r-1)/(q-1) matrix whose columns are the projective points."""
    if r < 2:
        raise ValueError("need redundancy r >= 2")
    alpha = field_alphabet(q)
    points = set()
    for idx in range(1, q**r):
        col = []
        k = idx
        for _ in range(r):
            col.append(k % q)
            k //= q
        col.reverse()  # top row = most significant digit of idx
        lead = next(x for x in col if x)
        inv = alpha.inv(lead)
        points.add(tuple(alpha.mul(inv, x) for x in col))
    cols = sorted(points)
    return gf_matrix(alpha, [[c[i] for c in cols] for i in range(r)])


def hamming_code(r: int, q: int, max_vertices=None) -> Code:
    """The perfect single-error-correcting code of redundancy r over GF(q)."""
    h = hamming_parity_check(r, q)
    kwargs = {"max_vertices": max_vertices} if max_vertices else {}
    space = ambient(h.ncols, q, **kwargs)
    return code_from_parity_check(space, h)


def extended_hamming_parity_check(r: int) -> GFMatrix:
    """Binary Hamming check with an appended zero column and all-ones row."""
    h = hamming_parity_check(r, 2)
    rows = [row + (0,) for row in h.rows]
    rows.append((1,) * (h.ncols + 1))
    return GFMatrix(h.alphabet, tuple(rows))


def extended_hamming_code(r: int, max_vertices=None) -> Code:
    e = extended_hamming_parity_check(r)
    kwargs = {"max_vertices": max_vertices} if max_vertices else {}
    space = ambient(e.ncols, 2, **kwargs)
    return code_from_parity_check(space, e)


def repetition_code(n: int, q: int, max_vertices=None) -> Code:
    """The q constant words of H(n, q), as nullspace of [I | -1]."""
    if n < 2:
        raise ValueError("repetition needs length >= 2")
    alpha = field_alphabet(q)
    minus_one = alpha.neg(1)
    rows = [
        [1 if j == i else (minus_one if j == n - 1 else 0) for j in range(n)]
        for i in range(n - 1)
    ]
    kwargs = {"max_vertices": max_vertices} if max_vertices else {}
    return code_from_parity_check(ambient(n, q, **kwargs), gf_matrix(alpha, rows))


def replicate_columns(h: GFMatrix, s: int) -> GFMatrix:
    if s < 1:
        raise ValueError("need at least one copy")
    return hstack([h] * s)


def _require_one_alphabet(c1: Code, c2: Code) -> None:
    if c1.ambient.alphabet != c2.ambient.alphabet:
        raise ValueError("product factors must share one alphabet")


def cartesian_product(c1: Code, c2: Code) -> Code:
    """Concatenation code {(u, v) : u in C1, v in C2} in H(n1+n2, q).  Two
    linear factors give the code of the block-diagonal parity check, which
    lists no member.  The product space keeps the smaller vertex cap of the
    two."""
    _require_one_alphabet(c1, c2)
    s1, s2 = c1.ambient, c2.ambient
    space = ambient(s1.n + s2.n, s1.q, min(s1.max_vertices, s2.max_vertices))
    if c1.is_linear and c2.is_linear:
        h1, h2 = c1.linear.parity_check, c2.linear.parity_check
        return Code(space, None, LinearStructure(GFMatrix(
            h1.alphabet, tuple(r + (0,) * s2.n for r in h1.rows)
            + tuple((0,) * s1.n + r for r in h2.rows))))
    shift = s1.size
    return Code(space, tuple(sorted(u + shift * v for v in c2.members for u in c1.members)))


def full_code(n: int, q: int, max_vertices: int) -> Code:
    space = ambient(n, q, max_vertices)
    space.require_materializable("full code")
    return Code(space, tuple(range(space.size)))


def pad_code(code: Code, copies: int = 1) -> Code:
    """Q^copies x C: prepend free coordinates (at the low-order positions)."""
    if copies < 1:
        raise ValueError("pad needs at least one extra coordinate")
    if code.is_linear:
        h = code.linear.parity_check
        zeros = (0,) * copies
        padded = GFMatrix(h.alphabet, tuple(zeros + tuple(r) for r in h.rows))
        space = ambient(code.ambient.n + copies, code.ambient.q,
                        code.ambient.max_vertices)
        return code_from_parity_check(space, padded)
    out = code
    for _ in range(copies):
        out = cartesian_product(full_code(1, code.ambient.q, code.ambient.max_vertices), out)
    return out


@dataclass(frozen=True)
class PredictedProduct:
    rho: int
    gamma: tuple[int, ...]
    beta: tuple[int, ...]


@dataclass(frozen=True)
class ProductCompatibility:
    """Outcome of the two-sided linear-growth test on intersection numbers.

    Compatible iff gamma_i = n1*i on both factors' full index ranges and
    beta_{rho-i} = n2*i likewise; then the product is completely regular with
    covering radius rho + rho', gamma_i = n1*i and beta_i = n2*(rho_bar - i).
    """

    compatible: bool
    n1: int | None = None
    n2: int | None = None
    failing_condition: str | None = None
    predicted: PredictedProduct | None = None


class NotCompletelyRegularError(CrcodesError):
    """A product-criterion factor failed its own CR certification."""


def _linear_growth(values: tuple[int, ...]) -> int | None:
    """If values == (0, m, 2m, ...) return m, else None."""
    if values[0] != 0:
        return None
    if len(values) == 1:
        return 0
    m = values[1]
    if all(values[i] == m * i for i in range(len(values))):
        return m
    return None


def product_cr_criterion(c1: Code, c2: Code) -> ProductCompatibility:
    """Decide whether C x C' is completely regular, from the factors alone."""
    _require_one_alphabet(c1, c2)
    cert1 = certify_completely_regular(c1)
    cert2 = certify_completely_regular(c2)
    for name, cert in (("first", cert1), ("second", cert2)):
        if not cert.completely_regular:
            raise NotCompletelyRegularError(
                f"{name} factor is not completely regular: {cert.witness}")
    n1_a = _linear_growth(cert1.numbers.gamma)
    n1_b = _linear_growth(cert2.numbers.gamma)
    if n1_a is None or n1_b is None:
        return ProductCompatibility(False, failing_condition="gamma_not_linear")
    rho1, rho2 = cert1.numbers.rho, cert2.numbers.rho
    if min(rho1, rho2) < 1:
        raise ValueError("criterion needs both covering radii >= 1")
    if n1_a != n1_b:
        return ProductCompatibility(False, failing_condition="gamma_slope_mismatch")
    n2_a = _linear_growth(tuple(reversed(cert1.numbers.beta)))
    n2_b = _linear_growth(tuple(reversed(cert2.numbers.beta)))
    if n2_a is None or n2_b is None:
        return ProductCompatibility(False, failing_condition="beta_not_linear")
    if n2_a != n2_b:
        return ProductCompatibility(False, failing_condition="beta_slope_mismatch")
    n1, n2 = n1_a, n2_a
    rho_bar = rho1 + rho2
    predicted = PredictedProduct(
        rho=rho_bar,
        gamma=tuple(n1 * i for i in range(rho_bar + 1)),
        beta=tuple(n2 * (rho_bar - i) for i in range(rho_bar + 1)),
    )
    return ProductCompatibility(True, n1=n1, n2=n2, predicted=predicted)


def verify_product_cr(c1: Code, c2: Code, compat: ProductCompatibility) -> dict:
    """Brute-force the product code and compare against the prediction."""
    product = cartesian_product(c1, c2)
    cert = certify_completely_regular(product)
    out = {"product_cr": cert.completely_regular}
    if not cert.completely_regular:
        out["witness"] = cert.witness.to_json()
        out["matches_prediction"] = not compat.compatible
        return out
    numbers = cert.numbers
    out["gamma"] = list(numbers.gamma)
    out["beta"] = list(numbers.beta)
    if compat.compatible:
        p = compat.predicted
        out["matches_prediction"] = (
            numbers.rho == p.rho
            and numbers.gamma == p.gamma
            and numbers.beta == p.beta
        )
    else:
        out["matches_prediction"] = False
    return out
