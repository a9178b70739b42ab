"""Workload definitions and output checks for the crcodes benchmark.

Two workloads, each split into units; every sample of a unit runs in a fresh
process, so no unit's caches or memory carry over into another:

* ``census-q3q4``: the ternary census through length 6, then the quaternary
  census through length 5, one unit per (q, n).  Per-record analysis
  dominates: the non-binary digit arithmetic, the equitability scan and the
  DRG certificate; enumeration and dedup take the rest.
* ``certify-ladder``: ``crcodes check`` and ``crcodes classify`` on ten fixed
  codes from 2^7 to 2^18 vertices, one unit per invocation.  No
  enumeration: a few large spaces instead of thousands of small cached ones.

The censuses are deterministic and ignore the seed.  The seed sets the order
of the ladder's twenty operations in each round.

A census unit is ``run_census`` with ``min_n = max_n = n``.  Its pins cover
what stays fixed under a correct optimisation: record count, CR count and
the SHA-256 of summary.csv; they add up to the whole census's pins
(``CENSUS_TOTALS``).  The bytes of census.jsonl and the raw subspace count
may legitimately change (a direct generator of candidates changes both), so
census.jsonl is instead compared between samples of the same code.  Ladder
expectations come from closed forms.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class CensusUnit:
    """The census over GF(q) (or Z_q) at one length n."""
    q: int
    n: int
    records: int
    cr: int
    summary_sha256: str

    @property
    def label(self) -> str:
        return f"q{self.q}-n{self.n}"


def _units(q: int, pins) -> tuple[CensusUnit, ...]:
    return tuple(CensusUnit(q, n, records, cr, sha)
                 for n, (records, cr, sha) in enumerate(pins, start=1))


_EMPTY_SUMMARY = "89ba825574fe4d68276c99b52f94c80da6b5b0940fa072742635e30fcd2aa2fc"

_Q3 = _units(3, (
    (0, 0, _EMPTY_SUMMARY),
    (2, 2, "a6824d277c1f2dbf26f4d7d3868dfebc78584a755a111a89f75cc6f53a434c0a"),
    (8, 6, "ab7c24c625e58bcd3716c42a534ab007d397c52bc534d46badc99a469d620492"),
    (33, 10, "c6fec2dd8c5bd6de441afe7ce3ea454ede620b06ac26c1e5424376a15886f371"),
    (186, 12, "d25778426fac07d8c963fec96a4f0b17b0db230f42410b9ff1ccc7dd91e83d7b"),
    (1619, 18, "72807d3bd382eafedf09f9346a35791c5dc2eb9a205ebd319ebc87d58c8d50e5"),
))
_Q4 = _units(4, (
    (0, 0, _EMPTY_SUMMARY),
    (2, 2, "4e406c65e81885a20ebdf1315f5029deafa8ef93d418510b1a4826edf246fd92"),
    (9, 7, "1fedabb5fb8134f3f91a772f3a04651c3fa27b7aeda262c3b4387447d0d0dc61"),
    (47, 13, "12215fb5c910fce1e5f42191350fd2d2add0cbe9caf3d95ed3e2b28c28ea06d3"),
    (400, 25, "f1deb38a0b04c5f286189c527764421b31122c86a8a413f8216ae6ec522bb2aa"),
))

CENSUSES = {"census-q3q4": _Q3 + _Q4}

# Whole-census pins, (q, max_n) -> (records, CR records, summary.csv SHA-256).
# The per-length records and CR counts add up to these, and the whole
# summary.csv is the header followed by each length's rows in order (both
# checked by the self-tests, the second on a smaller census).
CENSUS_TOTALS = {
    (3, 6): (1848, 48, "0dade0d6957a7bc7a48d6a26cf4c52ec1b7ff612b36ed11236b2a3a5ac484601"),
    (4, 5): (458, 47, "f0f8c2f6552e4ba9c74f0c3fc53ca5ba6ee48ea0d5d029c6ec26522579bcdc64"),
}


LADDER = "certify-ladder"
WORKLOADS = (*CENSUSES, LADDER)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_census(unit: CensusUnit, summary: dict, out_dir) -> list[str]:
    """Problems with one census unit's run; empty when it matches its pin."""
    problems = []
    if summary.get("recorded") != unit.records:
        problems.append(f"{unit.label}: {summary.get('recorded')} records, "
                        f"expected {unit.records}")
    if summary.get("completely_regular") != unit.cr:
        problems.append(f"{unit.label}: {summary.get('completely_regular')} CR "
                        f"records, expected {unit.cr}")
    summary_csv = Path(out_dir) / "summary.csv"
    if not summary_csv.is_file():
        problems.append(f"{unit.label}: summary.csv missing")
    elif sha256_file(summary_csv) != unit.summary_sha256:
        problems.append(f"{unit.label}: summary.csv SHA-256 differs from the pin")
    census = Path(out_dir) / "census.jsonl"
    if not census.is_file():
        problems.append(f"{unit.label}: census.jsonl missing")
    else:
        with census.open() as stream:
            lines = sum(1 for _ in stream)
        if lines != unit.records:
            problems.append(f"{unit.label}: census.jsonl has {lines} lines, "
                            f"expected {unit.records}")
    return problems


# -- the certify ladder -----------------------------------------------------------

HAM74 = {"type": "construct", "name": "hamming", "q": 2, "r": 3}

SPECS = {
    "hamming-7-4": HAM74,
    "ext-hamming-16-11": {"type": "construct", "name": "extended_hamming", "r": 4},
    "hamming-15-11-pad3": {"type": "construct", "name": "pad", "count": 3,
                           "base": {"type": "construct", "name": "hamming",
                                    "q": 2, "r": 4}},
    "hamming-gf4-5-3": {"type": "construct", "name": "hamming", "q": 4, "r": 2},
    "hamming-gf5-6-4": {"type": "construct", "name": "hamming", "q": 5, "r": 2},
    "hamming-7-4-squared": {"type": "construct", "name": "product",
                            "factors": [HAM74, HAM74]},
    "hamming-7-4-twice": {"type": "construct", "name": "replicate", "s": 2,
                          "base": HAM74},
    "repetition-2-10": {"type": "construct", "name": "repetition", "q": 2, "n": 10},
    "repetition-2-11": {"type": "construct", "name": "repetition", "q": 2, "n": 11},
    "repetition-3-7": {"type": "construct", "name": "repetition", "q": 3, "n": 7},
}


def _cr(gamma, alpha, beta, spectrum, family_tag, family_params) -> dict:
    return {"cr": True, "rho": len(gamma) - 1, "gamma": list(gamma),
            "alpha": list(alpha), "beta": list(beta), "spectrum": list(spectrum),
            "family": {"tag": family_tag, "params": family_params}}


def perfect_hamming(q: int, r: int, pad: int = 0, copies: int = 1) -> dict:
    """Hamming code over GF(q), columns repeated `copies` times, plus `pad`
    free coordinates.  Covering radius 1; every nonzero syndrome is reached
    from the code by `copies` single-coordinate steps.  The coset graph is
    the complete graph on the q^r syndromes."""
    k = (q**r - 1) * copies + pad * (q - 1)
    loops = pad * (q - 1)
    return _cr(gamma=(0, copies), alpha=(loops, k - copies), beta=(k - loops, 0),
               spectrum=(k, loops - copies), family_tag="hamming",
               family_params={"m": 1, "q": q**r})


def extended_hamming(r: int) -> dict:
    """Binary extended Hamming code of length 2^r: covering radius 2, coset
    graph K_{2^r, 2^r}."""
    n = 2**r
    return _cr(gamma=(0, 1, n), alpha=(0, 0, 0), beta=(n, n - 1, 0),
               spectrum=(n, 0, -n), family_tag="complete_bipartite",
               family_params={"v": n})


def hamming_square(q: int, r: int) -> dict:
    """Cartesian product of two copies of one Hamming code: coset graph
    H(2, q^r), eigenvalues the pairwise sums of {k, -1}."""
    k = q**r - 1
    return _cr(gamma=(0, 1, 2), alpha=(0, k - 1, 2 * k - 2), beta=(2 * k, k, 0),
               spectrum=(2 * k, k - 1, -2), family_tag="hamming",
               family_params={"m": 2, "q": q**r})


def binary_repetition(n: int) -> dict:
    """Binary repetition code of length n: class i holds the words of weight
    i or n-i, and the coset graph is the folded n-cube with eigenvalues
    n - 4j."""
    rho = n // 2
    gamma = list(range(rho + 1))
    beta = [n - i for i in range(rho)] + [0]
    alpha = [0] * (rho + 1)
    if n % 2:
        alpha[rho] = rho + 1
    else:
        gamma[rho] = n
    return _cr(gamma=gamma, alpha=alpha, beta=beta,
               spectrum=[n - 4 * j for j in range(rho + 1)],
               family_tag="folded_cube", family_params={"m": n})


REFUTED = {"cr": False}

EXPECTED = {
    "hamming-7-4": perfect_hamming(2, 3),
    "ext-hamming-16-11": extended_hamming(4),
    "hamming-15-11-pad3": perfect_hamming(2, 4, pad=3),
    "hamming-gf4-5-3": perfect_hamming(4, 2),
    "hamming-gf5-6-4": perfect_hamming(5, 2),
    "hamming-7-4-squared": hamming_square(2, 3),
    "hamming-7-4-twice": perfect_hamming(2, 3, copies=2),
    "repetition-2-10": binary_repetition(10),
    "repetition-2-11": binary_repetition(11),
    "repetition-3-7": REFUTED,
}

COMMANDS = ("check", "classify")
EXIT_OK, EXIT_REFUTED = 0, 1


@dataclass(frozen=True)
class LadderOp:
    """One CLI invocation: ``crcodes <command> <spec>.json --out report.json``."""
    command: str
    spec: str

    @property
    def label(self) -> str:
        return f"{self.command}-{self.spec}"


LADDER_OPS = tuple(LadderOp(command, name) for name in SPECS for command in COMMANDS)

# workload -> {unit label: unit}
UNITS = {workload: {unit.label: unit for unit in units}
         for workload, units in (*CENSUSES.items(), (LADDER, LADDER_OPS))}


def rounds(workload: str, seed: int):
    """Endless rounds of unit labels.  Every round lists each unit once: the
    censuses in a fixed order, the ladder shuffled by the seed's generator."""
    rng = random.Random(seed)
    while True:
        labels = list(UNITS[workload])
        if workload == LADDER:
            rng.shuffle(labels)
        yield labels


def write_spec(directory, name: str) -> Path:
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps(SPECS[name]))
    return path


def check_op(command: str, name: str, exit_code: int, report: dict | None) -> list[str]:
    """Problems with one ladder operation; empty when it matches."""
    want = EXPECTED[name]
    label = f"{command} {name}"
    want_exit = EXIT_OK if want["cr"] else EXIT_REFUTED
    if exit_code != want_exit:
        return [f"{label}: exit code {exit_code}, expected {want_exit}"]
    if report is None:
        return [f"{label}: no report written"]
    if report.get("cr") is not want["cr"]:
        return [f"{label}: cr={report.get('cr')}, expected {want['cr']}"]
    problems = []
    if not want["cr"]:
        witness = report.get("witness") or {}
        if witness.get("count_a") == witness.get("count_b"):
            problems.append(f"{label}: refutation witness does not conflict")
        return problems
    if command == "check":
        for key in ("rho", "gamma", "alpha", "beta", "spectrum"):
            if report.get(key) != want[key]:
                problems.append(f"{label}: {key}={report.get(key)}, "
                                f"expected {want[key]}")
    else:
        family = report.get("family") or {}
        got = {"tag": family.get("tag"), "params": family.get("params")}
        if got != want["family"]:
            problems.append(f"{label}: family {got}, expected {want['family']}")
    return problems
