"""Exhaustive desk-scale enumeration of linear codes, census persistence,
and empirical verification of the structural results over the census.

Enumeration generates H = [I_r | A] once per redundancy r and sorted multiset
A of normalized columns (the zero column, or first nonzero entry 1): every
RREF frame's key (r, sorted normalized columns) contains e_1..e_r, so these
are all the keys, each once.  The key is sound (equal keys imply monomial
equivalence) but deliberately incomplete: permuted copies of one code may
survive as separate records, which the census tolerates as redundancy.
``census-record@2`` changed H, its digest and the record order from the
RREF frames of ``census-record@1``, so the open-question scan may name
another digest for the same code; every invariant field is unchanged.

A CR record's ``checks`` are the statuses of every row of the theorem-check
table ``classify.THEOREM_CHECKS``, which the CLI runs too.  Any FAIL aborts
the run after writing a replayable witness file; a FAIL always means an
implementation bug, never a new theorem.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from pathlib import Path

from .algebra import GFMatrix, alphabet, field_alphabet, gf_matrix
from .classify import CheckContext, run_checks
from .cr_analysis import CrCertificate, analyze_code, certify_codes, recount_witness
from .errors import DigestMismatchError, TheoremViolationError, jsonable
from .hamming_space import Code, ambient, code_from_parity_check

RECORD_SCHEMA = "census-record@2"

# json.dumps(..., sort_keys=True, separators=(",", ":")) with one encoder
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def systematic_parity_checks(n: int, q: int, max_redundancy: int | None = None):
    """H = [I_r | A] for r = 1..n-1 and every sorted multiset A of n-r
    normalized columns, in order of r, then of A as a sorted index tuple."""
    alpha = alphabet(q)
    top = n - 1 if max_redundancy is None else min(max_redundancy, n - 1)
    for r in range(1, top + 1):
        columns = [c for c in product(range(q), repeat=r)  # lexicographic
                   if next((x for x in c if x), 1) == 1]
        identity = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        for tail in combinations_with_replacement(columns, n - r):
            yield GFMatrix(alpha, tuple(map(tuple.__add__, identity, zip(*tail))))


def enumerate_linear_codes(n: int, q: int, max_redundancy: int | None = None):
    """Nontrivial linear codes of length n, one per monomial column-frame key
    (see ``systematic_parity_checks``)."""
    space = ambient(n, q)
    for h in systematic_parity_checks(n, q, max_redundancy):
        yield code_from_parity_check(space, h)


def code_digest(code: Code) -> str:
    doc = {
        "q": code.ambient.q,
        "n": code.ambient.n,
        "parity_check": code.linear.parity_check.to_lists(),
    }
    return hashlib.sha256(_dumps(doc).encode()).hexdigest()


def build_record(code: Code, certificate: CrCertificate | None = None) -> dict:
    """The full, replayable census record for one code; its certificate,
    when given, is not computed again.  A CR code's ``checks`` map the name
    of every theorem check to its status on one `CheckContext` of the code."""
    analysis = analyze_code(code, certificate)
    record = {
        "schema": RECORD_SCHEMA,
        "q": code.ambient.q,
        "n": code.ambient.n,
        "redundancy": code.linear.rank,
        "parity_check": code.linear.parity_check.to_lists(),
        "digest": code_digest(code),
        "size": code.size,
        "cr": analysis.cr,
        "delta": analysis.delta,
    }
    if not analysis.cr:
        record["witness"] = analysis.certificate.witness.to_json()
        return record
    numbers = analysis.numbers
    record.update(
        rho=analysis.rho,
        reduced=analysis.reduced,
        gamma=list(numbers.gamma),
        alpha=list(numbers.alpha),
        beta=list(numbers.beta),
        spectrum=list(analysis.spectrum),
        arithmetic=analysis.arithmetic.to_json(),
        bounds=jsonable(analysis.bounds),
    )

    context = CheckContext(code, analysis)
    drg, family = context.coset
    record["family"] = {"tag": family.tag, "params": dict(family.params)}
    record["quotient_array"] = jsonable(drg.array)
    # arithmetic_quotient_family is named even where it cannot apply
    record["checks"] = {"arithmetic_quotient_family": "INAPPLICABLE",
                        **{result.name: result.status for result in run_checks(context)}}
    if context.forms is not None:
        record["form_cases"] = sorted(context.forms.case_names())
    return record


@dataclass(frozen=True)
class CensusParams:
    q: int = 2
    max_n: int = 7
    min_n: int = 1
    max_redundancy: int | None = None

    def __post_init__(self):
        """Refuse parameters that make no census: lengths must run
        1 <= min_n <= max_n, a redundancy cap must allow r = 1, and q must
        be a prime power."""
        if not 1 <= self.min_n <= self.max_n:
            raise ValueError(f"census lengths need 1 <= min_n <= max_n, "
                             f"got min_n={self.min_n}, max_n={self.max_n}")
        if self.max_redundancy is not None and self.max_redundancy < 1:
            raise ValueError(f"max_redundancy must be >= 1, got {self.max_redundancy}")
        field_alphabet(self.q)


def run_census(params: CensusParams, out_dir, progress=None) -> dict:
    """Write census.jsonl and summary.csv under out_dir; abort on any FAIL
    after persisting witness.json.  Returns the summary (also printed by the
    CLI), including the open-question scan over the smallest-eigenvalue
    slack, which is reported but never asserted.  ``progress``, if given, is
    called after every record as progress(n, records, cr_records).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    census_path = out / "census.jsonl"
    summary_path = out / "summary.csv"
    witness_path = out / "witness.json"

    tallies: dict[tuple, int] = {}
    recorded = cr_count = 0
    question_min = None
    question_digest = None

    with census_path.open("w") as stream:
        for n in range(params.min_n, params.max_n + 1):
            for code, certificate in certify_codes(enumerate_linear_codes(
                    n, params.q, params.max_redundancy)):
                record = build_record(code, certificate)
                fails = sorted(name for name, status in record.get("checks", {}).items()
                               if status == "FAIL")
                if fails:
                    witness_path.write_text(_dumps(
                        {"failed_checks": fails, "record": record}) + "\n")
                    raise TheoremViolationError(
                        f"census check(s) {fails} failed for digest "
                        f"{record['digest']}; witness persisted for review "
                        f"at {witness_path}",
                        witness=record)
                stream.write(_dumps(record) + "\n")
                recorded += 1
                if record["cr"]:
                    cr_count += 1
                    key = (record["n"], record["q"], record["rho"],
                           record["family"]["tag"], record["arithmetic"]["is"])
                    tallies[key] = tallies.get(key, 0) + 1
                    slack = record["bounds"]["min_eigenvalue_slack"]
                    if slack is not None and (question_min is None or slack < question_min):
                        question_min = slack
                        question_digest = record["digest"]
                if progress is not None:
                    progress(n, recorded, cr_count)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "q", "rho", "family", "arithmetic", "count"])
    for key in sorted(tallies):
        writer.writerow([*key, tallies[key]])
    summary_path.write_text(buffer.getvalue())

    summary = {
        "params": jsonable(params),
        # census-summary@1 names: every generated candidate becomes a record
        # or aborts the run, so the candidates are the records
        "enumerated_subspaces": recorded,
        "deduplicated": 0,
        "recorded": recorded,
        "reconciled": True,
        "completely_regular": cr_count,
        "failures": 0,
        "question_scan": {
            "min_eigenvalue_slack_minimum": question_min,
            "achieved_by": question_digest,
            "note": "scan only; the inequality is reported, never asserted",
        },
        "files": {"census": str(census_path), "summary": str(summary_path)},
    }
    return summary


# -- replay ----------------------------------------------------------------------


def _rebuild(record: dict) -> Code:
    space = ambient(record["n"], record["q"])
    h = gf_matrix(space.alphabet, record["parity_check"])
    return code_from_parity_check(space, h)


def replay(record_or_path) -> dict:
    """Reconstruct a record's code and re-run exactly the recorded checks."""
    record = record_or_path
    if isinstance(record, (str, Path)):
        record = json.loads(Path(record).read_text())
    if "record" in record and "failed_checks" in record:  # witness file
        record = record["record"]
    code = _rebuild(record)
    if code_digest(code) != record["digest"]:
        raise DigestMismatchError(
            f"stored digest {record['digest']} does not match the rebuilt code")
    [(_, certificate)] = certify_codes([code])
    fresh = build_record(code, certificate)
    checks = fresh.get("checks", {})
    if "checks" in record and "FAIL" not in checks.values():
        # a record written before a check existed replays on the checks it
        # names; a fresh FAIL of any check still differs
        fresh["checks"] = {name: checks.get(name) for name in record["checks"]}
    diffs = sorted(key for key in (set(record) | set(fresh)) - {"schema"}
                   if record.get(key) != fresh.get(key))
    result = {"digest": record["digest"], "match": not diffs, "differences": diffs}
    if not record["cr"] and "witness" in record:
        counts = recount_witness(code, certificate.witness)
        result["witness_reconfirmed"] = counts[0] != counts[1]
    return result
