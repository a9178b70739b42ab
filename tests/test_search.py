import json
from itertools import permutations

import pytest

from crcodes.errors import DigestMismatchError, TheoremViolationError
from crcodes.search import (
    CensusParams,
    EnumerationStats,
    build_record,
    enumerate_linear_codes,
    enumerate_parity_checks,
    gaussian_binomial,
    replay,
    run_census,
)


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(7, 3, 2) == 11811
    assert gaussian_binomial(4, 2, 3) == 130


def test_parity_check_enumeration_counts_match_gaussian_binomials():
    for n, q in ((3, 2), (4, 2), (3, 3)):
        per_rank = {}
        for h in enumerate_parity_checks(n, q):
            per_rank[h.nrows] = per_rank.get(h.nrows, 0) + 1
        for r in range(1, n):
            assert per_rank[r] == gaussian_binomial(n, r, q)


def test_redundancy_one_dedup_matches_weight_classes():
    # n=3, q=2, redundancy 1: subspaces {100},{010},{001},{110},...,{111}
    # collapse to one representative per weight: {1,0,0}, {1,1,0}, {1,1,1}
    stats = EnumerationStats()
    codes = list(enumerate_linear_codes(3, 2, max_redundancy=1, stats=stats))
    assert stats.subspaces == 7
    assert len(codes) == 3
    weights = sorted(sum(code.linear.parity_check.rows[0]) for code in codes)
    assert weights == [1, 2, 3]


def _orbit_count(n, q, r):
    """Distinct dual subspaces up to coordinate permutation, by brute force."""
    orbits = set()
    for h in enumerate_parity_checks(n, q, max_redundancy=r):
        if h.nrows != r:
            continue
        rows = h.rows
        canon = None
        for perm in permutations(range(n)):
            # permute columns, canonicalize the row space by sorting the full
            # span of the rows (a basis-free subspace fingerprint)
            words = [tuple(row[p] for p in perm) for row in rows]
            space = {tuple([0] * n)}
            for w in words:
                space = {
                    tuple((a + c * b) % q for a, b in zip(vec, w))
                    for vec in space
                    for c in range(q)
                }
            key = tuple(sorted(space))
            canon = key if canon is None or key < canon else canon
        orbits.add(canon)
    return len(orbits)


def test_dedup_is_sound_and_bounded_by_orbits():
    # at n=4 the census size sits between the permutation-orbit count and the
    # raw subspace count for every redundancy
    for r in range(1, 4):
        stats = EnumerationStats()
        codes = list(enumerate_linear_codes(4, 2, max_redundancy=r, stats=stats))
        codes = [c for c in codes if c.linear.rank == r]
        kept = len(codes)
        orbit = _orbit_count(4, 2, r)
        subspaces = gaussian_binomial(4, r, 2)
        assert orbit <= kept <= subspaces


def test_enumeration_includes_ternary_hamming():
    from crcodes.classify import is_hamming_equivalent

    found = False
    for code in enumerate_linear_codes(4, 3, max_redundancy=2):
        if code.linear.rank == 2 and code.size == 9 and is_hamming_equivalent(code):
            found = True
            break
    assert found


def test_build_record_hamming74():
    from crcodes.constructions import hamming_code

    record = build_record(hamming_code(3, 2))
    assert record["cr"] and record["rho"] == 1 and record["delta"] == 3
    assert record["spectrum"] == [7, -1]
    assert record["arithmetic"]["t"] == 4
    assert record["family"] == {"tag": "hamming", "params": {"m": 1, "q": 8}}
    assert "FAIL" not in record["checks"].values()
    assert record["checks"]["product_decomposition"] == "PASS"
    assert "hamming_replication" in record["form_cases"]


def test_census_small_run_is_deterministic(tmp_path):
    params = CensusParams(q=2, max_n=4)
    first = run_census(params, tmp_path / "a")
    second = run_census(params, tmp_path / "b")
    assert first["failures"] == 0 and first["reconciled"]
    blob_a = (tmp_path / "a" / "census.jsonl").read_bytes()
    blob_b = (tmp_path / "b" / "census.jsonl").read_bytes()
    assert blob_a == blob_b
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv").read_bytes()


def test_census_ternary_small(tmp_path):
    summary = run_census(CensusParams(q=3, max_n=4), tmp_path)
    assert summary["failures"] == 0 and summary["reconciled"]
    assert summary["completely_regular"] > 0


def test_census_records_replay(tmp_path):
    params = CensusParams(q=2, max_n=3)
    run_census(params, tmp_path)
    lines = (tmp_path / "census.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        result = replay(record)
        assert result["match"], result
        if not record["cr"]:
            assert result["witness_reconfirmed"]


def test_replay_rejects_corrupted_record(tmp_path):
    from crcodes.constructions import hamming_code

    record = build_record(hamming_code(3, 2))
    record["digest"] = "0" * 64
    with pytest.raises(DigestMismatchError):
        replay(record)


def test_replay_from_file(tmp_path):
    from crcodes.constructions import hamming_code

    record = build_record(hamming_code(3, 2))
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    assert replay(path)["match"]


def test_census_fail_aborts_and_persists_witness(tmp_path, monkeypatch):
    # force one check to FAIL: the run must stop and leave a replayable witness
    import crcodes.search as search_mod

    real = search_mod.build_record

    def sabotaged(code, analysis=None):
        record = real(code, analysis)
        if record["cr"] and record.get("checks"):
            record["checks"]["smallest_eigenvalue_bound"] = "FAIL"
        return record

    monkeypatch.setattr(search_mod, "build_record", sabotaged)
    with pytest.raises(TheoremViolationError):
        search_mod.run_census(CensusParams(q=2, max_n=3), tmp_path)
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert witness["failed_checks"] == ["smallest_eigenvalue_bound"]
    # the embedded record replays cleanly (the sabotage was in the copy only)
    result = replay(witness)
    assert result["digest"] == witness["record"]["digest"]


def test_build_record_rejects_a_coset_partition_that_is_not_cr(monkeypatch):
    import crcodes.search as search_mod
    from crcodes.constructions import hamming_code
    from crcodes.partitions_quotients import CrPartitionCertificate

    monkeypatch.setattr(
        search_mod, "certify_cr_partition",
        lambda partition, **_: CrPartitionCertificate(False, failure="sabotaged"))
    with pytest.raises(TheoremViolationError) as caught:
        build_record(hamming_code(3, 2))
    assert caught.value.witness["failure"] == "sabotaged"
