import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

import pytest

from crcodes.algebra import GFMatrix, alphabet, gf_matrix
from crcodes.errors import DigestMismatchError, TheoremViolationError
from crcodes.hamming_space import ambient, code_from_parity_check
from crcodes.search import (
    CensusParams,
    build_record,
    enumerate_linear_codes,
    replay,
    run_census,
    systematic_parity_checks,
)


# -- the reduced-row-echelon enumerator: the generator's differential oracle --


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_parity_checks(n: int, q: int, max_redundancy: int | None = None):
    """Every rank-r RREF matrix with r rows and n columns, r = 1..n-1.

    One matrix per dual subspace, in a fixed order: redundancy, then pivot
    set (lexicographic), then free entries as a base-q counter.
    """
    alpha = alphabet(q)
    top = n - 1 if max_redundancy is None else min(max_redundancy, n - 1)
    for r in range(1, top + 1):
        for pivots in combinations(range(n), r):
            free_positions = [
                (i, j)
                for i in range(r)
                for j in range(n)
                if j not in pivots and j > pivots[i]
            ]
            for fill in product(range(q), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(r)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), value in zip(free_positions, fill):
                    rows[i][j] = value
                yield gf_matrix(alpha, rows)


def _column_key(h: GFMatrix) -> tuple:
    """Sorted normalized columns: invariant under column permutation/scaling."""
    alpha = h.alphabet
    cols = []
    for col in h.columns():
        lead = next((x for x in col if x), None)
        if lead is None:
            cols.append(col)
        else:
            inv = alpha.inv(lead)
            cols.append(tuple(alpha.mul(inv, x) for x in col))
    return tuple(sorted(cols))


def rref_dedup_parity_checks(n: int, q: int):
    """The census enumeration of census-record@1: every RREF frame, keeping
    the first of each (r, column key)."""
    seen = set()
    for h in enumerate_parity_checks(n, q):
        key = (h.nrows, _column_key(h))
        if key not in seen:
            seen.add(key)
            yield key, h


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


@pytest.mark.parametrize("q,top", [(2, 6), (3, 5), (4, 4), (5, 3)])
def test_systematic_keys_equal_rref_dedup_keys(q, top):
    for n in range(1, top + 1):
        generated = [(h.nrows, _column_key(h)) for h in systematic_parity_checks(n, q)]
        assert len(set(generated)) == len(generated)  # no duplicates
        assert set(generated) == {key for key, _ in rref_dedup_parity_checks(n, q)}
        # one candidate per multiset of n-r of the 1 + (q^r-1)/(q-1) columns
        columns = {r: 1 + (q**r - 1) // (q - 1) for r in range(1, n)}
        assert len(generated) == sum(
            comb(columns[r] + n - r - 1, n - r) for r in range(1, n))


def _invariant_fields(record):
    return {key: value for key, value in record.items()
            if key not in {"parity_check", "digest", "witness", "schema"}}


@pytest.mark.parametrize("q,top", [(2, 6), (3, 4)])
def test_records_match_rref_dedup_records_key_by_key(q, top):
    for n in range(1, top + 1):
        oracle = {key: _invariant_fields(build_record(
                      code_from_parity_check(ambient(n, q), h)))
                  for key, h in rref_dedup_parity_checks(n, q)}
        fresh = {}
        for code in enumerate_linear_codes(n, q):
            h = code.linear.parity_check
            fresh[(h.nrows, _column_key(h))] = _invariant_fields(build_record(code))
        assert fresh.keys() == oracle.keys()
        for key in oracle:
            assert fresh[key] == oracle[key], key


def test_replay_accepts_rref_records_of_schema_one():
    replayed = {True: 0, False: 0}
    for _, h in rref_dedup_parity_checks(4, 2):
        record = build_record(code_from_parity_check(ambient(4, 2), h))
        record["schema"] = "census-record@1"
        result = replay(json.loads(json.dumps(record)))
        assert result["match"], result
        if not record["cr"]:
            assert result["witness_reconfirmed"]
        replayed[record["cr"]] += 1
    assert replayed[True] and replayed[False]


def test_redundancy_one_dedup_matches_weight_classes(tmp_path):
    # n=3, q=2, redundancy 1: the candidates are [1 | a b] for the sorted
    # column pairs ab in {00, 01, 11}, one per weight: {1,0,0}, {1,1,0}, {1,1,1}
    codes = list(enumerate_linear_codes(3, 2, max_redundancy=1))
    summary = run_census(CensusParams(q=2, min_n=3, max_n=3, max_redundancy=1), tmp_path)
    assert summary["enumerated_subspaces"] == summary["recorded"] == 3
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
        codes = list(enumerate_linear_codes(4, 2, max_redundancy=r))
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


def test_census_bytes_do_not_depend_on_progress(tmp_path):
    params = CensusParams(q=2, max_n=4)
    calls = []
    with_progress = run_census(params, tmp_path / "on",
                               lambda *state: calls.append(state))
    without = run_census(params, tmp_path / "off")
    assert with_progress.pop("files") != without.pop("files")
    assert with_progress == without
    for name in ("census.jsonl", "summary.csv"):
        assert (tmp_path / "on" / name).read_bytes() == (
            tmp_path / "off" / name).read_bytes()
    # one call per record: (n, records so far, CR records so far)
    assert [records for _, records, _ in calls] == list(
        range(1, without["recorded"] + 1))
    assert calls[-1] == (4, without["recorded"], without["completely_regular"])


# SHA-256 of census.jsonl and summary.csv for one length, past the word-by-word
# cross-check of spaces up to 2^7 words: only the syndrome certificate runs.
_ONE_LENGTH_DIGESTS = {
    (3, 5): ("2771040e5aa1c0a669941196f8aaa144139262b2afd5453a3c7ff8df561853fd",
             "d25778426fac07d8c963fec96a4f0b17b0db230f42410b9ff1ccc7dd91e83d7b"),
    (4, 4): ("77eb4049eb8f6263a76b28ce4bed7051c132822f78fb30bf5165d59583ff685e",
             "12215fb5c910fce1e5f42191350fd2d2add0cbe9caf3d95ed3e2b28c28ea06d3"),
    (5, 4): ("13a2022b4b62adb641e9c424f9a7aca313a46d272a36776850ed0e031d4d8e4f",
             "2f8b661a35f67e5cc5f4a1b602ebc74c6af61e3a38410d8bb155302dab8ea08b"),
}


@pytest.mark.parametrize("q, n", sorted(_ONE_LENGTH_DIGESTS))
def test_one_length_census_bytes_are_pinned(tmp_path, q, n):
    assert q**n > 1 << 7
    run_census(CensusParams(q=q, min_n=n, max_n=n), tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("census.jsonl", "summary.csv"))
    assert digests == _ONE_LENGTH_DIGESTS[q, n]


def test_census_spans_no_member(tmp_path, monkeypatch):
    # the certificate, delta, the product blocks, the minimum distance of the
    # deduplicated code and every other check read H alone
    import crcodes.hamming_space as hamming_mod

    spans = []
    real_span = hamming_mod._span
    monkeypatch.setattr(hamming_mod, "_span",
                        lambda *args: spans.append(args) or real_span(*args))
    summary = run_census(CensusParams(q=3, max_n=5), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("census.jsonl", "summary.csv")}
    assert digests == {
        "census.jsonl": "df72443a26e3a840cf1bdcfc66d19e4d5270fae9f0c49e23115fe5f9ec63a42d",
        "summary.csv": "a0e68f0ca4b0d6d89bad4dd48fd05bf840355f633dd50bf3657f36b5e858ebf1",
    }
    assert summary["recorded"] == 229 and summary["completely_regular"] == 30
    assert spans == []


def test_analysis_of_a_non_cr_census_code_spans_no_member(monkeypatch):
    import crcodes.hamming_space as hamming_mod
    from crcodes.cr_analysis import analyze_code

    def forbidden(*args):
        raise AssertionError("members spanned")

    monkeypatch.setattr(hamming_mod, "_span", forbidden)
    for n in (4, 5):  # with and without the word-by-word cross-check
        code = next(c for c in enumerate_linear_codes(n, 3)
                    if not analyze_code(c).cr)
        assert analyze_code(code).delta >= 1


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

    def sabotaged(code, certificate=None):
        record = real(code, certificate)
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


def test_the_census_classifies_small_covering_radius(tmp_path):
    # binary repetition n=5, whose coset graph is the folded 5-cube, is a
    # covering radius 2 case; every CR record names small_radius_case
    run_census(CensusParams(q=2, max_n=5), tmp_path)
    records = [json.loads(line)
               for line in (tmp_path / "census.jsonl").read_text().splitlines()]
    statuses = [r["checks"]["small_radius_case"] for r in records if r["cr"]]
    assert set(statuses) == {"PASS", "INAPPLICABLE"}
    [rep5] = [r for r in records if r["n"] == 5 and r["delta"] == 5]
    assert rep5["family"] == {"tag": "folded_cube", "params": {"m": 5}}
    assert rep5["checks"]["small_radius_case"] == "PASS"


def test_a_small_radius_code_with_no_case_stops_the_census(tmp_path, monkeypatch):
    import crcodes.classify as classify_mod
    from crcodes.classify import SmallRadiusReport

    monkeypatch.setattr(classify_mod, "classify_small_covering_radius",
                        lambda context: SmallRadiusReport(None))
    with pytest.raises(TheoremViolationError):
        run_census(CensusParams(q=2, max_n=5), tmp_path)
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert witness["failed_checks"] == ["small_radius_case"]


def test_replay_compares_the_checks_a_record_names(monkeypatch):
    # a record written before small_radius_case existed still replays; a
    # fresh FAIL of that check still fails the replay
    import crcodes.classify as classify_mod
    from crcodes.classify import SmallRadiusReport
    from crcodes.constructions import hamming_code

    record = build_record(hamming_code(3, 2))
    assert record["checks"].pop("small_radius_case") == "PASS"
    assert replay(record) == {"digest": record["digest"], "match": True, "differences": []}
    monkeypatch.setattr(classify_mod, "classify_small_covering_radius",
                        lambda context: SmallRadiusReport(None))
    assert replay(record)["differences"] == ["checks"]


def test_a_non_cr_replay_certifies_its_code_once(monkeypatch):
    import crcodes.cr_analysis as cr_mod
    import crcodes.search as search_mod
    from crcodes.cr_analysis import analyze_code

    code = next(c for c in enumerate_linear_codes(8, 2) if not analyze_code(c).cr)
    record = build_record(code)
    calls = []
    real = cr_mod.certify_codes
    for module in (cr_mod, search_mod):
        monkeypatch.setattr(module, "certify_codes",
                            lambda codes: calls.append(1) or real(codes))
    result = replay(record)
    assert result["match"] and result["witness_reconfirmed"]
    assert len(calls) == 1


def test_a_record_splits_its_code_into_product_factors_once(monkeypatch):
    # the Hamming [7,4] square: the product decomposition and the
    # radius-one power form read one ProductSplit
    import crcodes.classify as classify_mod
    from crcodes.constructions import cartesian_product, hamming_code

    calls = []
    for name in ("finest_product_blocks", "product_factors"):
        real = getattr(classify_mod, name)
        monkeypatch.setattr(classify_mod, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    ham = hamming_code(3, 2)
    record = build_record(cartesian_product(ham, ham))
    assert record["checks"]["product_decomposition"] == "PASS"
    assert "radius_one_power" in record["form_cases"]
    assert sorted(calls) == ["finest_product_blocks", "product_factors"]


def test_a_moved_coset_graph_edge_fails_the_census(tmp_path, monkeypatch):
    # move the edges of one element of S in each coset graph whose S misses
    # a nonzero syndrome; the DRG certificate is held to the true graph (a
    # graph that is not distance-regular would stop the run first), so only
    # the comparison of S with the H(lambda e_j) can catch the move
    import crcodes.classify as classify_mod
    import crcodes.partitions_quotients as pq_mod
    import crcodes.search as search_mod
    from crcodes.partitions_quotients import CayleyGraph

    real_graph = pq_mod.coset_graph_by_syndrome
    real_drg = classify_mod.certify_distance_regular
    true_graph = {}

    def moved(code):
        graph = true_graph["last"] = real_graph(code)
        spare = [s for s in range(1, graph.n) if s not in graph.connection]
        if not spare:
            return graph
        return CayleyGraph(graph.alphabet, graph.rank,
                           tuple(sorted(graph.connection[1:] + (spare[0],))))

    for module in (pq_mod, classify_mod):
        monkeypatch.setattr(module, "coset_graph_by_syndrome", moved)
    monkeypatch.setattr(classify_mod, "certify_distance_regular",
                        lambda graph: real_drg(true_graph["last"]))
    with pytest.raises(TheoremViolationError):
        search_mod.run_census(CensusParams(q=2, max_n=4), tmp_path)
    witness = json.loads((tmp_path / "witness.json").read_text())
    assert "syndrome_graph_isomorphic" in witness["failed_checks"]
    assert witness["record"]["checks"]["syndrome_graph_isomorphic"] == "FAIL"


def test_census_under_python_O_reaches_the_same_summary(tmp_path):
    # theorem checks raise instead of asserting, so -O runs them all
    run_census(CensusParams(q=2, max_n=4), tmp_path / "plain")
    script = (
        "import sys\n"
        "from crcodes.search import CensusParams, run_census\n"
        "assert False, 'asserts are live'\n"
        "run_census(CensusParams(q=2, max_n=4), sys.argv[1])\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", script, str(tmp_path / "opt")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("census.jsonl", "summary.csv"):
        assert (tmp_path / "opt" / name).read_bytes() == (
            tmp_path / "plain" / name).read_bytes()


# The ternary census at n = 6 allocated at most 0.74 MB above its baseline
# with one certificate per code, and 0.91 MB with 4,096-lane chunks; chunks
# of twice as many lanes take 1.6 MB.
CHUNKED_CENSUS_PEAK_BYTES = 1_000_000


def test_the_packed_census_holds_a_bounded_peak(tmp_path):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        summary = run_census(CensusParams(q=3, min_n=6, max_n=6), tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert summary["recorded"] == 1619
    assert peak < CHUNKED_CENSUS_PEAK_BYTES, peak
