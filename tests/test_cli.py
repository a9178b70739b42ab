import json
from pathlib import Path

import pytest

from crcodes.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def _write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _hamming74_spec(tmp_path):
    return _write_spec(tmp_path, "hamming74.json",
                       {"type": "construct", "name": "hamming", "q": 2, "r": 3})


def _rep3_spec(tmp_path):
    return _write_spec(tmp_path, "rep3.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 3})


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_hamming74(tmp_path, capsys):
    code, out, _ = _run(capsys, "check", _hamming74_spec(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["cr"] is True
    assert report["spectrum"] == [7, -1]
    assert report["arithmetic"]["t"] == 4


def test_check_not_cr_exits_one_with_witness(tmp_path, capsys):
    spec = _write_spec(tmp_path, "notcr.json",
                       {"type": "words", "q": 2, "n": 3, "words": [[0, 0, 0], [0, 1, 1]]})
    code, out, _ = _run(capsys, "check", spec)
    assert code == 1
    report = json.loads(out)
    assert report["cr"] is False
    assert {"vertex_a", "vertex_b", "count_a", "count_b"} <= set(report["witness"])


def test_spectrum_subcommand(tmp_path, capsys):
    code, out, _ = _run(capsys, "spectrum", _hamming74_spec(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["spectrum"] == [7, -1] and report["arithmetic"]["is"]


def test_product_verify(tmp_path, capsys):
    rep3 = _rep3_spec(tmp_path)
    code, out, _ = _run(capsys, "product", "--verify", rep3, rep3)
    assert code == 0
    report = json.loads(out)
    assert report["compatible"] and report["n1"] == 1 and report["n2"] == 3
    assert report["verified"]["matches_prediction"]


def test_product_incompatible_exits_one(tmp_path, capsys):
    code, out, _ = _run(capsys, "product", "--verify",
                        _hamming74_spec(tmp_path), _rep3_spec(tmp_path))
    assert code == 1
    report = json.loads(out)
    assert not report["compatible"]
    assert not report["verified"]["product_cr"]
    assert report["verified"]["matches_prediction"]


def test_quotient_subcommand(tmp_path, capsys):
    spec = _write_spec(tmp_path, "rep6.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 6})
    code, out, _ = _run(capsys, "quotient", spec)
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == 32
    assert report["predicted_array"] == {"b": [6, 5, 4], "c": [1, 2, 6]}
    assert report["drg"]["array"] == report["predicted_array"]
    assert report["syndrome_isomorphic"] is True
    assert report["quotient_spectrum"] == [6, 2, -2, -6]


def test_classify_subcommand(tmp_path, capsys):
    spec = _write_spec(tmp_path, "rep6.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 6})
    code, out, _ = _run(capsys, "classify", spec)
    assert code == 0
    report = json.loads(out)
    assert report["family"]["tag"] == "folded_cube"
    assert report["family"]["params"] == {"m": 6}
    statuses = {c["name"]: c["status"] for c in report["theorem_checks"]}
    assert statuses["arithmetic_quotient_family"] == "PASS"
    assert statuses["additive_654_array_is_folded"] == "PASS"


def test_decompose_subcommand(tmp_path, capsys):
    spec = _write_spec(tmp_path, "hamhamspec.json", {
        "type": "construct", "name": "product",
        "factors": [
            {"type": "construct", "name": "hamming", "q": 2, "r": 3},
            {"type": "construct", "name": "hamming", "q": 2, "r": 3},
        ],
    })
    code, out, _ = _run(capsys, "decompose", spec)
    assert code == 0
    report = json.loads(out)
    assert report["family"]["params"] == {"m": 2, "q": 8}
    assert report["decomposition"]["verified"]
    assert any(c["case"] == "radius_one_power" for c in report["forms"]["cases"])


def test_decompose_analyzes_and_classifies_the_input_code_once(
        tmp_path, capsys, monkeypatch):
    import crcodes.classify as classify_mod
    import crcodes.cli as cli_mod
    from crcodes.constructions import cartesian_product, hamming_code

    ham = hamming_code(3, 2)
    hamham = cartesian_product(ham, ham)
    spec = _write_spec(tmp_path, "hamham.json", {
        "type": "construct", "name": "product",
        "factors": [{"type": "construct", "name": "hamming", "q": 2, "r": 3}] * 2})
    analyzed, classified = [], []

    def wrap(module, name, log):
        original = getattr(module, name)

        def counting(arg, *rest):
            log.append(arg)
            return original(arg, *rest)

        monkeypatch.setattr(module, name, counting)

    for module in (cli_mod, classify_mod):
        wrap(module, "analyze_code", analyzed)
        wrap(module, "classify_quotient", classified)
    code, out, _ = _run(capsys, "decompose", spec)
    assert code == 0
    assert out == (GOLDEN_DIR / "decompose-hamham.json").read_text()
    same = [c for c in analyzed
            if (c.ambient, c.members) == (hamham.ambient, hamham.members)]
    assert len(same) == 1
    assert len(classified) == 1 and classified[0].n == 64  # H(2, 8)


def test_decompose_runs_the_forms_and_column_classes_once(tmp_path, capsys, monkeypatch):
    import crcodes.classify as classify_mod
    import crcodes.cli as cli_mod

    spec = _write_spec(tmp_path, "hamham.json", {
        "type": "construct", "name": "product",
        "factors": [{"type": "construct", "name": "hamming", "q": 2, "r": 3}] * 2})
    calls = {"classify_arithmetic_forms": 0, "column_classes": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(classify_mod, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (cli_mod, classify_mod):
            monkeypatch.setattr(module, name, counting)
    code, out, _ = _run(capsys, "decompose", spec)
    assert code == 0
    assert out == (GOLDEN_DIR / "decompose-hamham.json").read_text()
    assert calls == {"classify_arithmetic_forms": 1, "column_classes": 1}


def test_folded_cube_forms_take_the_coset_graph_from_the_caller(
        tmp_path, capsys, monkeypatch):
    import crcodes.classify as classify_mod
    import crcodes.partitions_quotients as pq_mod
    import crcodes.search as search_mod
    from crcodes.constructions import repetition_code

    spec = _write_spec(tmp_path, "rep6.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 6})
    plain = _run(capsys, "decompose", spec)
    built = []
    original = pq_mod.coset_graph_by_syndrome

    def counting(code):
        built.append(code)
        return original(code)

    for module in (classify_mod, pq_mod, search_mod):
        monkeypatch.setattr(module, "coset_graph_by_syndrome", counting)
    record = search_mod.build_record(repetition_code(6, 2))
    assert record["form_cases"] == ["folded_cube_replication"]
    assert len(built) == 1
    built.clear()
    assert _run(capsys, "decompose", spec) == plain
    cases = [c["case"] for c in json.loads(plain[1])["forms"]["cases"]]
    assert cases == ["folded_cube_replication"]
    assert len(built) == 1


# SHA-256 of the report of binary repetition n=11, whose coset graph is the
# folded 11-cube: both reports carry the folded-cube isomorphism
_REP11_REPORTS = {
    "classify": "aa0f8a304c3ba92eb0d3dd1e60f8708a51cb3104c90b8123982a5b22429acf11",
    "decompose": "895cd67a65057cee5370e3a2ef0260cfcd00bd57548996f0342db05a367f9b7e",
}


@pytest.mark.parametrize("command", sorted(_REP11_REPORTS))
def test_folded_cube_reports_make_no_isomorphism_search(tmp_path, capsys, monkeypatch,
                                                        command):
    import hashlib

    import crcodes.classify as classify_mod

    searches = []
    real = classify_mod.graph_isomorphic
    monkeypatch.setattr(classify_mod, "graph_isomorphic",
                        lambda g1, g2: searches.append(g1.n) or real(g1, g2))
    spec = _write_spec(tmp_path, "rep11.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 11})
    code, out, err = _run(capsys, command, spec)
    assert code == 0 and err == "" and searches == []
    assert hashlib.sha256(out.encode()).hexdigest() == _REP11_REPORTS[command]


def test_construct_roundtrip(tmp_path, capsys):
    spec = _hamming74_spec(tmp_path)
    out_path = tmp_path / "expanded.json"
    code, _, _ = _run(capsys, "construct", spec, "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["type"] == "linear" and doc["n"] == 7 and doc["q"] == 2
    assert len(doc["parity_check"]) == 3
    code, out, _ = _run(capsys, "check", str(out_path))
    assert code == 0 and json.loads(out)["cr"]


def test_search_and_replay(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, out, _ = _run(capsys, "search", "--q", "2", "--max-n", "4",
                        "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["failures"] == 0 and summary["reconciled"]
    first = (out_dir / "census.jsonl").read_text().splitlines()[0]
    record_path = tmp_path / "record.json"
    record_path.write_text(first)
    code, out, _ = _run(capsys, "replay", str(record_path))
    assert code == 0 and json.loads(out)["match"]


def test_appended_dependent_row_replays_like_its_record(tmp_path, capsys):
    from crcodes.search import _rebuild, code_digest

    out_dir = tmp_path / "census"
    _run(capsys, "search", "--q", "3", "--max-n", "4", "--out-dir", str(out_dir))
    replayed = cr = 0
    for line in (out_dir / "census.jsonl").read_text().splitlines():
        record = json.loads(line)
        if len(record["parity_check"]) < 2:
            continue
        rows = record["parity_check"]
        record["parity_check"] = rows + [[(a + 2 * b) % 3 for a, b in zip(*rows[:2])]]
        record["digest"] = code_digest(_rebuild(record))
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(record))
        code, out, err = _run(capsys, "replay", str(record_path))
        assert (code, json.loads(out)["differences"], err) == (0, [], "")
        replayed += 1
        cr += record["cr"]
    assert (replayed, cr) == (34, 9)


@pytest.mark.parametrize("command", ["check", "classify", "decompose", "quotient"])
def test_dependent_parity_check_rows_change_no_report(tmp_path, capsys, command):
    twin = {"type": "linear", "q": 2, "n": 4, "parity_check": [[1, 1, 0, 0], [0, 0, 1, 1]]}
    dependent = dict(twin, parity_check=twin["parity_check"] + [[1, 1, 1, 1]])
    want = _run(capsys, command, _write_spec(tmp_path, "twin.json", twin))
    assert want[0] == 0
    assert _run(capsys, command, _write_spec(tmp_path, "dependent.json", dependent)) == want


def test_search_progress_goes_to_stderr_only(tmp_path, capsys, monkeypatch):
    import crcodes.cli as cli_mod
    from crcodes.search import CensusParams, run_census

    monkeypatch.setattr(cli_mod, "PROGRESS_INTERVAL_S", 0.0)  # a line per record
    code, out, err = _run(capsys, "search", "--q", "2", "--max-n", "4",
                          "--out-dir", str(tmp_path / "cli"))
    assert code == 0
    lines = [json.loads(line) for line in err.splitlines()]
    summary = json.loads(out)
    assert len(lines) == summary["recorded"]
    assert set(lines[-1]) == {"progress", "n", "records", "completely_regular",
                              "records_per_s"}
    assert (lines[-1]["n"], lines[-1]["records"], lines[-1]["completely_regular"]) == (
        4, summary["recorded"], summary["completely_regular"])
    run_census(CensusParams(q=2, max_n=4), tmp_path / "quiet")
    for name in ("census.jsonl", "summary.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (
            tmp_path / "quiet" / name).read_bytes()


def test_bad_input_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "check", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "input"

    spec = _write_spec(tmp_path, "badtype.json", {"type": "mystery"})
    code, _, err = _run(capsys, "check", spec)
    assert code == 2


def test_a_parity_check_entry_that_is_not_an_integer_exits_two(tmp_path, capsys):
    spec = _write_spec(tmp_path, "float.json", {
        "type": "linear", "q": 2, "n": 3, "parity_check": [[1, 1.7, 1]]})
    code, _, err = _run(capsys, "check", spec)
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_capacity_exits_three(tmp_path, capsys):
    spec = _write_spec(tmp_path, "huge.json", {
        "type": "construct", "name": "repetition", "q": 2, "n": 30})
    code, _, err = _run(capsys, "check", spec)
    assert code == 3
    assert json.loads(err)["error"] == "capacity"


def test_check_of_a_padded_hamming_code_lists_no_member(tmp_path, capsys, monkeypatch):
    import crcodes.hamming_space as hamming_mod

    def forbidden(*args):
        raise AssertionError("members spanned")

    monkeypatch.setattr(hamming_mod, "_span", forbidden)
    spec = _write_spec(tmp_path, "hamming-15-11-pad3.json", {
        "type": "construct", "name": "pad", "count": 3,
        "base": {"type": "construct", "name": "hamming", "q": 2, "r": 4}})
    code, out, _ = _run(capsys, "check", spec, "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["cr"] and report["delta"] == 1
    assert report["size"] == 2**14


def test_additivity_check_above_its_bound_exits_three(tmp_path, capsys):
    from crcodes.hamming_space import ADDITIVE_CHECK_WORDS

    words = [[int(b) for b in format(w, "012b")] for w in range(1 << 12)
             if bin(w).count("1") % 2 == 0]
    assert len(words) > ADDITIVE_CHECK_WORDS
    spec = _write_spec(tmp_path, "listed.json", {
        "type": "words", "q": 2, "n": 12, "words": words, "additive": True})
    code, _, err = _run(capsys, "check", spec)
    assert code == 3
    assert json.loads(err)["error"] == "capacity"


def test_capacity_override_needs_acknowledgement(tmp_path, capsys):
    spec = _hamming74_spec(tmp_path)
    code, _, err = _run(capsys, "check", spec,
                        "--max-vertices", str(1 << 27))
    assert code == 2
    code, out, _ = _run(capsys, "check", spec,
                        "--max-vertices", str(1 << 27), "--acknowledge-capacity")
    assert code == 0


def test_text_format(tmp_path, capsys):
    code, out, _ = _run(capsys, "check", _hamming74_spec(tmp_path),
                        "--format", "text")
    assert code == 0
    assert "cr: true" in out
    assert "spectrum:" in out


@pytest.mark.parametrize("name", [
    "check-hamming74", "classify-rep6", "product-rep3",
    "quotient-rep6", "decompose-hamham",
])
def test_golden_reports(tmp_path, capsys, name):
    """Report schemas are stable: byte-for-byte comparison with frozen files."""
    golden = GOLDEN_DIR / f"{name}.json"
    rep6 = _write_spec(tmp_path, "rep6.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 6})
    hamham = _write_spec(tmp_path, "hamham.json", {
        "type": "construct", "name": "product",
        "factors": [
            {"type": "construct", "name": "hamming", "q": 2, "r": 3},
            {"type": "construct", "name": "hamming", "q": 2, "r": 3},
        ]})
    args = {
        "check-hamming74": ("check", _hamming74_spec(tmp_path)),
        "classify-rep6": ("classify", rep6),
        "product-rep3": ("product", "--verify", _rep3_spec(tmp_path), _rep3_spec(tmp_path)),
        "quotient-rep6": ("quotient", rep6),
        "decompose-hamham": ("decompose", hamham),
    }[name]
    _, out, _ = _run(capsys, *args)
    assert out == golden.read_text()


def test_theorem_violation_witness_is_json(tmp_path, capsys, monkeypatch):
    import crcodes.cli as cli_mod
    from crcodes.cr_analysis import IntersectionNumbers

    def broken(code):
        IntersectionNumbers((0, 0), (0, 7), (7, 0)).validate()

    monkeypatch.setattr(cli_mod, "analyze_code", broken)
    code, _, err = _run(capsys, "check", _hamming74_spec(tmp_path))
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "theorem_violation"
    assert payload["witness"] == {"gamma": [0, 0], "alpha": [0, 7], "beta": [7, 0]}


def test_census_classify_and_decompose_never_build_the_coset_partition(
        tmp_path, capsys, monkeypatch):
    # the coset graph of a linear code comes from its syndromes alone: with
    # the q^n partition, its quotient and its certificate made to raise, the
    # census and the reports keep their bytes
    import hashlib

    import crcodes.cli as cli_mod
    import crcodes.partitions_quotients as pq_mod
    import crcodes.search as search_mod
    from crcodes.search import CensusParams

    rep6 = _write_spec(tmp_path, "rep6.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 6})
    hamham = _write_spec(tmp_path, "hamham.json", {
        "type": "construct", "name": "product",
        "factors": [{"type": "construct", "name": "hamming", "q": 2, "r": 3}] * 2})
    runs = [(command, spec) for command in ("classify", "decompose")
            for spec in (rep6, hamham)]
    plain = [_run(capsys, command, spec) for command, spec in runs]

    def forbidden(*args, **kwargs):
        raise AssertionError("q^n coset partition built")

    names = ("coset_partition", "quotient_graph", "certify_cr_partition")
    assert not any(hasattr(search_mod, name) for name in names)
    for module in (cli_mod, pq_mod):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)

    search_mod.run_census(CensusParams(q=3, max_n=4), tmp_path / "census")
    digests = {name: hashlib.sha256((tmp_path / "census" / name).read_bytes()).hexdigest()
               for name in ("census.jsonl", "summary.csv")}
    assert digests == {
        "census.jsonl": "d5d02fad160138635edd8c8167f015fbc21dcb11ca20ce57cf8ac9a2cc37d55b",
        "summary.csv": "b1034097b9c00b718ec9c28cde8061d2cf62b1ea56b127e59670136557ad58e7",
    }
    guarded = [_run(capsys, command, spec) for command, spec in runs]
    assert guarded == plain
    assert all(code == 0 for code, _, _ in guarded)
    assert guarded[0][1] == (GOLDEN_DIR / "classify-rep6.json").read_text()
    assert guarded[3][1] == (GOLDEN_DIR / "decompose-hamham.json").read_text()


# Hamming [5,3] over GF(4) twice, the second copy with one column of its
# parity check scaled by 2: the factors are monomially but not
# permutation-equivalent
_GF4_HAMMING_CHECK = [[0, 1, 1, 1, 1], [1, 0, 1, 2, 3]]
_GF4_SCALED_CHECK = [[0, 1, 1, 1, 2], [1, 0, 1, 2, 1]]


def _gf4_product_spec(tmp_path, name, second):
    rows = [r + [0] * 5 for r in _GF4_HAMMING_CHECK] + [[0] * 5 + r for r in second]
    return _write_spec(tmp_path, name,
                       {"type": "linear", "q": 4, "n": 10, "parity_check": rows})


def test_decompose_compares_gf4_factors_up_to_scaling(tmp_path):
    runs = []
    for name, second in (("scaled.json", _GF4_SCALED_CHECK),
                         ("twin.json", _GF4_HAMMING_CHECK)):
        out = tmp_path / f"report-{name}"
        code = main(["decompose", _gf4_product_spec(tmp_path, name, second),
                     "--out", str(out)])
        runs.append((code, out.read_bytes() if out.exists() else None))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]
    report = json.loads(runs[0][1])
    assert "radius_one_power" in {c["case"] for c in report["forms"]["cases"]}
    assert report["small_radius"]["case"] == "hamming_product"


def _ladder_specs():
    import importlib.util
    import sys

    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.SPECS


# Exit code and SHA-256 of the `crcodes decompose --out` report of each spec
# of the benchmark's certify ladder
_LADDER_DECOMPOSE = {
    "hamming-7-4": (0, "1d2b499e31d9a7be85949025f54366d15f2a2ceb3c75f1f8e0c6ddcddd729deb"),
    "ext-hamming-16-11": (
        0, "7a9e0f77df11522fe5d12feb576f2d86774bf3a73dc0fe3b7307c7ec6090f9f1"),
    "hamming-15-11-pad3": (
        0, "fe8ba15c4d5566ba059c289bc7bbf0a8ab69cb20ef33983611954d8165f2831b"),
    "hamming-gf4-5-3": (
        0, "96062a5174ec589e1cc4edaa319dae330e0eb89c083f2c394e819534f893baad"),
    "hamming-gf5-6-4": (
        0, "b2129c8e559a5fed881bd7e55809bb8e4f9d275cc03e8238b63c52699ddd2115"),
    "hamming-7-4-squared": (
        0, "c5eeac7d0d21a7a31bb8cafd732ba0d9794e8456879240ad250ac6dd8a997161"),
    "hamming-7-4-twice": (
        0, "872c6e3305180e43c0c4ca65894d56dc2d31bf1ab63472f98497d5cee49ea5b0"),
    "repetition-2-10": (
        0, "3534d4fd65b567483f16b924a23df78eeac14737bd2d550ea4d8670755878d65"),
    "repetition-2-11": (
        0, "895cd67a65057cee5370e3a2ef0260cfcd00bd57548996f0342db05a367f9b7e"),
    "repetition-3-7": (
        1, "2f9bb3b81cf297f2595655e500a06ca66dd871c0aab243bb5a9591981b253077"),
}


def test_decompose_finds_the_folded_cube_of_a_long_repetition_code(tmp_path, capsys):
    # the folded 14-cube has 8,192 vertices, past the cap of the backtracking
    # search; the linear map of the syndrome coset graph needs no fixture
    spec = _write_spec(tmp_path, "rep14.json", {
        "type": "construct", "name": "repetition", "q": 2, "n": 14})
    code, out, _ = _run(capsys, "decompose", spec)
    assert code == 0
    report = json.loads(out)
    assert [c["case"] for c in report["forms"]["cases"]] == ["folded_cube_replication"]
    assert report["family"]["params"] == {"m": 14}
    assert sorted(report["family"]["evidence"]["isomorphism"]) == list(range(2**13))


def test_decompose_reports_of_the_certify_ladder_keep_their_bytes(tmp_path):
    import hashlib

    specs = _ladder_specs()
    assert set(specs) == set(_LADDER_DECOMPOSE)
    got = {}
    for name, doc in specs.items():
        out = tmp_path / f"{name}-report.json"
        code = main(["decompose", _write_spec(tmp_path, f"{name}.json", doc),
                     "--out", str(out)])
        got[name] = (code, hashlib.sha256(out.read_bytes()).hexdigest())
    assert got == _LADDER_DECOMPOSE
