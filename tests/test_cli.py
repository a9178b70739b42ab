import json
from collections import Counter
from pathlib import Path

import pytest

from crcodes.cli import main
from fixture_graphs import expand_linear_map

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


@pytest.mark.parametrize("command", ["", "--verify"])
def test_product_of_factors_over_two_alphabets_exits_two(tmp_path, capsys, command):
    ternary = _write_spec(tmp_path, "hamming-3-4-2.json",
                          {"type": "construct", "name": "hamming", "q": 3, "r": 2})
    code, out, err = _run(capsys, "product", *filter(None, [command]),
                          _hamming74_spec(tmp_path), ternary)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input",
                               "message": "product factors must share one alphabet"}


@pytest.mark.parametrize("doc", [
    {"type": "linear", "q": 3, "n": 2, "parity_check": [[0, 0]]},
    {"type": "words", "q": 2, "n": 2, "words": [[0, 0], [0, 1], [1, 0], [1, 1]]},
], ids=["zero-parity-check", "listed-space"])
def test_quotient_of_a_code_with_covering_radius_zero(tmp_path, capsys, doc):
    code, out, err = _run(capsys, "quotient", _write_spec(tmp_path, "whole.json", doc))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["classes"] == 1
    assert report["predicted_array"] == report["drg"]["array"] == {"b": [], "c": []}
    assert report["quotient_spectrum"] == [0]


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


def test_quotient_certifies_the_code_once_and_refuses_classes_above_the_cap(
        tmp_path, capsys, monkeypatch):
    # above the class cap the command stops with exit 3 and no class is
    # certified on its own; at the cap every coset shares the code's one
    # certificate, and a linear code's quotient array is its Cayley coset
    # graph's, whose syndromes are its classes
    import crcodes.cli as cli_mod
    import crcodes.partitions_quotients as pq_mod
    from crcodes.codespec import parse_codespec
    from crcodes.partitions_quotients import CayleyGraph, coset_graph_by_syndrome

    monkeypatch.setattr(pq_mod, "QUOTIENT_CLASS_CAP", 64)
    rep8 = _write_spec(tmp_path, "rep8.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 8})
    code, out, err = _run(capsys, "quotient", rep8)
    assert (code, out) == (3, "")
    assert [json.loads(line)["error"] for line in err.splitlines()] == ["capacity"]

    hamham = _write_spec(tmp_path, "hamham.json", {
        "type": "construct", "name": "product",
        "factors": [{"type": "construct", "name": "hamming", "q": 2, "r": 3}] * 2})
    drg = pq_mod.certify_distance_regular(coset_graph_by_syndrome(parse_codespec(Path(hamham))))
    real_certify = pq_mod.certify_completely_regular
    certified, graphs = [], []

    def counted(code):
        certified.append(code)
        return real_certify(code)

    def recorded(graph):
        graphs.append(type(graph))
        return drg

    monkeypatch.setattr(pq_mod, "certify_completely_regular", counted)
    monkeypatch.setattr(cli_mod, "certify_distance_regular", recorded)
    code, out, err = _run(capsys, "quotient", hamham)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["classes"] == 64 and report["syndrome_isomorphic"] is True
    assert report["drg"]["array"] == report["predicted_array"] == {"b": [14, 7], "c": [1, 2]}
    assert len(certified) == 1
    assert graphs == [CayleyGraph]


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
    wrap(classify_mod, "classify_quotient", classified)
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
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    code, out, _ = _run(capsys, "decompose", spec)
    assert code == 0
    assert out == (GOLDEN_DIR / "decompose-hamham.json").read_text()
    assert calls == {"classify_arithmetic_forms": 1, "column_classes": 1}


def test_decompose_splits_a_product_code_once(tmp_path, capsys, monkeypatch):
    # the product decomposition, the radius_one_power form and the
    # hamming_product case share one split of the code into factors
    import crcodes.classify as classify_mod

    spec = _write_spec(tmp_path, "hamham.json", {
        "type": "construct", "name": "product",
        "factors": [{"type": "construct", "name": "hamming", "q": 2, "r": 3}] * 2})
    calls = {"finest_product_blocks": 0, "product_factors": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(classify_mod, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(classify_mod, name, counting)
    code, out, _ = _run(capsys, "decompose", spec)
    assert code == 0
    assert out == (GOLDEN_DIR / "decompose-hamham.json").read_text()
    assert calls == {"finest_product_blocks": 1, "product_factors": 1}


def _refuse_adjacency_lists(monkeypatch):
    """Make building the adjacency list of a Cayley graph raise."""
    from crcodes.partitions_quotients import CayleyGraph

    def refuse(graph):
        raise AssertionError(f"adjacency list of {graph.n} vertices built")

    monkeypatch.setattr(CayleyGraph, "explicit", refuse)


def test_folded_cube_forms_build_no_adjacency_list(tmp_path, capsys, monkeypatch):
    import crcodes.search as search_mod
    from crcodes.constructions import repetition_code

    spec = _write_spec(tmp_path, "rep6.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 6})
    plain = _run(capsys, "decompose", spec)
    _refuse_adjacency_lists(monkeypatch)
    record = search_mod.build_record(repetition_code(6, 2))
    assert record["form_cases"] == ["folded_cube_replication"]
    assert record["checks"]["syndrome_graph_isomorphic"] == "PASS"
    assert _run(capsys, "decompose", spec) == plain
    cases = [c["case"] for c in json.loads(plain[1])["forms"]["cases"]]
    assert cases == ["folded_cube_replication"]


# SHA-256 of the report of binary repetition n=11, whose coset graph is the
# folded 11-cube: both reports carry the folded-cube isomorphism
_REP11_REPORTS = {
    "classify": "fd4307f4fa8da6ca4fb9f3f2752de7cf17e5d0ab8a85d209fa887dae0c1b129b",
    "decompose": "8ce9b76de49f5cc3593a2e0c67087087d8919cc994b5ebbc4ff87bdc5b5d1ddb",
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


@pytest.mark.parametrize("argv", [
    ["--max-redundancy", "-1", "--max-n", "3"], ["--max-redundancy", "0", "--max-n", "3"],
    ["--q", "6", "--max-n", "1"],
    ["--min-n", "3", "--max-n", "2"], ["--min-n", "0", "--max-n", "2"]])
def test_search_refuses_parameters_that_make_no_census(tmp_path, capsys, argv):
    out_dir = tmp_path / "census"
    code, out, err = _run(capsys, "search", *argv, "--out-dir", str(out_dir))
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "input"
    assert not (out_dir / "census.jsonl").exists()


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


def test_a_long_word_list_with_the_zero_word_gets_its_distance_by_pairs(tmp_path, capsys):
    # 1,100 listed words, more than an additivity check takes: the zero word
    # among them must not send the minimum distance to that check
    from crcodes.hamming_space import decode

    spec = _write_spec(tmp_path, "words1100.json", {
        "type": "words", "q": 2, "n": 11,
        "words": [list(decode(w, 11, 2)) for w in range(1100)]})
    code, out, err = _run(capsys, "check", spec)
    assert (code, err) == (1, "")
    assert json.loads(out)["delta"] == 1


def test_capacity_exits_three(tmp_path, capsys):
    spec = _write_spec(tmp_path, "huge.json", {
        "type": "construct", "name": "repetition", "q": 2, "n": 30})
    code, _, err = _run(capsys, "check", spec)
    assert code == 3
    assert json.loads(err)["error"] == "capacity"


def test_a_long_repetition_code_classifies_with_no_adjacency_list(
        tmp_path, capsys, monkeypatch):
    # binary repetition n=16: the coset graph is the folded 16-cube on 2^15
    # syndromes, certified and mapped from its 16 connections alone
    _refuse_adjacency_lists(monkeypatch)
    spec = _write_spec(tmp_path, "rep16.json", {
        "type": "construct", "name": "repetition", "q": 2, "n": 16})
    code, _, err = _run(capsys, "check", spec)
    assert (code, err) == (0, "")
    for command in ("classify", "decompose"):
        code, out, err = _run(capsys, command, spec)
        assert (code, err) == (0, "")
        family = json.loads(out)["family"]
        assert (family["tag"], family["params"]) == ("folded_cube", {"m": 16})
        assert sorted(expand_linear_map(family["evidence"]["linear_isomorphism"])) == list(
            range(2**15))
    code, out, err = _run(capsys, "search", "--q", "2", "--max-n", "6",
                          "--out-dir", str(tmp_path / "census"))
    assert (code, err) == (0, "") and json.loads(out)["failures"] == 0


def test_decompose_of_a_long_repetition_code_runs_one_syndrome_bfs(
        tmp_path, capsys, monkeypatch):
    # binary repetition n=20, 2^19 syndromes: the deduplicated code of the
    # column classes is the code itself, checked on its columns, not certified
    import crcodes.cr_analysis as cr_mod

    runs = []
    packed = cr_mod._packed_bfs
    monkeypatch.setattr(cr_mod, "_packed_bfs",
                        lambda space, r, offsets: runs.append(r) or packed(space, r, offsets))
    spec = _write_spec(tmp_path, "rep20.json", {
        "type": "construct", "name": "repetition", "q": 2, "n": 20})
    code, out, err = _run(capsys, "decompose", spec)
    assert (code, err) == (0, "")
    assert json.loads(out)["column_classes"]["representatives"] == list(range(20))
    assert runs == [19]


def test_a_parity_check_outside_rref_is_row_reduced_once(tmp_path, capsys, monkeypatch):
    # the chained checks x_i = x_(i+1) of binary repetition n=7 are full rank
    # and not in RREF: each command row-reduces that H once, and no other
    # matrix twice
    import crcodes.algebra as algebra_mod
    import crcodes.hamming_space as hamming_mod

    reduced = Counter()
    rref = algebra_mod.rref

    def counting(m):
        reduced[m.rows] += 1
        return rref(m)

    for module in (algebra_mod, hamming_mod):
        monkeypatch.setattr(module, "rref", counting)
    h = [[int(j in (i, i + 1)) for j in range(7)] for i in range(6)]
    spec = _write_spec(tmp_path, "chained.json",
                       {"type": "linear", "q": 2, "n": 7, "parity_check": h})
    for command in ("check", "classify", "decompose", "quotient"):
        reduced.clear()
        code, _, err = _run(capsys, command, spec)
        assert (code, err) == (0, "")
        assert reduced[tuple(map(tuple, h))] == 1 and max(reduced.values()) == 1, command


def test_a_padded_word_list_keeps_the_lowered_cap(tmp_path, capsys):
    spec = _write_spec(tmp_path, "pad-words.json", {
        "type": "construct", "name": "pad", "count": 2,
        "base": {"type": "words", "q": 2, "n": 3, "words": [[0, 0, 0], [1, 1, 0], [1, 0, 1]]}})
    code, out, err = _run(capsys, "check", spec, "--max-vertices", "8")
    assert (code, out) == (3, "")
    assert "32 vertices (cap 8)" in json.loads(err)["message"]
    code, _, _ = _run(capsys, "check", spec)
    assert code == 1  # under the default cap: scanned, and not completely regular


def test_search_and_replay_refuse_the_cap_options(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, out, err = _run(capsys, "search", "--q", "2", "--max-n", "5", "--max-vertices", "4",
                          "--out-dir", str(out_dir))
    assert (code, out) == (2, "") and json.loads(err)["error"] == "usage"
    assert not out_dir.exists()
    for command in ("search", "replay"):
        code, out, _ = _run(capsys, command, "--help")
        assert code == 0 and "--max-vertices" not in out and "--acknowledge" not in out


def test_decompose_of_the_binary_repetition_code_of_length_five(tmp_path, capsys):
    spec = _write_spec(tmp_path, "rep5.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 5})
    code, out, _ = _run(capsys, "decompose", spec)
    assert code == 0
    report = json.loads(out)
    assert report["family"]["tag"] == "folded_cube"
    assert report["small_radius"]["case"] == "binary_repetition"
    assert [c["case"] for c in report["forms"]["cases"]] == ["folded_cube_replication"]


@pytest.mark.parametrize("q,n", [(2, 1), (2, 3), (3, 2)])
def test_decompose_of_the_zero_code_is_one_report_by_parity_check_or_word_list(
        tmp_path, capsys, q, n):
    # {0} given as the code of H = I_n or as a one-word list: no structure
    # theorem applies to a one-word code, so both give the same report
    by_h = _write_spec(tmp_path, "zero-h.json", {
        "type": "linear", "q": q, "n": n,
        "parity_check": [[int(i == j) for j in range(n)] for i in range(n)]})
    by_words = _write_spec(tmp_path, "zero-words.json",
                           {"type": "words", "q": q, "n": n, "words": [[0] * n]})
    for fmt in ("json", "text"):
        runs = [_run(capsys, "decompose", spec, "--format", fmt) for spec in (by_h, by_words)]
        assert runs[0] == runs[1] and runs[0][0] == 0
    report = json.loads(_run(capsys, "decompose", by_h)[1])
    assert report["family"]["params"] == {"m": n, "q": q}
    assert not {"forms", "column_classes", "decomposition", "small_radius"} & set(report)


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


def test_one_table_of_theorem_checks_serves_the_census_and_the_cli(
        tmp_path, capsys, monkeypatch):
    # a FAIL planted in one section of the table stops the census, which
    # runs every row; `classify` exits 4 only for the coset_graph section
    # and `decompose` only for the structure section
    import crcodes.classify as classify_mod
    from crcodes.classify import CheckResult
    from crcodes.constructions import hamming_code
    from crcodes.errors import TheoremViolationError
    from crcodes.search import CensusParams, build_record, replay, run_census

    spec = _hamming74_spec(tmp_path)
    record = build_record(hamming_code(3, 2))
    table = classify_mod.THEOREM_CHECKS
    for section in ("coset_graph", "structure", "census"):
        planted = (section, lambda context: [CheckResult("planted", "FAIL")])
        monkeypatch.setattr(classify_mod, "THEOREM_CHECKS", (*table, planted))
        out = tmp_path / section
        with pytest.raises(TheoremViolationError):
            run_census(CensusParams(q=2, max_n=3), out)
        assert json.loads((out / "witness.json").read_text())["failed_checks"] == ["planted"]
        assert _run(capsys, "classify", spec)[0] == (4 if section == "coset_graph" else 0)
        assert _run(capsys, "decompose", spec)[0] == (4 if section == "structure" else 0)
    monkeypatch.setattr(classify_mod, "THEOREM_CHECKS", table)

    # a row calls its check through the module at call time, so one patch
    # reaches the census, `classify` and `replay`
    calls = []
    real = classify_mod.clique_bound_checks

    def refuted(q, family, array, min_distance):
        calls.append(q)
        first, *rest = real(q, family, array, min_distance)
        return [CheckResult(first.name, "FAIL"), *rest]

    monkeypatch.setattr(classify_mod, "clique_bound_checks", refuted)
    with pytest.raises(TheoremViolationError):
        run_census(CensusParams(q=2, max_n=3), tmp_path / "refuted")
    witness = json.loads((tmp_path / "refuted" / "witness.json").read_text())
    assert witness["failed_checks"] == ["hamming_alphabet_bound"]
    code, _, err = _run(capsys, "classify", spec)
    assert code == 4 and json.loads(err)["witness"]["theorem_checks"][0]["status"] == "FAIL"
    assert replay(record)["differences"] == ["checks"]
    assert len(calls) == 3
    assert _run(capsys, "decompose", spec)[0] == 0 and len(calls) == 3


def test_quotient_walks_only_the_neighbours_of_the_class_representatives(
        tmp_path, capsys, monkeypatch):
    # Hamming [7,4] padded by 3 zero coordinates has 128 words in each of its
    # 8 cosets.  Given as words, the quotient reads each class's neighbours
    # off its representative; given by its parity check, no coset partition
    # is built and no word is walked: the quotient is read off the syndromes,
    # no neighbour table of the 2^10 words is built (the Cayley certificate
    # may still tabulate the 2^7 words of its own code), and the report keeps
    # its bytes.  The two reports agree but for the syndrome graph.
    import hashlib

    import crcodes.cli as cli_mod
    import crcodes.cr_analysis as cr_mod
    import crcodes.hamming_space as hs_mod
    import crcodes.partitions_quotients as pq_mod
    from crcodes.codespec import parse_codespec
    from crcodes.hamming_space import decode

    linear = _write_spec(tmp_path, "ham74pad3.json", {
        "type": "construct", "name": "pad", "count": 3,
        "base": {"type": "construct", "name": "hamming", "q": 2, "r": 3}})
    code = parse_codespec(Path(linear))
    words = _write_spec(tmp_path, "ham74pad3-words.json", {
        "type": "words", "q": 2, "n": 10,
        "words": [list(decode(w, 10, 2)) for w in code.members]})
    representatives = pq_mod.coset_partition(code).representatives
    real_neighbors, real_table = pq_mod.neighbors, hs_mod.neighbor_table
    walked = []

    def counted(u, space):
        walked.append(u)
        return real_neighbors(u, space)

    monkeypatch.setattr(pq_mod, "neighbors", counted)
    status, listed, err = _run(capsys, "quotient", words)
    assert (status, err) == (0, "")
    assert walked == list(representatives) and len(walked) == 8

    def guarded(space):
        if space.n == 10:
            raise AssertionError("neighbour table of every word built")
        return real_table(space)

    def forbidden(*args, **kwargs):
        raise AssertionError("a word of the coset partition walked")

    assert not hasattr(pq_mod, "neighbor_table")
    for module in (hs_mod, cr_mod):
        monkeypatch.setattr(module, "neighbor_table", guarded)
    for module, name in ((cli_mod, "coset_partition"), (pq_mod, "coset_partition"),
                         (cli_mod, "quotient_graph"), (pq_mod, "quotient_graph"),
                         (pq_mod, "neighbors")):
        monkeypatch.setattr(module, name, forbidden)
    status, out, err = _run(capsys, "quotient", linear)
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02e1250464983947f7512fce68ff594674eb0fa1c7e9a857b14da180d6108950")
    report = json.loads(out)
    assert report.pop("syndrome_isomorphic") is True
    assert report.pop("syndrome_graph")["edges"] == report["graph"]["edges"]
    assert report == json.loads(listed)


def test_decompose_of_a_word_list_scans_its_additivity_once(tmp_path, capsys, monkeypatch):
    # the coset family refuses a code that is not additive, so the coordinate
    # classes read after it do not scan the |C|^2 sums again
    import crcodes.classify as classify_mod
    import crcodes.hamming_space as hs_mod
    import crcodes.partitions_quotients as pq_mod

    spec = _write_spec(tmp_path, "rep5-words.json", {
        "type": "words", "q": 2, "n": 5, "words": [[0] * 5, [1] * 5]})
    real, scanned = hs_mod.is_additive, []

    def counted(code):
        scanned.append(code)
        return real(code)

    for module in (hs_mod, pq_mod, classify_mod):
        monkeypatch.setattr(module, "is_additive", counted)
    status, out, err = _run(capsys, "decompose", spec)
    assert (status, err) == (0, "")
    assert len(scanned) == 1
    assert json.loads(out)["coordinate_classes"] == [[0], [1], [2], [3], [4]]


def test_quotient_of_a_linear_code_lists_no_word_above_the_vertex_cap(tmp_path, capsys):
    # Hamming [15,11] padded by 12 lives in H(27, 2), above the 2^26 vertex
    # cap, but its 16 cosets are its 16 syndromes: the quotient is K_16
    spec = _write_spec(tmp_path, "ham15pad12.json", {
        "type": "construct", "name": "pad", "count": 12,
        "base": {"type": "construct", "name": "hamming", "q": 2, "r": 4}})
    status, out, err = _run(capsys, "quotient", spec)
    assert (status, err) == (0, "")
    report = json.loads(out)
    assert report["classes"] == 16 and report["syndrome_isomorphic"] is True
    assert report["graph"]["edges"] == [[u, v] for u in range(16) for v in range(u + 1, 16)]
    assert report["graph"]["labels"][:3] == ["0", str(1 << 12), str(1 << 13)]
    assert report["drg"]["array"] == report["predicted_array"] == {"b": [15], "c": [1]}


def test_quotient_refuses_a_syndrome_graph_that_is_not_the_coset_quotient(
        tmp_path, capsys, monkeypatch):
    # the connection-set test behind `syndrome_isomorphic` is a runtime check
    import crcodes.cli as cli_mod

    spec = _write_spec(tmp_path, "rep6.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 6})
    monkeypatch.setattr(cli_mod, "is_syndrome_quotient", lambda code, graph: False)
    status, out, err = _run(capsys, "quotient", spec)
    assert (status, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "theorem_violation"
    assert error["witness"]["syndrome_isomorphic"] is False


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
        "census.jsonl": "f30da41d5c26b72c22983ef18a7da764d3ca277dc2900321cdf49f58d896b004",
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
        0, "3747a821020796331f9727490877b67bfec87b6bbd398c837e6754d9db2ac454"),
    "repetition-2-11": (
        0, "8ce9b76de49f5cc3593a2e0c67087087d8919cc994b5ebbc4ff87bdc5b5d1ddb"),
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
    assert sorted(expand_linear_map(report["family"]["evidence"]["linear_isomorphism"])) == list(
        range(2**13))


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


# -- large linear codes: every step is capped by what it lists ---------------------


def _ladder_closed_forms() -> dict:
    """The closed forms of the benchmark's ladder (bench/workloads.py), loaded
    by path and only read."""
    import runpy

    return runpy.run_path(str(Path(__file__).parent.parent / "bench" / "workloads.py"))


def _hamming(q, r):
    return {"type": "construct", "name": "hamming", "q": q, "r": r}


@pytest.fixture
def no_span(monkeypatch):
    import crcodes.hamming_space as hamming_mod

    def forbidden(*args):
        raise AssertionError("members spanned")

    monkeypatch.setattr(hamming_mod, "_span", forbidden)


def test_large_linear_codes_are_analysed_from_their_parity_check(tmp_path, capsys, no_span):
    # q^n and q^k are far above the cap; q^rank is not, and nothing is listed
    forms = _ladder_closed_forms()
    cases = {
        "hamming-31-26": (_hamming(2, 5), forms["perfect_hamming"](2, 5)),
        "hamming-63-57": (_hamming(2, 6), forms["perfect_hamming"](2, 6)),
        "hamming-3-40-36": (_hamming(3, 4), forms["perfect_hamming"](3, 4)),
        "hamming-4-21-18": (_hamming(4, 3), forms["perfect_hamming"](4, 3)),
        "hamming-31-26-squared": (
            {"type": "construct", "name": "product",
             "factors": [_hamming(2, 5), _hamming(2, 5)]}, forms["hamming_square"](2, 5)),
    }
    for name, (doc, want) in cases.items():
        spec = _write_spec(tmp_path, f"{name}.json", doc)
        reports = {}
        for command in ("check", "classify", "decompose"):
            code, out, err = _run(capsys, command, spec)
            assert code == 0, (name, command, err)
            reports[command] = json.loads(out)
        keys = ("cr", "rho", "gamma", "alpha", "beta", "spectrum")
        assert [reports["check"][k] for k in keys] == [want[k] for k in keys], name
        for command in ("classify", "decompose"):
            family = reports[command]["family"]
            assert {"tag": family["tag"], "params": family["params"]} == want["family"]
        assert reports["decompose"]["decomposition"]["verified"], name
    assert reports["decompose"]["decomposition"]["blocks"] == [
        list(range(31)), list(range(31, 62))]


def test_product_verify_of_two_long_hamming_codes(tmp_path, capsys, no_span):
    spec = _write_spec(tmp_path, "hamming-31-26.json", _hamming(2, 5))
    code, out, err = _run(capsys, "product", "--verify", spec, spec)
    assert code == 0, err
    report = json.loads(out)
    assert report["compatible"] and report["verified"]["matches_prediction"]
    assert report["verified"]["gamma"] == [0, 1, 2]


def test_a_linear_witness_is_rendered_as_its_parity_check(capsys, no_span):
    from crcodes.cli import _error
    from crcodes.constructions import hamming_code
    from crcodes.errors import TheoremViolationError

    code = hamming_code(5, 2)
    _error("theorem_violation", TheoremViolationError("a witness", witness=code))
    payload = json.loads(capsys.readouterr().err)
    assert payload["witness"] == {
        "type": "linear", "q": 2, "n": 31,
        "parity_check": code.linear.parity_check.to_lists()}


@pytest.mark.parametrize("command", ["classify", "decompose"])
def test_a_coset_graph_that_is_not_distance_regular_is_a_violation(
        tmp_path, capsys, monkeypatch, command):
    # the Hamming [7,4] code with every column twice: its columns are
    # parallel in pairs, so its coset graph is certified on its own
    import crcodes.classify as classify_mod
    from crcodes.partitions_quotients import DrgCertificate

    monkeypatch.setattr(classify_mod, "certify_distance_regular",
                        lambda graph: DrgCertificate(False, witness={"vertex": 0}))
    spec = _write_spec(tmp_path, "twice.json", {
        "type": "construct", "name": "replicate", "s": 2,
        "base": {"type": "construct", "name": "hamming", "q": 2, "r": 3}})
    code, _, err = _run(capsys, command, spec)
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "theorem_violation"
    assert payload["witness"] == {"vertex": 0}


# -- the command table, against the argparse parser it replaced --------------------


def _argparse_reference():
    """The argparse parser that `cli.COMMANDS` replaced, kept as the oracle."""
    import argparse

    import crcodes.cli as cli

    parser = argparse.ArgumentParser(
        prog="crcodes",
        description="Exact-arithmetic analysis of completely regular codes "
                    "in Hamming graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, caps=True):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", help="write the report to this path")
        if caps:  # search and replay take no cap options
            p.add_argument("--max-vertices", type=int, default=None,
                           help="override the cap on listed vertices")
            p.add_argument("--acknowledge-capacity", action="store_true",
                           help="confirm a cap above the default (memory!)")

    for name, handler, doc in (
        ("check", cli._cmd_check, "certify complete regularity and report"),
        ("spectrum", cli._cmd_spectrum, "eigenvalues and arithmetic certificate"),
        ("quotient", cli._cmd_quotient, "coset partition, quotient graph, arrays"),
        ("classify", cli._cmd_classify, "quotient family and theorem checks"),
        ("decompose", cli._cmd_decompose, "product decomposition and case report"),
        ("construct", cli._cmd_construct, "expand a construct spec to a code spec"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("spec", help="code-spec JSON path")
        common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("product", help="product compatibility criterion")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("--verify", action="store_true",
                   help="brute-force the product and compare")
    common(p)
    p.set_defaults(handler=cli._cmd_product)

    p = sub.add_parser("search", help="run the code census")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument("--max-redundancy", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    common(p, caps=False)
    p.set_defaults(handler=cli._cmd_search)

    p = sub.add_parser("replay", help="re-verify a census record or witness")
    p.add_argument("record", help="record JSON path")
    common(p, caps=False)
    p.set_defaults(handler=cli._cmd_replay)

    return parser


_ACCEPTED_ARGV = [
    *([command, "a.json"] for command in
      ("check", "spectrum", "quotient", "classify", "decompose", "construct", "replay")),
    ["check", "--format", "text", "a.json"],
    ["check", "a.json", "--format=text"],
    ["check", "a.json", "--format", "json", "--format", "text"],
    ["classify", "a.json", "--max-v", "5"],
    ["decompose", "--max-vertices=99", "--acknowledge-capacity", "a.json", "--out", "r.json"],
    ["construct", "a.json", "--ack", "--out=r.json"],
    ["replay", "--format", "text", "record.json"],
    ["product", "--verify", "a", "b"],
    ["product", "a", "--verify", "b"],
    ["product", "a", "b", "--format", "text"],
    ["search", "--max-n", "4", "--out-dir", "d"],
    ["search", "--q", "3", "--max-n", "5", "--min-n", "2", "--max-redundancy", "3",
     "--out-dir", "d", "--format", "text", "--out", "s.json"],
    ["search", "--out-dir=d", "--max-n=4", "--max-r", "2", "--mi", "3"],
    ["check", "--format", "text", "--", "a.json"],
    ["product", "a", "--verify", "--", "-b"],
]

_REFUSED_ARGV = [
    [],
    ["frob", "a.json"],
    ["check"],
    ["check", "a.json", "b.json"],
    ["product", "a"],
    ["search", "--max-n", "x", "--out-dir", "d"],
    ["check", "a.json", "--format", "xml"],
    ["search", "--max-n", "4"],
    ["check", "a.json", "--bogus"],
    ["check", "a.json", "--max-vertices"],
    ["search", "--max", "4", "--out-dir", "d"],
    ["product", "--verify=yes", "a", "b"],
    ["--format", "text", "check", "a.json"],
    ["check", "--out", "--", "a.json"],
    ["search", "--q", "3", "--max-n", "5", "--min-n", "2", "--max-redundancy", "3",
     "--out-dir", "d", "--format", "text", "--out", "s.json", "--max-vertices", "64",
     "--acknowledge-capacity"],
    ["search", "--max-n", "4", "--out-dir", "d", "--acknowledge-capacity"],
    ["replay", "record.json", "--max-vertices", "8"],
    ["replay", "--ack", "record.json"],
]


@pytest.mark.parametrize("argv", _ACCEPTED_ARGV, ids=" ".join)
def test_the_command_table_reads_argv_like_the_argparse_parser(argv):
    from crcodes.cli import parse_args

    assert vars(parse_args(argv)) == vars(_argparse_reference().parse_args(argv))


def test_posixly_correct_changes_no_reading(monkeypatch):
    # getopt.gnu_getopt would stop at the first positional with this set
    from crcodes.cli import parse_args

    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    for argv in _ACCEPTED_ARGV:
        assert vars(parse_args(argv)) == vars(_argparse_reference().parse_args(argv))


@pytest.mark.parametrize("argv", _REFUSED_ARGV, ids=lambda argv: " ".join(argv) or "empty")
def test_a_usage_error_exits_two_from_both_parsers(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        _argparse_reference().parse_args(argv)
    assert refused.value.code == 2
    capsys.readouterr()
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_help_lists_every_command_and_option_of_the_table(capsys):
    from crcodes.cli import _COMMON_OPTIONS, COMMANDS

    code, out, err = _run(capsys, "--help")
    assert (code, err) == (0, "")
    for name, (_, summary, _, _) in COMMANDS.items():
        assert f"  {name}" in out and summary in out
    for name, (_, summary, positionals, options) in COMMANDS.items():
        for flag in ("--help", "-h"):
            code, out, err = _run(capsys, name, flag)
            assert (code, err) == (0, "")
            assert out.startswith(" ".join(["usage: crcodes", name, *positionals]))
            assert summary in out
            for option, *_ in options + _COMMON_OPTIONS:
                assert f"  {option} " in out


def test_classify_certifies_a_projective_parity_check_once(tmp_path, capsys, monkeypatch):
    # binary repetition n = 12: H is projective, so the coset graph's array
    # comes from the code's own syndrome certificate, with no second BFS
    import crcodes.cr_analysis as cr_analysis_mod

    runs = []
    packed = cr_analysis_mod._packed_bfs

    def counting(space, r, offsets):
        runs.append(len(offsets))
        return packed(space, r, offsets)

    monkeypatch.setattr(cr_analysis_mod, "_packed_bfs", counting)
    spec = _write_spec(tmp_path, "rep12.json",
                       {"type": "construct", "name": "repetition", "q": 2, "n": 12})
    code, out, _ = _run(capsys, "classify", spec)
    assert code == 0 and runs == [1]
    family = json.loads(out)["family"]
    assert (family["tag"], family["params"]) == ("folded_cube", {"m": 12})
