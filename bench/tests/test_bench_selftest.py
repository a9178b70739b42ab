"""Self-tests of the benchmark harness: span arithmetic, output checks and
failure counting.  Run with ``PYTHONPATH=src python -m pytest bench/tests``."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import crcodes  # noqa: E402
import crcodes.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 3], b [4, 9] > c [5, 6]
    names = ["root", "a", "b", "c"]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 9.0, 6.0]
    parents = [-1, 0, 0, 2]
    totals = spans.span_totals(names, starts, ends, parents)
    assert totals.self_time == {"root": 3.0, "a": 2.0, "b": 4.0, "c": 1.0}
    assert sum(totals.self_time.values()) == 10.0
    assert totals.inclusive["b"] == 5.0


def test_inclusive_time_counts_recursion_once():
    # parse [0, 5] > other [1, 4] > parse [2, 3]; a second top-level parse [6, 7]
    names = ["parse", "other", "parse", "parse"]
    totals = spans.span_totals(names, [0.0, 1.0, 2.0, 6.0], [5.0, 4.0, 3.0, 7.0],
                               [-1, 0, 1, -1])
    assert totals.inclusive["parse"] == 6.0
    assert totals.self_time["parse"] == 2.0 + 1.0 + 1.0
    assert totals.calls["parse"] == 3


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 0.50) == 50
    assert spans.percentile(values, 0.99) == 99
    assert spans.percentile([], 0.5) == 0.0


def test_tracer_nests_real_calls_and_restores_originals():
    original = crcodes.cr_analysis.distance_partition
    analyze = crcodes.cr_analysis.analyze_code
    code = crcodes.hamming_code(3, 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert crcodes.cli.analyze_code.__wrapped__ is analyze
        crcodes.cli.analyze_code(code)
    finally:
        tracer.uninstall()
    assert crcodes.cr_analysis.distance_partition is original
    by_name = {name: i for i, name in enumerate(tracer.names)}
    parent = tracer.parents[by_name["cr_analysis.distance_partition"]]
    assert tracer.names[parent] == "cr_analysis.equitability"
    assert tracer.names[tracer.parents[parent]] == "cr_analysis.analyze_code"
    assert tracer.counts["cr_analysis.vertices_scanned"] == 2**7
    assert tracer.counts["cr_analysis.cr_verdicts"] == 1
    totals = tracer.totals()
    root = by_name["cr_analysis.analyze_code"]
    assert sum(totals.self_time.values()) == pytest.approx(
        tracer.ends[root] - tracer.starts[root])


def test_traced_generator_excludes_the_consumers_work():
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = 0
        for code in crcodes.search.enumerate_linear_codes(4, 2):
            crcodes.search.build_record(code)
            codes += 1
    finally:
        tracer.uninstall()
    top = {name for name, p in zip(tracer.names, tracer.parents) if p == -1}
    assert top == {"search.enumerate", "search.build_record"}
    built_while_enumerating = sum(
        1 for name, p in zip(tracer.names, tracer.parents)
        if name == "hamming_space.code_from_parity_check"
        and tracer.names[p] == "search.enumerate")
    assert built_while_enumerating == codes > 0


def test_dump_and_merge_add_up_processes():
    totals = spans.span_totals(["search.build_record", "search.census"],
                               [0.0, 1.0], [0.5, 3.0], [-1, -1])
    counts = {"search.candidates": 7}
    one = json.loads(json.dumps(spans.dump(totals, counts)))
    merged, merged_counts = spans.merge([one, one])
    assert merged.inclusive["search.census"] == 4.0
    assert merged.calls["search.build_record"] == 2
    assert merged.durations["search.build_record"] == [0.5, 0.5]
    assert "search.census" not in merged.durations
    assert merged_counts["search.candidates"] == 14


def _tiny_unit(tmp_path, n=4):
    out = tmp_path / "ref"
    summary = crcodes.run_census(crcodes.CensusParams(q=2, min_n=n, max_n=n), out)
    return workloads.CensusUnit(2, n, summary["recorded"], summary["completely_regular"],
                                workloads.sha256_file(out / "summary.csv"))


def _fresh_result():
    return {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}


def test_tampered_summary_csv_fails_the_census(tmp_path, monkeypatch):
    unit = _tiny_unit(tmp_path)
    result = _fresh_result()
    assert worker.run_census_unit(unit, tmp_path / "clean", result) == unit.records
    assert (result["failed"], result["wrong"]) == (0, 0)

    real_run_census = crcodes.run_census

    def tampering_run_census(params, out_dir):
        summary = real_run_census(params, out_dir)
        with open(Path(out_dir) / "summary.csv", "a") as stream:
            stream.write("2,2,1,hamming,True,1\n")
        return summary

    monkeypatch.setattr(crcodes, "run_census", tampering_run_census)
    result = _fresh_result()
    worker.run_census_unit(unit, tmp_path / "tampered", result)
    assert result["failed"] == result["wrong"] == result["attempted"] == unit.records
    assert any("summary.csv" in p for p in result["problems"])


def test_census_jsonl_must_match_across_samples():
    unit = workloads.CENSUSES["census-q3q4"][5]
    samples = [{"census_sha256": sha, "failed": 0, "wrong": 0, "problems": []}
               for sha in ("aa", "aa", "bb")]
    run.flag_unstable_census("census-q3q4", unit.label, samples)
    assert [s["failed"] for s in samples] == [0, 0, unit.records]
    assert "census.jsonl differs" in samples[2]["problems"][0]


def test_census_splits_by_length(tmp_path):
    whole = tmp_path / "whole"
    crcodes.run_census(crcodes.CensusParams(q=2, max_n=5), whole)
    jsonl, rows = b"", []
    for n in range(1, 6):
        part = tmp_path / f"n{n}"
        crcodes.run_census(crcodes.CensusParams(q=2, min_n=n, max_n=n), part)
        jsonl += (part / "census.jsonl").read_bytes()
        header, *body = (part / "summary.csv").read_text().splitlines(keepends=True)
        rows += body
    assert jsonl == (whole / "census.jsonl").read_bytes()
    assert header + "".join(rows) == (whole / "summary.csv").read_text()


@pytest.mark.parametrize("workload", workloads.CENSUSES)
def test_length_pins_add_up_to_the_whole_census(workload):
    by_q = {}
    for unit in workloads.CENSUSES[workload]:
        by_q.setdefault(unit.q, []).append(unit)
    for q, units in by_q.items():
        assert [u.n for u in units] == list(range(1, len(units) + 1))
        records, cr, _ = workloads.CENSUS_TOTALS[(q, len(units))]
        assert sum(u.records for u in units) == records
        assert sum(u.cr for u in units) == cr


def test_wrong_exit_code_fails_the_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(crcodes.cli, "main", lambda argv: 3)
    op = workloads.LadderOp("check", "hamming-7-4")
    result = _fresh_result()
    spec = workloads.write_spec(tmp_path, op.spec)
    assert worker.run_ladder_op(op, spec, tmp_path, result) == 1
    assert result["attempted"] == result["failed"] == result["wrong"] == 1
    assert workloads.check_op("check", "hamming-7-4", 1, {"cr": True})
    assert workloads.check_op("check", "repetition-3-7", 0, {"cr": False})


def test_uncaught_exception_fails_without_a_wrong_answer(tmp_path, monkeypatch):
    def crash(argv):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(crcodes.cli, "main", crash)
    op = workloads.LadderOp("classify", "repetition-2-11")
    result = _fresh_result()
    spec = workloads.write_spec(tmp_path, op.spec)
    assert worker.run_ladder_op(op, spec, tmp_path, result) == 0
    assert (result["attempted"], result["failed"], result["wrong"]) == (1, 1, 0)


CHEAP_SPECS = ("hamming-7-4", "hamming-gf4-5-3", "hamming-7-4-squared",
               "hamming-7-4-twice", "repetition-3-7")


@pytest.mark.parametrize("name", CHEAP_SPECS)
@pytest.mark.parametrize("command", workloads.COMMANDS)
def test_closed_form_expectations_match_the_cli(tmp_path, name, command):
    spec = workloads.write_spec(tmp_path, name)
    out = tmp_path / "report.json"
    exit_code = crcodes.cli.main([command, str(spec), "--out", str(out)])
    assert workloads.check_op(command, name, exit_code,
                              json.loads(out.read_text())) == []


def test_tampered_report_is_a_wrong_answer():
    report = {"cr": True, **{k: workloads.EXPECTED["hamming-7-4"][k]
                             for k in ("rho", "gamma", "alpha", "beta", "spectrum")}}
    assert workloads.check_op("check", "hamming-7-4", 0, report) == []
    report["spectrum"] = [7, 1]
    assert workloads.check_op("check", "hamming-7-4", 0, report)


def _first_rounds(workload, seed, count=2):
    rounds = workloads.rounds(workload, seed)
    return [next(rounds) for _ in range(count)]


def test_seed_orders_the_ladder_and_nothing_else():
    first, second = _first_rounds(workloads.LADDER, 3)
    assert [first, second] == _first_rounds(workloads.LADDER, 3)
    assert first != second
    assert first != _first_rounds(workloads.LADDER, 4)[0]
    assert sorted(first) == sorted(second) == sorted(workloads.UNITS[workloads.LADDER])
    assert len(set(first)) == 20
    for census in workloads.CENSUSES:
        assert _first_rounds(census, 3) == _first_rounds(census, 4) == \
            [list(workloads.UNITS[census])] * 2


def _sample(wall, *, setup=0.1, items=1, rss=10.0, trace=None):
    return {"wall_s": wall, "setup_s": setup, "items": items, "peak_rss_mb": rss,
            "trace": trace, "attempted": 1, "failed": 0, "wrong": 0, "problems": []}


def test_end_to_end_sums_the_median_of_each_unit():
    fake_run = {"setups": [0.3, 0.1, 0.2, 0.4], "plain": {
        "a": [_sample(2.0, rss=50.0), _sample(1.0, rss=40.0), _sample(3.0, rss=45.0)],
        "b": [_sample(0.5, items=0, rss=60.0), _sample(1.5, items=0, rss=60.0)],
    }}
    metrics = run.end_to_end(fake_run)
    assert metrics["wall_s"] == 2.0 + 1.0
    assert metrics["items_per_s"] == 1 / 3.0
    assert metrics["setup_s"] == 0.25
    assert metrics["peak_rss_mb"] == 60.0
    assert run.median_sample(fake_run["plain"]["a"])["wall_s"] == 2.0
    assert run.median_sample(fake_run["plain"]["b"])["wall_s"] == 0.5


class _FakeServer:
    calls: list = []

    def __init__(self, workload):
        self.closed = False

    def sample(self, label, workdir, trace_out=None):
        self.calls.append((label, trace_out is not None))
        return _sample(0.01)

    def close(self):
        self.closed = True


def test_measure_runs_one_whole_round_at_least(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "Server", _FakeServer)
    monkeypatch.setattr(_FakeServer, "calls", [])
    monkeypatch.setattr(run, "probe_setup", lambda workload, workdir: 0.1)
    measured = run.measure(workloads.LADDER, 1, 0, trace=True)
    first_round = next(workloads.rounds(workloads.LADDER, 1))
    assert _FakeServer.calls == [(label, traced) for label in first_round
                                 for traced in (False, True)]
    assert measured["setups"] == [0.1] * run.SETUP_PROBES_PER_ROUND
    assert all(len(v) == 1 for v in measured["plain"].values())
    assert measured["attempted"] == 2 * len(first_round)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    empty = spans.dump(spans.SpanTotals(), {})
    fake_run = {"setups": [0.1], "plain": {"a": [_sample(2.0)]},
                "traced": {"a": [_sample(2.5, trace=empty)]}}
    for key, produced in (("end_to_end", run.end_to_end(fake_run)),
                          ("per_layer", run.per_layer(fake_run))):
        declared = {m["name"]: m["unit"] for m in config[key]}
        assert declared == {name: run.unit_of(name) for name in produced}
    assert {w["name"] for w in config["workloads"]} == set(workloads.WORKLOADS)
