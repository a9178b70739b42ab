"""Benchmark worker: set-up probes and a fork server that runs units.

Started by run.py, never by hand, in one of two modes:

    python3 bench/worker.py --workload W --setup-only --workdir DIR --started T
    python3 bench/worker.py --workload W --serve

``--setup-only`` is a set-up probe: a fresh interpreter that imports crcodes,
writes the workload's spec files and reports ``setup_s``, the time since
``--started``, the parent's time.monotonic() just before it spawned this
process (CLOCK_MONOTONIC is shared by all processes).

``--serve`` imports crcodes once and then reads one JSON request per line
from stdin: ``{"unit": LABEL, "workdir": DIR, "trace_out": PATH or null}``.
For each it forks a child, which runs the unit (one census length or one
ladder invocation, see workloads.py) and reports its measurements; the server
prints them as one JSON line.  The server itself never runs crcodes code, so
every child starts from the state of a fresh process that has just imported
crcodes, without paying interpreter start-up again.  The server exits at the
end of stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import crcodes  # the import is part of the measured set-up
import crcodes.cli

import spans
import workloads

# A child that runs longer than this is killed and the server reports an error.
UNIT_TIMEOUT_S = 60


def run_census_unit(unit: workloads.CensusUnit, workdir: Path, result: dict) -> int:
    """Run the census at one length; return how many records it wrote."""
    out_dir = workdir / unit.label
    result["attempted"] += unit.records
    try:
        summary = crcodes.run_census(
            crcodes.CensusParams(q=unit.q, min_n=unit.n, max_n=unit.n), out_dir)
    except Exception as exc:  # a crash fails every record of the unit
        result["failed"] += unit.records
        result["problems"].append(f"{unit.label}: {type(exc).__name__}: {exc}")
        return 0
    problems = workloads.check_census(unit, summary, out_dir)
    if problems:
        result["failed"] += unit.records
        result["wrong"] += unit.records
        result["problems"].extend(problems)
    census = out_dir / "census.jsonl"
    if census.is_file():
        result["census_sha256"] = workloads.sha256_file(census)
    return summary["recorded"]


def run_ladder_op(op: workloads.LadderOp, spec: Path, workdir: Path, result: dict) -> int:
    """Run one CLI invocation; return 1 if it completed (did not raise)."""
    out = workdir / "report.json"
    result["attempted"] += 1
    try:
        exit_code = crcodes.cli.main([op.command, str(spec), "--out", str(out)])
    except Exception as exc:  # an uncaught exception fails the operation
        result["failed"] += 1
        result["problems"].append(f"{op.command} {op.spec}: {type(exc).__name__}")
        return 0
    report = json.loads(out.read_text()) if out.is_file() else None
    problems = workloads.check_op(op.command, op.spec, exit_code, report)
    if problems:
        result["failed"] += 1
        result["wrong"] += 1
        result["problems"].extend(problems)
    return 1


def run_unit(workload: str, label: str, workdir: Path, trace_out: str | None) -> dict:
    """One sample of one unit, in the current process."""
    unit = workloads.UNITS[workload][label]
    workdir.mkdir(parents=True, exist_ok=True)
    ladder = workload == workloads.LADDER
    spec = workloads.write_spec(workdir, unit.spec) if ladder else None
    result = {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}
    tracer = None
    if trace_out:
        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    if ladder:
        items = run_ladder_op(unit, spec, workdir, result)
    else:
        items = run_census_unit(unit, workdir, result)
    result["wall_s"] = time.perf_counter() - start
    result["items"] = items
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = spans.dump(tracer.totals(), tracer.counts)
        tracer.write_spans(trace_out)
    return result


def _child(workload: str, request: dict, write_fd: int) -> None:
    """Body of a forked child: run the unit, send the result, never return."""
    status = 1
    try:
        try:
            signal.alarm(UNIT_TIMEOUT_S)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)  # the CLI's output must not reach the server's stdout
            result = run_unit(workload, request["unit"], Path(request["workdir"]),
                              request.get("trace_out"))
            payload, status = json.dumps(result), 0
        except BaseException:  # reported to the server, which reports it to run.py
            payload = json.dumps({"error": traceback.format_exc()})
        with os.fdopen(write_fd, "w") as stream:
            stream.write(payload)
    finally:
        os._exit(status)


def serve(workload: str) -> None:
    for line in sys.stdin:
        request = json.loads(line)
        read_fd, write_fd = os.pipe()
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(workload, request, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd) as stream:
            payload = stream.read()
        _, status = os.waitpid(pid, 0)
        if not payload:  # killed before it could report, e.g. by the alarm
            payload = json.dumps({"error": f"child ended with exit code "
                                           f"{os.waitstatus_to_exitcode(status)}"})
        print(payload, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--serve", action="store_true")
    parser.add_argument("--workdir")
    parser.add_argument("--started", type=float)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.workload)
        return 0
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == workloads.LADDER:
        for name in workloads.SPECS:
            workloads.write_spec(workdir, name)
    print(json.dumps({"setup_s": time.monotonic() - args.started}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
