"""crcodes benchmark: one workload, sampled unit by unit in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a crcodes source checkout; the program is imported
from its ``src/`` directory, nothing is installed.  Workloads are defined in
``workloads.py``: ``census-q3q4`` and ``certify-ladder``.  Each is a list of
units: one census length, or one CLI invocation.

A run is a sequence of whole rounds, as many as fit in about ``--seconds``
seconds (at least one).  A round makes three set-up probes (a fresh
interpreter that imports crcodes, writes the spec files and exits), then
samples every unit once.  Each sample runs in a single-threaded child forked
from a server process that has only imported crcodes (worker.py), so it
starts from a fresh process's state without paying interpreter start-up.
With ``--trace 1`` each sample is a pair: one untraced, one traced (spans from
``spans.py``).

Metrics.  ``setup_s`` is the median probe.  ``wall_s`` is the sum over units
of each unit's median sample: the time to the whole workload's checked
result, taken from samples spread over the run, so that a slow spell of a
shared host skews few of them.  ``items_per_s`` divides the items (census
records, or invocations that completed) by ``wall_s``.  ``peak_rss_mb`` is
the largest unit's median ``ru_maxrss``, read inside the sample's process.
The per-layer metrics add up the traced sample of median wall time of every
unit; ``trace_overhead_ratio`` compares traced and untraced sums of medians.

Every output is checked.  ``failed`` counts items that raised, exited with
the wrong code or disagreed with their pinned expectation; ``correct`` is
false when any produced output disagreed with its expectation (a crash
yields no output, so it only counts as failed).  ``failed_ratio`` = failed /
attempted is printed with the other metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of each
unit's last traced sample are kept in ``.bench_build/bench/spans/NAME/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_build" / "bench"
CHILD_TIMEOUT_S = 60
SETUP_PROBES_PER_ROUND = 3


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same str hashes in every run
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def probe_setup(workload: str, workdir: Path) -> float:
    """One set-up probe in a fresh interpreter; returns its setup_s."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--setup-only",
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd + ["--started", repr(time.monotonic())],
                              cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"set-up probe exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])["setup_s"]


class Server:
    """worker.py in --serve mode: each sample runs in a child it forks."""

    def __init__(self, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--workload", workload, "--serve"],
            cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def sample(self, label: str, workdir: Path, trace_out: Path | None = None) -> dict:
        request = {"unit": label, "workdir": str(workdir),
                   "trace_out": None if trace_out is None else str(trace_out)}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:  # the server is gone; its exit code is reported below
            line = ""
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if not line:
            raise BenchError(f"worker server ended with {self.proc.wait()} on {label}")
        result = json.loads(line)
        if "error" in result:
            raise BenchError(f"{label}: {result['error'].strip()[-2000:]}")
        return result

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def flag_unstable_census(workload: str, label: str, samples: list[dict]) -> None:
    """A census unit must write the same census.jsonl bytes in every sample,
    traced or not; a sample that differs from the first fails its records."""
    if workload not in workloads.CENSUSES:
        return
    reference = samples[0].get("census_sha256")
    for sample in samples[1:]:
        if sample.get("census_sha256") != reference and not sample["failed"]:
            records = workloads.UNITS[workload][label].records
            sample["failed"] += records
            sample["wrong"] += records
            sample["problems"].append(f"{label}: census.jsonl differs between samples")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run whole rounds while the next one is expected to end within
    `seconds`; there is always at least one.  A round makes set-up probes,
    then samples every unit once, so all units get the same number of
    samples, spread over the run.  With `trace`, each sample is a pair: one
    untraced, one traced."""
    work = OUT / f"{workload}-{os.getpid()}"
    setups: list[float] = []
    plain = {label: [] for label in workloads.UNITS[workload]}
    traced = {label: [] for label in plain}
    begin = time.monotonic()

    def sample_rounds(server: Server) -> None:
        for index, labels in enumerate(workloads.rounds(workload, seed)):
            elapsed = time.monotonic() - begin
            if index and elapsed + elapsed / index > seconds:
                return
            where = work / f"round-{index}"
            setups.extend(probe_setup(workload, where)
                          for _ in range(SETUP_PROBES_PER_ROUND))
            for label in labels:
                plain[label].append(server.sample(label, where))
                if trace:
                    traced[label].append(server.sample(
                        label, where, OUT / "spans" / workload / f"{label}.tsv"))

    if trace:
        (OUT / "spans" / workload).mkdir(parents=True, exist_ok=True)
    server = Server(workload)
    try:
        sample_rounds(server)
    finally:
        server.close()
        shutil.rmtree(work, ignore_errors=True)
    for label in plain:
        flag_unstable_census(workload, label, plain[label] + traced[label])
    everything = [s for samples in (*plain.values(), *traced.values()) for s in samples]
    return {
        "setups": setups,
        "plain": plain,
        "traced": traced,
        "attempted": sum(s["attempted"] for s in everything),
        "failed": sum(s["failed"] for s in everything),
        "wrong": sum(s["wrong"] for s in everything),
        "problems": sorted({p for s in everything for p in s["problems"]}),
    }


def median_sample(samples: list[dict]) -> dict:
    """The unit's sample of median wall time (the lower one of an even count)."""
    return sorted(samples, key=lambda s: s["wall_s"])[(len(samples) - 1) // 2]


def sum_of_medians(by_unit: dict[str, list[dict]], key: str) -> float:
    return sum(statistics.median(s[key] for s in samples) for samples in by_unit.values())


def end_to_end(run: dict) -> dict[str, float]:
    plain = run["plain"]
    wall = sum_of_medians(plain, "wall_s")
    return {
        "setup_s": statistics.median(run["setups"]),
        "wall_s": wall,
        "items_per_s": sum_of_medians(plain, "items") / wall,
        "peak_rss_mb": max(statistics.median(s["peak_rss_mb"] for s in samples)
                           for samples in plain.values()),
    }


def per_layer(run: dict) -> dict[str, float]:
    picked = [median_sample(samples) for samples in run["traced"].values()]
    totals, counts = spans.merge(s["trace"] for s in picked)
    metrics = spans.layer_metrics(totals, counts)
    metrics["trace_overhead_ratio"] = (sum_of_medians(run["traced"], "wall_s")
                                       / sum_of_medians(run["plain"], "wall_s") - 1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crcodes" / "__init__.py").is_file():
        print(f"bench: no crcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(run)

    rounds = len(next(iter(run["plain"].values())))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {len(run['plain'])}  rounds {rounds}  set-up probes {len(run['setups'])}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit_of(name)}")
    print(f"  {'failed_ratio':<48} {run['failed'] / run['attempted']:>16.6g} "
          f"({run['failed']}/{run['attempted']})")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
