"""Command-line front end.

Subcommands: check, spectrum, quotient, classify, product, decompose,
construct, search, replay.  Reports are JSON (single source of truth); the
text format is rendered from the same document.  Machine-readable errors go
to stderr as JSON.

Exit codes: 0 success, 1 property refuted (e.g. the code is not completely
regular), 2 input error, 3 capacity error, 4 internal theorem violation.
"""

from __future__ import annotations

import getopt
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from .classify import CheckContext, coordinate_classes, run_checks
from .codespec import emit_codespec, parse_codespec
from .constructions import (
    NotCompletelyRegularError,
    product_cr_criterion,
    verify_product_cr,
)
from .cr_analysis import analyze_code
from .errors import (
    CapacityError,
    CodeSpecError,
    CrcodesError,
    DigestMismatchError,
    TheoremViolationError,
    jsonable,
)
from .hamming_space import DEFAULT_VERTEX_CAP
from .partitions_quotients import (
    certify_cr_partition,
    certify_distance_regular,
    coset_graph_by_syndrome,
    coset_partition,
    drg_spectrum,
    is_syndrome_quotient,
    predicted_quotient_array,
    quotient_graph,
    syndrome_quotient_graph,
)
from .search import CensusParams, replay, run_census

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_VIOLATION = 4


def _render_text(doc, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
    elif isinstance(doc, list):
        if all(not isinstance(v, (dict, list)) for v in doc):
            lines.append(f"{pad}{json.dumps(doc)}")
        else:
            for value in doc:
                lines.append(_render_text(value, indent))
    else:
        lines.append(f"{pad}{json.dumps(doc)}")
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    if args.format == "text":
        payload = _render_text(report) + "\n"
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _max_vertices(args) -> int:
    cap = args.max_vertices
    if cap is None:
        return DEFAULT_VERTEX_CAP
    if cap > DEFAULT_VERTEX_CAP and not args.acknowledge_capacity:
        raise CodeSpecError(
            "--max-vertices above the default needs --acknowledge-capacity")
    return cap


def _load(path: str, args):
    return parse_codespec(Path(path), max_vertices=_max_vertices(args))


def _cr_report(code, analysis) -> dict:
    report = {
        "schema": "cr-report@1",
        "ambient": {"n": code.ambient.n, "q": code.ambient.q},
        "size": code.size,
        "linear": code.is_linear,
        "cr": analysis.cr,
        "delta": analysis.delta,
        "rho": analysis.rho,
        "reduced": analysis.reduced,
    }
    if analysis.cr:
        report.update(
            gamma=list(analysis.numbers.gamma),
            alpha=list(analysis.numbers.alpha),
            beta=list(analysis.numbers.beta),
            quotient_matrix=analysis.quotient.to_lists(),
            spectrum=list(analysis.spectrum),
            arithmetic=analysis.arithmetic.to_json(),
            bounds=jsonable(analysis.bounds),
        )
    else:
        report["witness"] = analysis.certificate.witness.to_json()
    return report


def _cmd_check(args) -> int:
    code = _load(args.spec, args)
    analysis = analyze_code(code)
    _emit(_cr_report(code, analysis), args)
    return EXIT_OK if analysis.cr else EXIT_REFUTED


def _cmd_spectrum(args) -> int:
    code = _load(args.spec, args)
    analysis = analyze_code(code)
    if not analysis.cr:
        _emit({
            "schema": "spectrum-report@1",
            "cr": False,
            "witness": analysis.certificate.witness.to_json(),
        }, args)
        return EXIT_REFUTED
    _emit({
        "schema": "spectrum-report@1",
        "cr": True,
        "spectrum": list(analysis.spectrum),
        "arithmetic": analysis.arithmetic.to_json(),
    }, args)
    return EXIT_OK


def _cmd_quotient(args) -> int:
    code = _load(args.spec, args)
    # a linear code's classes are its syndromes; only a word list's are listed
    cayley = coset_graph_by_syndrome(code) if code.is_linear else None
    partition = coset_partition(code) if cayley is None else None
    cert = certify_cr_partition(code)
    report = {
        "schema": "quotient-report@1",
        "classes": partition.class_count if cayley is None else cayley.n,
        "cr_partition": cert.is_cr_partition,
    }
    if not cert.is_cr_partition:
        report["failure"] = cert.failure
        _emit(report, args)
        return EXIT_REFUTED
    if cayley is None:
        graph = quotient_graph(partition)
    else:
        syndrome_graph = cayley.explicit()
        graph = syndrome_quotient_graph(code, syndrome_graph)
    drg = certify_distance_regular(graph if cayley is None else cayley)
    predicted = predicted_quotient_array(cert.numbers)
    report.update(
        gamma=list(cert.numbers.gamma),
        alpha=list(cert.numbers.alpha),
        beta=list(cert.numbers.beta),
        graph=graph.to_json(),
        drg={"is_drg": drg.is_drg, "array": jsonable(drg.array)},
        predicted_array=jsonable(predicted),
    )
    if not drg.is_drg or drg.array != predicted:
        raise TheoremViolationError(
            "quotient of a completely regular partition failed its "
            "distance-regularity prediction", witness=report)
    report["quotient_spectrum"] = list(drg_spectrum(drg.array))
    if cayley is not None:
        report["syndrome_graph"] = syndrome_graph.to_json()
        report["syndrome_isomorphic"] = is_syndrome_quotient(code, cayley)
        if not report["syndrome_isomorphic"]:
            raise TheoremViolationError(
                "syndrome graph is not the quotient by the cosets of the code",
                witness=report)
    _emit(report, args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    code = _load(args.spec, args)
    context = CheckContext(code)
    if not context.analysis.cr:
        _emit({
            "schema": "classification-report@1",
            "cr": False,
            "witness": context.analysis.certificate.witness.to_json(),
        }, args)
        return EXIT_REFUTED
    checks = jsonable(run_checks(context, "coset_graph"))
    report = {
        "schema": "classification-report@1",
        "cr": True,
        "family": jsonable(context.coset[1]),
        "theorem_checks": checks,
    }
    if any(c["status"] == "FAIL" for c in checks):
        raise TheoremViolationError("classification theorem check failed",
                                    witness=report)
    _emit(report, args)
    return EXIT_OK


def _cmd_product(args) -> int:
    c1 = _load(args.spec1, args)
    c2 = _load(args.spec2, args)
    compat = product_cr_criterion(c1, c2)
    report = {"schema": "product-report@1", **jsonable(compat)}
    if args.verify:
        report["verified"] = verify_product_cr(c1, c2, compat)
        if not report["verified"]["matches_prediction"]:
            raise TheoremViolationError(
                "brute-force product certification contradicts the criterion",
                witness=report)
    _emit(report, args)
    return EXIT_OK if compat.compatible else EXIT_REFUTED


def _cmd_decompose(args) -> int:
    code = _load(args.spec, args)
    context = CheckContext(code)
    if not context.analysis.cr:
        _emit({"schema": "decomposition-report@1", "cr": False}, args)
        return EXIT_REFUTED
    family = context.coset[1]  # refuses a code that is not additive
    report = {"schema": "decomposition-report@1", "cr": True,
              "coordinate_classes": [list(c) for c in coordinate_classes(code)],
              "family": jsonable(family)}
    forms = context.forms
    for key, part in (("decomposition", context.decomposition),
                      ("column_classes", forms and forms.column_report), ("forms", forms),
                      ("hamming_quotient", context.hamming_quotient),
                      ("small_radius", context.small_radius)):
        if part is not None:
            report[key] = jsonable(part)
    if any(r.status == "FAIL" for r in run_checks(context, "structure")):
        raise TheoremViolationError("decomposition case analysis found no "
                                    "matching structural case", witness=report)
    _emit(report, args)
    return EXIT_OK


def _cmd_construct(args) -> int:
    code = _load(args.spec, args)
    _emit(emit_codespec(code), args)
    return EXIT_OK


PROGRESS_INTERVAL_S = 5.0


def _census_progress():
    """A run_census callback: one JSON line on stderr at most every
    PROGRESS_INTERVAL_S seconds."""
    start = last = time.monotonic()

    def report(n: int, records: int, cr: int) -> None:
        nonlocal last
        if time.monotonic() - last >= PROGRESS_INTERVAL_S:
            last = time.monotonic()
            line = {"progress": "census", "n": n, "records": records,
                    "completely_regular": cr,
                    "records_per_s": round(records / max(last - start, 1e-9), 1)}
            sys.stderr.write(json.dumps(line, sort_keys=True) + "\n")

    return report


def _cmd_search(args) -> int:
    params = CensusParams(q=args.q, max_n=args.max_n, min_n=args.min_n,
                          max_redundancy=args.max_redundancy)
    summary = run_census(params, args.out_dir, _census_progress())
    _emit({"schema": "census-summary@1", **summary}, args)
    return EXIT_OK


def _cmd_replay(args) -> int:
    result = replay(args.record)
    _emit({"schema": "replay-report@1", **result}, args)
    return EXIT_OK if result["match"] else EXIT_REFUTED


# An option is (flag, default, kind, help).  `kind` is int, str, a tuple of
# the accepted values, or None for a flag that takes no value and sets True.
# A default of _REQUIRED makes the option mandatory.
_REQUIRED = object()

_COMMON_OPTIONS = (
    ("--format", "json", ("json", "text"), "report format"),
    ("--out", None, str, "write the report to this path"),
)

# The cap options of the commands that read a code spec; search and replay
# build their codes under the default cap and refuse them.
_CAP_OPTIONS = (
    ("--max-vertices", None, int, "override the cap on listed vertices"),
    ("--acknowledge-capacity", False, None,
     "confirm a cap above the default (memory!)"),
)

# Each subcommand: (handler, one-line help, positional names, its own options);
# every subcommand also takes _COMMON_OPTIONS.
COMMANDS = {
    "check": (_cmd_check, "certify complete regularity and report", ("spec",), _CAP_OPTIONS),
    "spectrum": (_cmd_spectrum, "eigenvalues and arithmetic certificate", ("spec",),
                 _CAP_OPTIONS),
    "quotient": (_cmd_quotient, "coset partition, quotient graph, arrays", ("spec",),
                 _CAP_OPTIONS),
    "classify": (_cmd_classify, "quotient family and theorem checks", ("spec",),
                 _CAP_OPTIONS),
    "decompose": (_cmd_decompose, "product decomposition and case report", ("spec",),
                  _CAP_OPTIONS),
    "construct": (_cmd_construct, "expand a construct spec to a code spec", ("spec",),
                  _CAP_OPTIONS),
    "product": (_cmd_product, "product compatibility criterion", ("spec1", "spec2"), (
        ("--verify", False, None, "brute-force the product and compare"), *_CAP_OPTIONS,
    )),
    "search": (_cmd_search, "run the code census", (), (
        ("--q", 2, int, "alphabet size"),
        ("--max-n", _REQUIRED, int, "longest code length"),
        ("--min-n", 1, int, "shortest code length"),
        ("--max-redundancy", None, int, "largest redundancy n - k"),
        ("--out-dir", _REQUIRED, str, "directory for census.jsonl and summary.csv"),
    )),
    "replay": (_cmd_replay, "re-verify a census record or witness", ("record",), ()),
}


def _help_text(command: str | None) -> str:
    if command is None:
        lines = ["usage: crcodes <command> [options]", "",
                 "Exact-arithmetic analysis of completely regular codes in Hamming graphs",
                 "", "commands:"]
        lines += [f"  {name:<10} {row[1]}" for name, row in COMMANDS.items()]
        lines += ["", "run 'crcodes <command> --help' for the options of one command"]
        return "\n".join(lines) + "\n"
    _, summary, positionals, options = COMMANDS[command]
    lines = [" ".join(["usage: crcodes", command, *positionals, "[options]"]), "",
             summary, "", "options:"]
    for flag, default, kind, text in options + _COMMON_OPTIONS:
        if kind is None:
            metavar = ""
        elif isinstance(kind, tuple):
            metavar = " {" + ",".join(kind) + "}"
        else:
            metavar = " N" if kind is int else " PATH"
        if default is _REQUIRED:
            text += " (required)"
        elif default is not None and kind is not None:
            text += f" (default {default})"
        lines.append(f"  {flag + metavar:<26} {text}")
    lines.append(f"  {'-h, --help':<26} show this help and exit")
    return "\n".join(lines) + "\n"


def _cmd_help(args) -> int:
    sys.stdout.write(_help_text(args.command))
    return EXIT_OK


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against COMMANDS.  Options may come before or after the
    positionals, as ``--opt value`` or ``--opt=value``, and a long option may
    be abbreviated to a unique prefix.  The namespace carries `command`,
    `handler` and one attribute per positional and option; ``-h``/``--help``
    gives a namespace whose handler prints the help.  Raises
    getopt.GetoptError on a usage error."""
    opts, rest = getopt.getopt(argv, "h", ["help"])
    if opts:
        return SimpleNamespace(command=None, handler=_cmd_help)
    if not rest:
        raise getopt.GetoptError("a command is required: " + ", ".join(COMMANDS))
    command = rest[0]
    if command not in COMMANDS:
        raise getopt.GetoptError(f"unknown command {command!r}; choose from "
                                 + ", ".join(COMMANDS))
    handler, _, positionals, options = COMMANDS[command]
    options += _COMMON_OPTIONS
    longopts = ["help"] + [flag[2:] + ("" if kind is None else "=")
                           for flag, _, kind, _ in options]
    rest, tail = rest[1:], []
    if "--" in rest:  # everything after "--" is positional
        cut = rest.index("--")
        rest, tail = rest[:cut], rest[cut + 1:]
    # getopt.getopt stops at the first positional: take it and read on, so
    # options may also follow the positionals, whatever the environment says
    opts, values = [], []
    while rest:
        found, rest = getopt.getopt(rest, "h", longopts)
        opts += found
        if rest:
            values.append(rest.pop(0))
    values += tail
    given = dict(opts)
    if "-h" in given or "--help" in given:
        return SimpleNamespace(command=command, handler=_cmd_help)
    if len(values) != len(positionals):
        raise getopt.GetoptError(f"{command} takes {len(positionals)} positional "
                                 f"argument(s) ({' '.join(positionals) or 'none'}), "
                                 f"got {len(values)}")
    args = SimpleNamespace(command=command, handler=handler, **dict(zip(positionals, values)))
    for flag, default, kind, _ in options:
        if flag not in given:
            if default is _REQUIRED:
                raise getopt.GetoptError(f"option {flag} is required")
            value = default
        elif kind is None:
            value = True
        elif kind is int:
            try:
                value = int(given[flag])
            except ValueError:
                raise getopt.GetoptError(
                    f"option {flag}: invalid int value {given[flag]!r}") from None
        else:
            value = given[flag]
            if isinstance(kind, tuple) and value not in kind:
                raise getopt.GetoptError(f"option {flag}: invalid choice {value!r}; "
                                         f"choose from {', '.join(kind)}")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _error(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        payload["witness"] = jsonable(witness)
    sys.stderr.write(json.dumps(payload, sort_keys=True, default=repr) + "\n")


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.handler(args)
    except getopt.GetoptError as exc:
        _error("usage", exc)
        return EXIT_INPUT
    except NotCompletelyRegularError as exc:
        _error("not_completely_regular", exc)
        return EXIT_REFUTED
    except CapacityError as exc:
        _error("capacity", exc)
        return EXIT_CAPACITY
    except TheoremViolationError as exc:
        _error("theorem_violation", exc)
        return EXIT_VIOLATION
    except DigestMismatchError as exc:
        _error("digest_mismatch", exc)
        return EXIT_INPUT
    except (CodeSpecError, CrcodesError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        _error("input", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
