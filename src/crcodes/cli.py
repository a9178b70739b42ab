"""Command-line front end.

Subcommands: check, spectrum, quotient, classify, product, decompose,
construct, search, replay.  Reports are JSON (single source of truth); the
text format is rendered from the same document.  Machine-readable errors go
to stderr as JSON.

Exit codes: 0 success, 1 property refuted (e.g. the code is not completely
regular), 2 input error, 3 capacity error, 4 internal theorem violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .classify import (
    classify_arithmetic_forms,
    classify_hamming_quotient_code,
    classify_quotient,
    classify_small_covering_radius,
    column_classes,
    coordinate_classes,
    coset_graph_checks,
    decompose_product,
)
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
from .hamming_space import DEFAULT_VERTEX_CAP, is_additive
from .partitions_quotients import (
    certify_cr_partition,
    certify_distance_regular,
    coset_graph,
    coset_graph_by_syndrome,
    coset_partition,
    coset_to_syndrome,
    drg_spectrum,
    predicted_quotient_array,
    quotient_graph,
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
            bounds=analysis.bounds.to_json(),
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
    partition = coset_partition(code)
    cert = certify_cr_partition(partition)
    report = {
        "schema": "quotient-report@1",
        "classes": partition.class_count,
        "cr_partition": cert.is_cr_partition,
    }
    if not cert.is_cr_partition:
        report["failure"] = cert.failure
        _emit(report, args)
        return EXIT_REFUTED
    graph = quotient_graph(partition)
    drg = certify_distance_regular(graph)
    predicted = predicted_quotient_array(cert.numbers)
    report.update(
        gamma=list(cert.numbers.gamma),
        alpha=list(cert.numbers.alpha),
        beta=list(cert.numbers.beta),
        graph=graph.to_json(),
        drg={"is_drg": drg.is_drg,
             "array": drg.array.to_json() if drg.array else None},
        predicted_array=predicted.to_json(),
    )
    if not drg.is_drg or drg.array != predicted:
        raise TheoremViolationError(
            "quotient of a completely regular partition failed its "
            "distance-regularity prediction", witness=report)
    report["quotient_spectrum"] = list(drg_spectrum(drg.array))
    if code.is_linear:
        syndrome_graph = coset_graph_by_syndrome(code)
        phi = coset_to_syndrome(code, partition)
        same = graph.edge_count() == syndrome_graph.edge_count() and all(
            syndrome_graph.has_edge(phi[u], phi[v]) for u, v in graph.edges())
        report["syndrome_graph"] = syndrome_graph.to_json()
        report["syndrome_isomorphic"] = same
        if not same:
            raise TheoremViolationError(
                "syndrome graph disagrees with the explicit quotient",
                witness=report)
    _emit(report, args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    code = _load(args.spec, args)
    analysis = analyze_code(code)
    if not analysis.cr:
        _emit({
            "schema": "classification-report@1",
            "cr": False,
            "witness": analysis.certificate.witness.to_json(),
        }, args)
        return EXIT_REFUTED
    graph = coset_graph(code)
    drg = certify_distance_regular(graph)
    if not drg.is_drg:
        raise TheoremViolationError(
            "coset graph of a CR code is not distance-regular", witness=drg.witness)
    family = classify_quotient(graph, drg)
    checks = [r.to_json() for r in coset_graph_checks(code, analysis, family, drg.array)]
    report = {
        "schema": "classification-report@1",
        "cr": True,
        "family": family.to_json(),
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
    report = {"schema": "product-report@1", **compat.to_json()}
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
    analysis = analyze_code(code)
    if not analysis.cr:
        _emit({"schema": "decomposition-report@1", "cr": False}, args)
        return EXIT_REFUTED
    report = {"schema": "decomposition-report@1", "cr": True}
    violation = False
    if is_additive(code):
        report["coordinate_classes"] = [list(c) for c in coordinate_classes(code)]
    graph = coset_graph(code)
    drg = certify_distance_regular(graph)
    family = classify_quotient(graph, drg)
    report["family"] = family.to_json()
    if family.tag == "hamming" and analysis.delta is not None and analysis.delta >= 2:
        decomposition = decompose_product(code, family, analysis.delta)
        report["decomposition"] = decomposition.to_json()
        violation |= not decomposition.verified
    if code.is_linear and analysis.reduced and analysis.arithmetic.arithmetic:
        columns = column_classes(code, analysis)
        report["column_classes"] = columns.to_json()
        forms = classify_arithmetic_forms(code, analysis, columns, graph)
        report["forms"] = forms.to_json()
        violation |= forms.violation
        if family.tag == "hamming":
            report["hamming_quotient"] = classify_hamming_quotient_code(
                code, analysis, family, forms).to_json()
    if (code.is_linear and analysis.delta is not None and analysis.delta >= 3
            and analysis.arithmetic.arithmetic and analysis.rho in (1, 2)):
        small = classify_small_covering_radius(code, analysis)
        report["small_radius"] = small.to_json()
        violation |= small.case is None
    if violation:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crcodes",
        description="Exact-arithmetic analysis of completely regular codes "
                    "in Hamming graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--max-vertices", type=int, default=None,
                       help="override the full-space materialization cap")
        p.add_argument("--acknowledge-capacity", action="store_true",
                       help="confirm a cap above the default (memory!)")

    for name, handler, doc in (
        ("check", _cmd_check, "certify complete regularity and report"),
        ("spectrum", _cmd_spectrum, "eigenvalues and arithmetic certificate"),
        ("quotient", _cmd_quotient, "coset partition, quotient graph, arrays"),
        ("classify", _cmd_classify, "quotient family and theorem checks"),
        ("decompose", _cmd_decompose, "product decomposition and case report"),
        ("construct", _cmd_construct, "expand a construct spec to a code spec"),
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
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("search", help="run the code census")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=1)
    p.add_argument("--max-redundancy", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("replay", help="re-verify a census record or witness")
    p.add_argument("record", help="record JSON path")
    common(p)
    p.set_defaults(handler=_cmd_replay)

    return parser


def _error(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        payload["witness"] = jsonable(witness)
    sys.stderr.write(json.dumps(payload, sort_keys=True, default=repr) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
