"""The code-spec JSON grammar: the CLI input format for codes.

Three document types:

  {"type": "linear", "q": 2, "n": 7, "parity_check": [[...], ...]}
  {"type": "words",  "q": 4, "n": 2, "words": [[0,0], [0,1], ...],
   "additive": true?}
  {"type": "construct", "name": "hamming", "q": 2, "r": 3}

Construct names and parameters:

  hamming            q, r
  extended_hamming   r            (binary)
  repetition         q, n
  replicate          s, base      (base must be a linear code spec)
  product            factors      (list of two or more specs)
  pad                base, count? (prepends count free coordinates, default 1)
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import gf_matrix
from .constructions import (
    cartesian_product,
    extended_hamming_code,
    hamming_code,
    pad_code,
    repetition_code,
    replicate_columns,
)
from .errors import CodeSpecError, CrcodesError
from .hamming_space import (
    Code,
    DEFAULT_VERTEX_CAP,
    ambient,
    code_from_parity_check,
    code_from_words,
    decode,
)


def _require(doc: dict, key: str):
    if key not in doc:
        raise CodeSpecError(f"code spec is missing {key!r}")
    return doc[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if not _is_int(value):
        raise CodeSpecError(f"{key!r} must be an integer, got {value!r}")
    return value


def _integers(doc: dict, key: str):
    """doc[key], after checking that it and its sublists hold only integers:
    no float, string or boolean passes for one."""
    value = _require(doc, key)
    pending = [value]
    while pending:
        x = pending.pop()
        if isinstance(x, list):
            pending += x
        elif not _is_int(x):
            raise CodeSpecError(f"{key!r} entries must be integers, got {x!r}")
    return value


def parse_codespec(doc, max_vertices: int = DEFAULT_VERTEX_CAP) -> Code:
    if isinstance(doc, (str, Path)):
        doc = json.loads(Path(doc).read_text())
    if not isinstance(doc, dict):
        raise CodeSpecError("code spec must be a JSON object")
    kind = _require(doc, "type")
    try:
        if kind == "linear":
            q, n = _int(doc, "q"), _int(doc, "n")
            rows = _integers(doc, "parity_check")
            space = ambient(n, q, max_vertices)
            h = gf_matrix(space.alphabet, rows)
            if h.ncols != n:
                raise CodeSpecError(f"parity check has {h.ncols} columns, n={n}")
            return code_from_parity_check(space, h)
        if kind == "words":
            q, n = _int(doc, "q"), _int(doc, "n")
            words = _integers(doc, "words")
            space = ambient(n, q, max_vertices)
            return code_from_words(space, words, additive=doc.get("additive"))
        if kind == "construct":
            return _construct(doc, max_vertices)
    except CrcodesError:
        raise
    except (ValueError, TypeError) as exc:
        raise CodeSpecError(str(exc)) from exc
    raise CodeSpecError(f"unknown code spec type {kind!r}")


def _construct(doc: dict, max_vertices: int) -> Code:
    name = _require(doc, "name")
    if name == "hamming":
        return hamming_code(_int(doc, "r"), _int(doc, "q"), max_vertices)
    if name == "extended_hamming":
        if doc.get("q", 2) != 2:
            raise CodeSpecError("extended_hamming is binary only")
        return extended_hamming_code(_int(doc, "r"), max_vertices)
    if name == "repetition":
        return repetition_code(_int(doc, "n"), _int(doc, "q"))
    if name == "replicate":
        base = parse_codespec(_require(doc, "base"), max_vertices)
        if not base.is_linear:
            raise CodeSpecError("replicate needs a linear base code")
        s = _int(doc, "s")
        h = replicate_columns(base.linear.parity_check, s)
        space = ambient(h.ncols, base.ambient.q, max_vertices)
        return code_from_parity_check(space, h)
    if name == "product":
        factors = _require(doc, "factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise CodeSpecError("product needs a list of at least two factors")
        codes = [parse_codespec(f, max_vertices) for f in factors]
        out = codes[0]
        for f in codes[1:]:
            out = cartesian_product(out, f)
        return out
    if name == "pad":
        base = parse_codespec(_require(doc, "base"), max_vertices)
        count = doc.get("count", 1)
        if not _is_int(count) or count < 1:
            raise CodeSpecError("pad count must be a positive integer")
        return pad_code(base, count)
    raise CodeSpecError(f"unknown construct name {name!r}")


def emit_codespec(code: Code) -> dict:
    space = code.ambient
    if code.is_linear:
        return {
            "type": "linear",
            "q": space.q,
            "n": space.n,
            "parity_check": code.linear.parity_check.to_lists(),
        }
    return {
        "type": "words",
        "q": space.q,
        "n": space.n,
        "words": [list(decode(w, space.n, space.q)) for w in code.members],
    }
