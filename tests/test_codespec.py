import json

import pytest

from crcodes.codespec import emit_codespec, parse_codespec
from crcodes.constructions import extended_hamming_code, hamming_code, pad_code
from crcodes.errors import CodeSpecError, NotAdditiveError


def test_parse_linear():
    code = parse_codespec({
        "type": "linear", "q": 2, "n": 3, "parity_check": [[1, 1, 1]],
    })
    assert code.word_strings() == ["000", "110", "101", "011"]


def test_parse_words_additive_flag():
    code = parse_codespec({
        "type": "words", "q": 4, "n": 2,
        "words": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "additive": True,
    })
    assert code.size == 4
    with pytest.raises(NotAdditiveError):
        parse_codespec({
            "type": "words", "q": 2, "n": 2,
            "words": [[0, 0], [1, 1], [0, 1]], "additive": True,
        })


def test_parse_constructs():
    ham = parse_codespec({"type": "construct", "name": "hamming", "q": 2, "r": 3})
    assert ham.members == hamming_code(3, 2).members

    ext = parse_codespec({"type": "construct", "name": "extended_hamming", "r": 3})
    assert ext.members == extended_hamming_code(3).members

    rep = parse_codespec({"type": "construct", "name": "repetition", "q": 3, "n": 4})
    assert rep.size == 3

    doubled = parse_codespec({
        "type": "construct", "name": "replicate", "s": 2,
        "base": {"type": "construct", "name": "hamming", "q": 2, "r": 3},
    })
    assert doubled.ambient.n == 14 and doubled.size == 2**11

    padded = parse_codespec({
        "type": "construct", "name": "pad",
        "base": {"type": "construct", "name": "hamming", "q": 2, "r": 3},
    })
    assert padded.members == pad_code(hamming_code(3, 2)).members

    square = parse_codespec({
        "type": "construct", "name": "product",
        "factors": [
            {"type": "construct", "name": "repetition", "q": 2, "n": 3},
            {"type": "construct", "name": "repetition", "q": 2, "n": 3},
        ],
    })
    assert square.ambient.n == 6 and square.size == 4


def test_parse_errors():
    with pytest.raises(CodeSpecError):
        parse_codespec({"type": "mystery"})
    with pytest.raises(CodeSpecError):
        parse_codespec({"type": "construct", "name": "mystery"})
    with pytest.raises(CodeSpecError):
        parse_codespec({"type": "linear", "q": 2, "n": 3, "parity_check": [[1, 1]]})
    with pytest.raises(CodeSpecError):
        parse_codespec({"type": "construct", "name": "extended_hamming", "r": 3, "q": 3})
    with pytest.raises(CodeSpecError):
        parse_codespec({"type": "construct", "name": "product", "factors": []})
    with pytest.raises(CodeSpecError):
        parse_codespec({"type": "linear", "q": 2, "n": "x", "parity_check": [[1]]})


_HAMMING74 = {"type": "construct", "name": "hamming", "q": 2, "r": 3}


@pytest.mark.parametrize("doc", [
    {"type": "linear", "q": 2, "n": 3, "parity_check": [[1, 1.7, 1]]},
    {"type": "linear", "q": 2, "n": 3, "parity_check": [[1, "1", 1]]},
    {"type": "linear", "q": 2, "n": 3, "parity_check": [[True, 1, 1]]},
    {"type": "linear", "q": 2, "n": 3, "parity_check": ["111"]},
    {"type": "words", "q": 2, "n": 2, "words": [[0, 0], [1.0, 1.0]]},
    {"type": "words", "q": 2, "n": 2, "words": [[0, 0], [True, True]]},
    {"type": "words", "q": 2, "n": 2, "words": [0, True]},
    {"type": "construct", "name": "pad", "count": True, "base": _HAMMING74},
], ids=["float-entry", "string-entry", "boolean-entry", "string-row", "float-digits",
        "boolean-digits", "boolean-word", "boolean-count"])
def test_parse_refuses_entries_that_are_not_integers(doc):
    # each of these was once read as integers: 1.7, "1" and the row "111" as
    # ones, a boolean as 0 or 1, and the digits 1.0 as the float encoding 3.0
    with pytest.raises(CodeSpecError):
        parse_codespec(doc)


def test_emit_round_trip(tmp_path):
    ham = hamming_code(3, 2)
    doc = emit_codespec(ham)
    path = tmp_path / "ham.json"
    path.write_text(json.dumps(doc))
    again = parse_codespec(path)
    assert again.members == ham.members

    words = parse_codespec({"type": "words", "q": 2, "n": 2, "words": [[0, 0], [1, 1]]})
    doc = emit_codespec(words)
    assert doc["type"] == "words" and doc["words"] == [[0, 0], [1, 1]]
