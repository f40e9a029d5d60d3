import json
import math
import re

import numpy as np
import pytest
from systems import swap_pair_ifs, with_translations

from selfaffine import (
    AffineIFS,
    IFSFormatError,
    IFSValidationError,
    parse_ifs_text,
    serialize_ifs,
)
from selfaffine.ifsfile import parse_ifs_file, write_ifs_file

MINIMAL_1D = """
{
  "name": "pair",
  "dimension": 1,
  "maps": [
    {"matrix": [[0.5]], "translation": [0.0]},
    {"matrix": [[0.5]], "translation": [0.5]}
  ]
}
"""


def test_minimal_document():
    ifs = parse_ifs_text(MINIMAL_1D)
    assert ifs.dimension == 1
    assert ifs.n_maps == 2
    assert ifs.name == "pair"
    assert ifs.matrices[1][0, 0] == 0.5


def test_row_length_mismatch_names_map():
    doc = """{"dimension": 2, "maps": [
        {"matrix": [[0.5, 0.0], [0.0, 0.5]], "translation": [0.0, 0.0]},
        {"matrix": [[0.5, 0.0], [0.0]], "translation": [0.0, 0.0]}
    ]}"""
    with pytest.raises(IFSFormatError, match="map 1"):
        parse_ifs_text(doc)


def test_translation_length_mismatch():
    doc = """{"dimension": 1, "maps": [
        {"matrix": [[0.5]], "translation": [0.0, 1.0]},
        {"matrix": [[0.5]], "translation": [0.5]}
    ]}"""
    with pytest.raises(IFSFormatError, match="map 0"):
        parse_ifs_text(doc)


def test_missing_keys_and_bad_types():
    with pytest.raises(IFSFormatError, match="missing"):
        parse_ifs_text('{"dimension": 2}')
    with pytest.raises(IFSFormatError):
        parse_ifs_text('{"dimension": 0, "maps": []}')
    with pytest.raises(IFSFormatError):
        parse_ifs_text('{"dimension": true, "maps": [{"matrix": [[0.5]], "translation": [0.0]}]}')
    with pytest.raises(IFSFormatError):
        parse_ifs_text("[1, 2, 3]")
    with pytest.raises(IFSFormatError, match="non-numeric"):
        parse_ifs_text(
            '{"dimension": 1, "maps": [{"matrix": [["x"]], "translation": [0.0]}]}'
        )


def test_malformed_json_reports_line():
    text = '{\n  "dimension": 2,\n  "maps": [\n  broken\n]}'
    with pytest.raises(IFSFormatError, match=r":4:"):
        parse_ifs_text(text)


def test_round_trip_exact(tmp_path):
    ifs = swap_pair_ifs()
    # awkward floats must survive the trip bit for bit
    ifs = with_translations(ifs, np.array([0.1, -1 / 3, 2e-17, 1.0000000000000002]))
    path = tmp_path / "swap.json"
    write_ifs_file(ifs, path)
    back = parse_ifs_file(path)
    assert back.dimension == ifs.dimension
    assert back.name == ifs.name
    assert np.array_equal(back.matrices, ifs.matrices)
    assert np.array_equal(back.translations, ifs.translations)
    assert back.content_hash() == ifs.content_hash()


def test_parse_file_validates(tmp_path):
    doc = """{"dimension": 1, "maps": [
        {"matrix": [[0.0]], "translation": [0.0]},
        {"matrix": [[0.5]], "translation": [0.5]}
    ]}"""
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(IFSValidationError, match="map 0"):
        parse_ifs_file(path)
    parsed = parse_ifs_text(path.read_text())  # no validation, for inspection
    assert parsed.n_maps == 2


def test_parse_file_rejects_unsupported_dimension(tmp_path):
    ifs = AffineIFS(5, [0.3 * np.eye(5), 0.4 * np.eye(5)], np.zeros((2, 5)), name="five")
    path = tmp_path / "five.json"
    write_ifs_file(ifs, path)
    with pytest.raises(IFSValidationError, match=r"five\.json: dimension 5 is not supported"):
        parse_ifs_file(path)


def test_serialize_contains_schema_keys():
    text = serialize_ifs(swap_pair_ifs())
    assert '"dimension": 2' in text
    assert '"matrix"' in text and '"translation"' in text


def _doc(**fields):
    doc = {"dimension": 1, "maps": [{"matrix": [[0.5]], "translation": [0.0]}]}
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text,message",
    [
        (_doc(maps=[]), "'maps' must be a nonempty list"),
        (_doc(maps={"matrix": [[0.5]]}), "'maps' must be a nonempty list"),
        (_doc(maps=[{"matrix": [[0.5]]}]), "map 0: needs 'matrix' and 'translation'"),
        (_doc(maps=[[0.5]]), "map 0: needs 'matrix' and 'translation'"),
        (
            _doc(maps=[{"matrix": [[0.5], [0.5]], "translation": [0.0]}]),
            "map 0: matrix must have 1 rows",
        ),
        (_doc(maps=[{"matrix": 0.5, "translation": [0.0]}]), "map 0: matrix must have 1 rows"),
        (_doc(name=7), "'name' must be a string"),
        (
            _doc(maps=[{"matrix": [[math.nan]], "translation": [0.0]}]),
            "IFS entries must be finite",
        ),
    ],
)
def test_parse_rejects_malformed_documents(text, message):
    with pytest.raises(IFSFormatError, match=re.escape(f"<ifs>: {message}")):
        parse_ifs_text(text)
