"""The on-disk IFS format: a UTF-8 JSON document.

    {
      "name": "my-system",
      "dimension": 2,
      "maps": [
        { "matrix": [[0.5, 0.0], [0.0, 0.25]], "translation": [0.0, 0.0] },
        ...
      ]
    }

Floats round-trip exactly (shortest-repr JSON encoding), so serialize followed
by parse reproduces an identical system.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .affine import AffineIFS, validate_ifs
from .errors import IFSFormatError, IFSValidationError


def parse_ifs_obj(obj, source: str = "<ifs>") -> AffineIFS:
    if not isinstance(obj, dict):
        raise IFSFormatError(f"{source}: top level must be a JSON object")
    try:
        dimension = obj["dimension"]
        maps = obj["maps"]
    except KeyError as exc:
        raise IFSFormatError(f"{source}: missing required key {exc}") from None
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise IFSFormatError(f"{source}: 'dimension' must be a positive integer")
    if not isinstance(maps, list) or not maps:
        raise IFSFormatError(f"{source}: 'maps' must be a nonempty list")

    matrices, translations = [], []
    for i, entry in enumerate(maps):
        if not isinstance(entry, dict) or "matrix" not in entry or "translation" not in entry:
            raise IFSFormatError(f"{source}: map {i}: needs 'matrix' and 'translation'")
        matrix = entry["matrix"]
        if not isinstance(matrix, list) or len(matrix) != dimension:
            raise IFSFormatError(f"{source}: map {i}: matrix must have {dimension} rows")
        for r, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != dimension:
                raise IFSFormatError(
                    f"{source}: map {i}: matrix row {r} must have {dimension} entries"
                )
        translation = entry["translation"]
        if not isinstance(translation, list) or len(translation) != dimension:
            raise IFSFormatError(
                f"{source}: map {i}: translation must have {dimension} entries"
            )
        try:
            matrices.append(np.asarray(matrix, dtype=float))
            translations.append(np.asarray(translation, dtype=float))
        except (TypeError, ValueError):
            raise IFSFormatError(f"{source}: map {i}: non-numeric entry") from None

    name = obj.get("name", Path(source).stem if source != "<ifs>" else "ifs")
    if not isinstance(name, str):
        raise IFSFormatError(f"{source}: 'name' must be a string")
    try:
        return AffineIFS(dimension, np.stack(matrices), np.stack(translations), name=name)
    except ValueError as exc:
        raise IFSFormatError(f"{source}: {exc}") from None


def parse_ifs_text(text: str, source: str = "<ifs>") -> AffineIFS:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IFSFormatError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return parse_ifs_obj(obj, source)


def parse_ifs_file(path) -> AffineIFS:
    """Parse an IFS document and run ``validate_ifs`` on it: a hard error
    raises ``IFSValidationError`` naming the file, and the norm-1/2
    warnings go to the ``selfaffine.affine`` logger."""
    path = Path(path)
    ifs = parse_ifs_text(path.read_text(encoding="utf-8"), source=str(path))
    try:
        validate_ifs(ifs)
    except IFSValidationError as exc:
        raise IFSValidationError(f"{path}: {exc}") from None
    return ifs


def serialize_ifs(ifs: AffineIFS) -> str:
    doc = {
        "name": ifs.name,
        "dimension": ifs.dimension,
        "maps": [
            {"matrix": A.tolist(), "translation": a.tolist()}
            for A, a in zip(ifs.matrices, ifs.translations)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_ifs_file(ifs: AffineIFS, path) -> None:
    Path(path).write_text(serialize_ifs(ifs), encoding="utf-8")
