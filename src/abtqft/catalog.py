"""Named manifold presentations for the command-line surface.

A catalog entry bundles a name, a surgery presentation, and optionally
frozen expected values ``k -> PolarValue``; entries whose values are meant
to be computed rather than pinned carry the tag ``"derived-at-build"``.

Catalog JSON schema (``catalog.json``)::

    {"entries": [
        {"name": "S3",
         "presentation": {"L": [[...]], "B": [[...]], "C": [[...]], "h": [...]},
         "expected": {"2": {"mag2": "1/2", "phase": "0/1"}, ...}
               # or the string "derived-at-build"
        }, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Union

from .compare import E8_ROWS
from .intlinalg import IntSymMatrix
from .numeric import ONE_PHASE, PolarValue, polar_from_json, polar_to_json
from .surgery import SurgeryPresentation

DERIVED_AT_BUILD = "derived-at-build"

ExpectedMap = Union[str, Dict[int, PolarValue]]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    presentation: SurgeryPresentation
    expected: ExpectedMap = DERIVED_AT_BUILD
    note: str = ""

    def to_json(self) -> dict:
        obj = {"name": self.name, "presentation": self.presentation.to_json()}
        if isinstance(self.expected, str):
            obj["expected"] = self.expected
        else:
            obj["expected"] = {str(k): polar_to_json(v)
                               for k, v in sorted(self.expected.items())}
        if self.note:
            obj["note"] = self.note
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "CatalogEntry":
        if not isinstance(obj, dict):
            raise ValueError("a catalog entry must be a JSON object")
        name = obj["name"]
        if not isinstance(name, str):
            raise ValueError("a catalog name must be a string")
        expected: ExpectedMap = obj.get("expected", DERIVED_AT_BUILD)
        if isinstance(expected, dict):
            expected = {int(k): polar_from_json(v) for k, v in expected.items()}
        elif expected != DERIVED_AT_BUILD:
            raise ValueError("expected values must be an object "
                             f"or {DERIVED_AT_BUILD!r}")
        return cls(name, SurgeryPresentation.from_json(obj["presentation"]),
                   expected, obj.get("note", ""))


def _sphere_expected() -> Dict[int, PolarValue]:
    return {k: PolarValue(Fraction(1, k), ONE_PHASE) for k in (2, 4, 6, 8)}


def _closed(rows) -> SurgeryPresentation:
    return SurgeryPresentation(IntSymMatrix.from_rows(rows))


def builtin_catalog() -> Dict[str, CatalogEntry]:
    """The built-in manifold catalog, keyed by name."""
    empty = SurgeryPresentation(IntSymMatrix.empty())
    entries = [
        CatalogEntry("S3", empty, _sphere_expected(),
                     "empty presentation of the 3-sphere"),
        CatalogEntry("S3_plus", _closed([[1]]), _sphere_expected(),
                     "+1 framed unknot"),
        CatalogEntry("S3_minus", _closed([[-1]]), _sphere_expected(),
                     "-1 framed unknot"),
        CatalogEntry("S1xS2", _closed([[0]]),
                     {k: PolarValue(Fraction(1), ONE_PHASE) for k in (2, 4, 6, 8)},
                     "0 framed unknot"),
        CatalogEntry("L2_1", _closed([[2]]), DERIVED_AT_BUILD, "lens space L(2,1)"),
        CatalogEntry("L3_1", _closed([[3]]), DERIVED_AT_BUILD, "lens space L(3,1)"),
        CatalogEntry("L4_1", _closed([[4]]), DERIVED_AT_BUILD, "lens space L(4,1)"),
        CatalogEntry("L5_1", _closed([[5]]), DERIVED_AT_BUILD, "lens space L(5,1)"),
        CatalogEntry("T3_like", _closed([[0, 0], [0, 0]]), DERIVED_AT_BUILD,
                     "two 0-framed split unknots (b1 = 2)"),
        CatalogEntry("E8", _closed([list(r) for r in E8_ROWS]), DERIVED_AT_BUILD,
                     "E8 plumbing sphere (unimodular, signature 8)"),
    ]
    return {e.name: e for e in entries}


def load_catalog(path: str) -> Dict[str, CatalogEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    entries = [CatalogEntry.from_json(obj) for obj in data["entries"]]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ValueError("catalog names must be unique")
    return {e.name: e for e in entries}

