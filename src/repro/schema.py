"""One declaration per schema-versioned JSON document format.

Every versioned document the tools write (bench results, explain and
diff reports, flight manifests, SLO specs, lint reports,
...) is declared once as a :class:`Schema`: its version, the fields it
requires, the fields it may carry, and whether unknown fields are
refused.  Writers build documents with :meth:`Schema.stamp`, readers
validate them with :meth:`Schema.load`, so the version check and the
error wording are the same everywhere.  The R007 lint checks that no
document is stamped any other way and that every key a writer puts in
a stamped document is declared.

Stdlib only: ``analysis``, ``obs`` and ``harness`` all import it.
"""

from __future__ import annotations

import json
from dataclasses import KW_ONLY, dataclass
from pathlib import Path

__all__ = ["Schema", "dumps", "write_json"]

_VERSION_KEY = "schema_version"


@dataclass(frozen=True)
class Schema:
    """The declaration of one versioned document format.

    ``what`` names the document in error messages.  Keys starting with
    ``_`` are private carry-alongs (never serialised by the tools) and are
    exempt from the unknown-field check.
    """

    what: str
    version: int
    _: KW_ONLY
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    #: refuse public fields that are neither required nor optional
    closed: bool = False
    #: ``False`` reads a document without a version as the current one
    version_required: bool = True

    def stamp(self, **fields) -> dict:
        """A new document of this format: the version, then ``fields``."""
        return {_VERSION_KEY: self.version, **fields}

    def load(self, doc, *, what: str | None = None) -> dict:
        """Validate ``doc`` against this declaration; returns it unchanged.

        Raises :class:`ValueError` on a version mismatch, a missing
        required field, or (closed formats) an unknown field.
        """
        what = what or self.what
        if not isinstance(doc, dict):
            raise ValueError(f"{what} is not a JSON object")
        default = None if self.version_required else self.version
        version = doc.get(_VERSION_KEY, default)
        if version != self.version:
            raise ValueError(
                f"{what} has schema_version {version!r}; this tool reads "
                f"version {self.version}"
            )
        missing = set(self.required) - set(doc)
        if missing:
            raise ValueError(f"{what} is missing fields: {sorted(missing)}")
        if self.closed:
            known = {_VERSION_KEY, *self.required, *self.optional}
            unknown = {k for k in doc if not k.startswith("_")} - known
            if unknown:
                raise ValueError(
                    f"{what} has unknown fields: {sorted(unknown)}"
                )
        return doc


def dumps(doc) -> str:
    """The tools' JSON layout: indent 2, sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True)


def write_json(path, doc) -> Path:
    """Write ``doc`` to ``path`` (parents created) with a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(doc) + "\n", encoding="utf-8")
    return path
