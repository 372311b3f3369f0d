"""One write, load and validate path for every versioned JSON artifact.

Each layout — snapshot, profile, cluster profile, time series and
findings — registers its ``schema`` tag here when its module is
imported, with the shape check that vets a document of that layout and
the JSON indent of its files.  Writing validates first, so no invalid
artifact reaches disk, and files are canonical JSON (sorted keys, one
trailing newline): identical documents give identical bytes.  Chrome
traces are not registered; that format is Chrome's own and carries no
schema tag (:mod:`repro.observ.events`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Mapping

__all__ = [
    "register_artifact",
    "validate_artifact",
    "write_artifact",
    "load_artifact",
]

#: Schema tag -> (shape check, JSON indent of its files).
_LAYOUTS: dict[str, tuple[Callable[[Mapping], None], int | None]] = {}


def register_artifact(tag: str, *, indent: int | None = None):
    """Decorator registering a shape check for the layout ``tag``.  The
    check gets an object known to carry that tag and raises
    ``ValueError`` on any malformed field."""
    def register(check: Callable[[Mapping], None]):
        _LAYOUTS[tag] = (check, indent)
        return check
    return register


def validate_artifact(doc: object, tag: str | None = None) -> str:
    """Raise ``ValueError`` unless ``doc`` is an object carrying a
    registered ``schema`` tag (``tag`` itself, when given) whose shape
    check passes.  Returns the tag."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"artifact must be a JSON object, "
                         f"got {type(doc).__name__}")
    schema = doc.get("schema")
    if not isinstance(schema, str) or schema not in _LAYOUTS \
            or tag not in (None, schema):
        raise ValueError(f"unknown artifact schema {schema!r} "
                         f"(expected {tag or sorted(_LAYOUTS)!r})")
    _LAYOUTS[schema][0](doc)
    return schema


def write_artifact(path: str | Path, doc: Mapping) -> Path:
    """Validate ``doc``, then write it as canonical JSON."""
    indent = _LAYOUTS[validate_artifact(doc)][1]
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True, indent=indent) + "\n")
    return path


def load_artifact(path: str | Path, tag: str) -> dict:
    """Read the artifact at ``path`` and validate it as layout ``tag``."""
    doc = json.loads(Path(path).read_text())
    validate_artifact(doc, tag)
    return doc
