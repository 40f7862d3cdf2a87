"""Plain-text save/load for the concrete body types.

The format is line oriented: a header line, a ``type`` line, then ``key
value`` pairs and ``vertex x y [z]`` rows.  Floats are written with 17
significant digits so a save/load round trip reproduces the body bit for
bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, DomainError
from .bodies import ConvexBody, CylinderBody, PolygonBoundary, Polytope3, SphereBody

__all__ = ["load_body", "save_body"]

_HEADER = "dispbound-body v1"


def _floats(width: int | None = None):
    """A reader of a row of floats, of ``width`` of them if given."""

    def read(text: str) -> list[float]:
        values = [float(tok) for tok in text.split()]
        if not values or width not in (None, len(values)):
            raise ValueError(text)
        return values

    return read


# each body type's class and keys, in file order: the constructor parameter
# (and attribute) a key holds, and the reader of its value.  ``vertex`` rows
# repeat, one per vertex; an optional key left out takes the constructor's
# default.
_ID = {"id": ("body_id", str)}
_TYPES = {
    "sphere": (SphereBody, {**_ID, "radius": ("radius", float), "center": ("center", _floats())}),
    "cylinder": (CylinderBody, {
        **_ID,
        "surface_dimension": ("surface_dimension", int),
        "radius": ("base_radius", float),
        "height": ("height", float),
    }),
    "polygon": (PolygonBoundary, {**_ID, "vertex": ("vertices", _floats(2))}),
    "polytope3": (Polytope3, {
        **_ID,
        "geodesic_subdivision": ("geodesic_subdivision", int),
        "vertex": ("vertices", _floats(3)),
    }),
}
_OPTIONAL = {"id", "geodesic_subdivision"}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return " ".join(format(float(x), ".17g") for x in np.atleast_1d(value))


def save_body(body: ConvexBody, path) -> None:
    kind = next((k for k, (cls, _) in _TYPES.items() if isinstance(body, cls)), None)
    if kind is None:
        raise ConfigurationError(f"cannot serialize body type {type(body).__name__}")
    lines = [_HEADER, f"type {kind}"]
    for key, (name, _) in _TYPES[kind][1].items():
        value = getattr(body, name)
        lines += [f"{key} {_fmt(v)}" for v in value] if key == "vertex" else [f"{key} {_fmt(value)}"]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_body(path) -> ConvexBody:
    """Read a body file.  A missing header, type or key, an unknown or
    repeated key, an unreadable value, or a body its constructor refuses
    (a ``ConfigurationError`` or a ``DomainError``) is a
    ``ConfigurationError`` naming the file, and the line and the key where
    there is one."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [(i, ln.strip()) for i, ln in enumerate(lines, 1) if ln.strip()]
    if not rows or rows[0][1] != _HEADER:
        raise ConfigurationError(f"{path}: not a body file (missing {_HEADER!r} header)")
    fields = [(i, *line.partition(" ")[::2]) for i, line in rows[1:]]
    kind = fields[0][2].strip() if fields and fields[0][1] == "type" else None
    if kind not in _TYPES:
        raise ConfigurationError(f"{path}: unknown body type {kind!r}")
    cls, keys = _TYPES[kind]
    kwargs: dict[str, object] = {}
    for number, key, text in fields[1:]:
        where = f"{path}, line {number}"
        if key not in keys:
            raise ConfigurationError(f"{where}: unknown key {key!r} in a {kind} body file")
        name, read = keys[key]
        try:
            value = read(text.strip())
        except ValueError:
            raise ConfigurationError(f"{where}: cannot read {key!r} from {text.strip()!r}") from None
        if key == "vertex":
            kwargs.setdefault(name, []).append(value)
        elif name in kwargs:
            raise ConfigurationError(f"{where}: repeated key {key!r}")
        else:
            kwargs[name] = value
    for key, (name, _) in keys.items():
        if name not in kwargs and key not in _OPTIONAL:
            raise ConfigurationError(f"{path}: a {kind} body file needs a {key!r} line")
    try:
        return cls(**kwargs)
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
