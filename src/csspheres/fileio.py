"""Deterministic interchange formats for complexes.

Text: an optional ``# dim=D n=N space=V`` header followed by one facet per
line as space-separated signed integers, facets in canonical lexicographic
order.  JSON: an object with ambient_n, dim, space and the facet arrays,
likewise canonically sorted.  ``parse(print(x)) == x`` holds byte-for-byte
for both formats.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .core import Complex, Face, canon_face
from .errors import CsspheresError, ParseError

SPACES = ("V", "W")


class _ComplexFileFields(NamedTuple):
    complex: Complex
    space: str = "V"


class ComplexFile(_ComplexFileFields):
    """A complex plus its label-space tag (V: ±1..±n, W: ±3..±(n+2))."""

    __slots__ = ()

    def __new__(cls, complex: Complex, space: str = "V"):
        if space not in SPACES:
            raise ParseError(f"unknown label space {space!r}")
        return super().__new__(cls, complex, space)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here, so it checks too
        return cls(*iterable)


def dumps_text(cf: ComplexFile) -> str:
    c = cf.complex
    lines = [f"# dim={c.dim} n={c.ambient_n} space={cf.space}"]
    lines.extend(" ".join(str(v) for v in f) for f in c.sorted_facets())
    return "\n".join(lines) + "\n"


def _complex_file(faces: Iterable[Face], ambient, dim, space: str) -> ComplexFile:
    """Validate parsed fields into a ComplexFile; library errors become ParseError.

    `faces` yields canonical faces, each canonicalised once by its reader;
    JSON passes a lazy `canon_face` map, so a bad label raises in here.
    """
    try:
        faces = list(faces)
        if ambient is None:
            ambient = max((abs(v) for f in faces for v in f), default=0)
        c = Complex._canonical(faces, ambient)
        cf = ComplexFile(complex=c, space=space)
    except CsspheresError as exc:
        raise ParseError(str(exc)) from None
    if dim is not None and type(dim) is not int:
        raise ParseError(f"dim must be an integer, got {dim!r}")
    if dim is not None and c.dim != dim:
        raise ParseError(f"declared dim={dim} but facets have dim {c.dim}")
    return cf


def loads_text(text: str) -> ComplexFile:
    space = "V"
    header_n = None
    header_dim = None
    facets: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                for token in line[1:].split():
                    key, eq, value = token.partition("=")
                    if not eq:
                        raise ParseError(f"malformed header token {token!r}")
                    if key == "dim":
                        header_dim = int(value)
                    elif key == "n":
                        header_n = int(value)
                    elif key == "space":
                        if value not in SPACES:
                            raise ParseError(f"unknown label space {value!r}")
                        space = value
                    else:
                        raise ParseError(f"unknown header key {key!r}")
            else:
                facets.append(canon_face(int(t) for t in line.split()))
        except ValueError as exc:  # ParseError, InvalidParameters and int() failures
            raise ParseError(str(exc), lineno) from None
    if header_dim == -1 and not facets:
        facets.append(())  # the complex {∅}: its one facet prints as an empty line
    return _complex_file(facets, header_n, header_dim, space)


def dumps_json(cf: ComplexFile) -> str:
    c = cf.complex
    payload = {
        "ambient_n": c.ambient_n,
        "dim": c.dim,
        "space": cf.space,
        "facets": [list(f) for f in c.sorted_facets()],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def loads_json(text: str) -> ComplexFile:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", getattr(exc, "lineno", None)) from None
    if not isinstance(payload, dict) or "facets" not in payload:
        raise ParseError("expected an object with a 'facets' array")
    facets = payload["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError("'facets' must be a list of label lists")
    return _complex_file(map(canon_face, facets), payload.get("ambient_n"), payload.get("dim"),
                         payload.get("space", "V"))


def dumps(cf: ComplexFile, format: str = "json") -> str:
    if format == "json":
        return dumps_json(cf)
    if format == "text":
        return dumps_text(cf)
    raise ParseError(f"unknown format {format!r}")


def loads(text: str) -> ComplexFile:
    """Parse either format, sniffing JSON by its leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return loads_json(text)
    return loads_text(text)


def read_path(path: str) -> ComplexFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return loads(text)


def write_path(path: str, cf: ComplexFile, format: str | None = None) -> None:
    if format is None:
        format = "text" if path.endswith((".txt", ".text", ".sc")) else "json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(cf, format))
