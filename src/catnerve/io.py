"""Plain-text formats for categories and covers.

Category files::

    # lines starting with '#' (or trailing '#' comments) are ignored
    category C
    objects x y z
    mor f : x -> y
    mor h : y -> z
    comp h f = k

Identities are implicit: every object gets ``id_<object>`` and the
identity rows of the composition table are filled in automatically, so
only composites of non-identity pairs need (or should) be written.
Ids are whitespace- and '#'-free tokens; names beginning ``id_`` are
reserved for identities.  ``parse_category`` keeps one shared ``str``
per distinct id: the objects, the ``Mor`` fields and the table's keys
and values all hold it, so lookups in the parsed category compare
strings that are already hashed and identical.

Cover files (parsed against an already-loaded category)::

    cover U of C
    order 1 2
    part 1 : x y
    part 2 : objects y z ; morphisms h

The short part form takes the full subcategory on the listed objects;
the long form lists non-identity morphisms explicitly (identities of
the listed objects are added).  ``order`` is optional and defaults to
lexicographic label order.
"""

from __future__ import annotations

from typing import Optional

from .covers import Cover, Subcategory, full_subcategory
from .fincat import FinCategory, Mor, validate_category


class ParseError(Exception):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidStructureError(Exception):
    """Well-formed text describing a structure that breaks the axioms."""


def _logical_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            yield i, line


def parse_category(text: str, validate: bool = True) -> FinCategory:
    """Read a category file; with ``validate`` the axioms are enforced.

    Syntax problems raise ParseError with a line number; axiom failures
    raise InvalidStructureError listing every violation.  Pass
    ``validate=False`` to obtain the raw structure for inspection.
    """
    name: Optional[str] = None
    objects: list[str] = []
    morphisms: list[Mor] = []
    comp: dict[tuple[str, str], str] = {}
    intern = {}.setdefault  # one shared str per distinct id: intern(tok, tok)

    lines = text.splitlines()
    lines.reverse()  # popped below, so that each line is freed once it is read
    for no in range(1, len(lines) + 1):
        raw = lines.pop()
        tok = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tok:
            continue
        head = tok[0]
        if name is None:
            if head != "category":
                raise ParseError(no, "file must start with 'category <name>'")
            if len(tok) != 2:
                raise ParseError(no, "expected: category <name>")
            name = tok[1]
        elif head == "comp":  # tested first: the bulk of every large file
            # comp g f = h   (h = g after f)
            if len(tok) != 5 or tok[3] != "=":
                raise ParseError(no, "expected: comp <g> <f> = <h>")
            _, g, f, _, h = tok
            key = (intern(g, g), intern(f, f))
            if key in comp:
                first = next(n for n, earlier in _logical_lines(text) if earlier.split()[:3] == tok[:3])
                raise ParseError(no, f"composite of ({g}, {f}) already given on line {first}")
            comp[key] = intern(h, h)
        elif head == "mor":
            # mor f : x -> y
            if len(tok) != 6 or tok[2] != ":" or tok[4] != "->":
                raise ParseError(no, "expected: mor <id> : <dom> -> <cod>")
            _, f, _, x, _, y = tok
            morphisms.append(Mor(intern(f, f), intern(x, x), intern(y, y)))
        elif head == "objects":
            if len(tok) < 2:
                raise ParseError(no, "expected: objects <id>...")
            objects.extend([intern(x, x) for x in tok[1:]])
        elif head == "category":
            raise ParseError(no, "second 'category' header")
        else:
            raise ParseError(no, f"unknown directive {head!r}")

    if name is None:
        raise ParseError(1, "empty input; expected 'category <name>'")
    identity = {x: intern(i, i) for x in objects for i in (f"id_{x}",)}
    cat = FinCategory._complete(name, tuple(objects), identity, morphisms, comp)
    if validate:
        report = validate_category(cat)
        if not report.ok:
            raise InvalidStructureError("; ".join(report.messages()))
    return cat


def emit_category(cat: FinCategory) -> str:
    """Render a category file that parses back to an equal category.

    Identity morphisms and identity table rows are omitted (the parser
    regenerates them), so this is only faithful for categories whose
    identities follow the ``id_<object>`` convention -- everything
    ``FinCategory.build`` and ``parse_category`` produce.
    """
    lines = [f"category {cat.name}"]
    if cat.objects:
        lines.append("objects " + " ".join(cat.objects))
    for m in cat.morphisms:
        if not cat.is_identity(m.name):
            lines.append(f"mor {m.name} : {m.dom} -> {m.cod}")
    for (g, f), h in cat.comp.items():
        if cat.is_identity(g) or cat.is_identity(f):
            continue
        lines.append(f"comp {g} {f} = {h}")
    return "\n".join(lines) + "\n"


def parse_cover(text: str, cat: FinCategory) -> Cover:
    """Read a cover file against ``cat``.

    The header's category name must match; part bodies are resolved to
    subcategories of ``cat`` (InvalidStructureError when ids are unknown
    or a part is not composition-closed).  Whether the parts actually
    cover the category is NOT checked here -- use ``is_cover``.
    """
    name: Optional[str] = None
    order: Optional[list[str]] = None
    parts: dict[str, Subcategory] = {}
    part_line: dict[str, int] = {}

    for no, line in _logical_lines(text):
        tok = line.split()
        if tok[0] == "cover":
            if name is not None:
                raise ParseError(no, "second 'cover' header")
            if len(tok) != 4 or tok[2] != "of":
                raise ParseError(no, "expected: cover <name> of <category>")
            if tok[3] != cat.name:
                raise InvalidStructureError(
                    f"cover is declared over {tok[3]!r} but the category is {cat.name!r}"
                )
            name = tok[1]
            continue
        if name is None:
            raise ParseError(no, "file must start with 'cover <name> of <category>'")
        if tok[0] == "order":
            if order is not None:
                raise ParseError(no, "second 'order' line")
            if len(tok) < 2:
                raise ParseError(no, "expected: order <label>...")
            order = tok[1:]
        elif tok[0] == "part":
            if len(tok) < 3 or tok[2] != ":":
                raise ParseError(no, "expected: part <label> : ...")
            label, body = tok[1], tok[3:]
            if label in parts:
                raise ParseError(no, f"part {label!r} already given on line {part_line[label]}")
            part_line[label] = no
            try:
                if body and body[0] == "objects":
                    if ";" not in body or body.index(";") + 1 >= len(body) or body[body.index(";") + 1] != "morphisms":
                        raise ParseError(no, "expected: part <label> : objects <id>... ; morphisms <id>...")
                    cut = body.index(";")
                    objs = body[1:cut]
                    mors = body[cut + 2:]
                    mors = set(mors) | {cat.identity_name(x) for x in objs if cat.has_object(x)}
                    parts[label] = Subcategory(cat, objs, mors)
                else:
                    parts[label] = full_subcategory(cat, body)
            except ValueError as e:
                raise InvalidStructureError(f"part {label!r}: {e}") from None
        else:
            raise ParseError(no, f"unknown directive {tok[0]!r}")

    if name is None:
        raise ParseError(1, "empty input; expected 'cover <name> of <category>'")
    if not parts:
        raise InvalidStructureError("cover has no parts")
    if order is None:
        order = sorted(parts)
    elif sorted(order) != sorted(parts):
        raise InvalidStructureError(
            f"order {order} does not list the part labels {sorted(parts)} exactly once each"
        )
    try:
        return Cover(cat, order, parts, name=name)
    except ValueError as e:
        raise InvalidStructureError(str(e)) from None


def emit_cover(cover: Cover) -> str:
    """Render a cover file; parses back (against the same category) equal."""
    lines = [f"cover {cover.name} of {cover.parent.name}"]
    lines.append("order " + " ".join(cover.index_order))
    for label in cover.index_order:
        part = cover.parts[label]
        if part.full:
            lines.append(f"part {label} : " + " ".join(part.objects))
        else:
            nonid = [m.name for m in part.non_identities()]
            lines.append(
                (f"part {label} : objects " + " ".join(part.objects)
                 + " ; morphisms " + " ".join(nonid)).rstrip()
            )
    return "\n".join(lines) + "\n"
