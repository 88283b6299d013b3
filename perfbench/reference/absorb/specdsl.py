"""A small structure-spec language for the command line.

Grammar (ASCII, whitespace-insensitive):

    ring    := "Zn(" INT ")" | "prod(" ring "," ring ")"
             | "idealize(" ring "," module ")" | "quot(" ring "," sub ")"
             | "amalg(" ring "," ring "," hom "," sub ")" | "loc(" ring "," mset ")"
    module  := "self(" ring ")" | "cyc(" ring "," INT ")"
             | "prod(" module "," module ")" | "quotm(" module "," sub ")"
             | "amalgm(" module "," module "," hom "," sub ")"
    sub     := "gen[" elem ("," elem)* "]" | "zero" | "full"
    mset    := "mset[" elem ("," elem)* "]"
    hom     := "id" | "redmap" | "table[" INT ":" INT ("," INT ":" INT)* "]"
    elem    := INT | "(" elem "," elem ")"

A sub used as an ideal (inside quot/amalg or for ideal properties) lives in
the ring viewed as a module over itself.  In amalgm the hom doubles as the
ring map and the module map (same table), which is exactly the canonical
choice for the self-module instances the CLI can build.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AbsorbError, ElaborationError, SpecSyntaxError

_PUNCT = "()[],:"


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | one of _PUNCT
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class SpecNode:
    kind: str
    args: tuple
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _PUNCT:
            out.append(Token(c, c, line, col))
            col += 1
            i += 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SpecSyntaxError(f"unexpected character {c!r}", line, col)
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, kind: str | None = None, text: str | None = None) -> Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise SpecSyntaxError("unexpected end of spec", last.line, last.column)
        if kind is not None and tok.kind != kind:
            raise SpecSyntaxError(f"expected {kind}, found {tok.text!r}", tok.line, tok.column)
        if text is not None and tok.text != text:
            raise SpecSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def done(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise SpecSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)

    # -- productions -------------------------------------------------------

    def ring(self) -> SpecNode:
        tok = self._take("name")
        head = tok.text
        if head == "Zn":
            self._take("(")
            n = int(self._take("int").text)
            self._take(")")
            return SpecNode("ring-zn", (n,), tok.line, tok.column)
        if head == "prod":
            self._take("(")
            a = self.ring()
            self._take(",")
            b = self.ring()
            self._take(")")
            return SpecNode("ring-prod", (a, b), tok.line, tok.column)
        if head == "idealize":
            self._take("(")
            r = self.ring()
            self._take(",")
            m = self.module()
            self._take(")")
            return SpecNode("ring-idealize", (r, m), tok.line, tok.column)
        if head == "quot":
            self._take("(")
            r = self.ring()
            self._take(",")
            s = self.sub()
            self._take(")")
            return SpecNode("ring-quot", (r, s), tok.line, tok.column)
        if head == "amalg":
            self._take("(")
            r1 = self.ring()
            self._take(",")
            r2 = self.ring()
            self._take(",")
            h = self.hom()
            self._take(",")
            j = self.sub()
            self._take(")")
            return SpecNode("ring-amalg", (r1, r2, h, j), tok.line, tok.column)
        if head == "loc":
            self._take("(")
            r = self.ring()
            self._take(",")
            s = self.mset()
            self._take(")")
            return SpecNode("ring-loc", (r, s), tok.line, tok.column)
        raise SpecSyntaxError(f"unknown ring constructor {head!r}", tok.line, tok.column)

    def module(self) -> SpecNode:
        tok = self._peek()
        if tok is None:
            raise SpecSyntaxError("expected a module spec", 1, 1)
        head = tok.text
        if head == "self":
            self._take("name")
            self._take("(")
            r = self.ring()
            self._take(")")
            return SpecNode("mod-self", (r,), tok.line, tok.column)
        if head == "cyc":
            self._take("name")
            self._take("(")
            r = self.ring()
            self._take(",")
            d = int(self._take("int").text)
            self._take(")")
            return SpecNode("mod-cyc", (r, d), tok.line, tok.column)
        if head == "prod":
            self._take("name")
            self._take("(")
            a = self.module()
            self._take(",")
            b = self.module()
            self._take(")")
            return SpecNode("mod-prod", (a, b), tok.line, tok.column)
        if head == "quotm":
            self._take("name")
            self._take("(")
            m = self.module()
            self._take(",")
            s = self.sub()
            self._take(")")
            return SpecNode("mod-quotm", (m, s), tok.line, tok.column)
        if head == "amalgm":
            self._take("name")
            self._take("(")
            a = self.module()
            self._take(",")
            b = self.module()
            self._take(",")
            h = self.hom()
            self._take(",")
            j = self.sub()
            self._take(")")
            return SpecNode("mod-amalgm", (a, b, h, j), tok.line, tok.column)
        raise SpecSyntaxError(f"unknown module constructor {head!r}", tok.line, tok.column)

    def sub(self) -> SpecNode:
        tok = self._take("name")
        if tok.text == "zero":
            return SpecNode("sub-zero", (), tok.line, tok.column)
        if tok.text == "full":
            return SpecNode("sub-full", (), tok.line, tok.column)
        if tok.text == "gen":
            self._take("[")
            elems = [self.elem()]
            while self._peek() and self._peek().text == ",":
                self._take(",")
                elems.append(self.elem())
            self._take("]")
            return SpecNode("sub-gen", tuple(elems), tok.line, tok.column)
        raise SpecSyntaxError(f"unknown submodule form {tok.text!r}", tok.line, tok.column)

    def mset(self) -> SpecNode:
        tok = self._take("name", "mset")
        self._take("[")
        elems = [self.elem()]
        while self._peek() and self._peek().text == ",":
            self._take(",")
            elems.append(self.elem())
        self._take("]")
        return SpecNode("mset", tuple(elems), tok.line, tok.column)

    def hom(self) -> SpecNode:
        tok = self._take("name")
        if tok.text == "id":
            return SpecNode("hom-id", (), tok.line, tok.column)
        if tok.text == "redmap":
            return SpecNode("hom-redmap", (), tok.line, tok.column)
        if tok.text == "table":
            self._take("[")
            pairs = []
            while True:
                a = int(self._take("int").text)
                self._take(":")
                b = int(self._take("int").text)
                pairs.append((a, b))
                if self._peek() and self._peek().text == ",":
                    self._take(",")
                    continue
                break
            self._take("]")
            return SpecNode("hom-table", tuple(pairs), tok.line, tok.column)
        raise SpecSyntaxError(f"unknown hom form {tok.text!r}", tok.line, tok.column)

    def elem(self):
        tok = self._peek()
        if tok is None:
            raise SpecSyntaxError("expected an element", 1, 1)
        if tok.kind == "int":
            self._take("int")
            return int(tok.text)
        if tok.text == "(":
            self._take("(")
            a = self.elem()
            self._take(",")
            b = self.elem()
            self._take(")")
            return (a, b)
        raise SpecSyntaxError(f"expected an element, found {tok.text!r}", tok.line, tok.column)


def parse_module_spec(text: str) -> SpecNode:
    p = _Parser(text)
    node = p.module()
    p.done()
    return node


def parse_ring_spec(text: str) -> SpecNode:
    p = _Parser(text)
    node = p.ring()
    p.done()
    return node


def parse_sub_spec(text: str) -> SpecNode:
    p = _Parser(text)
    node = p.sub()
    p.done()
    return node


def parse_spec(text: str) -> SpecNode:
    """Parse a spec that may be either a ring or a module."""
    try:
        return parse_module_spec(text)
    except SpecSyntaxError:
        return parse_ring_spec(text)


# -- rendering (canonical round-trippable form) ----------------------------


def render(node: SpecNode) -> str:
    k = node.kind
    if k == "ring-zn":
        return f"Zn({node.args[0]})"
    if k == "ring-prod":
        return f"prod({render(node.args[0])},{render(node.args[1])})"
    if k == "ring-idealize":
        return f"idealize({render(node.args[0])},{render(node.args[1])})"
    if k == "ring-quot":
        return f"quot({render(node.args[0])},{render(node.args[1])})"
    if k == "ring-amalg":
        a = node.args
        return f"amalg({render(a[0])},{render(a[1])},{render(a[2])},{render(a[3])})"
    if k == "ring-loc":
        return f"loc({render(node.args[0])},{render(node.args[1])})"
    if k == "mod-self":
        return f"self({render(node.args[0])})"
    if k == "mod-cyc":
        return f"cyc({render(node.args[0])},{node.args[1]})"
    if k == "mod-prod":
        return f"prod({render(node.args[0])},{render(node.args[1])})"
    if k == "mod-quotm":
        return f"quotm({render(node.args[0])},{render(node.args[1])})"
    if k == "mod-amalgm":
        a = node.args
        return f"amalgm({render(a[0])},{render(a[1])},{render(a[2])},{render(a[3])})"
    if k == "sub-zero":
        return "zero"
    if k == "sub-full":
        return "full"
    if k == "sub-gen":
        return "gen[" + ",".join(_render_elem(e) for e in node.args) + "]"
    if k == "mset":
        return "mset[" + ",".join(_render_elem(e) for e in node.args) + "]"
    if k == "hom-id":
        return "id"
    if k == "hom-redmap":
        return "redmap"
    if k == "hom-table":
        return "table[" + ",".join(f"{a}:{b}" for a, b in node.args) + "]"
    raise ValueError(f"cannot render node kind {k!r}")


def _render_elem(e) -> str:
    if isinstance(e, tuple):
        return f"({_render_elem(e[0])},{_render_elem(e[1])})"
    return str(e)


# -- elaboration ------------------------------------------------------------


def _fail(node: SpecNode, message: str):
    raise ElaborationError(f"{message} (at line {node.line}, column {node.column})")


def elaborate_ring(node: SpecNode):
    from .constructions import MultiplicativeSet, localize_ring
    from .rings import (
        AmalgamationRing,
        IdealizationRing,
        ProductRing,
        QuotientRing,
        make_zmod,
    )

    k = node.kind
    try:
        if k == "ring-zn":
            return make_zmod(node.args[0])
        if k == "ring-prod":
            return ProductRing(elaborate_ring(node.args[0]), elaborate_ring(node.args[1]))
        if k == "ring-idealize":
            r = elaborate_ring(node.args[0])
            m = elaborate_module(node.args[1])
            if not m.ring.same_ring(r):
                _fail(node, "idealize: module is not over the given ring")
            return IdealizationRing(r, m)
        if k == "ring-quot":
            r = elaborate_ring(node.args[0])
            ideal = elaborate_sub(node.args[1], r.as_module)
            return QuotientRing(r, ideal)
        if k == "ring-amalg":
            r1 = elaborate_ring(node.args[0])
            r2 = elaborate_ring(node.args[1])
            h = elaborate_hom(node.args[2], r1, r2)
            j = elaborate_sub(node.args[3], r2.as_module)
            return AmalgamationRing(r1, r2, h, j)
        if k == "ring-loc":
            r = elaborate_ring(node.args[0])
            elems = [r.literal_to_index(e) for e in node.args[1].args]
            return localize_ring(r, MultiplicativeSet(r, elems)).ring
    except ElaborationError:
        raise
    except AbsorbError as exc:
        _fail(node, str(exc))
    _fail(node, f"not a ring spec: {k}")


def elaborate_module(node: SpecNode):
    from .constructions import amalgamated_module, amalgamation_ring, quotient_module
    from .modules import CyclicModule, ModuleHom, ProductModule

    k = node.kind
    try:
        if k == "mod-self":
            return elaborate_ring(node.args[0]).as_module
        if k == "mod-cyc":
            r = elaborate_ring(node.args[0])
            return CyclicModule(r, node.args[1])
        if k == "mod-prod":
            return ProductModule(elaborate_module(node.args[0]), elaborate_module(node.args[1]))
        if k == "mod-quotm":
            m = elaborate_module(node.args[0])
            s = elaborate_sub(node.args[1], m)
            return quotient_module(m, s)[0]
        if k == "mod-amalgm":
            m1 = elaborate_module(node.args[0])
            m2 = elaborate_module(node.args[1])
            f = elaborate_hom(node.args[2], m1.ring, m2.ring)
            j = elaborate_sub(node.args[3], m2.ring.as_module)
            if m1.order != f.domain.order or m2.order != f.codomain.order:
                _fail(node, "amalgm: the hom table must also act on the module carriers")
            phi = ModuleHom(m1, m2, f.table, ring_map=f, name=f.name)
            A = amalgamation_ring(m1.ring, m2.ring, f, j)
            return amalgamated_module(A, m1, m2, phi, j)
    except ElaborationError:
        raise
    except AbsorbError as exc:
        _fail(node, str(exc))
    _fail(node, f"not a module spec: {k}")


def elaborate_sub(node: SpecNode, module):
    from .modules import full_submodule, span, zero_submodule

    k = node.kind
    try:
        if k == "sub-zero":
            return zero_submodule(module)
        if k == "sub-full":
            return full_submodule(module)
        if k == "sub-gen":
            return span(module, [module.literal_to_index(e) for e in node.args])
    except ElaborationError:
        raise
    except AbsorbError as exc:
        _fail(node, str(exc))
    _fail(node, f"not a submodule spec: {k}")


def elaborate_hom(node: SpecNode, r1, r2):
    from .rings import RingHom, ZMod, identity_hom, reduction_hom

    k = node.kind
    try:
        if k == "hom-id":
            if not r1.same_ring(r2):
                _fail(node, "id hom needs identical rings")
            return identity_hom(r1)
        if k == "hom-redmap":
            if isinstance(r1, ZMod) and isinstance(r2, ZMod) and r1.n % r2.n == 0:
                return reduction_hom(r1, r2)
            _fail(node, "redmap: no canonical reduction between these rings")
        if k == "hom-table":
            table = [None] * r1.order
            for a, b in node.args:
                if not (0 <= a < r1.order and 0 <= b < r2.order):
                    _fail(node, f"table entry {a}:{b} out of range")
                table[a] = b
            if any(v is None for v in table):
                _fail(node, "table must cover every domain element")
            return RingHom(r1, r2, table, name="table")
    except ElaborationError:
        raise
    except AbsorbError as exc:
        _fail(node, str(exc))
    _fail(node, f"not a hom spec: {k}")
