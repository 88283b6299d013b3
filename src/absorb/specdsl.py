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


# Constructor tables, one per sort: head -> (node kind, argument sorts).  A
# tuple of sorts is written head(arg,...), a single sort head[item,...] with
# one item or more, and no sorts the bare head.  Each sort also names the token
# kind its head must have (None: any) and the message for an unknown head.
SORTS = {
    "ring": ("name", "unknown ring constructor", {
        "Zn": ("ring-zn", ("int",)),
        "prod": ("ring-prod", ("ring", "ring")),
        "idealize": ("ring-idealize", ("ring", "module")),
        "quot": ("ring-quot", ("ring", "sub")),
        "amalg": ("ring-amalg", ("ring", "ring", "hom", "sub")),
        "loc": ("ring-loc", ("ring", "mset")),
    }),
    "module": (None, "unknown module constructor", {
        "self": ("mod-self", ("ring",)),
        "cyc": ("mod-cyc", ("ring", "int")),
        "prod": ("mod-prod", ("module", "module")),
        "quotm": ("mod-quotm", ("module", "sub")),
        "amalgm": ("mod-amalgm", ("module", "module", "hom", "sub")),
    }),
    "sub": ("name", "unknown submodule form", {
        "zero": ("sub-zero", ()),
        "full": ("sub-full", ()),
        "gen": ("sub-gen", "elem"),
    }),
    "mset": ("name", "expected 'mset', found", {"mset": ("mset", "elem")}),
    "hom": ("name", "unknown hom form", {
        "id": ("hom-id", ()),
        "redmap": ("hom-redmap", ()),
        "table": ("hom-table", "pair"),
    }),
}
_HEADS = {kind: (head, sorts) for _, _, heads in SORTS.values()
          for head, (kind, sorts) in heads.items()}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, kind: str | None = None) -> Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise SpecSyntaxError("unexpected end of spec", last.line, last.column)
        if kind is not None and tok.kind != kind:
            raise SpecSyntaxError(f"expected {kind}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def done(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise SpecSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)

    def parse(self, sort: str):
        """One item of ``sort``: a constructor call, an int, an element or an
        ``a:b`` table pair."""
        if sort == "int":
            return int(self._take("int").text)
        if sort == "pair":
            a = self.parse("int")
            self._take(":")
            return a, self.parse("int")
        if sort == "elem":
            tok = self._take()
            if tok.kind == "int":
                return int(tok.text)
            if tok.kind != "(":
                raise SpecSyntaxError(f"expected an element, found {tok.text!r}",
                                      tok.line, tok.column)
            a = self.parse("elem")
            self._take(",")
            b = self.parse("elem")
            self._take(")")
            return a, b
        head_kind, unknown, heads = SORTS[sort]
        tok = self._take(head_kind)
        if tok.text not in heads:
            raise SpecSyntaxError(f"{unknown} {tok.text!r}", tok.line, tok.column)
        kind, sorts = heads[tok.text]
        args = []
        if isinstance(sorts, str):
            self._take("[")
            args.append(self.parse(sorts))
            while self._peek() and self._peek().text == ",":
                self._take(",")
                args.append(self.parse(sorts))
            self._take("]")
        elif sorts:
            for s in sorts:
                self._take("," if args else "(")
                args.append(self.parse(s))
            self._take(")")
        return SpecNode(kind, tuple(args), tok.line, tok.column)


def _parse(text: str, sort: str) -> SpecNode:
    p = _Parser(text)
    node = p.parse(sort)
    p.done()
    return node


def parse_module_spec(text: str) -> SpecNode:
    return _parse(text, "module")


def parse_ring_spec(text: str) -> SpecNode:
    return _parse(text, "ring")


def parse_sub_spec(text: str) -> SpecNode:
    return _parse(text, "sub")


def parse_spec(text: str) -> SpecNode:
    """Parse a spec that may be either a ring or a module.  When it is
    neither, the error is whichever of the two parsers got further into the
    spec, the ring parser's on a tie."""
    try:
        return parse_module_spec(text)
    except SpecSyntaxError as module_error:
        try:
            return parse_ring_spec(text)
        except SpecSyntaxError as ring_error:
            where = (module_error.line, module_error.column)
            if where > (ring_error.line, ring_error.column):
                raise module_error from None
            raise


# -- rendering (canonical round-trippable form) ----------------------------


def render(node: SpecNode) -> str:
    if node.kind not in _HEADS:
        raise ValueError(f"cannot render node kind {node.kind!r}")
    head, sorts = _HEADS[node.kind]
    if isinstance(sorts, str):
        return f"{head}[{','.join(_render(a, sorts) for a in node.args)}]"
    if not sorts:
        return head
    return f"{head}({','.join(_render(a, s) for a, s in zip(node.args, sorts))})"


def _render(arg, sort: str) -> str:
    if sort == "pair":
        return f"{arg[0]}:{arg[1]}"
    if isinstance(arg, tuple):
        return f"({_render(arg[0], sort)},{_render(arg[1], sort)})"
    return render(arg) if isinstance(arg, SpecNode) else str(arg)


# -- elaboration ------------------------------------------------------------


def _fail(node: SpecNode, message: str):
    raise ElaborationError(f"{message} (at line {node.line}, column {node.column})")


def _located(elaborate):
    """Report an error raised while elaborating a node at that node."""
    def run(node: SpecNode, *context):
        try:
            return elaborate(node, *context)
        except ElaborationError:
            raise
        except AbsorbError as exc:
            _fail(node, str(exc))
    run.__name__ = run.__qualname__ = elaborate.__name__
    return run


@_located
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
    _fail(node, f"not a ring spec: {k}")


@_located
def elaborate_module(node: SpecNode):
    from .constructions import amalgamated_module, amalgamation_ring, quotient_module
    from .modules import CyclicModule, ModuleHom, ProductModule

    k = node.kind
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
    _fail(node, f"not a module spec: {k}")


@_located
def elaborate_sub(node: SpecNode, module):
    from .modules import full_submodule, span, zero_submodule

    k = node.kind
    if k == "sub-zero":
        return zero_submodule(module)
    if k == "sub-full":
        return full_submodule(module)
    if k == "sub-gen":
        return span(module, [module.literal_to_index(e) for e in node.args])
    _fail(node, f"not a submodule spec: {k}")


@_located
def elaborate_hom(node: SpecNode, r1, r2):
    from .rings import RingHom, ZMod, identity_hom, reduction_hom

    k = node.kind
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
    _fail(node, f"not a hom spec: {k}")
