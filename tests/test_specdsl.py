"""Structure-spec DSL: parsing, rendering, round-trips, elaboration errors."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import absorb.specdsl
from absorb.errors import ElaborationError, SpecSyntaxError
from absorb.specdsl import (
    SORTS,
    SpecNode,
    elaborate_module,
    elaborate_ring,
    elaborate_sub,
    parse_module_spec,
    parse_ring_spec,
    parse_spec,
    parse_sub_spec,
    render,
)

GOOD_MODULE_SPECS = [
    ("self(Zn(12))", 12),
    ("cyc(Zn(12),4)", 4),
    ("prod(cyc(Zn(12),3),cyc(Zn(12),4))", 12),
    ("quotm(self(Zn(24)),gen[12])", 12),
    ("self(prod(Zn(2),Zn(3)))", 6),
    ("self(quot(Zn(24),gen[12]))", 12),
    ("self(idealize(Zn(6),self(Zn(6))))", 36),
    ("self(loc(Zn(12),mset[4]))", 3),
    ("self(amalg(Zn(12),Zn(6),redmap,gen[2]))", 36),
    ("amalgm(self(Zn(12)),self(Zn(6)),redmap,gen[2])", 36),
    ("quotm(prod(cyc(Zn(6),2),cyc(Zn(6),3)),gen[(1,0)])", 3),
]


@pytest.mark.parametrize("text,order", GOOD_MODULE_SPECS)
def test_module_specs_elaborate_with_expected_order(text, order):
    assert elaborate_module(parse_module_spec(text)).order == order


@pytest.mark.parametrize("text,order", GOOD_MODULE_SPECS)
def test_render_round_trip(text, order):
    ast = parse_module_spec(text)
    rendered = render(ast)
    again = parse_module_spec(rendered)
    assert render(again) == rendered
    # round-trip is semantic too: same structural parse tree shape
    assert _shape(ast) == _shape(again)


def _shape(node):
    return (
        node.kind,
        tuple(_shape(a) if hasattr(a, "kind") else a for a in node.args),
    )


def test_whitespace_insensitive():
    a = parse_module_spec("prod( cyc( Zn(12), 3 ),\n  cyc(Zn(12), 4) )")
    b = parse_module_spec("prod(cyc(Zn(12),3),cyc(Zn(12),4))")
    assert render(a) == render(b)


def test_idealize_spec_cardinality():
    R = elaborate_ring(parse_ring_spec("idealize(Zn(6),self(Zn(6)))"))
    assert R.order == 36


def test_zn_spec():
    assert elaborate_ring(parse_ring_spec("Zn(12)")).order == 12


def test_syntax_error_has_location():
    with pytest.raises(SpecSyntaxError) as ei:
        parse_module_spec("self(Zn(12)")
    assert ei.value.line == 1 and ei.value.column >= 11
    with pytest.raises(SpecSyntaxError):
        parse_module_spec("self(Zn(12)))")
    with pytest.raises(SpecSyntaxError):
        parse_module_spec("frob(Zn(12))")
    with pytest.raises(SpecSyntaxError):
        parse_sub_spec("gen[]")


def test_elaboration_errors():
    with pytest.raises(ElaborationError):
        elaborate_module(parse_module_spec("cyc(Zn(12),5)"))  # 5 does not divide 12
    with pytest.raises(ElaborationError):
        elaborate_module(parse_module_spec("prod(self(Zn(2)),self(Zn(3)))"))
    with pytest.raises(ElaborationError):
        elaborate_module(parse_module_spec("amalgm(self(Zn(6)),self(Zn(12)),redmap,zero)"))


def test_sub_specs():
    M = elaborate_module(parse_module_spec("self(Zn(12))"))
    assert elaborate_sub(parse_sub_spec("zero"), M).indices == (0,)
    assert elaborate_sub(parse_sub_spec("full"), M).mask == (1 << 12) - 1
    assert elaborate_sub(parse_sub_spec("gen[4,6]"), M).indices == (0, 2, 4, 6, 8, 10)


def test_pair_elements():
    M = elaborate_module(parse_module_spec("prod(cyc(Zn(6),2),cyc(Zn(6),3))"))
    N = elaborate_sub(parse_sub_spec("gen[(1,0)]"), M)
    assert len(N.indices) == 2


def test_hom_table_spec():
    M = elaborate_module(
        parse_module_spec(
            "amalgm(self(Zn(6)),self(Zn(6)),table[0:0,1:1,2:2,3:3,4:4,5:5],gen[3])"
        )
    )
    assert M.order == 12


def test_hom_table_must_be_total_and_in_range():
    with pytest.raises(ElaborationError):
        elaborate_module(
            parse_module_spec("amalgm(self(Zn(6)),self(Zn(6)),table[0:0,1:1],zero)")
        )
    with pytest.raises(ElaborationError):
        elaborate_module(
            parse_module_spec(
                "amalgm(self(Zn(6)),self(Zn(6)),table[0:0,1:1,2:2,3:3,4:4,5:9],zero)"
            )
        )


def test_parse_spec_accepts_ring_or_module():
    assert parse_spec("Zn(12)").kind == "ring-zn"
    assert parse_spec("self(Zn(12))").kind == "mod-self"


# -- generated round-trips ---------------------------------------------------


def _call(head, *parts):
    return st.tuples(*parts).map(lambda t: f"{head}({','.join(map(str, t))})")


def _list(head, part):
    return st.lists(part, min_size=1, max_size=3).map(lambda t: f"{head}[{','.join(t)}]")


_ints = st.integers(-30, 30)
_elems = st.recursive(_ints.map(str), lambda e: _call("", e, e), max_leaves=4)
_subs = st.one_of(st.sampled_from(["zero", "full"]), _list("gen", _elems))
_homs = st.one_of(
    st.sampled_from(["id", "redmap"]),
    _list("table", st.tuples(_ints, _ints).map(lambda t: f"{t[0]}:{t[1]}")),
)


def _specs(depth):
    """Ring and module spec strategies nested at most ``depth`` deep."""
    if depth == 0:
        zn = _call("Zn", st.integers(2, 24))
        return zn, _call("cyc", zn, _ints)
    r, m = _specs(depth - 1)
    rings = st.one_of(
        r,
        _call("prod", r, r),
        _call("idealize", r, m),
        _call("quot", r, _subs),
        _call("amalg", r, r, _homs, _subs),
        _call("loc", r, _list("mset", _elems)),
    )
    modules = st.one_of(
        m,
        _call("self", r),
        _call("prod", m, m),
        _call("quotm", m, _subs),
        _call("amalgm", m, m, _homs, _subs),
    )
    return rings, modules


_rings, _modules = _specs(3)


@given(st.one_of(_rings, _modules))
@settings(max_examples=100, deadline=None)
def test_generated_specs_round_trip(text):
    ast = parse_spec(text)
    assert render(ast) == text
    assert _shape(parse_spec(render(ast))) == _shape(ast)


def _kinds(node):
    kinds = {node.kind}
    for a in node.args:
        if hasattr(a, "kind"):
            kinds |= _kinds(a)
    return kinds


EVERY_KIND = [
    "self(amalg(Zn(4),Zn(4),id,full))",
    "amalgm(self(Zn(6)),self(Zn(6)),table[0:0,1:1,2:2,3:3,4:4,5:5],zero)",
    "quotm(prod(cyc(Zn(6),2),self(Zn(6))),gen[(1,-1)])",
    "self(idealize(Zn(6),cyc(Zn(6),3)))",
    "self(prod(loc(Zn(12),mset[4]),quot(Zn(12),gen[4])))",
    "self(amalg(Zn(12),Zn(6),redmap,gen[2]))",
]


def test_every_node_kind_parses_renders_and_elaborates():
    seen = set()
    for text in EVERY_KIND:
        ast = parse_module_spec(text)
        assert render(ast) == text
        assert _shape(parse_module_spec(render(ast))) == _shape(ast)
        elaborate_module(ast)  # an unhandled kind would raise ElaborationError
        seen |= _kinds(ast)
    tables = {kind for _, _, heads in SORTS.values() for kind, _ in heads.values()}
    assert len(tables) == 18
    assert seen == tables


def test_render_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="cannot render node kind 'ring-frob'"):
        render(SpecNode("ring-frob", (), 1, 1))


def test_every_table_head_is_in_the_grammar_docstring():
    for _, _, heads in SORTS.values():
        for head, (_, sorts) in heads.items():
            opener = "[" if isinstance(sorts, str) else "(" if sorts else '"'
            assert f'"{head}{opener}' in absorb.specdsl.__doc__, head


# -- syntax errors -------------------------------------------------------------


@pytest.mark.parametrize("parse,text,where", [
    (parse_module_spec, "prod(cyc(Zn(12),3),", (1, 19)),
    (parse_sub_spec, "gen[", (1, 4)),
    (parse_module_spec, "prod(\n  cyc(Zn(12),3),", (2, 16)),
])
def test_end_of_input_points_at_the_last_token(parse, text, where):
    with pytest.raises(SpecSyntaxError, match="unexpected end of spec") as ei:
        parse(text)
    assert (ei.value.line, ei.value.column) == where


ENTRY_POINTS = (parse_module_spec, parse_ring_spec, parse_sub_spec, parse_spec)
# malformed spec -> "line:column: message" from each of ENTRY_POINTS
PINNED_ERRORS = [
    ('', ('1:1: unexpected end of spec', '1:1: unexpected end of spec', '1:1: unexpected end of spec', '1:1: unexpected end of spec')),
    ('self(', ('1:5: unexpected end of spec', "1:1: unknown ring constructor 'self'", "1:1: unknown submodule form 'self'", '1:5: unexpected end of spec')),
    ('self(Zn(12)', ('1:11: unexpected end of spec', "1:1: unknown ring constructor 'self'", "1:1: unknown submodule form 'self'", '1:11: unexpected end of spec')),
    ('cyc(Zn(12),', ('1:11: unexpected end of spec', "1:1: unknown ring constructor 'cyc'", "1:1: unknown submodule form 'cyc'", '1:11: unexpected end of spec')),
    ('prod(cyc(Zn(12),3),', ('1:19: unexpected end of spec', "1:6: unknown ring constructor 'cyc'", "1:1: unknown submodule form 'prod'", '1:19: unexpected end of spec')),
    ('prod(\n  cyc(Zn(12),3),', ('2:16: unexpected end of spec', "2:3: unknown ring constructor 'cyc'", "1:1: unknown submodule form 'prod'", '2:16: unexpected end of spec')),
    ('quot(Zn(12),', ("1:1: unknown module constructor 'quot'", '1:12: unexpected end of spec', "1:1: unknown submodule form 'quot'", '1:12: unexpected end of spec')),
    ('gen[', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", '1:4: unexpected end of spec', "1:1: unknown ring constructor 'gen'")),
    ('gen[(1,', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", '1:7: unexpected end of spec', "1:1: unknown ring constructor 'gen'")),
    ('gen[1,', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", '1:6: unexpected end of spec', "1:1: unknown ring constructor 'gen'")),
    ('table[0:', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('table[0:1,', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('amalgm(self(Zn(6)),self(Zn(6)),table[0:0,', ('1:41: unexpected end of spec', "1:1: unknown ring constructor 'amalgm'", "1:1: unknown submodule form 'amalgm'", '1:41: unexpected end of spec')),
    ('loc(Zn(6),mset[', ("1:1: unknown module constructor 'loc'", '1:15: unexpected end of spec', "1:1: unknown submodule form 'loc'", '1:15: unexpected end of spec')),
    ('self(Zn(12)))', ("1:13: trailing input ')'", "1:1: unknown ring constructor 'self'", "1:1: unknown submodule form 'self'", "1:13: trailing input ')'")),
    (')', ("1:1: unknown module constructor ')'", "1:1: expected name, found ')'", "1:1: expected name, found ')'", "1:1: expected name, found ')'")),
    ('prod)', ("1:5: expected (, found ')'", "1:5: expected (, found ')'", "1:1: unknown submodule form 'prod'", "1:5: expected (, found ')'")),
    ('gen[1)]', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", "1:6: expected ], found ')'", "1:1: unknown ring constructor 'gen'")),
    ('Zn(12))', ("1:1: unknown module constructor 'Zn'", "1:7: trailing input ')'", "1:1: unknown submodule form 'Zn'", "1:7: trailing input ')'")),
    ('self(Zn(12),)', ("1:12: expected ), found ','", "1:1: unknown ring constructor 'self'", "1:1: unknown submodule form 'self'", "1:12: expected ), found ','")),
    ('frob(Zn(12))', ("1:1: unknown module constructor 'frob'", "1:1: unknown ring constructor 'frob'", "1:1: unknown submodule form 'frob'", "1:1: unknown ring constructor 'frob'")),
    ('self(Zp(12))', ("1:6: unknown ring constructor 'Zp'", "1:1: unknown ring constructor 'self'", "1:1: unknown submodule form 'self'", "1:6: unknown ring constructor 'Zp'")),
    ('quot(Zn(4),span[1])', ("1:1: unknown module constructor 'quot'", "1:12: unknown submodule form 'span'", "1:1: unknown submodule form 'quot'", "1:12: unknown submodule form 'span'")),
    ('amalg(Zn(4),Zn(4),ident,zero)', ("1:1: unknown module constructor 'amalg'", "1:19: unknown hom form 'ident'", "1:1: unknown submodule form 'amalg'", "1:19: unknown hom form 'ident'")),
    ('loc(Zn(6),set[2])', ("1:1: unknown module constructor 'loc'", "1:11: expected 'mset', found 'set'", "1:1: unknown submodule form 'loc'", "1:11: expected 'mset', found 'set'")),
    ('12', ("1:1: unknown module constructor '12'", "1:1: expected name, found '12'", "1:1: expected name, found '12'", "1:1: expected name, found '12'")),
    ('(1,2)', ("1:1: unknown module constructor '('", "1:1: expected name, found '('", "1:1: expected name, found '('", "1:1: expected name, found '('")),
    ('gen[]', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", "1:5: expected an element, found ']'", "1:1: unknown ring constructor 'gen'")),
    ('gen[x]', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", "1:5: expected an element, found 'x'", "1:1: unknown ring constructor 'gen'")),
    ('gen[(1)]', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", "1:7: expected ,, found ')'", "1:1: unknown ring constructor 'gen'")),
    ('gen[(1,2,3)]', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", "1:9: expected ), found ','", "1:1: unknown ring constructor 'gen'")),
    ('gen[1 2]', ("1:1: unknown module constructor 'gen'", "1:1: unknown ring constructor 'gen'", "1:7: expected ], found '2'", "1:1: unknown ring constructor 'gen'")),
    ('gen[-]', ("1:5: unexpected character '-'", "1:5: unexpected character '-'", "1:5: unexpected character '-'", "1:5: unexpected character '-'")),
    ('gen[@]', ("1:5: unexpected character '@'", "1:5: unexpected character '@'", "1:5: unexpected character '@'", "1:5: unexpected character '@'")),
    ('table[]', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('table[0]', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('table[0:x]', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('table[0:1;2:3]', ("1:10: unexpected character ';'", "1:10: unexpected character ';'", "1:10: unexpected character ';'", "1:10: unexpected character ';'")),
    ('table[0:1,]', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('table[(0:1)]', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('table[0:1 2:3]', ("1:1: unknown module constructor 'table'", "1:1: unknown ring constructor 'table'", "1:1: unknown submodule form 'table'", "1:1: unknown ring constructor 'table'")),
    ('Zn(x)', ("1:1: unknown module constructor 'Zn'", "1:4: expected int, found 'x'", "1:1: unknown submodule form 'Zn'", "1:4: expected int, found 'x'")),
    ('cyc(Zn(12),a)', ("1:12: expected int, found 'a'", "1:1: unknown ring constructor 'cyc'", "1:1: unknown submodule form 'cyc'", "1:12: expected int, found 'a'")),
    ('self Zn(12)', ("1:6: expected (, found 'Zn'", "1:1: unknown ring constructor 'self'", "1:1: unknown submodule form 'self'", "1:6: expected (, found 'Zn'")),
    ('self(Zn(12)) extra', ("1:14: trailing input 'extra'", "1:1: unknown ring constructor 'self'", "1:1: unknown submodule form 'self'", "1:14: trailing input 'extra'")),
]


def test_parse_spec_reports_the_error_further_into_the_spec():
    def where(message):
        return tuple(map(int, message.split(":")[:2]))

    for text, (module, ring, _, either) in PINNED_ERRORS:
        assert either == (module if where(module) > where(ring) else ring), text


@pytest.mark.parametrize("text,errors", PINNED_ERRORS)
def test_pinned_syntax_errors(text, errors):
    for parse, want in zip(ENTRY_POINTS, errors):
        with pytest.raises(SpecSyntaxError) as ei:
            parse(text)
        exc = ei.value
        assert (str(exc), exc.line, exc.column) == (want, *map(int, want.split(":")[:2]))
