"""The README's examples run as written: every spec it shows elaborates, the
Library snippet prints what its comments say, and every constructor in the
index-encoding table exists."""
import contextlib
import io
import re
from pathlib import Path

import absorb
from absorb import constructions, modules, rings
from absorb.specdsl import (
    elaborate_module,
    elaborate_ring,
    elaborate_sub,
    parse_module_spec,
    parse_ring_spec,
    parse_spec,
    parse_sub_spec,
)

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_every_spec_example_elaborates():
    para = _section("CLI").split("Spec examples:", 1)[1].split("\n\n", 1)[0]
    examples = re.findall(r"`([^`]+)`", para)
    assert len(examples) == 5
    for text in examples:
        node = parse_spec(text)
        S = elaborate_module(node) if node.kind.startswith("mod-") else elaborate_ring(node)
        assert S.order >= 2, text


def test_every_cli_spec_elaborates():
    lines = [ln for ln in _section("CLI").splitlines() if ln.startswith("absorb ")]
    seen = 0
    for line in lines:
        module = re.search(r'--module "([^"]+)"', line)
        ring = re.search(r'--ring "([^"]+)"', line)
        if ring:
            elaborate_ring(parse_ring_spec(ring.group(1)))
            seen += 1
        if module:
            M = elaborate_module(parse_module_spec(module.group(1)))
            sub = re.search(r'--sub "?([^" ]+)"?', line)
            elaborate_sub(parse_sub_spec(sub.group(1)), M)
            seen += 1
    assert seen == 3


def test_library_snippet_prints_its_comments():
    code = _section("Library").split("```python\n", 1)[1].split("```", 1)[0]
    expected = [ln.split("#", 1)[1].strip() for ln in code.splitlines()
                if ln.startswith("print(")]
    assert expected == ["True", "(2, 3, 1)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_every_tabled_constructor_exists():
    rows = [ln for ln in _section("Index encodings").splitlines() if ln.startswith("| `")]
    names = [re.match(r"\| `(\w+)\(", ln).group(1) for ln in rows]
    assert len(names) == len(set(names)) == 15
    homes = (absorb, rings, modules, constructions)
    for name in names:
        assert any(callable(getattr(h, name, None)) for h in homes), name
