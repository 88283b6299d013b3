"""Byte-row tables and the kernels that read them: hit rows and the
submodule lattice against per-element oracles, the tables themselves, and
the bound on hit-row cells."""
import pytest
from conftest import SWEEP_WIDE, naive_all_submodules, naive_hit_rows

from absorb import lattice
from absorb.cli import main
from absorb.errors import SizeBoundError
from absorb.lattice import all_submodules
from absorb.modules import (
    DEFAULT_SCAN_BOUND,
    CyclicModule,
    FiniteModule,
    ProductModule,
    zero_submodule,
)
from absorb.predicates import is_gsdf_absorbing
from absorb.rings import ZMod, make_zmod
from absorb.specdsl import elaborate_module, parse_module_spec
from absorb.suites import default_family

# Z_300 has no tables: it covers the per-element paths
SPECS = SWEEP_WIDE + tuple(f"self(Zn({n}))" for n in range(2, 61)) + ("self(Zn(300))",)


def _modules():
    return list(default_family()) + [elaborate_module(parse_module_spec(s)) for s in SPECS]


def test_hit_rows_match_the_per_element_loop():
    checked = 0
    for M in _modules():
        for N in all_submodules(M).proper:
            assert M.scalar_hit_masks(N.mask) == naive_hit_rows(M, N.mask), (M, N)
            checked += 1
        zero = 1 << M.zero
        assert M.scalar_hit_masks(zero) == naive_hit_rows(M, zero), M
    assert checked > 2500


def test_lattice_matches_the_join_of_all_cyclic_submodules():
    modules = _modules()
    assert any(M.act_t is None for M in modules)  # the per-element path too
    for M in modules:
        assert [N.indices for N in all_submodules(M).members] == naive_all_submodules(M), M


def test_lattice_of_z6_cubed_joins_20_generators(monkeypatch):
    joined_with = set()
    join = lattice._join

    def spy(base, c, coset):
        joined_with.add(c)
        return join(base, c, coset)

    monkeypatch.setattr(lattice, "_join", spy)
    C = CyclicModule(make_zmod(6), 6)
    M = ProductModule(ProductModule(C, C), C)  # a new module: no cached lattice
    assert len(all_submodules(M).members) == 16 * 28  # subgroups of (Z2)^3 and (Z3)^3
    cyclic = {tuple(sorted({M.act(r, x) for r in range(M.ring.order)})) for x in range(M.order)}
    assert len(cyclic) == 112
    assert len(joined_with) == 20  # the 7 cyclics of order 2 and the 13 of order 3


def test_tabulated_structures_hold_byte_rows():
    rings = {M.ring.signature: M.ring for M in default_family()}
    tabulated = [R for R in rings.values() if R.order <= 256]
    assert tabulated and all(R.add_t is not None for R in tabulated)
    for R in tabulated:
        for table in (R.add_t, R.mul_t):
            assert len(table) == R.order
            assert all(type(row) is bytes and len(row) == R.order for row in table)
        assert type(R.neg_t) is bytes and len(R.neg_t) == R.order
    modules = [M for M in default_family() if M.act_t is not None]
    assert len(modules) > 100
    for M in modules:
        assert all(type(row) is bytes and len(row) == M.order for row in M.add_t)
        assert len(M.act_t) == M.ring.order
        assert all(type(row) is bytes and len(row) == M.order for row in M.act_t)
        assert type(M.neg_t) is bytes and len(M.neg_t) == M.order


def test_zn_tabulates_on_first_read_only():
    R = ZMod(97)
    assert "mul_t" not in vars(R)  # nothing at construction
    M = R.as_module
    assert M.act_t is R.mul_t and M.add_t is R.add_t and M.neg_t is R.neg_t
    assert R.mul_t[5] == bytes(5 * x % 97 for x in range(97))
    assert R.add_t[5] == bytes((5 + x) % 97 for x in range(97))
    assert R.neg_t == bytes(-x % 97 for x in range(97))
    assert make_zmod(300).add_t is None


class _Untouchable(FiniteModule):
    """Z_n over itself, untabulated, whose action must not run."""

    def __init__(self, n):
        self.ring, self.order, self.name, self.zero = make_zmod(n), n, f"Z{n}!", 0
        self._trusted_ops = True
        self._finalize()

    def act(self, r, x):
        raise AssertionError("act was called")


def test_hit_rows_over_the_scan_bound_are_refused_before_any_action():
    with pytest.raises(SizeBoundError, match="ABSORB_SCAN_BOUND"):
        is_gsdf_absorbing(zero_submodule(_Untouchable(4097)))
    # |R| * |M| = 2^24 is at the bound, so rows are built
    assert 4096 * 4096 == DEFAULT_SCAN_BOUND
    with pytest.raises(AssertionError, match="act was called"):
        is_gsdf_absorbing(zero_submodule(_Untouchable(4096)))


def test_scan_bound_is_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("ABSORB_SCAN_BOUND", "99")
    with pytest.raises(SizeBoundError):
        is_gsdf_absorbing(zero_submodule(_Untouchable(10)))
    monkeypatch.setenv("ABSORB_SCAN_BOUND", "100")
    with pytest.raises(AssertionError, match="act was called"):
        is_gsdf_absorbing(zero_submodule(_Untouchable(10)))


def test_cli_check_over_the_scan_bound_exits_2(capsys):
    """The second input spans gen[2], 15000 elements, before its scan is
    refused: one cyclic join, where a breadth-first closure would make
    some 10^8 calls."""
    for module, sub in (("self(Zn(200000))", "zero"), ("self(Zn(30000))", "gen[2]")):
        code = main(["check", "--module", module, "--sub", sub, "--prop", "gsdf"])
        assert code == 2, module
        assert "ABSORB_SCAN_BOUND" in capsys.readouterr().err, module
