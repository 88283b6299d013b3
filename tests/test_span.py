"""Spans, greedy generator lists and sums of submodules, all coset joins of
cyclic submodules, against the breadth-first closure ``naive_span``; the
cost of a span; and the closure check of a carrier without tables."""
import pytest
from conftest import SWEEP_WIDE, naive_generators, naive_span

from absorb.errors import InvalidConstructionError
from absorb.lattice import all_submodules
from absorb.modules import RestrictedModule, RingAsModule, SubcarrierModule, span, sum_submodules
from absorb.rings import SubringOnIdempotent, ZMod, make_zmod
from absorb.specdsl import elaborate_module, parse_module_spec
from absorb.suites import default_family

# SWEEP_WIDE[0] is (Z6)^3; Z300 has no tables
SPECS = SWEEP_WIDE + ("self(Zn(300))",)


def _modules():
    return list(default_family()) + [elaborate_module(parse_module_spec(s)) for s in SPECS]


def test_span_generators_and_sums_match_the_breadth_first_closure():
    modules = _modules()
    assert any(M.act_t is None for M in modules)
    submodules = 0
    for M in modules:
        members = all_submodules(M).members
        for i, N in enumerate(members):
            assert span(M, N.indices).mask == naive_span(M, N.indices) == N.mask, (M, N)
            assert N.generators == naive_generators(M, N.indices), (M, N)
            assert span(M, N.generators) == N, (M, N)
            P = members[(7 * i + 3) % len(members)]
            assert sum_submodules(N, P).mask == naive_span(M, N.indices + P.indices), (M, N, P)
            submodules += 1
        for k in range(35):
            pair = [(7 * k) % M.order, (13 * k + 1) % M.order]
            assert span(M, pair).mask == naive_span(M, pair), (M, pair)
    assert (len(modules), submodules) == (150, 2658)


def test_spans_in_an_untabulated_product_match_the_breadth_first_closure():
    M = elaborate_module(parse_module_spec("self(prod(Zn(60),Zn(60)))"))
    assert M.act_t is None
    lists = [[(6, 0)], [(4, 6)], [(20, 0), (0, 30)], [(30, 30), (12, 0)], [(0, 0)], [(15, 20), (10, 0)]]
    spans = []
    for lits in lists:
        gens = [M.literal_to_index(lit) for lit in lits]
        N = span(M, gens)
        assert N.mask == naive_span(M, gens), lits
        assert N.generators == naive_generators(M, N.indices), lits
        spans.append(N)
    assert [N.order for N in spans] == [10, 150, 6, 20, 1, 36]
    for A, B in zip(spans, spans[1:]):
        assert sum_submodules(A, B).mask == naive_span(M, A.indices + B.indices), (A, B)


def test_a_span_costs_an_action_per_scalar_and_an_addition_per_element(monkeypatch):
    """span(Z4096, [2]) and the generators of the result: |R| actions for
    the one cyclic joined, and one addition per element of the span,
    where the breadth-first closure makes |N| (|R| + |N|) / 2 calls."""
    M = RingAsModule(ZMod(4096))
    assert M.act_t is None
    calls = {"act": 0, "add": 0}

    def counted(name):
        op = getattr(M, name)

        def spy(*args):
            calls[name] += 1
            return op(*args)

        return spy

    for name in calls:
        monkeypatch.setattr(M, name, counted(name))
    N = span(M, [2])
    assert N.order == 2048
    assert calls["act"] <= M.ring.order and calls["add"] <= N.order
    calls.update(act=0, add=0)
    assert N.generators == (2,)
    assert calls["act"] <= M.ring.order and calls["add"] <= N.order


def test_a_carrier_without_tables_is_its_own_span():
    """Z100000 has no tables, nor has a carrier of it over its 100000
    scalars, so no row is read at construction: the carrier's span is.
    {0, 50000} is closed; adding 25000 leaves 75000 = 50000 + 25000 out."""
    base = make_zmod(100000).as_module
    C = SubcarrierModule(base, [0, 50000])
    assert C.act_t is None and C.order == 2
    with pytest.raises(InvalidConstructionError, match="leaves its carrier"):
        SubcarrierModule(base, [0, 50000, 25000])
    # 9376 is the idempotent 1 mod 5^5, 0 mod 2^5: a restricted module
    # inherits the check, and e*M, closed, passes it
    E = RestrictedModule(base, SubringOnIdempotent(base.ring, 9376))
    assert E.act_t is None and E.order == 3125
