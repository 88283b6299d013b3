"""Verification suites and the Z_n classification machinery."""
import hashlib
import json
from math import gcd

import pytest
from conftest import naive_gsdf_zero_zn, naive_is_reduced, naive_is_vnr, walk_gsdf_zero_zn

from absorb import suites
from absorb.cli import main
from absorb.errors import AbsorbError, UnknownSuiteError
from absorb.modules import zero_submodule
from absorb.predicates import PROPERTY_CHECKS, is_gsdf_absorbing
from absorb.rings import ProductRing, make_zmod
from absorb.suites import (
    SUITE_IDS,
    classify_zn,
    default_family,
    factorize,
    gsdf_zero_zn,
    is_pk_or_2pk,
    run_suite,
)


def test_is_pk_or_2pk_frozen_values():
    yes = {2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 6, 10, 14, 18, 22, 50, 54, 49}
    no = {12, 15, 20, 21, 24, 28, 30, 36, 42, 45, 60, 100}
    for n in yes:
        assert is_pk_or_2pk(n), n
    for n in no:
        assert not is_pk_or_2pk(n), n


def _old_is_pk_or_2pk(n: int) -> bool:
    """is_pk_or_2pk as it was before it read factorize, an oracle."""
    if n <= 1:
        return False
    m = n
    if m % 2 == 0:
        m //= 2
        if m == 1:
            return True  # n = 2
        if m % 2 == 0:
            # n divisible by 4: must be a power of 2 outright
            while m % 2 == 0:
                m //= 2
            return m == 1
        # n = 2 * odd: the odd part must be p^k
    return _old_is_prime_power(m)


def _old_is_prime_power(m: int) -> bool:
    if m <= 1:
        return False
    p = None
    f = 2
    while f * f <= m:
        if m % f == 0:
            p = f
            while m % f == 0:
                m //= f
            break
        f += 1
    if p is None:
        return True  # m itself prime
    return m == 1


def test_is_pk_or_2pk_matches_its_trial_division_form():
    for n in range(-2, 5001):
        assert is_pk_or_2pk(n) == _old_is_pk_or_2pk(n), n


def test_default_family_is_built_once():
    family = default_family()
    assert family is default_family()
    assert isinstance(family, tuple) and len(family) == 144


def test_factorize():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(7) == ((7, 1),)
    assert factorize(90) == ((2, 1), (3, 2), (5, 1))


@pytest.mark.parametrize("n", range(2, 150))
def test_specialized_zn_scanner_matches_generic_checker(n):
    holds, witness = gsdf_zero_zn(n)
    rep = is_gsdf_absorbing(zero_submodule(make_zmod(n).as_module))
    assert holds == rep.holds, n
    if not holds:
        assert witness == rep.witness.as_tuple(), n


def test_divisor_class_kernel_matches_the_pair_scan():
    for n in range(2, 301):
        assert gsdf_zero_zn(n) == naive_gsdf_zero_zn(n), n


def test_divisor_class_kernel_decides_large_n_without_a_pair_walk(monkeypatch):
    """Z_10007, Z_4374 = 2 * 3^7 and Z_4096 hold; their verdicts take a gcd
    per divisor pair, not one per element pair."""
    calls = 0

    def counted_gcd(a, b):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("the kernel walked element pairs")
        return gcd(a, b)

    monkeypatch.setattr(suites, "gcd", counted_gcd)
    for n in (10007, 4374, 4096):
        assert gsdf_zero_zn(n) == (True, None), n


def test_difference_first_search_finds_the_walks_first_pair():
    """In Z_448372 = 4 * 197 * 569 the window s < 512 holds (395, 1) but
    not the first pair (383, 186), at s = 569."""
    for n in (*range(2, 1201), 24594, 30030, 448372, 720720, 1441440):
        assert gsdf_zero_zn(n) == walk_gsdf_zero_zn(n), n


def test_difference_first_search_takes_fewer_gcds_than_n(monkeypatch):
    """Z_24594 = 2 * 3 * 4099 fails first at (2051, 2048, 2) and Z_30030 at
    (4, 1, 2002); the walk took 2n gcds before its first pair."""
    calls = 0

    def counted_gcd(a, b):
        nonlocal calls
        calls += 1
        return gcd(a, b)

    monkeypatch.setattr(suites, "gcd", counted_gcd)
    for n, witness in ((24594, (2051, 2048, 2)), (30030, (4, 1, 2002))):
        calls = 0
        assert gsdf_zero_zn(n) == (False, witness), n
        assert calls < n, (n, calls)

def test_classify_small():
    result = classify_zn(24)
    assert len(result.rows) == 23
    assert not result.mismatches
    by_n = {r.n: r for r in result.rows}
    assert by_n[12].gsdf_zero is False and by_n[12].predicted is False
    assert by_n[8].gsdf_zero is True
    assert by_n[6].gsdf_zero is True  # 2 * 3 = 2p^k
    assert by_n[21].witness == (5, 2, 1)


def test_classify_parallel_matches_serial():
    serial = classify_zn(40)
    parallel = classify_zn(40, jobs=2)
    assert [(r.n, r.gsdf_zero, r.witness) for r in serial.rows] == [
        (r.n, r.gsdf_zero, r.witness) for r in parallel.rows
    ]


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite")


def test_suite_catalog_shape():
    assert len(SUITE_IDS) == 16
    assert len(set(SUITE_IDS)) == 16


# sha256 of each suite's report, as the sorted-key JSON of the fields that
# ``absorb verify --format json`` prints for it less the timing and the
# tool version: any change to a count, a violation, a confirmation or a
# parameter changes it
SUITE_DIGESTS = {
    "eq-equivalence": "70ead1541b3ff1caa5fbfdc6301730547dbb97ff113d57305be211280777419e",
    "unit2": "0a1e1847981df481149a762a86016bd068fb7a253bc62096c16038e2de7a3e93",
    "char2": "f9674fdbc4ad38c35ecf10b1ecc831742e6d6e47a54974a0713bdb05ed700c28",
    "reduced-zero": "e19c352473185b2c8e4ecad75a196aa0f0b7c3f4c981badb40a2531746cc8f29",
    "vnr": "9895832ae73d51b7e6745ca63f46213ff5bfcf0412f32b87a8167a08861c9af6",
    "maximal-prime": "c3b51d05d08c4917270d0092b76813b0219ca49d5ba4cc257c74a27bd5783229",
    "decomposition": "091a5b7256499c0e1309857e370aad4f5bd118a82b1c48f841c13f7c59595277",
    "principal-ideal": "f5cf6974bd13ef84b24800a6d6660e585bfa396653de96e493c135749e63abd3",
    "localization": "da2b12dbb571d7e63628cff9adafba2d65e4f66b0cc2ee7a872513977007770b",
    "epimorphism": "2ea4f333a77a686449d8f8f346491cad057a9af53813c57e4327b138caeba888",
    "restriction-quotient": "51208b9c88c8d5826ad3c779eb4b72cd97df83883f254853d9cc14b59a6e909f",
    "intersection": "bc2b997799a237eb04940224969f5ba84ebeb096f6909c5dea890290d7f2eb2d",
    "chain-union": "e814a0ef42141d3bf2bfe6eddecc0d4f37dd6e4734f6be08985fed3ede0275ec",
    "product": "e2582e53f1c1505c9f22522339dc0731ecc77138d570be64185d6dff4bcf64c1",
    "idealization": "794f8b2861cffca3e081c575042ed426e4641bb5ea3d6d347301415674c119a0",
    "amalgamation": "f7ba8015fdd8c87b74248b0fb8adaf7565e0cdfc517da8cf0960132da5bfcb6d",
}


def _report_digest(report) -> str:
    doc = {
        "suite": report.suite_id,
        "statement": report.statement,
        "holds": report.passed,
        "instances_checked": report.instances_checked,
        "violations": [str(v) for v in report.violations],
        "confirmations": report.confirmations,
        "parameters": report.parameters,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_suite_passes(suite_id):
    report = run_suite(suite_id)
    assert report.passed, (suite_id, report.violations[:5])
    assert report.instances_checked > 0
    assert report.statement
    assert _report_digest(report) == SUITE_DIGESTS[suite_id]


def test_maximal_prime_suite_confirmation():
    report = run_suite("maximal-prime")
    assert report.confirmations["z12_maximal_gsdf"] == ["<2>", "<3>"]


def test_decomposition_suite_confirmation():
    report = run_suite("decomposition")
    assert report.confirmations["z24_two_decompositions"] is True


def test_intersection_suite_confirmations():
    report = run_suite("intersection")
    assert report.confirmations["z21_scan_witness"] == (5, 2, 1)
    assert report.confirmations["z21_witness_5_2_2_replays"] is True


def test_product_suite_confirmations():
    report = run_suite("product")
    assert report.confirmations["z10xz9_witness_replays"] is True
    assert report.confirmations["z3xz3_char_witness_replays"] is True
    assert report.confirmations["z10xz9_not_gsdf"] is True
    assert report.confirmations["z3xz3_not_gsdf"] is True


def test_idealization_suite_confirmations():
    report = run_suite("idealization")
    assert report.confirmations["z6_3x2_is_ideal"] is False
    assert report.confirmations["z6_3x2_setwise_holds"] is False
    assert report.confirmations["z6_3x2_witness_replays"] is True
    assert report.confirmations["z42_2x0_setwise_holds"] is True
    assert report.confirmations["z42_zero_not_gsdf"] is True


def test_localization_suite_confirmation():
    report = run_suite("localization")
    assert report.confirmations["z12_s14"] == {"idempotent": 4, "ring_order": 3}


def test_the_reduced_filter_matches_the_element_loops():
    """The nilradical test the reduced-zero and vnr suites filter Z_n by
    agrees with both element loops, on Z_n and on the vnr suite's products
    of prime fields, which are reduced."""
    products = [ProductRing(make_zmod(p), make_zmod(q)).as_module
                for p, q in ((2, 3), (2, 5), (3, 5), (2, 7))]
    for M in [make_zmod(n).as_module for n in range(2, 101)] + products:
        reduced = suites._is_reduced(M)
        assert reduced == naive_is_reduced(M) == naive_is_vnr(M.ring), M.name
        assert reduced or M not in products


@pytest.fixture
def gsdf_always_fails(monkeypatch):
    """Every gsdf check reports the failing verdict of (0) in Z21, through a
    verdict cache of its own."""
    failing = is_gsdf_absorbing(zero_submodule(make_zmod(21).as_module))
    assert not failing.holds
    monkeypatch.setattr(suites, "_VERDICTS", {})
    monkeypatch.setitem(PROPERTY_CHECKS, "gsdf", lambda N, **kw: failing)
    return failing


def test_run_suite_counts_every_violation(gsdf_always_fails):
    report = run_suite("char2")
    assert report.instances_checked == 10 and not report.passed
    assert len(report.violations) == 10
    assert all(
        isinstance(text, str) and rep is gsdf_always_fails for text, rep in report.violations
    )


def test_verify_exits_1_on_a_violation(gsdf_always_fails, capsys):
    assert main(["verify", "--suite", "char2", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is False and len(doc["violations"]) == 10


def test_agreement_suites_name_both_verdicts(gsdf_always_fails):
    report = run_suite("unit2", {"max_n": 5})
    assert report.instances_checked == 2
    assert [text for text, _ in report.violations] == [
        "Z3 (as module): N=<0> gsdf=False cprimary=True",
        "Z5 (as module): N=<0> gsdf=False cprimary=True",
    ]


@pytest.mark.parametrize("suite_id, params, names", [
    ("unit2", {"maxn": 5}, "max_n"),
    ("char2", {"max_n": 5}, "none"),
])
def test_run_suite_refuses_an_unknown_parameter(suite_id, params, names):
    with pytest.raises(AbsorbError, match=f"its parameters: {names}$") as exc:
        run_suite(suite_id, params)
    assert not isinstance(exc.value, TypeError)


def test_reported_parameters_keep_their_order():
    """The suite's keyword defaults come first, overridden in place, then the
    parameters the suite adds."""
    assert list(run_suite("unit2", {"max_n": 9}).parameters.items()) == [
        ("max_n", 9), ("parity", "odd"),
    ]
    assert list(run_suite("localization").parameters) == ["ring_ns", "degenerate_skipped"]
