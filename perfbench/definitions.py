"""The seven properties written straight from their definitions, element by
element, with no hit masks and no code shared with absorb's scanners.

``violates`` decides whether one (u, v, x) breaks a property; it is the
witness replay rule.  ``first_witness`` runs it as a triple loop in the
scan order absorb documents, which makes it an oracle for the verdict, the
first witness and its power bound.

A structure here is anything with ``order``, ``zero`` and the operations
``add``, ``mul``/``act`` and ``sub``; absorb's rings and modules qualify, and
so does the plain integer ``IntZn`` below.
"""
from __future__ import annotations

MODULE_PROPS = ("gsdf", "sdf", "cprimary", "primary", "prime")
IDEAL_PROPS = ("sdfideal", "sdfprimary")


class IntZn:
    """Z_n by integer arithmetic, as a ring and as a module over itself."""

    def __init__(self, n: int):
        self.order = n
        self.zero = 0

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def mul(self, a, b):
        return a * b % self.order

    act = mul


def powers(R, t: int) -> list[int]:
    """The distinct powers t^1, t^2, ... of t, in order."""
    out, seen, p = [], set(), t
    while p not in seen:
        seen.add(p)
        out.append(p)
        p = R.mul(p, t)
    return out


def violates(prop: str, R, M, inN, u: int, v: int, x: int | None) -> bool:
    """Whether (u, v, x) breaks ``prop`` for the proper submodule whose
    membership test is ``inN``.  For ideal properties M is R and x is
    unused; for primary and prime v is unused."""
    act = M.act if M is not None else None
    if prop == "gsdf":
        d, s = R.sub(u, v), R.add(u, v)
        return (inN(act(R.mul(d, s), x)) and not inN(act(d, x))
                and not any(inN(act(p, x)) for p in powers(R, s)))
    if prop == "sdf":
        d, s = R.sub(u, v), R.add(u, v)
        return (act(u, x) != M.zero and act(v, x) != M.zero
                and inN(act(R.mul(d, s), x)) and not inN(act(d, x)) and not inN(act(s, x)))
    if prop == "cprimary":
        return (inN(act(R.mul(u, v), x)) and not inN(act(u, x))
                and not any(inN(act(p, x)) for p in powers(R, v)))
    if prop == "primary":
        # u outside sqrt(N :_R M): no power of u sends all of M into N
        return (inN(act(u, x)) and not inN(x)
                and all(any(not inN(act(p, y)) for y in range(M.order)) for p in powers(R, u)))
    if prop == "prime":
        return (inN(act(u, x)) and not inN(x)
                and any(not inN(act(u, y)) for y in range(M.order)))
    if prop == "sdfideal":
        d, s = R.sub(u, v), R.add(u, v)
        return (u != R.zero and v != R.zero and inN(R.mul(d, s))
                and not inN(d) and not inN(s))
    if prop == "sdfprimary":
        d, s = R.sub(u, v), R.add(u, v)
        return (inN(R.mul(d, s)) and not inN(d)
                and not any(inN(p) for p in powers(R, s)))
    raise ValueError(f"unknown property {prop!r}")


def k_bound(prop: str, R, u: int, v: int):
    """The power bound a witness reports: the number of distinct powers
    tried, 1 where the conclusion has no power, none for primary and prime."""
    if prop in ("gsdf", "sdfprimary"):
        return len(powers(R, R.add(u, v)))
    if prop == "cprimary":
        return len(powers(R, v))
    if prop in ("sdf", "sdfideal"):
        return 1
    return None


def _scan_order(prop: str, n: int, m: int):
    if prop in ("gsdf", "sdf"):
        return ((u, v, x) for u in range(n) for v in range(u + 1) for x in range(m))
    if prop == "cprimary":
        return ((u, v, x) for u in range(n) for v in range(n) for x in range(m))
    if prop in ("primary", "prime"):
        return ((u, 0, x) for u in range(n) for x in range(m))
    if prop == "sdfideal":
        return ((u, v, None) for u in range(1, n) for v in range(1, u + 1))
    return ((u, v, None) for u in range(n) for v in range(u + 1))


def first_witness(prop: str, R, M, inN):
    """(holds, witness tuple, k_bound) by a plain loop in absorb's scan order."""
    m = M.order if prop in MODULE_PROPS else 0
    for u, v, x in _scan_order(prop, R.order, m):
        if violates(prop, R, M, inN, u, v, x):
            wit = (u, v) if x is None else (u, v, x)
            return False, wit, k_bound(prop, R, u, v)
    return True, None, None
