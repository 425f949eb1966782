"""Powers in loops: right powers, parenthesization sets, generated subloops.

In a nonassociative loop c^k depends on parenthesization.  The right power
is c^k = c*(c^(k-1)); c^k is called well-defined when every way of
parenthesizing k factors of c gives the same value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .tables import (
    _LABELS,
    MagmaTable,
    Permutation,
    _associativity_witness,
    _block_rows,
    _check_element,
    _check_int,
    _check_order,
    _freeze,
    _overlay,
    _product_closure,
    _require_loop,
    cyclic_group,
)

DEFAULT_EXPONENT_CAP = 64


def right_power(table: MagmaTable, c: int, k: int) -> int:
    """The right-associated power c*(c*(...*c)) with k factors; c^0 = 0."""
    _require_loop(table, "right_power")
    _check_element(table, c)
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    row = table.rows[c]
    v = 0
    for _ in range(k):
        v = row[v]
    return v


def power_profile(table: MagmaTable, c: int, max_k: int, cap: int = DEFAULT_EXPONENT_CAP) -> list:
    """parenthesization_set for every exponent 1..max_k, as a list indexed by k.

    Index 0 is a placeholder None; sets[k] holds every value obtainable by
    parenthesizing k factors of c.
    """
    _require_loop(table, "power_profile")
    _check_element(table, c)
    if max_k < 1:
        raise ValueError(f"exponent must be positive, got {max_k}")
    if max_k > cap:
        raise ValueError(f"exponent {max_k} exceeds the cap {cap}")
    rows = table.rows
    sets: list = [None, frozenset((c,))]
    for k in range(2, max_k + 1):
        vals = set()
        for i in range(1, k):
            right = sets[k - i]
            for a in sets[i]:
                vals.update(map(rows[a].__getitem__, right))
        sets.append(frozenset(vals))
    return sets


def parenthesization_set(table: MagmaTable, c: int, k: int, cap: int = DEFAULT_EXPONENT_CAP) -> frozenset:
    """All values of k-factor products of c over every parenthesization."""
    return power_profile(table, c, k, cap)[k]


def _power_walk(rows, c: int, limit: int):
    """Yield c^1, c^2, ... up to c^limit while each power is well defined.

    The recursive criterion: c^k is well defined when c^(k-1) is and every
    split c^j * c^(k-j), 0 < j < k, gives the same value; the walk stops at
    the first k where two splits disagree.
    """
    rc = rows[c]
    powers = [0]
    for k in range(1, limit + 1):
        v = rc[powers[k - 1]]
        for j in range(2, k):
            if rows[powers[j]][powers[k - j]] != v:
                return
        powers.append(v)
        yield v


def is_well_defined(table: MagmaTable, c: int, k: int) -> bool:
    """True when every parenthesization of c^j agrees for each j <= k.

    Uses the recursive criterion: c^k is well-defined iff for every
    0 < j < k, c^j is well-defined and c^j * c^(k-j) = c^k.
    """
    _require_loop(table, "is_well_defined")
    _check_element(table, c)
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    return sum(1 for _ in _power_walk(table.rows, c, k)) == k


@dataclass(frozen=True)
class SubsetClosure:
    """A closed subset of a loop together with the generators that produced it."""

    members: tuple
    generators: tuple


def generated_subloop(table: MagmaTable, gens) -> SubsetClosure:
    """Smallest subset containing 0 and the generators, closed under the
    product and both divisions.

    Closing under the product suffices: in a finite loop, left (right)
    multiplication by a member maps a product-closed subset into itself
    injectively, hence onto itself, so every quotient of members is a member.
    """
    _require_loop(table, "generated_subloop")
    gens = tuple(sorted(set(gens)))
    _check_element(table, *gens)
    members = _product_closure(table.rows, {0, *gens})
    return SubsetClosure(members=tuple(sorted(members)), generators=gens)


def is_power_associative(table: MagmaTable) -> bool:
    """Does every element generate an associative subloop?

    An element inside a subloop already shown associative is skipped: the
    subloop it generates lies inside that one, so it is associative too.
    """
    _require_loop(table, "is_power_associative")
    covered = set()
    for x in range(table.order):
        if x not in covered:
            members = generated_subloop(table, (x,)).members
            if _associativity_witness(table.rows, members) is not None:
                return False
            covered.update(members)
    return True


def element_order(table: MagmaTable, c: int) -> int | None:
    """|<c>| when <c> is associative (then cyclic), else None."""
    _require_loop(table, "element_order")
    _check_element(table, c)
    members = generated_subloop(table, (c,)).members
    if _associativity_witness(table.rows, members) is not None:
        return None
    return len(members)


# -- the well-definedness gap loop ---------------------------------------

@dataclass(frozen=True)
class PowersLoopParams:
    """Parameters of the order-n*s loop whose generator c has well-defined
    powers below m*n but not at m*n."""

    m: int
    n: int
    s: int
    phi: Permutation

    def circ(self, u: int, v: int) -> int:
        """The twisted addition [u] o [v] = phi^-1(phi(u) + phi(v)) on Z_s."""
        phi = self.phi
        return phi.index((phi[u] + phi[v]) % self.s)


def powers_gap_params(m: int, n: int) -> PowersLoopParams:
    """s = least integer >= m+2 coprime to n, and the permutation phi of Z_s
    fixing i*[n] for i < m and reversing the tail."""
    _check_int(m, "m")
    _check_int(n, "n")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and at least 3, got {n}")
    s = m + 2
    while math.gcd(s, n) != 1:
        s += 1
    _check_order(n * s)
    phi = [0] * s
    for i in range(s):
        val = i if i <= m - 1 else s + m - i - 1
        phi[i * n % s] = val * n % s
    return PowersLoopParams(m=m, n=n, s=s, phi=tuple(phi))


def powers_gap_loop(m: int, n: int) -> tuple[MagmaTable, int]:
    """Loop of order n*s on pairs (a, u) encoded a + n*u, with generator c.

    (a1,u1)*(a2,u2) is componentwise addition unless a1 = a2 = 0, in which
    case the second component uses the twisted addition of powers_gap_params.
    The generator c = (1, 1) satisfies c^k = (k mod n, k mod s); its powers
    are well-defined for k < m*n but c^(p*n) * c^((m-p)*n) != c^(m*n) for
    every 0 < p < m.
    """
    params = powers_gap_params(m, n)
    s = params.s
    zn, zs = cyclic_group(n).rows, cyclic_group(s).rows
    rows = _block_rows(zs, n, zn)
    # phi carries the twisted addition to Z_s, so laying Z_s over the elements
    # (0, u) listed in order of phi(u) gives (0,u)*(0,v) = (0, u o v)
    _overlay(rows, zs, [_LABELS[n * u] for u in sorted(range(s), key=params.phi.__getitem__)])
    # the overlay is a relabelled Z_s on the elements (0, u), so rows stay Latin
    return _freeze(n * s, rows, "loop"), 1 + n
