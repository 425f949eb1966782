"""Constructions of finite nonassociative commutative Jordan loops.

A Jordan loop is a commutative loop satisfying x2*(y*x) = (x2*y)*x where
x2 = x*x.  Nonassociative Jordan loops exist exactly for orders n >= 6 with
n != 9; ``construct`` dispatches to a construction for each feasible order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .tables import (
    ORDER_LIMIT,
    _LABELS,
    MagmaTable,
    Permutation,
    _check_element,
    _check_int,
    _check_order,
    _escaping_pair,
    _freeze,
    _overlay,
    _require_loop,
    _require_quasigroup,
    check,
    cyclic_group,
    direct_product,
)


def antidiagonal_idempotent(n: int) -> MagmaTable:
    """The commutative idempotent quasigroup a*b = (a+b)/2 mod n, odd n."""
    _check_int(n)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"averaging needs an odd modulus, got {n}")
    _check_order(n)
    inv2 = (n + 1) // 2
    half = [_LABELS[b * inv2 % n] for b in range(n)]
    # row a is half rotated by a, so a*b = half[a+b]: a Latin table
    return _freeze(n, [half[a:] + half[:a] for a in range(n)], "quasigroup")


def _adjoin_identity(rows):
    """Shift every element of ``rows`` up by one and put a new identity 0 in
    front.  Works in place, dropping each old row as it replaces it, and
    takes every cell from ``_LABELS``, so the new cells allocate no ints."""
    _check_order(len(rows) + 1)
    succ = _LABELS[1:len(rows) + 1]
    for i, row in enumerate(rows):
        rows[i] = [succ[i], *map(succ.__getitem__, row)]
    rows.insert(0, [0, *succ])
    return rows


def idempotent_to_exp2(q: MagmaTable) -> MagmaTable:
    """Adjoin an identity and turn each x*x into the identity.

    Sends a commutative idempotent quasigroup of order n-1 to a commutative
    exponent-2 loop of order n; old element i becomes i+1.
    """
    _require_quasigroup(q, "idempotent_to_exp2")
    for prop in ("commutative", "idempotent"):
        if not check(q, prop):
            raise ValueError(f"input quasigroup is not {prop}")
    rows = _adjoin_identity(list(q.rows))
    for i in range(1, len(rows)):
        rows[i][i] = 0
    # row i+1 holds i+1 in column 0, 0 on the diagonal and i*j+1 != i+1 elsewhere
    return _freeze(len(rows), rows, "loop")


def exp2_to_idempotent(l: MagmaTable) -> MagmaTable:
    """Inverse of idempotent_to_exp2: drop the identity, set x*x = x."""
    _require_loop(l, "exp2_to_idempotent")
    if l.order < 2:
        raise ValueError("input must be a nontrivial loop")
    for prop in ("commutative", "exponent-two"):
        if not check(l, prop):
            raise ValueError(f"input loop is not {prop}")
    m = l.order - 1
    pred = [0, *_LABELS[:m]]
    rows = [[pred[v] for v in row[1:]] for row in l.rows[1:]]
    for i in range(m):
        rows[i][i] = pred[i + 1]
    # x*y != 0 off the diagonal of a commutative exponent-2 loop
    return _freeze(m, rows, "quasigroup")


def even_jordan(n: int) -> MagmaTable:
    """The canonical nonassociative commutative exponent-2 loop of even order n >= 6."""
    _check_int(n)
    if n < 6 or n % 2:
        raise ValueError(f"even-order construction needs even n >= 6, got {n}")
    return idempotent_to_exp2(antidiagonal_idempotent(n - 1))


# -- amalgams ------------------------------------------------------------

@dataclass(frozen=True)
class AmalgamSpec:
    """Data for a loop amalgam over an outer quasigroup G.

    ``diagonal_loops[g]`` is a loop of order carrier_size+1 (identity 0)
    glued over the diagonal block (g, g); ``block_quasigroups[(g, h)]`` is a
    quasigroup of order carrier_size used for the block (g, h).  Entries for
    g == h are optional and only consulted when adjoining with a bijection
    that moves g.
    """

    group: MagmaTable
    carrier_size: int
    diagonal_loops: Mapping[int, MagmaTable]
    block_quasigroups: Mapping[tuple[int, int], MagmaTable]

    def validate(self, needed_pairs) -> None:
        _require_quasigroup(self.group, "amalgam outer table")
        s = self.carrier_size
        _check_int(s, "carrier size")
        if s < 1:
            raise ValueError(f"carrier size must be positive, got {s}")
        for g in range(self.group.order):
            loop = self.diagonal_loops.get(g)
            if loop is None:
                raise ValueError(f"missing diagonal loop for {g}")
            _require_loop(loop, f"diagonal for {g}")
            if loop.order != s + 1:
                raise ValueError(f"diagonal loop for {g} must be a loop of order {s + 1}")
        _check_blocks(self.block_quasigroups, needed_pairs, s)


def _check_blocks(blocks: Mapping[tuple[int, int], MagmaTable], pairs, s: int | None = None) -> int:
    """Require a quasigroup of order s, by default the first pair's block's
    order, in ``blocks`` for every pair; return s."""
    for pair in pairs:
        q = blocks.get(pair)
        if q is None:
            raise ValueError(f"missing block quasigroup for pair {pair}")
        _require_quasigroup(q, f"block for pair {pair}")
        s = q.order if s is None else s
        if q.order != s:
            raise ValueError(f"block for pair {pair} must be a quasigroup of order {s}")
    return s


def quasigroup_amalgam(group: MagmaTable, blocks: Mapping[tuple[int, int], MagmaTable]) -> MagmaTable:
    """Product-like quasigroup on S x G: (s,g)(t,h) = (s *_{g,h} t, g*h).

    ``blocks[(g, h)]`` supplies the carrier quasigroup for every ordered
    pair; the pair (s, g) is encoded as s + |S|*g.
    """
    _require_quasigroup(group, "quasigroup_amalgam")
    k = group.order
    s = _check_blocks(blocks, ((g, h) for g in range(k) for h in range(k)))
    n = s * k
    _check_order(n)
    rows = _lay_blocks([[0] * n for _ in range(n)], group.rows, s, lambda g, h: blocks[g, h].rows)
    # G is Latin, so each row and column meets every block of values once, in a Latin block
    return _freeze(n, rows, "quasigroup")


def _lay_blocks(rows, outer, s: int, block, off: int = 0):
    """Lay the block product of ``tables._block_rows`` over ``rows``, past
    ``off`` leading rows and columns, with the rows ``block(g, h)`` for the
    pair (g, h): their symbol v stands for the v-th element of g*h's block,
    and -1 for 0."""
    for g, grow in enumerate(outer):
        for h, gh in enumerate(grow):
            seg = [*_LABELS[off + s * gh:off + s * gh + s], 0]
            for a, brow in enumerate(block(g, h)):
                rows[off + a + s * g][off + s * h:off + s * h + s] = map(seg.__getitem__, brow)
    return rows


def _amalgam_rows(spec: AmalgamSpec, c: Sequence[int]):
    """Adjoined-identity amalgam table: block (g, c(g)) carries the loop L_g,
    every other block (g, h) the quasigroup for (g, h)."""
    g_tab = spec.group.rows
    s = spec.carrier_size
    m = s * len(g_tab)
    _check_order(m + 1)
    quasis = spec.block_quasigroups
    # element u of L_g is carrier element u - 1, so its identity becomes -1
    loops = [[[u - 1 for u in row[1:]] for row in spec.diagonal_loops[g].rows[1:]]
             for g in range(len(g_tab))]
    # the identity's row and column around a blank table, then every block
    return _lay_blocks(_adjoin_identity([[0] * m for _ in range(m)]), g_tab, s,
                       lambda g, h: loops[g] if h == c[g] else quasis[g, h].rows, 1)


def adjoin_identity_with_bijection(spec: AmalgamSpec, c: Permutation) -> MagmaTable:
    """Amalgam with a fresh identity, gluing L_g over block (g, c(g)).

    Returns an unvalidated magma of order |G|*|S| + 1: the result is a loop
    exactly when c is the identity map and G is idempotent.
    """
    k = spec.group.order
    _check_element(spec.group, *c)
    if sorted(c) != list(range(k)):
        raise ValueError(f"c must be a bijection on 0..{k - 1}")
    spec.validate((g, h) for g in range(k) for h in range(k) if h != c[g])
    # a magma asks only for shape and range, which _amalgam_rows keeps
    return _freeze(spec.carrier_size * k + 1, _amalgam_rows(spec, c), "magma")


def loop_amalgam(spec: AmalgamSpec) -> MagmaTable:
    """Loop of order |G|*|S|+1: loops L_g on the diagonal, quasigroups off it."""
    k = spec.group.order
    spec.validate((g, h) for g in range(k) for h in range(k) if h != g)
    if not check(spec.group, "idempotent"):
        raise ValueError("outer quasigroup must be idempotent for the amalgam to be a loop")
    # G idempotent: g*h = g only at h = g, where L_g and column 0 cover g's block and 0
    return _freeze(spec.carrier_size * k + 1, _amalgam_rows(spec, range(k)), "loop")


def guaranteed_jordan_conditions(g: MagmaTable, l: MagmaTable, q: MagmaTable) -> bool:
    """Sufficient-and-necessary conditions for the uniform amalgam to be Jordan.

    The amalgam glues one loop L over every diagonal block and one
    quasigroup Q (carried by L minus its identity: Q index r <-> L element
    r+1) over every off-diagonal block.  It is Jordan iff L is Jordan, G and
    Q are commutative, and for all s,t in L minus identity either s*s = 0 in
    L or (s2 # t) # s = s2 # (t # s) in Q, writing # for the Q product.
    """
    _require_loop(l, "guaranteed_jordan_conditions")
    _require_quasigroup(g, "guaranteed_jordan_conditions")
    _require_quasigroup(q, "guaranteed_jordan_conditions")
    if q.order != l.order - 1:
        raise ValueError(
            f"carrier mismatch: q has order {q.order}, expected {l.order - 1} (l minus identity)"
        )
    if not (check(l, "jordan") and check(g, "commutative") and check(q, "commutative")):
        return False
    qr = q.rows
    for a in range(1, l.order):
        sq = l.rows[a][a]
        if sq == 0:
            continue
        for b in range(1, l.order):
            if qr[sq - 1][qr[b - 1][a - 1]] != qr[qr[sq - 1][b - 1]][a - 1]:
                return False
    return True


# -- union-of-groups and subquasigroup replacement -----------------------

def union_of_groups(group: MagmaTable, parts: Sequence, quasis: Sequence[MagmaTable]) -> MagmaTable:
    """Jordan quasigroup on G minus identity from subgroups covering G.

    ``parts`` are subgroups of the abelian group G, pairwise meeting in the
    identity and covering G; ``quasis[i]`` is a Jordan quasigroup placed on
    parts[i] minus the identity (members sorted ascending).  Element e of G
    becomes e-1.
    """
    _require_loop(group, "union_of_groups")
    if not check(group, "associative") or not check(group, "commutative"):
        raise ValueError("outer table must be an abelian group")
    n = group.order
    parts = [sorted(set(p)) for p in parts]
    if len(quasis) != len(parts):
        raise ValueError("need one quasigroup per part")
    seen = set()
    for p in parts:
        if not p or p[0] != 0:
            raise ValueError("every part must contain the identity 0")
        members = set(p)
        if _escaping_pair(group.rows, p) is not None:
            raise ValueError(f"part {p} is not closed under the group product")
        overlap = (seen & members) - {0}
        if overlap:
            raise ValueError(f"parts overlap outside the identity: {sorted(overlap)}")
        seen |= members
    if seen != set(range(n)):
        raise ValueError("parts must cover the whole group")
    for idx, (p, q) in enumerate(zip(parts, quasis)):
        _require_quasigroup(q, f"part {idx}")
        if q.order != len(p) - 1:
            raise ValueError(f"quasigroup {idx} must have order {len(p) - 1}")
        if not check(q, "jordan"):
            raise ValueError(f"quasigroup {idx} is not a Jordan quasigroup")
    pred = [None, *_LABELS[:n - 1]]
    rows = [[pred[v] for v in grow[1:]] for grow in group.rows[1:]]
    for p, q in zip(parts, quasis):
        _overlay(rows, q.rows, [pred[e] for e in p[1:]])
    # row x takes G minus x's part from the group and the rest from x's quasigroup
    return _freeze(n - 1, rows, "quasigroup")


@dataclass(frozen=True)
class PartitionedQuasigroup:
    """A quasigroup with a partition into product-closed blocks."""

    table: MagmaTable
    blocks: tuple

    def __init__(self, table: MagmaTable, blocks):
        blocks = [tuple(b) for b in blocks]
        for block in blocks:
            for e in block:
                _check_int(e, "element")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "blocks", tuple(tuple(sorted(set(b))) for b in blocks))

    def validate(self) -> None:
        _require_quasigroup(self.table, "PartitionedQuasigroup")
        n = self.table.order
        seen = []
        for block in self.blocks:
            _check_element(self.table, *block)
            if _escaping_pair(self.table.rows, block) is not None:
                raise ValueError(f"block {block} is not closed under the product")
            seen.extend(block)
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must partition the carrier")


def replace_subquasigroups(pq: PartitionedQuasigroup, loops: Mapping[int, MagmaTable]) -> MagmaTable:
    """Adjoin an identity and replace each closed block with a loop.

    ``loops[i]`` (order |block_i|+1, identity 0) is laid over block i, its
    ascending members matching loop elements 1..|block_i|.  Cross-block
    products are kept; the result is a loop of order |Q|+1 with old element
    e at index e+1.
    """
    pq.validate()
    for idx, block in enumerate(pq.blocks):
        loop = loops.get(idx)
        if loop is None:
            raise ValueError(f"missing replacement loop for block {idx}")
        _require_loop(loop, f"replacement {idx}")
        if loop.order != len(block) + 1:
            raise ValueError(f"replacement {idx} must be a loop of order {len(block) + 1}")
    rows = _adjoin_identity(list(pq.table.rows))
    for idx, block in enumerate(pq.blocks):
        _overlay(rows, loops[idx].rows, [0, *(_LABELS[e + 1] for e in block)])
    # a closed block's rows leave it outside the block; its loop covers it and 0
    return _freeze(len(rows), rows, "loop")


def odd_jordan(n: int) -> MagmaTable:
    """Nonassociative Jordan loop of odd order n > 5 with n-1 not a power of 2.

    Writes n-1 = 2^l * k (k >= 3 odd), crosses the idempotent quasigroup of
    order k with Z_(2^l) and replaces each closed block {g} x Z_(2^l) with
    Z_(2^l+1).  This block-replaced direct product equals the loop amalgam
    with Z_(2^l+1) on the diagonal and Z_(2^l) off it, as
    test_odd_jordan_is_the_loop_amalgam checks.
    """
    _check_int(n)
    if n <= 5 or n % 2 == 0:
        raise ValueError(f"odd-order construction needs odd n > 5, got {n}")
    m = n - 1
    l = (m & -m).bit_length() - 1
    k = m >> l
    if k < 3:
        raise ValueError(f"n - 1 = {m} is a power of 2; this construction does not apply")
    s = 1 << l
    qbar = direct_product(antidiagonal_idempotent(k), cyclic_group(s))
    blocks = [range(s * g, s * (g + 1)) for g in range(k)]
    loop = cyclic_group(s + 1)
    return replace_subquasigroups(PartitionedQuasigroup(qbar, blocks), {g: loop for g in range(k)})


def _check_fermat_exponent(m: int):
    """Reject an exponent m whose order-2^m+1 Fermat loop is not buildable."""
    _check_int(m, "m")
    top = (ORDER_LIMIT - 1).bit_length() - 1  # largest m with 2^m + 1 <= ORDER_LIMIT
    if not 3 < m <= top:
        raise ValueError(f"this construction needs 3 < m <= {top} (the supported table size), got {m}")


def _fermat_block(m: int, part) -> tuple:
    """The block of fermat_jordan(m)'s order-2^(m-2) quasigroup that comes
    from the subgroup ``part`` of Z3 x Z3, before the identity is adjoined."""
    return tuple(i * 8 + (e - 1) for i in range(1 << (m - 3)) for e in part[1:])


def fermat_jordan(m: int) -> MagmaTable:
    """Nonassociative Jordan loop of order 2^m + 1 for m > 3.

    Takes the union-of-subgroups Jordan quasigroup of order 8 built from the
    four order-3 subgroups of Z3 x Z3, crosses it with the cyclic group of
    order 2^(m-3), and replaces the four order-2^(m-2) blocks with copies of
    the cyclic group of order 2^(m-2) + 1.
    """
    _check_fermat_exponent(m)
    g9 = direct_product(cyclic_group(3), cyclic_group(3))
    # the four subgroups <a>, <b>, <ab>, <ab2> for a = (1,0) = 3, b = (0,1) = 1
    parts = [(0, 3, 6), (0, 1, 2), (0, 4, 8), (0, 5, 7)]
    z2 = cyclic_group(2)
    q8 = union_of_groups(g9, parts, [z2] * 4)
    qbar = direct_product(cyclic_group(1 << (m - 3)), q8)
    blocks = [_fermat_block(m, part) for part in parts]
    big = cyclic_group((1 << (m - 2)) + 1)
    return replace_subquasigroups(
        PartitionedQuasigroup(qbar, blocks), {i: big for i in range(4)}
    )


def fermat_subloop_members(m: int) -> tuple:
    """Element indices of the canonical order-2^(m-2)+1 subloop of fermat_jordan(m)."""
    _check_fermat_exponent(m)
    return (0,) + tuple(sorted(e + 1 for e in _fermat_block(m, (0, 3, 6))))


def construct(n: int) -> MagmaTable:
    """A nonassociative Jordan loop of order n, for any n >= 6 except 9."""
    _check_int(n)
    if n < 6 or n == 9:
        raise ValueError(
            f"no nonassociative Jordan loop of order {n} exists; "
            "valid orders are n >= 6 with n != 9"
        )
    _check_order(n)
    if n % 2 == 0:
        return even_jordan(n)
    if (n - 1) & (n - 2):  # n - 1 is not a power of 2
        return odd_jordan(n)
    return fermat_jordan((n - 1).bit_length() - 1)


# -- hypercube extension -------------------------------------------------

def hyper_extend(a: MagmaTable) -> MagmaTable:
    """Extend a commutative loop of order 2^n - 1 by an n-bit hypercube.

    Element i of A keeps index i (its n-bit label is binary i); hypercube
    label v gets index (2^n - 1) + v.  Writing (x) for A elements and [x]
    for labels: (x)(y) is the A product, (x)[v] = [x xor v], [u][u] = [~u],
    and [u][v] = (~(u xor v)) for u != v.  The result has order 2^(n+1)-1,
    is Jordan when A is, and every hypercube element has order 3.
    """
    _require_loop(a, "hyper_extend")
    if not check(a, "commutative"):
        raise ValueError("input must be a commutative loop")
    m = a.order
    if m & (m + 1):
        raise ValueError(f"order must be 2^n - 1, got {m}")
    _check_order(2 * m + 1)
    return _hyper_extend(a)


def _hyper_extend(a: MagmaTable) -> MagmaTable:
    """``hyper_extend`` without its argument checks, for a commutative loop
    of order 2^n - 1 whose extension fits ORDER_LIMIT."""
    m = a.order
    n = 2 * m + 1
    cube = _LABELS[m:n]  # cube[v] is label [v]; m is ~0, the n-bit all-ones
    flip = _LABELS[m::-1]  # flip[w] is the A element ~w, for w != 0
    rows = [None] * n
    for u in range(m + 1):
        xor = [u ^ v for v in range(m + 1)]
        if u < m:
            rows[u] = [*a.rows[u], *map(cube.__getitem__, xor)]
        rows[m + u] = [*map(cube.__getitem__, xor[:m]), *map(flip.__getitem__, xor)]
        rows[m + u][m + u] = cube[m ^ u]
    # v -> x xor v and v -> ~(u xor v) are bijections: a Latin table with identity 0
    return _freeze(n, rows, "loop")


def jordan_tower(depth: int) -> MagmaTable:
    """Iterate hyper_extend from the trivial loop: order 2^(depth+1) - 1,
    at most ORDER_LIMIT (so depth at most 11).

    Depth 1 gives the cyclic group of order 3; every deeper level is a
    simple nonassociative Jordan loop that is not left-alternative.
    """
    _check_int(depth, "depth")
    top = (ORDER_LIMIT + 1).bit_length() - 2  # largest depth with 2^(depth+1) - 1 <= ORDER_LIMIT
    if not 0 <= depth <= top:
        raise ValueError(f"depth must be in 0..{top} (the supported table size), got {depth}")
    t = cyclic_group(1)
    for _ in range(depth):
        t = _hyper_extend(t)  # each level is a commutative loop of order 2^k - 1
    return t
