"""Abelian quotient singularities and their rank ledgers.

A finite abelian subgroup of the torus acting on affine space is encoded
by cyclic generators (1/r)(w_1..w_n).  The quotient is the orthant cone in
the overlattice N generated by the weight vectors.  Its set-up (the rays
and m_i, the group order, the scaled psi and every ledger entry's centre)
is read in integers off the Hermite form of the generators' integer
numerators over den, the lcm of the orders, inserted into the echelon
basis den I, and its adjugate.  The pipeline terminalizes, drops the
quasi-reflection boundary, runs the relative MMP, and records one ledger
entry per step with the exact stack-rank change.
One fan state (fan._Subdivision) goes from the quotient cone to the
resolution: the extraction and MMP loops step it and yield the ids of
the cones each step removed and created, and the resolution's pair is
built once, at the end.  No step is replayed.  One rule prices the
quotient cone and every step off a table of each current cone's stack
rank, filled from the state's kept determinant when the state first
holds the cone: the removed cones' entries leave and the created cones'
enter (a coefficient drop re-creates the cones around its ray).  The
ranks telescope: the order of the acting group equals the rank of the
final model plus the total rank spent along the way, the quotient
cone's rank is checked against that order, and one fresh count, of the
resolution's stack rank, checks every step's update at once.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import EngineInvariantError, InvalidInputError, _exact_ints, _sized
from .fan import Fan, _Subdivision, make_fan
from .lattice import (
    _ZERO,
    LatticeBasis,
    _hermite_lower,
    adjugate,
    primitive,
    smith_normal_form,
    vec_mat,
)
from .mmp import _extraction_steps, _mmp_steps
from .pairs import ToricPair, make_pair


# group_lattice Hermite-reduces an n x n identity: `toricmmp rank` on
# {"n": 32, "gens": []} takes 0.41-0.51 s, 13 ms of it past start-up; at
# n = 160 the rank takes 27 ms in-process, 25 ms of it the Hermite form
MAX_GROUP_DIM = 32


class GroupData(NamedTuple("GroupData", [("n", int), ("gens", tuple)])):
    """gens = ((r, weights), ...) acting by x_i -> zeta_r^{w_i} x_i; every group is
    checked here (make_group is this constructor), each weight reduced mod r."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, n, gens):
        if _exact_ints((n,), msg := "group dimension must be a positive integer")[0] < 1:
            raise InvalidInputError(msg)
        if n > MAX_GROUP_DIM:
            raise InvalidInputError(f"group dimension {n} exceeds the limit {MAX_GROUP_DIM}")
        out = []
        for gen in _sized(gens, pair := "generators must be (order, weights) pairs"):
            r, weights = _sized(gen, pair, 2)
            if _exact_ints((r,), msg := "generator order must be a positive integer")[0] < 1:
                raise InvalidInputError(msg)
            ws = _exact_ints(weights, "generator weights must be integers",
                             n, "one weight per coordinate required")
            out.append((r, tuple(w % r for w in ws)))
        return super().__new__(cls, n, tuple(out))


make_group = GroupData


class LedgerEntry(NamedTuple):
    kind: str                # "extraction" | "coefficient_drop" | "flip" | "divisorial"
    ray: tuple               # extracted / dropped / removed ray, or the flip locus
    center: tuple            # ray indices of the smallest orthant face met by the locus
    rank_before: int
    rank_after: int
    psi_value: Fraction | None   # log discrepancy of an extraction
    components: tuple | None     # residue labels counted by a coefficient drop


class McKayReport(NamedTuple):
    group: GroupData
    order: int               # order of the acting image, the index [N : Z^n]
    sl: bool
    quotient: object         # ToricPair of the quotient
    resolution: object       # ToricPair after the full pipeline, boundary-free
    ledger: tuple
    rank_quotient: int
    rank_resolution: int


def _group_hermite(G):
    """(H, den, B, order): den the lcm of the orders, H the integer lower
    Hermite form of [den I; the generators' numerators over den], with only
    the generators inserted into the echelon basis den I, B = H / den checked
    on the integers, and the index order = [B : Z^n], den^n over det H."""
    n, den = G.n, lcm(*(r for r, _ in G.gens))
    H = _hermite_lower([[w * (den // r) for w in ws] for r, ws in G.gens],
                       [[den * (i == j) for i in range(n)] for j in range(n)])
    order, rest = divmod(den ** n, prod(H[i][i] for i in range(n)))
    if rest:
        raise EngineInvariantError("lattice index is not an integer")
    return H, den, LatticeBasis._from_hermite(H, den), order


def group_lattice(G):
    """The overlattice Z^n + sum Z (1/r)(w_1..w_n), as a canonical basis,
    reduced from integer numerators over the lcm of the orders."""
    return _group_hermite(G)[2]


def _quotient(G):
    """(quotient pair, order, [m_i], scaled psi, L, H), read in integers off
    (H, den, B, order) = _group_hermite(G) and H.adj = d.I, d = det H:
    e_i = x_i.B for x_i = den adj_i / d = m_i ray_i.  psi
    is 1/m_i at ray i, psi_i L = L / m_i over L = lcm(m_i).  A lattice point
    x is the ambient point x.H / den, in the orthant face of the axes
    where x.H is positive: x.H carries the signs of x's barycentrics.
    The pair is built as read: its rays, the adjugate rows of the
    nonsingular H over their gcds, are primitive, distinct and
    independent, and each 1 - 1/m_i lies in [0, 1)."""
    H, den, B, order = _group_hermite(G)
    adj, d = adjugate(H)
    rays, ms = [], []
    for i, row in enumerate(adj):
        g = gcd(*row)
        if den * g % d:
            raise EngineInvariantError(f"axis point {i} escaped its own overlattice")
        rays.append(tuple([v // g for v in row]))
        ms.append(den * g // d)
    fan = Fan(G.n, tuple(rays), (tuple(range(G.n)),), "cone-supported")
    X, L = ToricPair(fan, tuple([Fraction(m - 1, m) if m > 1 else _ZERO for m in ms]), B), lcm(*ms)
    return X, order, ms, [L // m for m in ms], L, H


def group_order(G):
    return _group_hermite(G)[3]


def is_sl(G):
    return all(sum(ws) % r == 0 for r, ws in G.gens)


def quotient_pair(G):
    """The quotient orthant as a pair: rays are the primitivized axis
    images e_i / m_i, each carrying coefficient 1 - 1/m_i, where m_i is
    the order of the quasi-reflection subgroup along axis i."""
    return _quotient(G)[0]


def _standard_multiplicities(pair):
    """m_i with coefficient d_i = 1 - 1/m_i: in lowest terms, d_i = p/q is
    of that form exactly when p = q - 1, and then m_i = q."""
    ms = []
    for d in pair.coeffs:
        if d.numerator != d.denominator - 1:
            raise InvalidInputError(
                f"coefficient {d} is not of the standard form 1 - 1/m"
            )
        ms.append(d.denominator)
    return ms


def _cone_rank(d, cone, ms):
    """Multiplicity of a cone in the stack lattice: |d|, its determinant, times its m_i."""
    return abs(d) * prod(map(ms.__getitem__, cone))


def stack_rank(pair):
    """Sum of maximal-cone multiplicities in the stack lattice spanned by
    m_i * v_i; equals the group order for a quotient pair."""
    ms = _standard_multiplicities(pair)
    return sum(_cone_rank(adjugate(pair.fan.ray_matrix(c))[1], c, ms) for c in pair.fan.max_cones)


# the output lists r1 - s1 residues, so its cost is linear in r1:
# case_a_components(10**6, 1) takes 0.77 s and 39 MB (tracemalloc peak),
# and `toricmmp case-a 1000000 1` 0.8 s and 165 MB, printing 6.9 MB; a
# group file with r = 10^7 printed 89 MB at 1.2 GB peak RSS without this limit
MAX_CASE_A_ORDER = 10**6


def case_a_components(r1, s1):
    """Residues 1..r1-1 surviving the floor-multiple sieve of s1; there
    are exactly r1 - s1 of them.  r1 above MAX_CASE_A_ORDER raises
    InvalidInputError before any residue is listed."""
    if not 1 <= _exact_ints((s1, r1), msg := "need integers 1 <= s1 <= r1")[0] <= r1:
        raise InvalidInputError(msg)
    if r1 > MAX_CASE_A_ORDER:
        raise InvalidInputError(f"order {r1} exceeds the case-A limit of {MAX_CASE_A_ORDER}")
    excluded = {(k * r1) // s1 for k in range(1, s1)}
    return tuple([l for l in range(1, r1) if l not in excluded])


def boundary_divisor_pair(pair, ray_index):
    """Restrict a single-cone local model to the boundary divisor of one
    ray: quotient the lattice by that ray, primitivize the other ray
    images, and fold each imprimitivity index c into the coefficient
    1 - 1/(c*m)."""
    fan = pair.fan
    if len(fan.max_cones) != 1:
        raise InvalidInputError("expected a single-cone local model")
    if not 0 <= _exact_ints((ray_index,), "ray index must be an integer")[0] < len(fan.rays):
        raise InvalidInputError("ray index out of range")
    ms = _standard_multiplicities(pair)
    v = fan.rays[ray_index]
    _, _, V = smith_normal_form((v,))
    # v.V = +-e_1; dropping the first coordinate of x.V realizes N/Zv
    imgs = []
    coeffs = []
    for i in fan.max_cones[0]:
        if i == ray_index:
            continue
        x = vec_mat(fan.rays[i], V)[1:]
        c = gcd(*x)
        imgs.append(tuple(xx // c for xx in x))
        coeffs.append(1 - Fraction(1, c * ms[i]))
    newfan = make_fan(imgs, [tuple(range(fan.dim - 1))], validate="full")
    return make_pair(newfan, coeffs, LatticeBasis.standard(fan.dim - 1))


# ------------------------------------------------------------- pipeline


def mckay_pipeline(G):
    """Terminalize the quotient, drop the quasi-reflection boundary, run
    the relative MMP over the quotient cone (the support, which
    terminalization keeps), and account for every unit of group order in
    the ledger, priced by the module's one rank rule, which also prices
    the quotient cone against the group order, and checked against one
    fresh count, of the resolution's stack rank."""
    X, order, ms, scaled, L, H = _quotient(G)
    sub, (cone,) = _Subdivision(X.fan), X.fan.max_cones
    rank_x = rank = _cone_rank(sub.kernel(cone)[1], cone, ms)
    if rank_x != order:  # also when the cone is singular, of rank 0
        raise EngineInvariantError("stack rank of the quotient misses the group order")
    ledger, ranks, kernels = [], {cone: rank_x}, sub.kernels

    def record(kind, ray, gone, new, psi=None, components=None):
        nonlocal rank
        num = vec_mat(ray, H)  # the ambient point, times den
        if min(num) < 0:
            raise EngineInvariantError("step locus escapes the quotient cone")
        after = rank
        for c in gone:
            if c not in ranks:
                raise EngineInvariantError("a step removed a cone that the rank ledger lacks")
            after -= ranks.pop(c)
        for c in new:  # kept: the quotient cone's read above, the others' by their steps
            ranks[c] = r = _cone_rank(kernels[c][1], c, ms)
            after += r
        if after > rank:
            raise EngineInvariantError(f"stack rank increased across a {kind} step")
        if psi == 1 and after != rank:
            raise EngineInvariantError("crepant extraction changed the stack rank")
        center = tuple([i for i, v in enumerate(num) if v > 0])
        ledger.append(LedgerEntry(kind, ray, center, rank, after, psi, components))
        rank = after

    for st, gone, new in _extraction_steps(sub, scaled, L):
        ms.append(1)  # an extracted ray has coefficient zero
        record("extraction", st.ray, gone, new, st.psi_value)
    for i, m in enumerate(ms):
        if m > 1:
            ms[i] = 1  # the star's entries, priced with m, leave; re-priced, they enter
            star = [c for c in sub.max_cones if i in c]
            record("coefficient_drop", sub.rays[i], star, star, components=case_a_components(m, 1))
    # every m is 1 from here on, so psi is 1 on every ray and a rank is |det|
    for st, gone, new in _mmp_steps(sub, [1] * len(ms), 1):
        if st.kind == "flip":
            # the flip locus: primitive sum of the circuit's negative rays
            neg = [v for v, a in zip(st.circuit, st.coeffs) if a < 0]
            ray = primitive(tuple(map(sum, zip(*neg))))
        else:
            ray = st.removed_ray
        record(st.kind, ray, gone, new)

    resolution = ToricPair(fan := sub.fan(), (_ZERO,) * len(fan.rays), X.lattice)
    if stack_rank(resolution) != rank:
        raise EngineInvariantError("rank ledger misses the stack rank of the resolution")
    return McKayReport(
        group=G,
        order=order,
        sl=is_sl(G),
        quotient=X,
        resolution=resolution,
        ledger=tuple(ledger),
        rank_quotient=rank_x,
        rank_resolution=rank,
    )


# --------------------------------------------------- dimension-two chains


# the chain has r - 1 curves for a = r - 1, and building and validating
# its fan grows with them: `toricmmp hj 10001 10000` takes 0.6-0.9 s,
# 0.10-0.15 s of it in hj_resolution and most of the rest start-up, while
# `hj 200001 200000` took about 14 s and 217 MB without this limit
MAX_HJ_CHAIN = 10_000


def hj_resolution(r, a):
    """Resolution fan of the cyclic surface quotient (1/r)(1, a) and its
    chain of self-intersection numbers -b_i, from the Hirzebruch-Jung
    continued fraction r/a = b_1 - 1/(b_2 - ...).  The rays u_i run along
    the Newton polygon boundary from (0, 1) through (1/r)(1, a) to (1, 0)
    by u_{i+1} = b_i u_i - u_{i-1}, with b_i = ceil(n/d) while (n, d)
    steps from (r, a) to (d, b_i d - n) until d = 0.  The recurrence is
    linear, so it runs on integer lattice coordinates from the first two.
    With a' = pow(a, -1, r), reduced into [0, r), the canonical (Hermite)
    basis that group_lattice gives Z^2 + Z (1/r)(1, a) is (1, 0), (a'/r, 1/r),
    and in it (0, 1) and (1/r)(1, a) have coordinates (-a', r) and
    ((1 - a a')/r, a).  A chain longer than MAX_HJ_CHAIN raises
    InvalidInputError before any ray is built."""
    r, a = _exact_ints((r, a), "need integer parameters")
    if not (0 < a < r) or gcd(r, a) != 1:
        raise InvalidInputError("need 0 < a < r with gcd(r, a) = 1")
    bs = []
    n, d = r, a
    while d:
        b = -(-n // d)
        bs.append(b)
        if len(bs) > MAX_HJ_CHAIN:
            raise InvalidInputError(
                f"the chain of (1/{r})(1, {a}) is longer than the limit of "
                f"{MAX_HJ_CHAIN} curves"
            )
        n, d = d, b * d - n
    ai = pow(a, -1, r)
    rays = [(-ai, r), ((1 - a * ai) // r, a)]
    for b in bs:
        (x0, y0), (x1, y1) = rays[-2:]
        rays.append((b * x1 - x0, b * y1 - y0))
    cones = [(i, i + 1) for i in range(len(rays) - 1)]
    return make_fan(rays, cones, validate="full"), tuple(-b for b in bs)
