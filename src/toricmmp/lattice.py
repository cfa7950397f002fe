"""Exact lattice linear algebra.

One integer cone kernel, the cached `adjugate`, serves every solve over a
simplicial cone as integer numerators over its determinant, box points
included.  Its 2 x 2 and 3 x 3 cones, every cone of a surface resolution
or of a McKay quotient 3-fold, take closed cofactor forms; other sizes
take fraction-free Gauss-Jordan.  A row times a 3 x 3 matrix is written
out too.  Around it: normal forms (Hermite, by
inserting rows into a seedable echelon basis, one extended gcd per pivot
met, and Smith for invariant factors, McKay boundary divisors and the
public API), primitive vectors, canonical lattice bases, built off integer
Hermite forms checked on the integers, and cone multiplicities.
Everything runs on Python ints and fractions.Fraction; there is no
floating point in this package.

Vectors are tuples, matrices are sequences of row tuples, and lattices act
by row vectors: the lattice spanned by a basis B is {x.B : x integer row}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import InvalidInputError, _all_ints, _exact_ints, _exact_rationals, _sized


_ZERO = Fraction(0)  # the one zero of lattice bases and make_pair's coefficients


def dot(u, v):
    return sum(map(mul, u, v))


def vec_add(u, v):
    return tuple([a + b for a, b in zip(u, v)])


def vec_mat(x, M):
    """Row vector times matrix: returns x.M as a tuple.  A 3 x 3 matrix, the
    size of every McKay 3-fold cone, takes the product written out."""
    if len(x) == len(M) == len(M[0]) == 3:
        a, b, c = x
        (p, q, r), (s, t, u), (v, w, y) = M
        return (a * p + b * s + c * v, a * q + b * t + c * w, a * r + b * u + c * y)
    return tuple([sum(map(mul, x, col)) for col in zip(*M)])  # a list builds faster


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _adjugate(M):
    """(adj, d) for a square integer matrix of row tuples: d = det M and the
    integer adj with M.adj = d.I, or (None, 0) when d = 0.  A 2 x 2 or 3 x 3
    matrix takes the closed cofactor form, adj[i][j] the signed minor of M
    without row j and column i; other sizes take _eliminate."""
    n = len(M)
    if n == 2:
        (a, b), (c, d) = M
        adj, det = ((d, -b), (-c, a)), a * d - b * c
    elif n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        A, B, C = e * i - f * h, f * g - d * i, d * h - e * g  # adj's first column
        adj = (
            (A, c * h - b * i, b * f - c * e),
            (B, a * i - c * g, c * d - a * f),
            (C, b * g - a * h, a * e - b * d),
        )
        det = a * A + b * B + c * C  # M's first row times that column
    else:
        return _eliminate(M)
    return (adj, det) if det else (None, 0)


adjugate = lru_cache(maxsize=1 << 14)(_adjugate)


def _eliminate(M):
    """adjugate by fraction-free Gauss-Jordan on [M | I]: every division by
    the previous pivot is exact, and the last pivot is d up to the sign of
    the row swaps."""
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k]), None)
        if piv is None:
            return None, 0
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        top = A[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = A[i][k]
                A[i] = [(p * x - f * y) // prev for x, y in zip(A[i], top)]
        prev = p
    return tuple(tuple(sign * x for x in row[n:]) for row in A), sign * prev


def mat_inv(M):
    """Exact inverse of a rational matrix: the adjugate of its integer
    scaling, divided by the determinant.  Raises ValueError if singular."""
    den = lcm(*(Fraction(x).denominator for row in M for x in row))
    adj, d = adjugate(tuple(tuple(int(x * den) for x in row) for row in M))
    if adj is None:
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x * den, d) for x in row) for row in adj)


def det(M):
    """Exact determinant of a square integer matrix: adjugate's d, past its
    cache, since the minors of a cell walk seldom repeat."""
    return _adjugate(tuple(map(tuple, M)))[1]


def mat_rank(rows):
    """Rank of an integer matrix: the rows of its Hermite form."""
    return len(_hermite(rows, len(rows[0]))) if rows else 0


def cofactor_kernel(rows):
    """Kernel generator of an (n-1) x n matrix via signed maximal minors.

    Returns the zero vector when the rows are dependent.  Integer input
    gives an integer output.
    """
    n = len(rows[0]) if rows else 1
    if len(rows) != n - 1:
        raise ValueError("expected n-1 rows of length n")
    return tuple(
        (-1) ** j * det([list(row[:j]) + list(row[j + 1:]) for row in rows])
        for j in range(n)
    )


def primitive(v):
    """Shortest integer vector on the ray of v (direction preserved).

    Accepts int or Fraction coordinates (both have a numerator and a
    denominator, 1 for an int, so integer vectors never become Fractions);
    an all-int v, as the exactness gate tells, skips the denominators.
    Rejects the zero vector.
    """
    v = _exact_rationals(v, "vector coordinates must be exact rationals")
    if not _all_ints(v):
        den = lcm(*(x.denominator for x in v))
        v = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*v)
    if g == 0:
        raise InvalidInputError("zero vector has no primitive representative")
    return tuple([x // g for x in v])


def _check_int_matrix(M):
    """M as integer row tuples of one width >= 1."""
    if not (M := _sized(M or (), msg := "matrix entries must be integers")) or not M[0]:
        raise InvalidInputError("empty matrix")
    width = len(_sized(M[0], msg))
    return tuple(_exact_ints(row, msg, width, "ragged matrix") for row in M)


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x a + y b, for a > 0."""
    x, y, u, v = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x, y, u, v = u, v, x - q * u, y - q * v
    return (a, x, y) if a > 0 else (-a, -x, -y)


def _hermite(rows, n, basis=None):
    """Lower Hermite form of the integer rows on their first n columns, as
    lists, by inserting each row into an echelon basis kept by pivot: from
    the last column down, one extended gcd per pivot met, (b, v) -> (x b +
    y v, (b_j v - v_j b) / g), then a new pivot, made positive, or a zero
    row dropped; last, entries at earlier pivots go into [0, pivot).  Other
    columns ride along: [M | I] gives [H | U] with U.M = H.  A basis {pivot
    j: row, positive at j and zero past it}, consumed, seeds the insertion."""
    basis = {} if basis is None else basis
    for v in rows:
        for j in range(n - 1, -1, -1):
            if not v[j]:
                continue
            if (b := basis.get(j)) is None:
                basis[j] = list(v) if v[j] > 0 else [-x for x in v]
                break
            g, x, y = _xgcd(b[j], v[j])
            p, q = b[j] // g, v[j] // g
            if y:  # else x = 1, and b stays
                basis[j] = [x * t + y * s for s, t in zip(v, b)]
            v = [p * s - q * t for s, t in zip(v, b)]
    pivots = sorted(basis)
    H = [basis[j] for j in pivots]
    for i in range(len(H)):
        for k in range(i - 1, -1, -1):
            if q := H[i][pivots[k]] // H[k][pivots[k]]:
                H[i] = [s - q * t for s, t in zip(H[i], H[k])]
    return H


def _hermite_lower(rows, seed=()):
    """The unique lower-triangular Hermite form H of the lattice of the
    integer rows and seed rows (seed row j positive at j, zero past it), as
    row tuples, by _hermite's insertion of the rows into the seed.  Hermite
    forms commute with scaling, so H / den is the canonical basis of rows / den."""
    if not rows and not seed:
        raise InvalidInputError("no generators given")
    n = len((seed or rows)[0])
    if any(len(r) != n for r in rows):
        raise InvalidInputError("generators of mixed dimension")
    if len(H := _hermite(rows, n, dict(enumerate(seed)))) != n:
        raise InvalidInputError("generators do not span a full-rank lattice")
    return tuple(map(tuple, H))


def hermite_normal_form(M):
    """Canonical lower-triangular Hermite form.

    Returns (H, U) with U.M = H and det(U) = +-1.  Requires full row rank;
    on square input H is lower triangular with positive diagonal and the
    entries below each diagonal pivot reduced modulo it.
    """
    M = _check_int_matrix(M)
    HU = _hermite([list(r) + e for r, e in zip(M, mat_identity(len(M)))], n := len(M[0]))
    if len(HU) < len(M):
        raise InvalidInputError("rank-deficient input to hermite_normal_form")
    return tuple(tuple(row[:n]) for row in HU), tuple(tuple(row[n:]) for row in HU)


def smith_normal_form(M):
    """Smith normal form with transforms: returns (D, U, V), U.M.V = D,
    D diagonal with d_i | d_{i+1}, U and V unimodular."""
    A = [list(row) for row in _check_int_matrix(M)]
    m, n = len(A), len(A[0])
    U = mat_identity(m)
    V = mat_identity(n)
    t = 0
    while t < min(m, n):
        if not any(A[i][j] for i in range(t, m) for j in range(t, n)):
            break
        while True:
            i0, j0 = min(
                ((i, j) for i in range(t, m) for j in range(t, n) if A[i][j] != 0),
                key=lambda ij: abs(A[ij[0]][ij[1]]),
            )
            if i0 != t:
                A[t], A[i0] = A[i0], A[t]
                U[t], U[i0] = U[i0], U[t]
            if j0 != t:
                for row in A:
                    row[t], row[j0] = row[j0], row[t]
                for row in V:
                    row[t], row[j0] = row[j0], row[t]
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                        U[i] = [a - q * b for a, b in zip(U[i], U[t])]
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                        for row in V:
                            row[j] -= q * row[t]
            if all(A[i][t] == 0 for i in range(t + 1, m)) and all(
                A[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        off = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
             if A[i][j] % A[t][t] != 0),
            None,
        )
        if off is not None:
            i, _ = off
            A[t] = [a + b for a, b in zip(A[t], A[i])]
            U[t] = [a + b for a, b in zip(U[t], U[i])]
            continue
        t += 1
    D = tuple(tuple(row) for row in A)
    return D, tuple(tuple(r) for r in U), tuple(tuple(r) for r in V)


@dataclass(frozen=True)
class LatticeBasis:
    """A full-rank lattice in Q^n, stored as its canonical basis matrix.

    Rows are Hermite-reduced (lower triangular, positive diagonal) over the
    smallest common denominator, so two LatticeBasis values are equal exactly
    when they describe the same lattice.
    """

    rows: tuple

    def __post_init__(self):
        # canonical rows only (from_rows canonicalizes), kept as _from_hermite keeps them
        rows = self._check_form(self.rows, _exact_rationals)
        object.__setattr__(self, "rows", tuple(
            tuple(Fraction(x) if x else _ZERO for x in row) for row in rows))

    @staticmethod
    def _check_form(rows, gate):
        if not (rows := list(_sized(rows, msg := "basis entries must be exact rationals"))):
            raise InvalidInputError("lattice dimension must be >= 1")
        for i, row in enumerate(rows):
            rows[i] = row = gate(row, msg, len(rows), "basis matrix must be square")
            if row[i] <= 0 or any(row[i + 1:]):
                raise InvalidInputError("basis rows not in canonical form")
        return rows

    @classmethod
    def _from_hermite(cls, H, den):
        """H / den for an integer Hermite form H and int den > 0, its form checked
        on the integers with the constructor's messages, every zero one _ZERO."""
        cls._check_form(H, _exact_ints)
        object.__setattr__(basis := object.__new__(cls), "rows", tuple([
            tuple([Fraction(x, den) if x else _ZERO for x in row]) for row in H]))
        return basis

    @classmethod
    def standard(cls, dim):
        """Z^dim, one kept object per dimension (up to _standard's cache
        bound), so that comparing two standard bases stops at identity."""
        if _exact_ints((dim,), "lattice dimension must be an integer")[0] < 1:
            raise InvalidInputError("lattice dimension must be >= 1")
        return _standard(dim)

    @classmethod
    def from_rows(cls, rows):
        """Canonical basis of the lattice generated by the given rational rows."""
        msg = "basis entries must be exact rationals"
        rows = [_exact_rationals(row, msg) for row in _sized(rows, msg)]
        den = lcm(*(x.denominator for row in rows for x in row))
        H = _hermite_lower([[int(x * den) for x in row] for row in rows])
        return cls._from_hermite(H, den)

    @property
    def dim(self):
        return len(self.rows)

    @cached_property
    def inverse(self):
        return mat_inv(self.rows)

    @cached_property
    def determinant(self):
        d = Fraction(1)
        for i in range(self.dim):
            d *= self.rows[i][i]
        return d

    def coords(self, v):
        """Coordinates x of ambient point v in this basis: x.rows = v."""
        v = _sized(v, msg := "coordinates must be exact rationals", self.dim, "dimension mismatch")
        return vec_mat(_exact_rationals(v, msg), self.inverse)

    def ambient(self, x):
        return vec_mat(x, self.rows)


@lru_cache(maxsize=1 << 4)
def _standard(dim):
    return LatticeBasis._from_hermite(mat_identity(dim), 1)


def _lattice_coord_matrix(rays, lattice, caller):
    """Integer matrix C of the coordinates of dim-many independent rays in
    the lattice basis, and |det C|, the multiplicity of their cone."""
    rays = _sized(rays, "coordinates must be exact rationals", lattice.dim,
                  f"{caller} needs dim-many rays")
    C = []
    for ray in rays:
        c = lattice.coords(ray)
        if any(x.denominator != 1 for x in c):
            raise InvalidInputError(f"ray {tuple(ray)} not in lattice")
        C.append(tuple(int(x) for x in c))
    C = tuple(C)
    d = adjugate(C)[1]
    if d == 0:
        raise InvalidInputError("dependent rays")
    return C, abs(d)


def cone_multiplicity(rays, lattice):
    """Index of the sublattice spanned by the rays inside the lattice.

    The cone must be simplicial and full dimensional: len(rays) == dim.
    """
    return _lattice_coord_matrix(rays, lattice, "cone_multiplicity")[1]


class BoxPoint(NamedTuple):
    point: tuple      # ambient coordinates, Fractions
    bary: tuple       # coefficients t_i in [0,1) with point = sum t_i ray_i


MAX_MULTIPLICITY = 10 ** 6   # box-point enumeration is linear in it


def _span_mod(gens, m):
    """The subgroup of order m of (Z/m)^n spanned by gens, zero first, grown
    one coset of each g at a time: jg plus the group so far, 0 < j < k, for
    k the order of g modulo that group, a divisor of its order in (Z/m)^n."""
    group = [(0,) * len(gens[0])]
    for g in gens:
        if len(group) == m:
            break
        if g in (seen := set(group)):  # k = 1: g adds no coset (a zero row, say)
            continue
        o = m // gcd(m, *g)  # the order of g, and its k modulo the zero group
        k = o if len(group) == 1 else next(
            k for k in range(2, o + 1) if o % k == 0 and tuple([k * x % m for x in g]) in seen)
        steps = list(zip(*[[j * x % m for j in range(1, k)] for x in g]))
        group += steps + [tuple([(a + b) % m for a, b in zip(x, s)])
                          for x in group[1:] for s in steps]
    return group


# an entry keeps the m - 1 numerators of dim integers each: only cones up
# to this multiplicity with no more integers than a dimension-3 cone of it
# are cached, so 8,192 entries hold at most about 152 MB in any dimension
# (tracemalloc, full caches: 136, 152, 127 and 89 MB in dimensions 2, 3, 4
# and 8); every cache hit of the benchmark's quotient workload is on such
# a cone
MAX_CACHED_MULTIPLICITY = 2 ** 8


def _box_numerators(C):
    """(m, nums): m = |det C| and the integer barycentric numerators over m
    of the m - 1 nonzero lattice points of the half-open parallelepiped of
    the rows of C (point = num.C / m), in no particular order.  With
    C.adj = d.I, a lattice point p has num = +-p.adj mod m, so nums is the
    span of the adjugate rows mod m (a subgroup, so the sign of d does not
    matter), of order [Z^n : Z^n.C] = m.  A multiplicity above
    MAX_MULTIPLICITY raises InvalidInputError before any enumeration; one
    above MAX_CACHED_MULTIPLICITY, or with (m - 1) dim above
    3 (MAX_CACHED_MULTIPLICITY - 1), is enumerated again on every call."""
    m = abs(adjugate(C)[1])
    if m <= MAX_CACHED_MULTIPLICITY and (m - 1) * len(C) <= 3 * (MAX_CACHED_MULTIPLICITY - 1):
        return _cached_box_numerators(C)
    return _enumerate_box_numerators(C)


def _enumerate_box_numerators(C):
    adj, d = adjugate(C)
    m = abs(d)
    if m > MAX_MULTIPLICITY:
        raise InvalidInputError(
            f"cone multiplicity {m} exceeds the box-point limit {MAX_MULTIPLICITY}"
        )
    return m, tuple(_span_mod([tuple([x % m for x in row]) for row in adj], m)[1:])


_cached_box_numerators = lru_cache(maxsize=1 << 13)(_enumerate_box_numerators)


def _box_points_in_coords(C):
    """(m, ((point = num.C / m, num), ...)) over _box_numerators, by num."""
    m, nums = _box_numerators(C)
    return m, tuple((tuple(x // m for x in vec_mat(num, C)), num) for num in sorted(nums))


def box_points(rays, lattice):
    """All nonzero lattice points sum(t_i ray_i) with t_i in [0,1), with their
    barycentrics: multiplicity - 1 of them, for multiplicity <= MAX_MULTIPLICITY."""
    C, _ = _lattice_coord_matrix(rays, lattice, "box_points")
    m, pts = _box_points_in_coords(C)
    return [
        BoxPoint(point=lattice.ambient(p), bary=tuple(Fraction(x, m) for x in num))
        for p, num in pts
    ]
