import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from toricmmp import k_equivalent, make_fan, make_pair
from toricmmp.errors import InvalidInputError
from toricmmp.lattice import (
    _ZERO,
    MAX_CACHED_MULTIPLICITY,
    BoxPoint,
    LatticeBasis,
    _box_numerators,
    _box_points_in_coords,
    _cached_box_numerators,
    _eliminate,
    _hermite_lower,
    _standard,
    adjugate,
    box_points,
    cone_multiplicity,
    det,
    hermite_normal_form,
    mat_inv,
    mat_rank,
    primitive,
    smith_normal_form,
    vec_mat,
)


# ---------------------------------------------------------------- oracles
# Independent reference computations; deliberately naive.

def oracle_det(M):
    """Cofactor-expansion determinant."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * oracle_det(minor)
    return total


def mat_mul(A, B):
    """Matrix product, as tuples of rows."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A)


def oracle_invariant_factors(M):
    """Invariant factors via gcds of k x k minors."""
    m, n = len(M), len(M[0])
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = gcd(g, oracle_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def oracle_adjugate(M):
    """Adjugate from Laplace cofactors: adj[i][j] = (-1)^(i+j) det(M minus
    row j and column i)."""
    n = len(M)
    if n == 1:
        return [[1]]
    return [
        [(-1) ** (i + j) * oracle_det(
            [row[:i] + row[i + 1:] for k, row in enumerate(M) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


def oracle_parallelepiped_points(C):
    """Brute-force integer points of {t.C : t in [0,1)^n}, origin excluded.
    With adj and d from cofactors, t = p.adj / d, so 0 <= t_i < 1 exactly
    when 0 <= (p.adj)_i * d < d^2."""
    n = len(C)
    adj, d = oracle_adjugate(C), oracle_det(C)
    corners = [
        [sum(e[i] * C[i][j] for i in range(n)) for j in range(n)]
        for e in itertools.product([0, 1], repeat=n)
    ]
    lo = [min(c[j] for c in corners) for j in range(n)]
    hi = [max(c[j] for c in corners) for j in range(n)]
    found = []
    for p in itertools.product(*(range(lo[j], hi[j] + 1) for j in range(n))):
        num = [sum(p[k] * adj[k][i] for k in range(n)) for i in range(n)]
        if all(0 <= x * d < d * d for x in num) and any(p):
            found.append((p, tuple(Fraction(x, d) for x in num)))
    found.sort(key=lambda pt: pt[1])
    return found


def oracle_inverse(M):
    """Gauss-Jordan inverse over Fraction."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return tuple(tuple(row[n:]) for row in A)


def oracle_box_points_in_coords(C):
    """Box points by Smith form coset representatives and Fraction inverses:
    (lattice coords, barycentric) pairs sorted by barycentric tuple."""
    n = len(C)
    D, U, V = smith_normal_form([list(row) for row in C])
    Vinv = oracle_inverse(V)
    Cinv = oracle_inverse(C)
    out = []
    for w in itertools.product(*(range(D[i][i]) for i in range(n))):
        if not any(w):
            continue
        x = [sum(w[i] * Vinv[i][j] for i in range(n)) for j in range(n)]
        s = [sum(x[i] * Cinv[i][j] for i in range(n)) for j in range(n)]
        t = tuple(si - (si.numerator // si.denominator) for si in s)
        p = [sum(t[i] * C[i][j] for i in range(n)) for j in range(n)]
        assert all(pi.denominator == 1 for pi in p)
        out.append((tuple(int(pi) for pi in p), t))
    out.sort(key=lambda pt: pt[1])
    return tuple(out)


def oracle_hnf_upper(rows):
    """The reversed pass that the insertion Hermite kernel replaced, as it
    was: row echelon form with positive pivots and entries above each pivot
    reduced into [0, pivot), by repeated division by the least entry."""
    H = [list(r) for r in rows]
    m, n = len(H), len(H[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
            clean = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    q = H[i][c] // H[r][c]
                    if q:
                        H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    if H[i][c] != 0:
                        clean = False
            if clean:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
            r += 1
    return H


def oracle_reverse_both(M):
    return [list(reversed(row)) for row in reversed(M)]


def oracle_hermite_lower(rows):
    """The nonzero rows of the reversed pass on the reversed rows, reversed
    back, or None when they do not span a full-rank lattice."""
    ech = [row for row in oracle_hnf_upper(oracle_reverse_both(rows)) if any(row)]
    return tuple(map(tuple, oracle_reverse_both(ech))) if len(ech) == len(rows[0]) else None


def oracle_hermite_normal_form(M):
    """(H, U) of the reversed pass on [M | I], or None when M is rank-deficient."""
    m = len(M)
    UH = oracle_reverse_both(oracle_hnf_upper(
        [r + e for r, e in zip(oracle_reverse_both(M), [[int(i == j) for j in range(m)]
                                                         for i in range(m)])]))
    if any(not any(row[m:]) for row in UH):
        return None
    return tuple(tuple(row[m:]) for row in UH), tuple(tuple(row[:m]) for row in UH)


def random_nonsingular(rng, n, bound=5, max_det=None):
    while True:
        M = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        d = oracle_det(M)
        if d != 0 and (max_det is None or abs(d) <= max_det):
            return M


# ---------------------------------------------------------------- HNF

def test_hnf_identity():
    H, U = hermite_normal_form([[1, 0], [0, 1]])
    assert H == ((1, 0), (0, 1))
    assert U == ((1, 0), (0, 1))


def test_hnf_diagonal_already_reduced():
    H, U = hermite_normal_form([[2, 0], [0, 3]])
    assert H == ((2, 0), (0, 3))
    assert U == ((1, 0), (0, 1))


def test_hnf_random_product_property():
    rng = random.Random(20240311)
    for _ in range(60):
        M = random_nonsingular(rng, 3)
        H, U = hermite_normal_form(M)
        assert mat_mul(U, M) == H
        assert abs(oracle_det([list(r) for r in U])) == 1
        # canonical lower-triangular shape
        for i in range(3):
            assert H[i][i] > 0
            for j in range(i + 1, 3):
                assert H[i][j] == 0
            for j in range(i):
                assert 0 <= H[i][j] < H[j][j]


def test_hnf_rejects_rank_deficient():
    with pytest.raises(InvalidInputError):
        hermite_normal_form([[1, 2], [2, 4]])
    with pytest.raises(InvalidInputError):
        hermite_normal_form([[0, 0], [1, 1]])


def test_hnf_canonical_for_lattice():
    # two generating sets of the same row lattice get the same H
    M1 = [[2, 1], [0, 3]]
    M2 = [[2, 4], [2, 1]]  # rows: r1+r2', r1 where r2' = r2 + r1 etc.
    H1, _ = hermite_normal_form(M1)
    H2, _ = hermite_normal_form([[4, 5], [2, 1]])
    assert oracle_det(M1) != 0
    # same lattice iff both integer matrices relate by unimodular transform;
    # here [[4,5],[2,1]] = [[1,1],[0,1]] . [[2,4],[2,1]] and [[2,4],[2,1]] =
    # [[1,1],[1,0]] . [[2,1],[0,3]] up to row ops, checked via H equality
    H3, _ = hermite_normal_form(M2)
    assert H2 == H3
    del H1


def test_insertion_hermite_matches_the_reversed_pass():
    # hermite_normal_form, mat_rank and _hermite_lower run on one insertion
    # kernel; the reversed Hermite pass it replaced is the oracle, on seeded
    # matrices of every shape up to 6 x 6, of full and deficient rank and
    # with entries up to 40, so rows often fall to zero and pivots often
    # need an extended gcd that does not divide
    rng = random.Random(3535)
    outcomes = Counter()
    for _ in range(4000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice([1, 6, 40])
        base = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rng.randint(1, m))]
        M = [[sum(rng.randint(-1, 1) * b[j] for b in base) for j in range(n)] if rng.random() < 0.3
             else [rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        want = oracle_hermite_normal_form(M)
        if want is None:
            with pytest.raises(InvalidInputError, match="rank-deficient"):
                hermite_normal_form(M)
        else:
            assert hermite_normal_form(M) == want, M
        rank = sum(1 for row in oracle_hnf_upper(M) if any(row))
        assert mat_rank(M) == rank, M
        lower = oracle_hermite_lower(M)
        if lower is None:
            with pytest.raises(InvalidInputError, match="full-rank"):
                _hermite_lower(M)
        else:
            assert _hermite_lower(M) == lower, M
        outcomes[want is not None, lower is not None, m == n] += 1
    # square of full rank, wide of full row rank, tall of full column rank,
    # and rank-deficient, square or not
    assert len(outcomes) == 5 and min(outcomes.values()) > 50, outcomes


# ---------------------------------------------------------------- SNF

def test_snf_identity():
    D, U, V = smith_normal_form([[1, 0], [0, 1]])
    assert D == ((1, 0), (0, 1))


def test_snf_scalar_matrix():
    D, _, _ = smith_normal_form([[2, 0], [0, 2]])
    assert D == ((2, 0), (0, 2))


def test_snf_random_against_minor_gcd_oracle():
    rng = random.Random(987)
    for _ in range(40):
        n = rng.choice([2, 3])
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        D, U, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(oracle_det([list(r) for r in U])) == 1
        assert abs(oracle_det([list(r) for r in V])) == 1
        facs = tuple(x for x in (D[i][i] for i in range(n)) if x != 0)
        assert facs == oracle_invariant_factors(M)
        for a, b in zip(facs, facs[1:]):
            assert b % a == 0


def test_snf_rectangular():
    D, U, V = smith_normal_form([[2, 4, 6]])
    assert D[0][0] == 2
    assert mat_mul(mat_mul(U, [[2, 4, 6]]), V) == D


def test_mat_rank_matches_minor_oracle():
    # integer combinations of a few base rows give every rank up to n
    rng = random.Random(31)
    for _ in range(150):
        n = rng.choice([2, 3, 4])
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        rows = [
            tuple(sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(n))
            for _ in range(rng.randint(1, n + 2))
        ]
        expected = max((
            k for k in range(1, min(len(rows), n) + 1)
            for rs in itertools.combinations(rows, k)
            for cs in itertools.combinations(range(n), k)
            if oracle_det([[r[j] for j in cs] for r in rs])
        ), default=0)
        assert mat_rank(rows) == expected
    assert mat_rank([]) == 0


# ---------------------------------------------------------------- primitive

def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    assert primitive((-3, 6, -9)) == (-1, 2, -3)


def test_primitive_rational_input():
    assert primitive((Fraction(1, 2), Fraction(1, 2))) == (1, 1)
    assert primitive((Fraction(2, 3), Fraction(4, 3))) == (1, 2)


def test_primitive_properties():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if not any(v):
            continue
        p = primitive(v)
        assert primitive(p) == p
        k = rng.randint(1, 5)
        assert primitive(tuple(k * x for x in v)) == p
        assert gcd(*p) == 1


def oracle_primitive(v):
    """primitive with every coordinate lifted to Fraction first."""
    fs = [Fraction(x) for x in v]
    den = lcm(*(f.denominator for f in fs))
    ints = [int(f * den) for f in fs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def test_primitive_matches_fraction_oracle():
    rng = random.Random(2026)
    for _ in range(600):
        kind = rng.choice(["int", "rational", "mixed"])
        v = tuple(
            rng.randint(-30, 30)
            if kind == "int" or (kind == "mixed" and rng.random() < 0.5)
            else Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            for _ in range(rng.choice([1, 2, 3, 4]))
        )
        if not any(v):
            continue
        p = primitive(v)
        assert p == oracle_primitive(v)
        assert all(type(x) is int for x in p)


def test_primitive_of_ints_equals_primitive_of_fractions():
    # the all-int path of primitive against the same vector as Fractions,
    # with negative coordinates, common factors and entries up to 10^15
    rng = random.Random(1212)
    negative = scaled = 0
    for _ in range(600):
        bound = rng.choice((5, 10 ** 6, 10 ** 15))
        u = tuple(rng.randint(-bound, bound) for _ in range(rng.choice([1, 2, 3, 4])))
        if not any(u):
            continue
        v = tuple(rng.randint(1, 12) * x for x in u)
        negative += any(x < 0 for x in v)
        scaled += gcd(*v) > 1
        p = primitive(v)
        assert p == primitive(tuple(Fraction(x) for x in v)) == oracle_primitive(v)
        assert all(type(x) is int for x in p)
    assert negative > 300 and scaled > 300
    for v in ((0,), (0, 0, 0), ()):
        for w in (v, tuple(Fraction(x) for x in v)):
            with pytest.raises(InvalidInputError, match="zero vector"):
                primitive(w)


def test_primitive_zero_rejected():
    with pytest.raises(InvalidInputError):
        primitive((0, 0, 0))


# ---------------------------------------------------------------- LatticeBasis

def test_basis_standard_and_equality():
    b = LatticeBasis.standard(3)
    assert b.dim == 3
    assert b.determinant == 1
    assert b == LatticeBasis.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_standard_basis_is_one_kept_object_per_dimension():
    # so that two pairs on Z^n compare their lattices by identity; the
    # cache behind it is bounded, and a bad dimension never reaches it
    assert LatticeBasis.standard(3) is LatticeBasis.standard(3)
    assert LatticeBasis.standard(2) is not LatticeBasis.standard(3)
    assert _standard.cache_info().maxsize == 1 << 4
    for dim, message in ((0, ">= 1"), (True, "an integer"), (3.0, "an integer")):
        with pytest.raises(InvalidInputError, match=message):
            LatticeBasis.standard(dim)


def test_basis_keeps_its_rows_as_the_hermite_builds_do():
    # the constructor checks the rows it is given and keeps them as tuples
    # of Fraction, every zero lattice._ZERO, as standard and from_rows do:
    # a basis given as lists is hashable, equal to the standard basis, and
    # two orthant pairs, one on each, are on one lattice
    b = LatticeBasis([[1, 0], [0, 1]])
    assert hash(b) == hash(LatticeBasis.standard(2)) and b == LatticeBasis.standard(2)
    assert all(type(x) is Fraction for row in b.rows for x in row)
    assert b.rows[0][1] is _ZERO and b.rows[1][0] is _ZERO
    half = LatticeBasis([[Fraction(1, 2), 0], [1, 1]])
    assert half.rows == ((Fraction(1, 2), _ZERO), (Fraction(1), Fraction(1)))
    orthant = make_fan([(1, 0), (0, 1)], [(0, 1)])
    assert k_equivalent(make_pair(orthant, [0, 0], b), make_pair(orthant, [0, 0]))


def test_basis_canonical_across_generating_sets():
    # Z^2 + Z(1/3)(1,1) generated two different ways
    b1 = LatticeBasis.from_rows([[1, 0], [0, 1], [Fraction(1, 3), Fraction(1, 3)]])
    b2 = LatticeBasis.from_rows(
        [[Fraction(1, 3), Fraction(1, 3)], [Fraction(2, 3), Fraction(2, 3)],
         [1, 0], [0, 1], [1, 1]]
    )
    assert b1 == b2
    assert b1.determinant == Fraction(1, 3)
    assert all(x.denominator == 1 for x in b1.coords((Fraction(1, 3), Fraction(1, 3))))
    assert not all(x.denominator == 1 for x in b1.coords((Fraction(1, 3), Fraction(2, 3))))


def test_basis_coords_roundtrip():
    rng = random.Random(5150)
    b = LatticeBasis.from_rows([[1, 0, 0], [0, 1, 0], [Fraction(1, 2), 0, Fraction(1, 2)]])
    for _ in range(25):
        v = tuple(Fraction(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(3))
        x = b.coords(v)
        assert b.ambient(x) == v


def test_basis_rejects_deficient_generators():
    with pytest.raises(InvalidInputError):
        LatticeBasis.from_rows([[1, 1], [2, 2]])


# ---------------------------------------------------------------- multiplicity and box

def test_multiplicity_standard_basis():
    for n in (1, 2, 3, 4):
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert cone_multiplicity(rays, LatticeBasis.standard(n)) == 1


def test_multiplicity_index_two_cone():
    assert cone_multiplicity([(1, 0), (1, 2)], LatticeBasis.standard(2)) == 2
    pts = oracle_parallelepiped_points([[1, 0], [1, 2]])
    assert len(pts) == 1  # multiplicity - 1


def test_multiplicity_quotient_lattice_orthant():
    for r, a in [(2, 1), (3, 1), (5, 2), (7, 3)]:
        lat = LatticeBasis.from_rows([[1, 0], [0, 1], [Fraction(1, r), Fraction(a, r)]])
        assert cone_multiplicity([(1, 0), (0, 1)], lat) == r


def test_multiplicity_rejects_bad_rays():
    std = LatticeBasis.standard(2)
    with pytest.raises(InvalidInputError):
        cone_multiplicity([(1, 0), (2, 0)], std)
    with pytest.raises(InvalidInputError):
        cone_multiplicity([(1, 0)], std)
    lat = LatticeBasis.from_rows([[2, 0], [0, 1]])
    with pytest.raises(InvalidInputError):
        cone_multiplicity([(1, 0), (0, 1)], lat)  # (1,0) outside 2Z x Z


def test_box_points_unimodular_empty():
    assert box_points([(1, 0), (0, 1)], LatticeBasis.standard(2)) == []


def test_box_points_half_111():
    lat = LatticeBasis.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1],
         [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]]
    )
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pts = box_points(rays, lat)
    assert len(pts) == 1
    assert pts[0].bary == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert pts[0].point == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_box_points_third_11():
    lat = LatticeBasis.from_rows(
        [[1, 0], [0, 1], [Fraction(1, 3), Fraction(1, 3)]]
    )
    pts = box_points([(1, 0), (0, 1)], lat)
    assert [p.bary for p in pts] == [
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(2, 3)),
    ]


def test_box_count_matches_multiplicity_random():
    # 1 + #box == multiplicity on random cones, standard lattice
    rng = random.Random(424242)
    checked = 0
    while checked < 60:
        n = rng.choice([2, 3, 4])
        C = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d = oracle_det(C)
        if d == 0 or abs(d) > 60:
            continue
        checked += 1
        lat = LatticeBasis.standard(n)
        rays = [tuple(row) for row in C]
        mult = cone_multiplicity(rays, lat)
        pts = box_points(rays, lat)
        assert 1 + len(pts) == mult
        oracle = oracle_parallelepiped_points(C)
        assert len(oracle) == len(pts)
        assert [tuple(int(x) for x in p.point) for p in pts] == [p for p, _ in oracle]
        assert [p.bary for p in pts] == [t for _, t in oracle]
        for p in pts:
            # reconstruction: point = sum t_i ray_i
            rebuilt = tuple(
                sum(p.bary[i] * rays[i][j] for i in range(n)) for j in range(n)
            )
            assert rebuilt == p.point


def test_box_points_quotient_lattice_against_oracle():
    # the 1/r(1,a) orthant boxes, cross-checked through lattice coordinates
    rng = random.Random(99)
    for _ in range(20):
        r = rng.randint(2, 12)
        a = rng.randint(1, r - 1)
        lat = LatticeBasis.from_rows([[1, 0], [0, 1], [Fraction(1, r), Fraction(a, r)]])
        pts = box_points([(1, 0), (0, 1)], lat)
        assert 1 + len(pts) == cone_multiplicity([(1, 0), (0, 1)], lat)
        for p in pts:
            assert all(x.denominator == 1 for x in lat.coords(p.point))
            assert all(0 <= t < 1 for t in p.bary)


def test_det_matches_oracle():
    rng = random.Random(31337)
    for _ in range(50):
        n = rng.choice([1, 2, 3, 4])
        M = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert det(M) == oracle_det(M)


def test_adjugate_matches_cofactor_oracle():
    rng = random.Random(2718)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        M = tuple(
            tuple(rng.choice((0, rng.randint(-6, 6))) for _ in range(n))
            for _ in range(n)
        )
        d = oracle_det([list(row) for row in M])
        adj, d_kernel = adjugate(M)
        assert d_kernel == d
        if d == 0:
            singular += 1
            assert adj is None
        else:
            assert [list(row) for row in adj] == oracle_adjugate([list(row) for row in M])
    assert singular >= 20


def _kernel_cases(rng, n, count):
    """count seeded n x n integer matrices of ranks n down to 1 in turn, with
    entries from a few units up to 10^15: a rank-k matrix has k random rows,
    the rest small integer combinations of them, in shuffled order."""
    cases = []
    for t in range(count):
        rank = n - t % n
        bound = rng.choice((3, 100, 10 ** 6, 10 ** 15))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rank)]
        while len(rows) < n:
            cs = [rng.randint(-3, 3) for _ in range(rank)]
            rows.append([sum(c * row[j] for c, row in zip(cs, rows[:rank])) for j in range(n)])
        rng.shuffle(rows)
        cases.append(tuple(tuple(row) for row in rows))
    return cases


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_adjugate_matches_elimination(n):
    # the closed cofactor forms of adjugate for n = 2, 3 against the generic
    # fraction-free elimination and the Laplace oracle, cache bypassed
    cases = _kernel_cases(random.Random(4000 + n), n, 300) + [((0,) * n,) * n]
    assert max(abs(x) for M in cases for row in M for x in row) > 10 ** 14
    ranks = Counter()
    for M in cases:
        adj, d = adjugate.__wrapped__(M)
        assert (adj, d) == _eliminate(M) == adjugate(M)
        rows = [list(row) for row in M]
        assert d == oracle_det(rows)
        ranks[mat_rank(M)] += 1
        if d == 0:
            assert adj is None
            continue
        assert [list(row) for row in adj] == oracle_adjugate(rows)
        assert mat_mul(M, adj) == tuple(
            tuple(d * int(i == j) for j in range(n)) for i in range(n))
    assert all(ranks[k] >= 90 for k in range(1, n + 1)) and ranks[0] >= 1


def test_mat_inv_on_rational_bases():
    rng = random.Random(1618)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
                for _ in range(n + 1)]
        try:
            basis = LatticeBasis.from_rows(rows)
        except InvalidInputError:
            continue
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        assert mat_mul(mat_inv(basis.rows), basis.rows) == identity
    with pytest.raises(ValueError):
        mat_inv(((Fraction(1, 2), 1), (1, 2)))


def test_box_points_match_fraction_oracle():
    rng = random.Random(1009)
    checked = 0
    while checked < 30:
        n = rng.choice([2, 3, 4])
        C = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        d = oracle_det([list(row) for row in C])
        if d == 0 or abs(d) > 1000:
            continue
        checked += 1
        m, pts = _box_points_in_coords(C)
        assert m == abs(d)
        got = tuple((p, tuple(Fraction(x, m) for x in num)) for p, num in pts)
        assert got == oracle_box_points_in_coords(C)
    for r in range(2, 25):
        for a in range(1, r):
            lat = LatticeBasis.from_rows([[1, 0], [0, 1], [Fraction(1, r), Fraction(a, r)]])
            C = tuple(tuple(int(x) for x in lat.coords(v)) for v in ((1, 0), (0, 1)))
            expected = [
                BoxPoint(point=lat.ambient(p), bary=t)
                for p, t in oracle_box_points_in_coords(C)
            ]
            assert box_points([(1, 0), (0, 1)], lat) == expected


def test_box_numerators_are_the_box():
    # m - 1 distinct nonzero numerators in [0, m)^n, each num.C / m a
    # lattice point: exactly the nonzero box points, whose count is m - 1
    rng = random.Random(1409)
    cases = [((2, 0, 0), (0, 2, 0), (0, 0, 4)), ((6, 0), (0, 6)), ((1, 2), (3, 4))]
    while len(cases) < 60:
        n = rng.choice([2, 3, 4])
        C = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if 0 < abs(oracle_det([list(row) for row in C])) <= 1000:
            cases.append(C)
    for C in cases:
        m, nums = _box_numerators(C)
        assert m == abs(oracle_det([list(row) for row in C]))
        assert len(nums) == len(set(nums)) == m - 1
        assert all(any(num) and all(0 <= x < m for x in num) for num in nums)
        assert all(x % m == 0 for num in nums for x in vec_mat(num, C))
    for C in (((1, 0), (0, 1)), ((2, 1), (1, 1)), ((1, 2, 3), (0, 1, 4), (0, 0, -1))):
        assert _box_numerators(C) == (1, ())


def test_box_numerators_cache_holds_small_cones_only():
    # rows e_1, ..., e_{d-1}, (a, m): the box point with last barycentric
    # k / m has numerators (-k a mod m, k)
    def rows(a, m):
        d = len(a) + 1
        return tuple(tuple(int(i == j) for j in range(d)) for i in range(d - 1)) + (a + (m,),)

    def expected(a, m):
        return sorted(tuple((-k * x) % m for x in a) + (k,) for k in range(1, m))

    def lookups():  # (hits, misses): they count every cache access
        return _cached_box_numerators.cache_info()[:2]

    before = lookups()
    for a in ((1, 2), (3, 7), (11, 13)):
        m, nums = _box_numerators(rows(a, 10 ** 5))
        assert m == 10 ** 5 and sorted(nums) == expected(a, m)
    # a dimension-8 cone of multiplicity 256 keeps 255 numerators of 8
    # integers each, more than a dimension-3 cone at the cap: not cached
    a8 = (1, 2, 3, 5, 7, 11, 13)
    for m in (2 ** 8, 97):
        assert sorted(_box_numerators(rows(a8, m))[1]) == expected(a8, m)
    assert lookups() == before
    m = MAX_CACHED_MULTIPLICITY
    assert sorted(_box_numerators(rows((5, 7), m))[1]) == expected((5, 7), m)
    # 95 * 8 <= 255 * 3 < 96 * 8: dimension 8 caches up to multiplicity 96
    assert sorted(_box_numerators(rows(a8, 96))[1]) == expected(a8, 96)
    assert sum(lookups()) == sum(before) + 2
