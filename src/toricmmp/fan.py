"""Simplicial fan core.

A Fan stores primitive integer rays (in coordinates of whatever lattice the
caller fixed) and its maximal cones as sorted ray-index tuples.  Everything
downstream assumes validity, so construction checks eagerly.  Every change
to a fan is a step of one local state, _Subdivision: star subdivision or a
circuit step (flip or divisorial contraction), each checking only the facets
it touched.  Its ray ids are stable: a contraction leaves a tombstone.  It
keeps each cone's adjugate and its boundary facets' inward functionals, and
answers the wall and star questions: each wall's relation, kept while its
two cones live, each wall's key for the engine loop that turned scoring
on (the MMP's, only walls whose defect sign, read first, is positive),
rescored on the facets a step touched, the one queue from which that
loop pops its next wall, and the star of a point, walked from the first
cone holding it.  make_fan's `fast` level is those checks applied once to
all cones, the kind read off the kept boundary; `full` adds the test that
any two cones meet in a common face, a degree-one point check.
A fan's support is all of N_R (kind "complete") or a convex cone (kind
"cone-supported"); make_fan rejects any other support.  Exact LP decides
membership in a cone over non-simplicial generators (point_in_cone, which no
engine loop calls), posed in the standard form of `linprog.lp_maximize`,
which starts at the origin and so needs right-hand sides >= 0; these are 0,
and the unit caps are bounds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, count
from math import gcd
from typing import NamedTuple

from .circuits import _relation
from .errors import EngineInvariantError, InvalidInputError, _exact_ints, _exact_rationals, _sized
from .lattice import adjugate, dot, primitive, vec_mat
from .linprog import lp_maximize


@dataclass(frozen=True)
class Fan:
    dim: int
    rays: tuple                 # tuple of primitive integer vectors, distinct
    max_cones: tuple            # tuple of sorted index tuples, each of size dim
    support_kind: str           # "complete" | "cone-supported"

    def ray_matrix(self, cone):
        return tuple(map(self.rays.__getitem__, cone))


class Wall(NamedTuple):
    shared: tuple               # sorted ray indices, size dim-1
    cone_a: int
    cone_b: int
    apex_a: int
    apex_b: int


def _solve(rows, p):
    """(num, m) with p = sum (num_i / m) rows_i and m = |det rows|, so the
    numerators num carry the signs of p's coordinates in the cone's rays."""
    adj, d = adjugate(rows)
    if adj is None:
        raise InvalidInputError("cone rays are linearly dependent")
    num = vec_mat(p, adj)
    return (num, d) if d > 0 else (tuple(-x for x in num), -d)


def _holding(fan, p):
    """The first maximal cone, in cone order, that holds p, or None."""
    for cone in fan.max_cones:
        if all(x >= 0 for x in _solve(fan.ray_matrix(cone), p)[0]):
            return cone
    return None


def _inward(kernel, k):
    """Integer linear form vanishing on a cone minus its ray k, positive on
    ray k: column k of the cone's adjugate, kernel = (adj, d), over sign d."""
    return tuple(row[k] if kernel[1] > 0 else -row[k] for row in kernel[0])


def _facet_map(fan):
    """Every facet of a maximal cone, mapped to the cones containing it, in
    cone order."""
    fm = defaultdict(list)
    for cone in fan.max_cones:
        for f in combinations(cone, fan.dim - 1):
            fm[f].append(cone)
    return dict(fm)


def walls(fan):
    """Every interior facet, reported once, with its two cones and apexes."""
    index = {c: i for i, c in enumerate(fan.max_cones)}
    out = []
    for facet, cs in _facet_map(fan).items():
        if len(cs) == 2:
            a, b = cs
            apex_a = next(i for i in a if i not in facet)
            apex_b = next(i for i in b if i not in facet)
            out.append(Wall(facet, index[a], index[b], apex_a, apex_b))
    out.sort(key=lambda w: (w.shared, w.cone_a, w.cone_b))
    return tuple(out)


def _check_degree_one(sub):
    """Common-face test for the complete or cone-supported state sub.

    The fast checks make the cones an oriented pseudomanifold whose map into
    the support preserves orientation on each cone (every facet lies in at
    most two cones, with the two apexes on opposite sides; boundary
    functionals are >= 0 on all rays).  So a constant number d of cones
    covers each generic point of the support's interior, and the fan is
    valid iff d = 1.  The sum p of cone 0's rays is interior to cone 0: no
    other closed cone contains p in a valid fan, and some other one does
    when d >= 2.
    """
    first, *rest = sub.max_cones
    p = tuple(map(sum, zip(*sub.ray_matrix(first))))
    for cone in rest:  # p's barycentric numerators, times d
        adj, d = sub.kernels[cone]
        if all(d * dot(p, col) >= 0 for col in zip(*adj)):
            raise InvalidInputError(f"cones {first} and {cone} do not intersect in a common face")


def make_fan(rays, max_cones, *, validate="full"):
    """Build a Fan after validating it.

    validate: "fast" checks primitive distinct rays and every ray used,
    then adds every cone to an empty _Subdivision in one step, whose checks
    are the rest; the support kind is read off that state's boundary.
    A support that is neither all of N_R nor a convex cone is rejected.
    "full" adds the test that any two cones meet in a common face, the
    degree-one point check.
    """
    if validate not in ("full", "fast"):
        raise InvalidInputError(f"unknown validation level {validate!r}")
    rays, n = _exact_rays(rays)
    cones, msg = [], "cone ray indices must be integers"
    distinct = "maximal cones must have dim distinct rays"
    for c in _sized(max_cones, msg):
        c = tuple(sorted(_exact_ints(c, msg, n, distinct)))
        if len(set(c)) < n:
            raise InvalidInputError(distinct)
        if c[0] < 0 or c[-1] >= len(rays):  # c is sorted
            raise InvalidInputError("cone ray index out of range")
        cones.append(c)
    if not cones:
        raise InvalidInputError("fan needs at least one maximal cone")

    if set().union(*cones) != set(range(len(rays))):
        raise InvalidInputError("fan has unused rays")

    sub = _Subdivision(Fan(n, rays, (), None))
    sub._replace((), cones, "make_fan")
    if not sub.boundary:
        kind = "complete"
    elif len(_walk_star(sub.facets, cones[0], ())) == len(cones) and all(
        dot(u, r) >= 0 for u in sub.boundary.values() for r in rays
    ):
        kind = "cone-supported"
    else:
        raise InvalidInputError("fan support is neither complete nor a convex cone")
    if validate == "full":
        _check_degree_one(sub)
    return Fan(n, rays, tuple(cones), kind)


def _exact_rays(rays):
    """(rays, n): rays as distinct primitive integer vectors of one
    dimension n >= 1, as make_fan and regular_triangulation take them."""
    if not (rays := _sized(rays, msg := "ray coordinates must be integers")):
        raise InvalidInputError("fan needs at least one ray")
    if (n := len(_sized(rays[0], msg))) < 1:
        raise InvalidInputError("dimension must be >= 1")
    out = []
    for r in rays:
        r = _exact_ints(_sized(r, msg, n, "rays of mixed dimension"), msg)
        if (g := gcd(*r)) != 1:
            raise InvalidInputError(f"ray {r} is not primitive" if g else "zero ray")
        out.append(r)
    if len(set(out)) != len(out):
        raise InvalidInputError("duplicate rays")
    return tuple(out), n


def _exact_point(fan, p):
    """p as a tuple of exact rationals of the fan's dimension."""
    return _exact_rationals(p, "point coordinates must be exact rationals, not bool or float",
                            fan.dim, "point dimension mismatch")


def locate(fan, p):
    """(cone index, barycentric coordinates) of the first maximal cone
    containing p.  Raises if p is outside the support."""
    p = tuple(map(Fraction, _exact_point(fan, p)))
    if (cone := _holding(fan, p)) is None:
        raise InvalidInputError(f"point {p} outside the fan support")
    num, m = _solve(fan.ray_matrix(cone), p)
    return fan.max_cones.index(cone), tuple(x / m for x in num)


def in_support(fan, p):
    return _holding(fan, _exact_point(fan, p)) is not None


def _walk_star(facets, cone, face):
    """The cones containing the given face of cone, found by walking from
    cone across the facets that contain the face; facets maps each facet to
    the cones containing it.  For the empty face, the cones connected to
    cone across facets."""
    star, todo = {cone}, [cone]
    while todo:
        c = todo.pop()
        for k, i in enumerate(c):
            if i not in face:
                for d in facets[c[:k] + c[k + 1:]]:
                    if d not in star:
                        star.add(d)
                        todo.append(d)
    return star


def star_subdivision(fan, w):
    """Insert primitive(w) as a new ray; every maximal cone containing it is
    replaced by the joins of w with its facets not containing w."""
    sub = _Subdivision(fan)
    sub.subdivide(_sized(primitive(w), "vector dimension mismatch", fan.dim))
    return sub.fan()


class _Subdivision:
    """A fan as local state under its surgeries: star subdivision and the
    circuit step (flip or contraction).  The state is the rays, by stable id
    (a contracted ray leaves None), the facet map, and the maximal cones with
    their insertion numbers, whose order is the cone order (kept cones stay in
    place, new ones are appended).  kernels keeps each cone's adjugate (adj,
    d), set by the step that creates the cone and dropped with it (an input
    cone's on first read), and boundary each facet in a single cone with its
    inward functional (_inward), renewed on the facets each step touched.  The
    interior facets are the walls; relation computes each wall's relation once
    per pair of cones, off its first cone's kernel (not kept for another fan's
    cone), and keeps it until a step removes one of them (so rels holds one
    per wall, but for another fan's pairs).  score_walls keeps walls, each
    wall with its relation and a key, which each step renews on the facets of
    the cones it removed or created, the only facets whose walls it changed;
    queue holds an entry per scoring whose key is not None, for pop.

    A step replaces some cones by others and applies the fast checks to
    exactly the facets it touched: new cones are simplicial and new, a facet
    lies in at most two cones with their apexes on opposite sides (read off
    the two kept determinants), and a new boundary facet keeps the support
    kind (there is none in a complete fan, and its functional is >= 0 on every
    ray in a cone-supported one).  Each step replaces a connected set of cones
    by a connected one and, but for placing outside the support (below), keeps
    the support of a valid fan; an outer facet a flip changes becomes a new
    boundary facet, which the kind check covers.  A star subdivision skips
    the kind check: its ray lies in the cone it is walked from (_join checks
    that its numerators there are >= 0), so each new boundary facet lies in
    the hyperplane of the boundary facet it replaces, on the same side, and
    the support is unchanged.  So the kind and the wall-graph connectivity
    hold without a look at any other facet.
    make_fan's fast checks are these checks, run once on an empty state that
    receives every cone; its kind is None, which takes any boundary.

    subdivide inserts a ray.  Its star is walked from a cone holding it
    (given, or the first: _holding; a given cone that does not hold it is
    an EngineInvariantError) across the facets that contain the face
    carrying the ray, the same face in every cone around it, so replacing
    and checking the star cost the cones around the ray.  The walk reaches
    the whole star because the link of a face is connected in a complete
    or cone-supported fan.  place, the placing step of regular
    triangulation, subdivides the same way; with no cone holding the ray,
    it joins the ray to the kept boundary facets that see it instead.
    That is the one step that changes the support: it grows a convex
    support to its hull with the ray, which the kind check covers, and a
    cone-supported state whose boundary it closes becomes complete.

    flip and contract are one step, Reid's circuit modification of a wall
    relation (M. Reid, "Decomposition of toric morphisms", 1983): T+ * L is
    replaced by T- * L (_circuit), at the cost of the cones around the
    circuit; contract also retires the removed ray's id.

    fan() compacts the ray ids past the tombstones, a map that keeps their
    order, so every sorted cone, cone order and tie rule reads the same.
    """

    def __init__(self, fan):
        self.dim, self.kind = fan.dim, fan.support_kind
        self.rays = list(fan.rays)
        self.order = count()
        self.max_cones = dict(zip(fan.max_cones, self.order))
        self.facets = _facet_map(fan)
        self.rels, self.refused, self.score, self.walls, self.kernels = {}, set(), None, {}, {}
        self.heights, self.queue, self.tried = None, [], []
        self._boundary = None if fan.max_cones else {}

    @property
    def boundary(self):
        """The kept boundary; an input fan's is built on first read."""
        if self._boundary is None:
            self._boundary = {f: self._functional(cs[0], f)
                              for f, cs in self.facets.items() if len(cs) == 1}
        return self._boundary

    ray_matrix = Fan.ray_matrix

    def kernel(self, cone):
        """(adj, d) of a current cone's ray matrix, kept while it lives."""
        if (kernel := self.kernels.get(cone)) is None:
            kernel = self.kernels[cone] = adjugate(self.ray_matrix(cone))
        return kernel

    def _functional(self, cone, facet):  # inward, of a facet of cone
        return _inward(self.kernel(cone), cone.index(sum(cone) - sum(facet)))

    def fan(self):
        rays, cones = tuple(self.rays), tuple(self.max_cones)
        if None in rays:  # compact the ids past the tombstones
            ids = {i: k for k, i in enumerate(i for i, r in enumerate(rays) if r is not None)}
            rays = tuple(r for r in rays if r is not None)
            cones = tuple(tuple(ids[i] for i in c) for c in cones)
        return Fan(self.dim, rays, cones, self.kind)

    def relation(self, facet, cones=None):
        """The relation across facet between its two cones, or between the
        given cones, another fan's in the state's ray indices; kept per
        sorted cone pair, since either cone may serve as circuits' cone a,
        the first.  Its kernel is the kept one when cone a is current, and
        a foreign cone's is read off the adjugate cache, never kept."""
        ca, cb = self.facets[facet] if cones is None else cones
        if (rel := self.rels.get(key := (ca, cb) if ca < cb else (cb, ca))) is None:
            (ca, cb), s = key, sum(facet)  # an apex is its cone's sum minus the facet's
            kernel = self.kernel(ca) if ca in self.max_cones else adjugate(self.ray_matrix(ca))
            rel = self.rels[key] = _relation(self.rays, ca, sum(ca) - s, sum(cb) - s, kernel)
        return rel

    def relations(self):
        """(facet, its relation) for every wall, lazily, in walls() order."""
        return ((f, self.relation(f)) for f in sorted(self.facets) if len(self.facets[f]) == 2)

    def score_walls(self, score, heights=None):
        """Keep walls, each wall's facet mapped to (relation, its key
        score(facet, relation)): every wall now, in walls() order, and from
        then on the facets each step touches, in facet order; a key that is
        not None also queues (key, facet, relation) for pop.  Given integer
        heights, walls keeps only the walls of positive defect under them,
        each found by its sign (_positive) before any relation is built."""
        self.score, self.heights, self.walls, self.queue, self.tried = score, heights, {}, [], []
        for f in sorted(f for f, cs in self.facets.items() if len(cs) == 2):
            self._score(f)

    def _score(self, f):
        if self.heights is not None and not self._positive(f):
            self.walls.pop(f, None)
            return
        rel = self.relation(f)
        self.walls[f] = rel, (key := self.score(f, rel))
        if key is not None:
            heappush(self.queue, (key, f, rel))

    def _positive(self, f):
        """Is the wall's defect under the kept heights positive?"""
        return self.bend(f, self.heights) > 0

    def bend(self, f, h):
        """The wall's defect under the heights h over a positive scale: for
        (adj, d) its first cone's kept kernel and b the other apex, the
        relation is (b.adj, -d) over a scale of sign -d, so this is (d h_b -
        b.W) d, W = adj.h the cone's height form (pairs._heights_linear)."""
        ca, cb = self.facets[f]
        adj, d = self.kernel(ca)
        b = sum(cb) - sum(f)
        P = [h[i] for i in ca]
        return (d * h[b] - dot(self.rays[b], [dot(row, P) for row in adj])) * d

    def pop(self):
        """The queued (key, facet, relation) least by (key, facet) whose
        wall is unchanged since that scoring, or None; stale entries are
        dropped.  It is held in tried until the next step, which queues it
        again if that step left its wall unchanged, so a wall whose step
        was refused stays a candidate."""
        while self.queue:
            entry = heappop(self.queue)
            if self.walls.get(entry[1], (None,))[0] is entry[2]:
                self.tried.append(entry)
                return entry
        return None

    def subdivide(self, w, cone=None):
        """Insert the primitive vector w as a new ray, as star_subdivision
        does, walking the star from cone, which holds w, or else from the
        first that does; returns (the cones it removes, the cones it
        creates)."""
        if cone is None and (cone := _holding(self, w)) is None:
            raise InvalidInputError(f"{w} is outside the fan support")
        return self._join(w, cone)

    def place(self, w):
        """Insert the primitive vector w as a new ray wherever it lies, as
        placing builds a triangulation: a star subdivision inside the
        support, else the joins of w to the boundary facets that see it.
        Returns (the cones it removes, the cones it creates)."""
        if (cone := _holding(self, w)) is not None:
            return self._join(w, cone)
        # in cone order, a cone's facets by the place of the ray they miss
        seen = sorted((f for f, u in self.boundary.items() if dot(u, w) < 0),
                      key=lambda f: (self.max_cones[self.facets[f][0]], [-i for i in f]))
        if not seen:
            raise EngineInvariantError("outside ray sees no boundary facet")
        step = self._join(w, None, seen)
        if not self.boundary:  # the joins closed it
            self.kind = "complete"
        return step

    def _join(self, w, cone, seen=()):
        """Append the ray w, replace each cone of its star, walked from cone
        (none when cone is None), by the joins of w with its facets missing
        a ray of the face whose relative interior holds w, and join w to
        each facet seen."""
        if w in self.rays:
            raise InvalidInputError(f"{w} is already a ray")
        w_idx, gone, new = len(self.rays), [], []
        if cone is not None:
            adj, d = self.kernel(cone)
            num = [x * d for x in vec_mat(w, adj)]
            if min(num) < 0:
                raise EngineInvariantError(f"{w} is outside the cone {cone} it subdivides")
            face = {i for i, x in zip(cone, num) if x > 0}
            gone = sorted(_walk_star(self.facets, cone, face), key=self.max_cones.__getitem__)
            new = [tuple(sorted(c[:k] + c[k + 1:] + (w_idx,)))
                   for c in gone for k, i in enumerate(c) if i in face]
        self.rays.append(w)
        new += [tuple(sorted(f + (w_idx,))) for f in seen]
        self._replace(gone, new, "star subdivision" if gone else "placing")
        return gone, new

    def _circuit(self, rel):
        """(T+ * L, T- * L) for the circuit relation rel, or None when a cone
        of T+ * L is missing.  T+ and T- are the circuit's nonzero rays minus
        one positive or negative ray; L is the link of the first T+ simplex,
        walked from its plus cone (the circuit minus that ray).  In a complete
        or cone-supported fan every T+ simplex then has link L: the support
        looks the same along the relative interior of the circuit's cone, so
        each simplex's cones in T+ * L fill it around that simplex.  Every
        cone read holds s_minus, so a refused rel stays refused until
        _replace sees a step whose removed and created cones hold s_minus."""
        nz = set(rel.s_plus + rel.s_minus)
        cone = tuple(i for i in rel.ray_indices if i != rel.s_plus[0])
        if cone not in self.max_cones or rel in self.refused:
            return None
        star = _walk_star(self.facets, cone, nz.intersection(cone))
        joins = sorted(tuple(sorted(nz.union(c))) for c in star)
        plus, minus = (
            [tuple(i for i in u if i != k) for k in side for u in joins]
            for side in (rel.s_plus, rel.s_minus)
        )
        if any(c not in self.max_cones for c in plus):
            self.refused.add(rel)
            return None
        return plus, minus

    def flip(self, rel):
        """The step of the wall relation rel (a flipping circuit, from
        circuits): (the cones it removes, the cones it creates), or None
        when _circuit is None.  Every wall of the circuit flips at once."""
        step = self._circuit(rel)
        if step is not None:
            self._replace(*step, "flip")
        return step

    def contract(self, rel, j):
        """Remove ray j, the one negative ray of the divisorial relation rel,
        by the same step; returns it as flip does, or None.  Every cone of
        T+ * L holds j, and their union is a neighbourhood of j in the
        support (j lies inside the cone of the plus rays, which T+ * L
        covers with its link), so no other cone holds j: the step removes
        the whole star of j.  Ray j's id becomes a tombstone, None in rays,
        and no other id moves."""
        step = self._circuit(rel)
        if step is not None:
            self._replace(*step, "contraction")
            self.rays[j] = None
        return step

    def _replace(self, gone, new, what):
        """Remove the cones gone, append the cones new, apply the fast
        checks to the facets that changed and, when walls are scored,
        rescore them; a new boundary facet that the support kind forbids
        raises EngineInvariantError.  A removed cone takes the relations of
        its walls with it."""
        change = {}
        for c in gone:
            del self.max_cones[c]
            self.kernels.pop(c, None)  # an input cone's only once read
            for k in range(self.dim):
                f = c[:k] + c[k + 1:]
                if len(cs := self.facets[f]) == 2 and self.rels:
                    self.rels.pop(tuple(sorted(cs)), None)
                cs.remove(c)
                change[f] = change.get(f, 0) - 1
        for c in new:
            if c in self.max_cones:
                raise InvalidInputError("duplicate maximal cones")
            if (kernel := adjugate(self.ray_matrix(c)))[1] == 0:
                raise InvalidInputError(f"cone {c} is not simplicial")
            self.kernels[c] = kernel
            self.max_cones[c] = next(self.order)
            for k in range(self.dim):
                f = c[:k] + c[k + 1:]
                self.facets.setdefault(f, []).append(c)
                change[f] = change.get(f, 0) + 1
        for f, delta in change.items():
            cs = self.facets[f]
            if self._boundary is not None:
                if len(cs) == 1:
                    self._boundary[f] = self._functional(cs[0], f)
                else:
                    self._boundary.pop(f, None)
            if len(cs) > 2:
                raise InvalidInputError(f"facet {f} shared by more than two cones")
            if len(cs) == 2:
                # apexes on opposite sides: (-1)^(ka+kb) det cb is det ca with
                # cb's apex in place of ca's (an apex is its cone's sum minus f's)
                ca, cb = cs
                ka, kb = ca.index(sum(ca) - sum(f)), cb.index(sum(cb) - sum(f))
                if self.kernel(ca)[1] * self.kernel(cb)[1] * (-1) ** (ka + kb) >= 0:
                    raise InvalidInputError(
                        f"cones {ca} and {cb} lie on the same side of their shared facet {f}"
                    )
            elif not cs:
                del self.facets[f]
            elif delta and what != "star subdivision" and not self._keeps_kind(f):
                raise EngineInvariantError(f"{what} changed the support kind")
        if self.refused:
            moved = set().union(*gone, *new)
            self.refused = {r for r in self.refused if not moved.issuperset(r.s_minus)}
        if self.score is None:
            return
        for f in sorted(change):
            if len(self.facets.get(f, ())) == 2:
                self._score(f)
            else:
                self.walls.pop(f, None)
        for entry in self.tried:  # a wall this step changed was rescored above
            if entry[1] not in change:
                heappush(self.queue, entry)
        self.tried.clear()

    def _keeps_kind(self, facet):
        """May facet, newly in a single cone, lie on the boundary?"""
        return self.kind is None or self.kind == "cone-supported" and all(
            dot(self.boundary[facet], r) >= 0 for r in self.rays if r is not None)


def fans_equal(f1, f2):
    """Equal ray sets (as vectors) and equal cone sets under the induced
    ray re-indexing."""
    if f1.dim != f2.dim or len(f1.rays) != len(f2.rays):
        return False
    if set(f1.rays) != set(f2.rays):
        return False
    to2 = {i: f2.rays.index(r) for i, r in enumerate(f1.rays)}
    cones1 = {tuple(sorted(to2[i] for i in c)) for c in f1.max_cones}
    return cones1 == set(f2.max_cones)


def point_in_cone(p, gens):
    """Is p a nonnegative rational combination of the integer generators?

    An invertible square set is solved by its adjugate.  Otherwise, by
    Farkas, p is in the cone iff no form u that is >= 0 on every generator
    is negative on p: the LP minimizes u.p over u = u+ - u- with u+, u- in
    [0, 1]^n, the unit caps as bounds, and every right-hand side is 0, so
    the origin is a feasible start and the optimum c.y / D of the vertex
    (y, D) is >= 0: p is in the cone iff c.y = 0."""
    n = len(p)
    if len(gens) == n:
        adj, d = adjugate(tuple(tuple(g) for g in gens))
        if d:
            return all(x * d >= 0 for x in vec_mat(p, adj))
    A = [tuple(-x for x in g) + tuple(g) for g in gens]
    c = [-x for x in p] + list(p)
    y, _ = lp_maximize(c, A, [0] * len(gens), [1] * (2 * n))
    return dot(c, y) == 0
