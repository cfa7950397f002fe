"""Wall calculus: circuit relations, convexity defects, contraction types.

Across a wall the n+1 rays of the two adjacent simplicial cones satisfy a
unique primitive integer relation sum a_i v_i = 0, normalized so both apex
coefficients are positive, and read off one cone's adjugate, which a fan
state keeps for each current cone.  The sign of sum a_i h(v_i) for a
height function h is the sign of the intersection number of the
corresponding divisor with the wall curve, which is all the MMP consumes.

This module is the relation algebra only.  Which walls a fan has, and the
relation across each, computed once per pair of cones and kept while both
live, are answered by its local state (fan._Subdivision.relation,
.relations and the scored table of .score_walls), where every surgery
happens.
"""

from bisect import bisect
from math import gcd
from typing import NamedTuple

from .errors import EngineInvariantError, InvalidInputError, _exact_rationals
from .lattice import adjugate, vec_mat


class WallRelation(NamedTuple):
    ray_indices: tuple   # the n+1 circuit rays, ascending fan indices
    coeffs: tuple        # primitive integers, aligned with ray_indices
    s_plus: tuple        # fan indices with positive coefficient
    s_zero: tuple
    s_minus: tuple


class ContractionType(NamedTuple):
    kind: str            # "fiber" | "divisorial" | "flipping"
    ray: int | None      # the contracted ray for divisorial walls


def wall_relation(fan, wall):
    """The normalized circuit relation across a wall of the fan; any other Wall is bad input."""
    shared, a, b = wall.shared, wall.apex_a, wall.apex_b
    if a == b or a in shared or b in shared or any(
            tuple(sorted(shared + (x,))) not in fan.max_cones for x in (a, b)):
        raise InvalidInputError(f"{wall} is not a wall of the fan")
    cone_a = tuple(sorted(shared + (a,)))
    return _relation(fan.rays, cone_a, a, b, adjugate(fan.ray_matrix(cone_a)))


def _relation(rays, cone_a, apex_a, apex_b, kernel):
    """The relation across the wall of the sorted cone_a and apex_b, over
    kernel = (adj, d), C.adj = d.I for cone a: num = apex_b.adj gives the
    relation sum num_i v_i - d apex_b = 0 over cone a's rays v_i, divided by
    the gcd of all n+1 coefficients, signed so that apex_a's is positive,
    and apex_b merged into cone a's rays."""
    adj, d = kernel
    if adj is None:
        raise InvalidInputError("degenerate wall: the rays of cone a do not span")
    num = vec_mat(rays[apex_b], adj)
    lead = num[cone_a.index(apex_a)]
    if lead == 0:
        raise EngineInvariantError("apex ray with zero circuit coefficient")
    g = gcd(d, *num) if lead > 0 else -gcd(d, *num)
    if -d // g <= 0:
        raise EngineInvariantError("apex coefficients of opposite sign")
    k = bisect(cone_a, apex_b)
    circuit = cone_a[:k] + (apex_b,) + cone_a[k:]
    coeffs = [x // g for x in num]
    coeffs.insert(k, -d // g)
    s_plus, s_zero, s_minus = [], [], []
    for i, a in zip(circuit, coeffs):
        (s_plus if a > 0 else s_minus if a < 0 else s_zero).append(i)
    return WallRelation(circuit, tuple(coeffs), tuple(s_plus), tuple(s_zero), tuple(s_minus))


def defect(relation, heights):
    """Convexity defect sum a_i h(v_i); positive iff the height function is
    strictly convex across the wall.  heights is indexed by fan ray index."""
    heights = _exact_rationals(heights, "heights must be exact rationals, not bool or float")
    if len(heights) <= relation.ray_indices[-1]:
        raise InvalidInputError("too few heights for the relation's rays")
    return _defect(relation, heights)


def _defect(relation, heights):  # unchecked, for the engine loops' own heights
    return sum([a * heights[i] for i, a in zip(relation.ray_indices, relation.coeffs)])


def classify(relation):
    if not relation.s_minus:
        return ContractionType("fiber", None)
    if len(relation.s_minus) == 1:
        return ContractionType("divisorial", relation.s_minus[0])
    return ContractionType("flipping", None)
