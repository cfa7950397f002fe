"""Wall calculus: circuit relations, convexity defects, contraction types.

Across a wall the n+1 rays of the two adjacent simplicial cones satisfy a
unique primitive integer relation sum a_i v_i = 0, normalized so both apex
coefficients are positive.  The sign of sum a_i h(v_i) for a height
function h is the sign of the intersection number of the corresponding
divisor with the wall curve, which is all the MMP ever consumes.
"""

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import EngineInvariantError, InvalidInputError
from .fan import walls
from .lattice import cofactor_kernel


class WallRelation(NamedTuple):
    ray_indices: tuple   # the n+1 circuit rays, ascending fan indices
    coeffs: tuple        # primitive integers, aligned with ray_indices
    s_plus: tuple        # fan indices with positive coefficient
    s_zero: tuple
    s_minus: tuple


class ContractionType(NamedTuple):
    kind: str            # "fiber" | "divisorial" | "flipping"
    ray: int | None      # the contracted ray for divisorial walls


@lru_cache(maxsize=1 << 13)
def _circuit_coeffs(vectors, apex_positions):
    """Primitive kernel coefficients of the (n+1) x n matrix of circuit rays,
    signed so the apex positions carry positive entries.  The signed maximal
    minors are the cofactor kernel of the transposed matrix."""
    raw = cofactor_kernel(tuple(zip(*vectors)))
    g = gcd(*raw)
    if g == 0:
        raise InvalidInputError("degenerate wall: circuit rays do not span")
    coeffs = tuple(x // g for x in raw)
    pa, pb = apex_positions
    if coeffs[pa] == 0 or coeffs[pb] == 0:
        raise EngineInvariantError("apex ray with zero circuit coefficient")
    if coeffs[pa] < 0:
        coeffs = tuple(-x for x in coeffs)
    if coeffs[pb] <= 0:
        raise EngineInvariantError("apex coefficients of opposite sign")
    return coeffs


def wall_relation(fan, wall):
    """The normalized circuit relation across a wall of the fan."""
    return _relation(fan.rays, wall.shared, wall.apex_a, wall.apex_b)


def _relation(rays, shared, apex_a, apex_b):
    """wall_relation of the wall with these shared rays and apexes."""
    circuit = tuple(sorted(shared + (apex_a, apex_b)))
    vectors = tuple(rays[i] for i in circuit)
    positions = (circuit.index(apex_a), circuit.index(apex_b))
    coeffs = _circuit_coeffs(vectors, positions)
    return WallRelation(
        ray_indices=circuit,
        coeffs=coeffs,
        s_plus=tuple(i for i, a in zip(circuit, coeffs) if a > 0),
        s_zero=tuple(i for i, a in zip(circuit, coeffs) if a == 0),
        s_minus=tuple(i for i, a in zip(circuit, coeffs) if a < 0),
    )


def _relations(fan):
    """(wall, its relation) for every wall of the fan, in walls() order.
    Lazy, so a caller that stops early computes no further relations."""
    return ((w, wall_relation(fan, w)) for w in walls(fan))


def defect(relation, heights):
    """Convexity defect sum a_i h(v_i); positive iff the height function is
    strictly convex across the wall.  heights is indexed by fan ray index."""
    return sum(a * heights[i] for i, a in zip(relation.ray_indices, relation.coeffs))


def classify(relation):
    if not relation.s_minus:
        return ContractionType("fiber", None)
    if len(relation.s_minus) == 1:
        return ContractionType("divisorial", relation.s_minus[0])
    return ContractionType("flipping", None)
