"""Cyclic surface quotients: continued-fraction chains and boundary restriction.

The resolution of (1/r)(1, a) is computed from the Hirzebruch-Jung
continued fraction of r/a; the chain of numbers -b_i records the
exceptional curves.  The same fans fall out of the general quotient pipeline, which
knows nothing about continued fractions.
"""

from toricmmp import (
    boundary_divisor_pair,
    fans_equal,
    hj_resolution,
    make_group,
    mckay_pipeline,
    quotient_pair,
)

print("chains of (1/r)(1, a):")
for r, a in [(2, 1), (3, 1), (5, 2), (7, 3), (12, 5), (30, 11)]:
    fan, chain = hj_resolution(r, a)
    rep = mckay_pipeline(make_group(2, [(r, (1, a))]))
    agree = fans_equal(fan, rep.resolution.fan)
    print(f"  (1/{r})({1}, {a}): chain {' '.join(str(b) for b in chain)}"
          f"   pipeline agrees: {agree}")

# Restricting a local model to one of its boundary divisors folds the
# transverse imprimitivity into the divisor coefficients.
print("\nboundary restriction of the (1/4)(1, 2) quotient:")
X = quotient_pair(make_group(2, [(4, (1, 2))]))
print("  quotient coefficients:", X.coeffs)
for k in range(2):
    D = boundary_divisor_pair(X, k)
    print(f"  divisor of ray {list(X.fan.rays[k])}:"
          f" coefficients {D.coeffs}")
