"""Exact-arithmetic calculators for effective positivity bounds.

Submodules:

- ``core``: rationals, certified brackets, rational powers.
- ``projective``: intersection numbers on products of projective spaces.
- ``multiplier``: monomial and normal-crossing multiplier ideals.
- ``lelong``: Lelong numbers, certified curve densities, Seshadri thresholds.
- ``numpoly``: numerical polynomials and window searches.
- ``convexity``: mixed-product inequalities and Morse-type counting.
- ``adjoint``: jet-generation thresholds and surface criteria.
- ``jumping``: the sigma sequence and jumping-value criteria.
- ``matsusaka``: effective very-ampleness multiples.
- ``cli``: the ``posbounds`` command line tool.
"""

__version__ = "0.1.0"
