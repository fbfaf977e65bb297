"""cuspk: exact verification toolkit for two-generator semigroup invariants.

Submodules
----------
semigroup    counting and truncation sets for <a, b>
wittlab      big Witt vectors over F_p and over Z via ghost coordinates
homlinalg    exact integer linear algebra: Smith form, homology, cones
exactlp      exact simplex LP on a fraction-free tableau, with certificates
cyclicbar    cyclic bar complexes and the small de Rham-style models
simplicialx  the gap-complex on cyclic groups and its quotient homology
polytopelab  stunted cyclic polytopes and certified convexity checks
cli          batch verification entry point
"""

from cuspk.semigroup import Params

__all__ = ["Params"]
__version__ = "0.1.0"
