"""Exact-arithmetic toolkit for 2-term representations up to homotopy,
weak representations, and VB-groupoids over finite groupoids.

Everything is computed over the rationals with zero tolerance: validators
return located counterexamples, constructions are deterministic, and all
the category equivalences between the three models are executable with
verified isomorphism witnesses.

The package exports nothing itself: import each name from its module
(``ruthvb.linalg``, ``ruthvb.vb``, ``ruthvb.weak``, ...).
"""

__version__ = "0.1.0"
