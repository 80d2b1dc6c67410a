"""Exact workbench for two-generator potential algebras and finite braces.

Core layers: exact fields, noncommutative polynomials with caps, potentials
and their cyclic calculus, truncated completion with an independent
dimension oracle, quotient-algebra data, potential canonicalization,
isomorphism testing, and finite brace/truss structure checks.
"""

__version__ = "0.1.0"
