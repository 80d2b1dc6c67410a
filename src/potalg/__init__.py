"""Exact workbench for two-generator potential algebras and finite braces.

Core layers: exact fields, noncommutative polynomials with caps, potentials
and their cyclic calculus, truncated completion with an independent
dimension oracle, quotient-algebra data, potential canonicalization,
isomorphism testing, and finite brace/truss structure checks.
"""

from .fields import QQ, GF, FieldError, PrimeField, Rationals, ResourceCapError
from .freepoly import (FreePoly, Substitution, abelianize_cubic, poly_mul,
                       substitute)
from .parsing import ParseError, parse_poly, render
from .potential import (cyclic_symmetrize, cyclicize, derive_ginzburg,
                        derive_simple, is_cyclically_invariant,
                        relations_of)
from .rewrite import (Ambiguity, RewriteSystem, complete, normal_form,
                      oracle_dimension, verify_complete)
from .quotient import QuotientAlgebra, hilbert
from .words import MonomialOrder

__version__ = "0.1.0"
