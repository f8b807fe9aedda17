"""Exact-arithmetic star-complement search and verification for graphs.

The central question: given a graph H and a scalar mu outside its spectrum,
which graphs G contain H as a star complement for mu, i.e. admit a vertex
set X with G - X = H and mu an eigenvalue of G of multiplicity |X|?  The
package enumerates the candidate H-neighbourhoods, searches compatible
families (optionally under a regularity constraint), and certifies every
result with three independent exact checks.  Complete bipartite complements
K_{t,s} get closed-form candidate equations, pair-relation tables, the
G(r) constructions and the associated feasibility analysis.

No floating point anywhere: scalars live in Q or a real quadratic field
Q(sqrt(d)), and linear algebra is fraction-free over the integers.

The package root exports only `catalog_entry` and `__version__`; the rest
is imported from the submodules (`starcomp.engine`, `starcomp.kts`, ...).
"""

from .catalog import catalog_entry

__version__ = "0.1.0"
