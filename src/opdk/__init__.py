"""Exact-arithmetic constructions for simplicial modules, connective chain
complexes, colored operads and the normalization comparison maps between them.

Everything here computes over Z, Q or Z/p with no floats anywhere: answers
are ranks, invariant factors, explicit matrices and yes/no verdicts.

Each module's ``__all__`` is its public surface, and ``__all__`` here lists
the modules.  ``opdk._kernel`` is not one of them: no module of the package
calls it, and it remains only because the benchmark harness imports it and
traces its functions.
"""

__all__ = ["rings", "permutations", "exactlin", "chain", "simp", "doldkan",
           "operad", "trees", "corpus"]
__version__ = "0.1.0"
