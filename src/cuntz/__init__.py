"""Exact-arithmetic calculator for Cuntz-type invariants of catalog algebras.

Import from the submodules; the package root exports nothing else.
Exact carriers: ``cuntz.extnat`` (extended naturals), ``cuntz.supernatural``
and ``cuntz.multiplicity``, with the fragment checks of ``cuntz.waxioms``.
Order-zero laboratory: ``cuntz.orderzero``, the only module that loads numpy.
Rewrite engine: ``cuntz.algebra`` (expressions) and ``cuntz.catalog``
(W(A, B), WW(A, B) and classification). Command line: ``cuntz.cli``.
"""

__version__ = "0.1.0"
