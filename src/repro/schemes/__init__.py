"""Baseline memory-organization schemes the paper positions itself against.

All schemes implement the :class:`~repro.schemes.base.MemoryScheme`
interface (placement of copies + read/write quorums) and are driven by
the same MPC protocol engine (:mod:`repro.core.protocol`), so measured
access times are directly comparable:

* :mod:`repro.schemes.single_copy` -- one copy per variable (hashing);
  the granularity-problem strawman with Theta(N) adversarial time;
* :mod:`repro.schemes.mehlhorn_vishkin` -- [MV84]: c copies, reads
  touch any 1 copy (O(c N^{1-1/c})), writes touch all c (Theta(cN)
  adversarial);
* :mod:`repro.schemes.upfal_wigderson` -- [UW87]: 2c-1 copies placed by
  a seeded random graph, majority-c reads *and* writes (the paper's PP
  scheme keeps this protocol but replaces the random graph with the
  constructive PGL2 graph);
* :mod:`repro.schemes.pp_adapter` -- the paper's :class:`PPScheme`
  (itself a :class:`MemoryScheme`) under the harness/benchmark name
  :class:`PPAdapter`.
"""

from __future__ import annotations

from repro.schemes.base import MemoryScheme, KeyedCopyStore
from repro.schemes.single_copy import SingleCopyScheme
from repro.schemes.mehlhorn_vishkin import MehlhornVishkinScheme
from repro.schemes.upfal_wigderson import UpfalWigdersonScheme
from repro.schemes.grid import GridScheme

__all__ = [
    "MemoryScheme",
    "KeyedCopyStore",
    "SingleCopyScheme",
    "MehlhornVishkinScheme",
    "UpfalWigdersonScheme",
    "PPAdapter",
    "GridScheme",
]


def __getattr__(name: str) -> type:
    # PPAdapter -> repro.core.scheme -> repro.schemes.base: resolved on
    # first use so that either package can be imported first.
    if name == "PPAdapter":
        from repro.schemes.pp_adapter import PPAdapter

        return PPAdapter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
