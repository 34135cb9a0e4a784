"""The paper's scheme under the name the comparison harness and the
benchmark use.

:class:`~repro.core.scheme.PPScheme` is itself a
:class:`~repro.schemes.base.MemoryScheme`; :class:`PPAdapter` adds
nothing but its own binding of the two placement hooks.
"""

from __future__ import annotations

from repro.core.scheme import PPScheme

__all__ = ["PPAdapter"]


class PPAdapter(PPScheme):
    """:class:`PPScheme` under its comparison-harness name."""

    # Bound here, not only inherited: perfbench/layers.py patches these
    # two through ``vars(PPAdapter)`` and reports them as
    # ``PPAdapter.placement`` / ``PPAdapter.slots``.
    placement = PPScheme.placement
    slots = PPScheme.slots
