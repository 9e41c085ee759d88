"""Round accounting in the Broadcast Congested Clique (Section 2.1).

One ledger serves every layer: a :class:`~repro.congest.ledger.RoundLedger`
and the :class:`~repro.congest.ledger.CommunicationPrimitives` that charge it,
with round costs following the paper's lemmas.  The spanner
(:mod:`repro.spanners.probabilistic`) charges Lemma 3.2's Broadcast-CONGEST
rounds as one entry per step, checked against a broadcast replay in
``tests/spanners/test_broadcast_reconstruction.py`` (``docs/substitutions.md``,
7); the bundle, the sparsifier and the solver merge those entries into their
own ledgers.  The algebraic algorithms (Laplacian solver, LP solver, flow)
charge through the primitives.
"""

from repro.congest.ledger import CommunicationPrimitives, RoundLedger

__all__ = [
    "RoundLedger",
    "CommunicationPrimitives",
]
