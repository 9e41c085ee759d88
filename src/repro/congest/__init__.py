"""Round accounting in the Broadcast Congested Clique (Section 2.1).

One ledger serves every layer: a :class:`~repro.congest.ledger.RoundLedger`
and the :class:`~repro.congest.ledger.CommunicationPrimitives` that charge it,
with round costs following the paper's lemmas.  The algebraic algorithms
(Laplacian solver, LP solver, flow) charge through these primitives; the
spanner (:mod:`repro.spanners.probabilistic`) charges Lemma 3.2's
Broadcast-CONGEST rounds per step itself, and those charges are checked
against a broadcast replay of its transcript in
``tests/spanners/test_broadcast_reconstruction.py``
(``docs/substitutions.md``, 7).
"""

from repro.congest.ledger import CommunicationPrimitives, RoundLedger

__all__ = [
    "RoundLedger",
    "CommunicationPrimitives",
]
