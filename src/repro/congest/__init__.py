"""Synchronous message-passing model simulators.

This subpackage implements the four models of Section 2.1 of the paper:

* :class:`~repro.congest.models.CongestModel` -- the CONGEST model: per-round,
  per-edge messages of ``O(log n)`` bits, communication only along graph edges.
* :class:`~repro.congest.models.BroadcastCongestModel` -- the Broadcast CONGEST
  model: same bandwidth, but every vertex must send the *same* message to all of
  its neighbours in a round.
* :class:`~repro.congest.models.CongestedCliqueModel` -- the Congested Clique:
  all-to-all communication with per-pair ``O(log n)``-bit messages.
* :class:`~repro.congest.models.BroadcastCongestedCliqueModel` -- the Broadcast
  Congested Clique (BCC): one ``O(log n)``-bit message per vertex per round,
  delivered to everyone (the "shared blackboard" view).

Two layers of fidelity are provided (``docs/substitutions.md``, 7):

* a genuine per-vertex simulation (:class:`~repro.congest.network.Network` plus
  :class:`~repro.congest.vertex.VertexAlgorithm`) used by the combinatorial
  algorithms (spanners, sparsifiers), and
* a :class:`~repro.congest.ledger.RoundLedger` cost-accounting layer with
  communication primitives whose round costs follow the paper's lemmas, used by
  the algebraic algorithms (Laplacian solver, LP solver, flow).
"""

from repro.congest.messages import Message, message_size_bits, word_size_bits
from repro.congest.models import (
    BroadcastCongestedCliqueModel,
    BroadcastCongestModel,
    CongestedCliqueModel,
    CongestModel,
    Model,
)
from repro.congest.network import Network, NetworkMetrics
from repro.congest.vertex import VertexAlgorithm, VertexContext
from repro.congest.ledger import CommunicationPrimitives, RoundLedger

__all__ = [
    "Message",
    "message_size_bits",
    "word_size_bits",
    "Model",
    "CongestModel",
    "BroadcastCongestModel",
    "CongestedCliqueModel",
    "BroadcastCongestedCliqueModel",
    "Network",
    "NetworkMetrics",
    "VertexAlgorithm",
    "VertexContext",
    "RoundLedger",
    "CommunicationPrimitives",
]
