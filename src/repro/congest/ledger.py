"""Round-cost accounting for the algebraic layers of the paper.

The Laplacian solver, the Lee-Sidford LP solver and the flow pipeline are
analysed in the paper through a small set of communication primitives whose
costs are stated in the respective lemmas (e.g. "broadcasting the vector values
needs ``O(log(nU/eps))`` bits, hence ``O(log(nU/eps)/log n)`` rounds", Theorem
1.3).  :class:`CommunicationPrimitives` implements exactly those primitives:
each call records its round cost (in BCC rounds) into a :class:`RoundLedger`
and performs the corresponding numerical operation with numpy.

This mirrors how the paper itself reasons about these algorithms -- it never
serialises the IPM state into log-n-bit words either -- while keeping the round
accounting faithful to the stated complexities.  The spanner does *not* use
this layer: :class:`repro.spanners.probabilistic.ProbabilisticSpanner` charges
its Broadcast-CONGEST rounds per step (``SpannerResult.charges``), and a test
replays its broadcast transcript under the model's rules to check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class LedgerEntry:
    """One charged operation."""

    operation: str
    rounds: float
    detail: str = ""


@dataclass
class RoundLedger:
    """Accumulates BCC round charges of the algebraic pipeline."""

    entries: List[LedgerEntry] = field(default_factory=list)
    #: running sum of every charge -- total_rounds is read once per
    #: weight/leverage computation (hundreds of thousands of times in one
    #: LP solve), so it must not rescan the entry list
    _total: float = field(default=0.0, repr=False)

    def charge(self, operation: str, rounds: float, detail: str = "") -> float:
        """Record ``rounds`` rounds for ``operation`` and return the charge."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds ({rounds}) for {operation}")
        self.entries.append(LedgerEntry(operation=operation, rounds=float(rounds), detail=detail))
        self._total += float(rounds)
        return float(rounds)

    @property
    def total_rounds(self) -> float:
        """Total rounds charged so far."""
        return self._total

    def rounds_by_operation(self) -> Dict[str, float]:
        """Total rounds grouped by operation name."""
        grouped: Dict[str, float] = {}
        for entry in self.entries:
            grouped[entry.operation] = grouped.get(entry.operation, 0.0) + entry.rounds
        return grouped

    def reset(self) -> None:
        self.entries.clear()
        self._total = 0.0

    def merge(self, other: "RoundLedger") -> None:
        """Absorb all entries of ``other``."""
        self.entries.extend(other.entries)
        self._total += other._total


def _bits_for_value_range(n: int, magnitude: float, eps: float) -> int:
    """Bits needed to represent values of size poly(n) * magnitude / eps.

    This is the ``O(log(nU/eps))`` quantity appearing throughout Sections 3-5.
    """
    n = max(2, int(n))
    magnitude = max(1.0, float(abs(magnitude)))
    eps = min(0.5, max(1e-300, float(eps)))
    return max(1, math.ceil(math.log2(n) + math.log2(magnitude) + math.log2(1.0 / eps)))


class CommunicationPrimitives:
    """BCC communication primitives with paper-faithful round charges.

    Parameters
    ----------
    n:
        Number of vertices of the BCC network.
    ledger:
        Ledger to which round charges are appended.  A fresh one is created if
        omitted.
    value_magnitude:
        Bound ``U`` on the magnitude of transmitted values (weights, costs).
    precision:
        Working precision ``eps`` used to size fixed-point encodings.
    """

    def __init__(
        self,
        n: int,
        ledger: Optional[RoundLedger] = None,
        value_magnitude: float = 1.0,
        precision: float = 1e-9,
    ):
        if n < 1:
            raise ValueError(f"network size must be positive, got {n}")
        self.n = int(n)
        self.ledger = ledger if ledger is not None else RoundLedger()
        self.value_magnitude = float(value_magnitude)
        self.precision = float(precision)

    # -- helpers -------------------------------------------------------------

    @property
    def word_bits(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.n))))

    def _words_per_value(self) -> int:
        bits = _bits_for_value_range(self.n, self.value_magnitude, self.precision)
        return max(1, math.ceil(bits / self.word_bits))

    # -- primitives ----------------------------------------------------------

    def broadcast_scalar(self, detail: str = "") -> float:
        """One vertex writes one value to the blackboard: O(log(nU/eps)) bits."""
        return self.ledger.charge("broadcast_scalar", self._words_per_value(), detail)

    def broadcast_vector_coordinatewise(self, length: int, detail: str = "") -> float:
        """Every vertex broadcasts its own coordinate(s) of a length-``length`` vector.

        In the BCC a vector distributed with one coordinate per vertex is made
        global knowledge in one round per word; when ``length > n`` (edge-indexed
        vectors) each vertex owns ``ceil(length/n)`` coordinates and the cost
        scales accordingly.
        """
        per_vertex = max(1, math.ceil(length / self.n))
        rounds = per_vertex * self._words_per_value()
        return self.ledger.charge("broadcast_vector", rounds, detail)

    def matvec(self, detail: str = "") -> float:
        """Multiply a locally-known-rows matrix by a distributed vector.

        Each vertex needs the vector values of its neighbours, i.e. one
        coordinate-wise broadcast: O(log(nU/eps)) bits -> O(log(nU/eps)/log n)
        rounds (Theorem 1.3's accounting).
        """
        return self.ledger.charge("matvec", self._words_per_value(), detail)

    def vector_op(self, detail: str = "") -> float:
        """Local vector operation (addition, scaling): zero communication."""
        return self.ledger.charge("vector_op", 0.0, detail)

    def global_sum(self, detail: str = "") -> float:
        """All vertices learn the sum of locally-held values: one broadcast each."""
        return self.ledger.charge("global_sum", self._words_per_value(), detail)

    def leader_election(self, detail: str = "") -> float:
        """Highest-ID leader election: one round of ID broadcasts."""
        return self.ledger.charge("leader_election", 1, detail)

    def broadcast_random_bits(self, bits: int, detail: str = "") -> float:
        """The leader broadcasts ``bits`` shared random bits (Theorem 4.4 usage)."""
        rounds = max(1, math.ceil(bits / self.word_bits))
        return self.ledger.charge("broadcast_random_bits", rounds, detail)

    def local_computation(self, detail: str = "") -> float:
        """Unlimited local computation: free, recorded for traceability."""
        return self.ledger.charge("local_computation", 0.0, detail)

    def laplacian_solve(self, rounds: float, detail: str = "") -> float:
        """Charge the round cost of one (preconditioned) Laplacian solve."""
        return self.ledger.charge("laplacian_solve", rounds, detail)

    # -- numerical convenience wrappers ---------------------------------------

    def distributed_matvec(self, matrix, vector: np.ndarray, detail: str = "") -> np.ndarray:
        """Compute ``matrix @ vector`` while charging one matvec primitive.

        ``matrix`` may be a dense ndarray or a scipy sparse matrix; the round
        charge is identical (each vertex broadcasts one coordinate either way).
        """
        self.matvec(detail)
        return matrix @ np.asarray(vector)

    def distributed_sum(self, values: np.ndarray, detail: str = "") -> float:
        """Sum locally-held values while charging one global_sum primitive."""
        self.global_sum(detail)
        return float(np.sum(values))
