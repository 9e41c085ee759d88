"""The Broadcast Congested Clique Laplacian solver (Theorem 1.3).

Preprocessing computes a ``(1 +/- 1/2)``-spectral sparsifier ``H`` of the input
graph with the Broadcast-CONGEST algorithm of Theorem 1.2; because every edge
of ``H`` was announced on the blackboard when it was added, after preprocessing
every vertex knows the whole sparsifier and can solve systems in ``L_H``
internally.  Each solve instance ``(b, eps)`` then runs the preconditioned
Chebyshev iteration of Corollary 2.4 with ``A = L_G``, ``B = (3/2) L_H`` and
``kappa = 3``; the only communication per iteration is one multiplication of
``L_G`` by a vector, costing ``O(log(nU/eps))`` bits per vertex.

With experiment knobs (``t_override`` / ``bundle_scale``) the window of ``H``
is *measured* instead of assumed; ``kappa`` is then ``hi / lo`` inflated by
:data:`KAPPA_MARGIN`, and the iteration runs for exactly
:func:`~repro.solvers.chebyshev.chebyshev_iteration_count` steps -- the
minimal degree that meets ``eps`` for that ``kappa``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.congest.ledger import CommunicationPrimitives, RoundLedger
from repro.graphs.graph import WeightedGraph
from repro.graphs.laplacian import laplacian_norm, spectral_approximation_factor
from repro.linalg.sparse_backend import (
    PENCIL_EIG_TOL_RELAXED,
    GroundedLaplacianSolver,
    RepairableGroundedSolver,
)
from repro.sparsify.spectral import SparsifierResult, spectral_sparsify
from repro.solvers.chebyshev import ChebyshevReport, preconditioned_chebyshev

#: Relative inflation of a *measured* ``kappa = hi / lo``.  The Chebyshev
#: iteration runs for the minimal degree that meets ``eps`` on ``[1/kappa, 1]``,
#: so an underestimated ``kappa`` would leave the spectrum's lower end outside
#: the interval the polynomial is small on.  Lanczos returns each extreme from
#: inside the spectrum, off by at most the tolerance ``eigsh`` was asked for --
#: :data:`~repro.linalg.sparse_backend.PENCIL_EIG_TOL_RELAXED` on its loosest
#: path -- so ``hi / lo`` can be short by a relative ``2 * tol`` and no more;
#: the margin is five times that.
KAPPA_MARGIN = 10 * PENCIL_EIG_TOL_RELAXED


@dataclass
class LaplacianSolveReport:
    """Result of one ``(b, eps)`` solve instance."""

    solution: np.ndarray
    eps: float
    rounds: float
    chebyshev: ChebyshevReport
    error_bound_holds: Optional[bool] = None
    measured_relative_error: Optional[float] = None


@dataclass
class PreprocessingReport:
    """Result of the preprocessing stage (Theorem 1.3's first phase)."""

    sparsifier: WeightedGraph
    rounds: float
    sparsifier_edges: int
    kappa: float


@dataclass
class SolverPreprocessing:
    """Reusable preprocessing artifact (the expensive half of Theorem 1.3).

    The paper's amortisation story is that one preprocessing pass -- the
    spectral sparsifier broadcast plus one grounded ``splu`` factorisation of
    its Laplacian -- pays for arbitrarily many cheap solve instances.  Build
    this once with :meth:`BCCLaplacianSolver.prepare`
    and hand it to any number of :class:`BCCLaplacianSolver` constructions
    over the same graph content via the ``preprocessing=`` keyword; the
    serving layer's :class:`repro.serve.artifacts.ArtifactCache` holds these
    per ``(graph, params)`` pair.

    A reused artifact charges zero preprocessing rounds to the ledger (the
    sparsifier is already on every vertex's blackboard).
    """

    n: int
    exact_preconditioner: bool
    sparsifier: WeightedGraph
    sparsifier_result: Optional[SparsifierResult]
    rounds: float
    kappa: float
    scale: float
    #: grounded ``splu`` factorisation of the sparsifier: ``B^+ = L_H^+ / scale``
    grounded: RepairableGroundedSolver
    #: measured ``(lo, hi)`` with ``lo L_H <= L_G <= hi L_H`` when ``kappa``
    #: was measured (``None`` under the paper's parameters); describes
    #: ``sparsifier_result`` and is cleared with it
    spectral_window: Optional[Tuple[float, float]] = None

    def nbytes(self) -> int:
        """Approximate resident size (for cache byte accounting)."""
        total = 0
        u, v, w = self.sparsifier.edge_array()
        # edge dict + adjacency sets dominate the graph itself; ~100 bytes
        # per edge is a measured CPython figure for small-int keyed dicts.
        total += 100 * self.sparsifier.m + u.nbytes + v.nbytes + w.nbytes
        return total + self.grounded.nbytes()

    def apply_insertion(self, u: int, v: int, delta_w: float) -> bool:
        """Repair the artifact for a weight *increase* of edge ``{u, v}``.

        If the input graph gained ``delta_w > 0`` of weight on ``{u, v}`` (a
        new edge, or an existing one reweighted upward), adding
        ``delta_w / scale`` to the sparsifier keeps the preconditioner
        invariant with the *same* ``kappa``: the preconditioner is
        ``B = scale * L_H``, so the repaired ``B' = B + delta_w chi chi^T``
        satisfies ``L_G' <= B'`` (the graph gained exactly ``delta_w chi``)
        and ``B' <= kappa L_G'`` (since ``kappa >= 1``).  The sparsifier's
        grounded factorisation absorbs the same update through
        :meth:`RepairableGroundedSolver.apply_update`.

        Returns ``False`` -- artifact unchanged, caller must rebuild -- for
        non-positive ``delta_w`` (a weight *decrease* or removal can push the
        sparsifier below the lower spectral bound) or when the grounded
        update itself refuses (cross-component edge, exhausted budget).  On
        success ``sparsifier_result`` and ``spectral_window`` are cleared: the
        construction transcript and its measured window no longer describe
        the repaired sparsifier, and consumers (the certify path) must not
        treat them as current.
        """
        if delta_w <= 0:
            return False
        weight = delta_w / self.scale
        if not self.grounded.apply_update(u, v, weight):
            return False
        existing = self.sparsifier.weight(u, v) if self.sparsifier.has_edge(u, v) else 0.0
        self.sparsifier.add_edge(u, v, existing + weight)
        self.sparsifier_result = None
        self.spectral_window = None
        return True

    def apply_delta(self, delta, *, graph, grounded, on_step) -> bool:
        """Absorb a whole mutation ``delta``; ``False`` = drop and rebuild.

        The repair protocol of
        :meth:`~repro.linalg.sparse_backend.RepairableGroundedSolver.apply_delta`.
        Weight increases only, one :meth:`apply_insertion` per record; a
        delta longer than the sparsifier factorisation's remaining update
        budget is refused before any work.  (``grounded`` is the *graph's*
        solver and is not used: the artifact owns the sparsifier's.)
        """
        if self.grounded.update_budget_remaining < len(delta):
            return False
        for step, record in enumerate(delta):
            on_step(step)
            if not self.apply_insertion(record.u, record.v, record.weight_delta):
                return False
        return True


class BCCLaplacianSolver:
    """High-precision Laplacian solver in the Broadcast Congested Clique.

    Parameters
    ----------
    graph:
        Connected weighted graph whose Laplacian systems are to be solved.
    seed:
        RNG seed for the sparsifier computation.
    t_override, bundle_scale:
        Experiment knobs forwarded to the sparsifier (defaults follow the paper).
    exact_preconditioner:
        If True, skip the sparsifier and precondition with ``L_G`` itself
        (kappa = 1).  Useful to isolate Chebyshev behaviour in tests/ablations.

    Notes
    -----
    ``L_G`` is held as the graph's CSR matrix and every solve in the
    preconditioner goes through one ``splu`` factorisation of the sparsifier's
    grounded Laplacian.  When ``t_override``/``bundle_scale`` deviate from the
    paper's parameters the constructor *measures* kappa via
    ``spectral_approximation_factor``; that measurement inverts ``L_H``
    through the preconditioner's own factorisation and ``L_G`` through the one
    :meth:`exact_solution` uses afterwards, so each matrix is factorised once.
    """

    #: quality of the preprocessing sparsifier, fixed to 1/2 as in Theorem 1.3
    SPARSIFIER_EPS = 0.5

    def __init__(
        self,
        graph: WeightedGraph,
        seed: Optional[int] = None,
        t_override: Optional[int] = None,
        bundle_scale: float = 1.0,
        exact_preconditioner: bool = False,
        ledger: Optional[RoundLedger] = None,
        preprocessing: Optional[SolverPreprocessing] = None,
    ):
        self.graph = graph
        if preprocessing is not None:
            # prepare() already verified connectivity for the graph content
            # this artifact was built from; the caller (e.g. the serving
            # layer's version-keyed cache) vouches that the content is
            # unchanged, so the O(n + m) BFS is not repeated on the warm path.
            if preprocessing.n != graph.n:
                raise ValueError(
                    f"preprocessing artifact was built for n={preprocessing.n}, "
                    f"graph has n={graph.n}"
                )
            # the artifact bakes in every preprocessing knob; accepting
            # conflicting arguments here would silently configure the solver
            # contrary to what the caller asked for
            if (
                seed is not None
                or t_override is not None
                or bundle_scale != 1.0
                or (exact_preconditioner and not preprocessing.exact_preconditioner)
            ):
                raise ValueError(
                    "seed/t_override/bundle_scale/exact_preconditioner are baked "
                    "into the preprocessing artifact; do not pass them together "
                    "with preprocessing="
                )
        elif not graph.is_connected():
            raise ValueError("the Laplacian solver requires a connected graph")
        self.ledger = ledger if ledger is not None else RoundLedger()
        self._L = graph.laplacian_csr()
        self._U = max(1.0, graph.max_weight())
        self._exact_solver: Optional[GroundedLaplacianSolver] = None
        self._comm = CommunicationPrimitives(
            graph.n, self.ledger, value_magnitude=self._U, precision=1e-12
        )

        reused = preprocessing is not None
        if preprocessing is None:
            preprocessing = self.prepare(
                graph,
                seed=seed,
                t_override=t_override,
                bundle_scale=bundle_scale,
                exact_preconditioner=exact_preconditioner,
                grounded=self._graph_solver,
            )
        self.prepared = preprocessing
        self._sparsifier_result = preprocessing.sparsifier_result
        # A reused artifact charges nothing: the sparsifier was broadcast when
        # it was first built, which is exactly the amortisation Theorem 1.3
        # promises across solve instances.
        self.ledger.charge(
            "sparsifier_preprocessing",
            0.0 if reused else preprocessing.rounds,
            "Theorem 1.2",
        )

        # B = scale * L_H; every vertex knows H, so solves in B are local.
        # _solve_B accepts an (n,) vector or an (n, k) block: the grounded
        # factorisation batches over columns, which is what makes solve_many
        # one block iteration instead of k runs.
        scale = preprocessing.scale
        grounded = preprocessing.grounded
        self._solve_B = lambda r: (
            grounded.solve_many(r) if r.ndim == 2 else grounded.solve(r)
        ) / scale
        if preprocessing.exact_preconditioner:
            # the sparsifier IS the graph here: reuse the factorisation
            # instead of running a second identical splu in exact_solution
            self._exact_solver = grounded
        self.preprocessing = PreprocessingReport(
            sparsifier=preprocessing.sparsifier,
            rounds=preprocessing.rounds,
            sparsifier_edges=preprocessing.sparsifier.m,
            kappa=preprocessing.kappa,
        )

    @classmethod
    def prepare(
        cls,
        graph: WeightedGraph,
        seed: Optional[int] = None,
        t_override: Optional[int] = None,
        bundle_scale: float = 1.0,
        exact_preconditioner: bool = False,
        grounded: Optional[Callable[[], GroundedLaplacianSolver]] = None,
    ) -> SolverPreprocessing:
        """Run the preprocessing phase once; return a reusable artifact.

        The artifact bundles the sparsifier, its measured (or theorem-given)
        ``kappa``/``scale``, and the preconditioner state (the sparsifier's
        grounded ``splu`` factorisation).  Passing it back via
        ``BCCLaplacianSolver(graph, preprocessing=artifact)`` skips the whole
        phase, which is what the serving layer's artifact cache amortises
        across queries.

        ``grounded()`` -- as in the artifacts' ``apply_delta`` protocol --
        returns the *graph's* grounded solver.  It is called only when kappa
        is measured, because the eigensolver needs ``L_G`` inverted; a caller
        that keeps that factorisation anyway (the solver for
        :meth:`exact_solution`, the serving layer as its ``grounded``
        artifact) hands it over instead of having it built and dropped here.
        The artifact never holds it.
        """
        if not graph.is_connected():
            raise ValueError("the Laplacian solver requires a connected graph")
        spectral_window: Optional[Tuple[float, float]] = None
        kappa: Optional[float] = None
        if exact_preconditioner:
            sparsifier_result: Optional[SparsifierResult] = None
            sparsifier = graph.copy()
            preprocessing_rounds = 0.0
            kappa = 1.0
            scale = 1.0
        else:
            sparsifier_result = spectral_sparsify(
                graph,
                eps=cls.SPARSIFIER_EPS,
                seed=seed,
                t_override=t_override,
                bundle_scale=bundle_scale,
            )
            sparsifier = sparsifier_result.sparsifier
            preprocessing_rounds = float(sparsifier_result.rounds)
            if t_override is None and bundle_scale == 1.0:
                # Paper parameters: H is a (1 +/- 1/2)-sparsifier whp, so
                # B = (3/2) L_H satisfies L_G <= B <= 3 L_G (Corollary 2.4).
                kappa = 3.0
                scale = 1.5

        # The Chebyshev residuals are consistent because the sparsifier of a
        # connected graph must be connected for the kappa guarantee to hold at
        # all.
        if not sparsifier.is_connected():
            raise ValueError(
                "the preconditioner requires a connected sparsifier "
                "(a disconnected one cannot precondition a connected graph)"
            )
        # One grounded splu factorisation of L_H, reused by every solve
        # (B^+ r = (1/scale) L_H^+ r) and by the kappa measurement below.
        # Repairable subclass: identical until the serving layer routes an
        # edge insertion through apply_insertion, which then absorbs the
        # mutation as a rank-1 update instead of a refactorisation.
        solver = RepairableGroundedSolver(sparsifier)
        if kappa is None:
            # Experiment knobs weaken the guarantee; measure the actual
            # approximation factor and scale the preconditioner accordingly.
            spectral_window = spectral_approximation_factor(
                graph,
                sparsifier,
                graph_solver=grounded() if grounded is not None else None,
                sparsifier_solver=solver,
            )
            lo, hi = spectral_window
            if lo <= 0 or not np.isfinite(hi):
                raise ValueError(
                    "sparsifier computed with overridden parameters does not "
                    "spectrally approximate the graph; increase t_override"
                )
            scale = hi
            kappa = max(1.0, hi / lo) * (1.0 + KAPPA_MARGIN)

        return SolverPreprocessing(
            n=graph.n,
            exact_preconditioner=exact_preconditioner,
            sparsifier=sparsifier,
            sparsifier_result=sparsifier_result,
            rounds=preprocessing_rounds,
            kappa=kappa,
            scale=scale,
            grounded=solver,
            spectral_window=spectral_window,
        )

    def nbytes(self) -> int:
        """Approximate resident size (cache accounting in the serving layer)."""
        total = self.prepared.nbytes()
        total += int(self._L.data.nbytes + self._L.indices.nbytes + self._L.indptr.nbytes)
        if self._exact_solver is not None and self._exact_solver is not self.prepared.grounded:
            total += self._exact_solver.nbytes()
        return total

    # -- theorem-level round bounds ------------------------------------------------

    def preprocessing_round_bound(self) -> float:
        """The ``O(log^5(n) log(nU))`` preprocessing bound of Theorem 1.3."""
        n = max(2, self.graph.n)
        return (math.log2(n) ** 5) * math.log2(n * self._U)

    def per_instance_round_bound(self, eps: float) -> float:
        """The ``O(log(1/eps) log(nU/eps))`` per-instance bound of Theorem 1.3."""
        n = max(2, self.graph.n)
        eps = min(0.5, max(1e-300, eps))
        return math.log2(1.0 / eps) * math.log2(n * self._U / eps)

    # -- solving -------------------------------------------------------------------

    def solve(self, b: np.ndarray, eps: float = 1e-6, check: bool = False) -> LaplacianSolveReport:
        """Solve ``L_G x = b`` up to ``||x - y||_{L_G} <= eps ||x||_{L_G}``.

        ``b`` is projected onto the range of ``L_G`` (i.e. made orthogonal to the
        all-ones vector), matching the theorem's promise that some ``x`` with
        ``L_G x = b`` exists.
        """
        if not (0 < eps <= 0.5):
            raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
        b = np.asarray(b, dtype=float)
        if b.shape != (self.graph.n,):
            raise ValueError(f"right-hand side must have shape ({self.graph.n},), got {b.shape}")
        b = b - np.mean(b)

        ledger_before = self.ledger.total_rounds
        comm = CommunicationPrimitives(
            self.graph.n, self.ledger, value_magnitude=self._U, precision=eps
        )

        def apply_A(v: np.ndarray) -> np.ndarray:
            # one multiplication of L_G by a distributed vector per call
            return comm.distributed_matvec(self._L, v, "L_G @ v")

        def solve_B(r: np.ndarray) -> np.ndarray:
            comm.local_computation("solve in L_H (sparsifier known to every vertex)")
            return self._solve_B(r)

        x, cheb_report = preconditioned_chebyshev(
            apply_A,
            solve_B,
            b,
            kappa=self.preprocessing.kappa,
            eps=eps,
        )
        for _ in range(cheb_report.iterations):
            comm.vector_op("Chebyshev vector updates")

        rounds = self.ledger.total_rounds - ledger_before
        report = LaplacianSolveReport(
            solution=x,
            eps=eps,
            rounds=rounds,
            chebyshev=cheb_report,
        )
        if check:
            exact = self.exact_solution(b)
            denom = laplacian_norm(self._L, exact)
            error = laplacian_norm(self._L, exact - x)
            report.measured_relative_error = error / max(denom, 1e-300)
            report.error_bound_holds = bool(report.measured_relative_error <= eps + 1e-9)
        return report

    def solve_many(
        self, rhs: List[np.ndarray], eps: float = 1e-6, check: bool = False
    ) -> List[LaplacianSolveReport]:
        """Solve several instances with ONE blocked Chebyshev iteration.

        The Chebyshev recurrence coefficients depend only on ``kappa``, never
        on the right-hand side, so all instances advance in lockstep on an
        ``(n, k)`` block: each step is one multiplication of ``L_G`` by the
        block (``k`` coordinate broadcasts are charged -- the same rounds per
        instance as ``k`` separate solves) and one preconditioner solve with
        ``k`` right-hand sides through the cached grounded factorisation
        (:meth:`GroundedLaplacianSolver.solve_many`).  This replaces the
        historical loop of full per-vector ``solve`` calls; at ``k = 32``
        right-hand sides the batched path is several times faster because the
        factorisation's triangular solves and the matvecs amortise across
        columns.

        Returns one report per instance; the instances share a single
        :class:`ChebyshevReport` (the block iteration is one run, its residual
        norms are Frobenius norms of the block) and each report's ``rounds``
        is the per-instance share of the batch cost.
        """
        if not (0 < eps <= 0.5):
            raise ValueError(f"eps must lie in (0, 1/2], got {eps}")
        if not rhs:
            return []
        n = self.graph.n
        block = np.column_stack([np.asarray(b, dtype=float) for b in rhs])
        if block.shape[0] != n:
            raise ValueError(
                f"right-hand sides must have shape ({n},), got {block.shape[0]} rows"
            )
        block = block - block.mean(axis=0)
        k = block.shape[1]

        ledger_before = self.ledger.total_rounds
        comm = CommunicationPrimitives(
            n, self.ledger, value_magnitude=self._U, precision=eps
        )

        def apply_A(V: np.ndarray) -> np.ndarray:
            # one L_G multiplication per distributed vector in the block
            for _ in range(k):
                comm.matvec("L_G @ v (batched)")
            return self._L @ V

        def solve_B(R: np.ndarray) -> np.ndarray:
            comm.local_computation("solve in L_H (sparsifier known to every vertex)")
            return self._solve_B(R)

        X, cheb_report = preconditioned_chebyshev(
            apply_A,
            solve_B,
            block,
            kappa=self.preprocessing.kappa,
            eps=eps,
        )
        for _ in range(cheb_report.iterations):
            comm.vector_op("Chebyshev vector updates (batched)")

        rounds_per_instance = (self.ledger.total_rounds - ledger_before) / k
        exact = self.exact_solution_many(block) if check else None
        reports = []
        for j in range(k):
            report = LaplacianSolveReport(
                solution=X[:, j],
                eps=eps,
                rounds=rounds_per_instance,
                chebyshev=cheb_report,
            )
            if check:
                denom = laplacian_norm(self._L, exact[:, j])
                error = laplacian_norm(self._L, exact[:, j] - X[:, j])
                report.measured_relative_error = error / max(denom, 1e-300)
                report.error_bound_holds = bool(
                    report.measured_relative_error <= eps + 1e-9
                )
            reports.append(report)
        return reports

    # -- exact reference -------------------------------------------------------------

    def _graph_solver(self) -> GroundedLaplacianSolver:
        """The one grounded factorisation of ``L_G`` this solver ever builds.

        Built on first use: by :meth:`prepare` when kappa is measured, by the
        exact reference otherwise.
        """
        if self._exact_solver is None:
            self._exact_solver = GroundedLaplacianSolver(self.graph)
        return self._exact_solver

    def exact_solution(self, b: np.ndarray) -> np.ndarray:
        """Minimum-norm exact solution of ``L_G x = b``.

        One cached grounded ``splu`` factorisation of ``L_G`` (the graph is
        connected, so the re-centred grounded solution *is* the minimum-norm
        solution).
        """
        b = np.asarray(b, dtype=float)
        return self._graph_solver().solve(b - np.mean(b))

    def exact_solution_many(self, B: np.ndarray) -> np.ndarray:
        """Column-wise :meth:`exact_solution` for a dense ``(n, k)`` block."""
        B = np.asarray(B, dtype=float)
        return self._graph_solver().solve_many(B - B.mean(axis=0))
