"""The sampling outcome is recoverable from the broadcasts alone (Section 3.1).

A vertex never tells its neighbours which coins failed.  It broadcasts the
accepted connection ``(u, w)`` -- or bottom -- per ``Connect`` call, and every
receiver works the rest out by three rules:

1. accepted ``(u, w)``: the edge ``{sender, u}`` exists (``F+``);
2. every still-undeleted edge from the sender into the addressed cluster(s)
   that precedes ``(w, u)`` in scan order was tried first and failed (``F-``);
3. bottom: all of them failed.

These tests replay a run's transcript in order against nothing but the input
graph and the per-phase clusterings, rebuild ``F+`` / ``F-`` by those rules,
and demand the executor's own bookkeeping.  The transcript, the clusterings
and the per-step charges come from the per-vertex reference executor
(``reference_executor.py``), the one that records them;
``test_executor_equivalence.py`` pins the array executor's decisions and
ledger entries to it step by step, so what is replayed here is what
``repro.spanners.probabilistic`` charges.  The addressed clusters of a step-2
broadcast are the marked ones, which a receiver knows as the clusters that
are still there in the next phase; step 3 only scans below the threshold the
sender's own step-2 broadcast of that phase announced.

The same transcript is then sent again under the rules of Broadcast CONGEST
(Section 2.1), the model Lemma 3.2 charges in, and the rounds it takes are
held against the executor's per-step charges:

* every vertex sends one word of ``ceil(log2 n)`` bits per round, heard by
  all its neighbours, so a step lasts as many rounds as the most words one
  vertex has to send in it;
* an accepted edge is sent as the neighbour's identifier (one word) and its
  weight ``w`` in ``[1, W]`` as ``w - 1`` in a fixed ``ceil(log2 W)``-bit
  field; a bottom is one word;
* each phase's marking is flooded down the cluster trees (the step-2 edges a
  vertex joined its cluster by): centres speak first, then every vertex the
  round after it heard, until the deepest member has told its neighbours.

A charge may never be below the replay.  It equals it on every step where a
vertex with the most broadcasts accepted an edge with each of them, except at
``W = 1``: there the weight needs no bit but is charged a word, so every such
step costs exactly twice the replay.  The over-charges on the other steps -- a bottom charged as
a full broadcast, the ``k - 1`` rounds charged for a shallower flood -- are
measured in ``docs/substitutions.md`` (section 7).
"""

import math
from collections import Counter, defaultdict
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from reference_executor import BroadcastRecord, ReferenceProbabilisticSpanner

from repro.graphs import generators
from repro.graphs.graph import EdgeView, canonical_edge
from repro.spanners.bundle import bundle_spanner
from repro.spanners.probabilistic import ProbabilisticSpanner

NO_LIMIT = (math.inf, math.inf)


def replay(view: EdgeView, result):
    """Rebuild ``(F+, F-)`` from ``result.broadcasts`` by the receiver rules."""
    neighbours = {v: [] for v in range(view.n)}
    for i in view.alive_indices().tolist():
        a, b = view.edge_key(i)
        neighbours[a].append((float(view.w[i]), b))
        neighbours[b].append((float(view.w[i]), a))
    clusterings = result.clusters_per_phase
    f_plus, f_minus = set(), set()
    announced = {}  # (phase, sender) -> the (W_v, u) of its step-2 broadcast

    for record in result.broadcasts:
        sender, clustering = record.sender, clusterings[record.phase]
        connection = NO_LIMIT if record.accepted is None else (record.weight, record.accepted)
        limit = NO_LIMIT
        if record.step == "step2":
            addressed = set(clusterings[record.phase + 1].values())
            announced[(record.phase, sender)] = connection
        else:
            addressed = {record.target_cluster}
            if record.step.startswith("step3"):
                limit = announced[(record.phase, sender)]
        scanned = [
            (w, u)
            for w, u in neighbours[sender]
            if clustering.get(u) in addressed
            and (w, u) < limit
            and canonical_edge(sender, u) not in f_minus
        ]
        if record.accepted is not None:
            assert connection in scanned, "accepted a neighbour the receivers cannot place"
            assert clustering[record.accepted] == record.target_cluster
            if record.step == "step2":  # the sender joins the cluster it connected to
                assert clusterings[record.phase + 1][sender] == record.target_cluster
            f_plus.add(canonical_edge(sender, record.accepted))
        for w, u in scanned:
            if (w, u) < connection:
                key = canonical_edge(sender, u)
                assert key not in f_plus, "an edge known to exist was tried and failed"
                f_minus.add(key)
    return f_plus, f_minus


def word_bits(n: int) -> int:
    """Bits of one word: ``ceil(log2 n)``, at least one."""
    return max(1, math.ceil(math.log2(n)))


def edge_words(n: int, top: int) -> int:
    """Words of an accepted edge: an identifier plus a ``ceil(log2 W)``-bit weight field."""
    bits = word_bits(n)
    return math.ceil((bits + math.ceil(math.log2(top))) / bits)


def connect_step_rounds(view: EdgeView, result):
    """``{(phase, step): (rounds, tight)}`` of the ``Connect`` broadcasts under Broadcast CONGEST.

    ``tight`` says a vertex with the most broadcasts in the step accepted an
    edge with each of them, the case in which charging every broadcast as an
    accepted edge is exact.
    """
    bits = word_bits(view.n)
    top = int(view.max_weight())  # W
    accepted_words = edge_words(view.n, top)
    words, sent, bottoms = Counter(), Counter(), set()  # per (phase, step, sender)
    for record in result.broadcasts:
        key = (record.phase, record.step, record.sender)
        sent[key] += 1
        if record.accepted is None:
            words[key] += 1
            bottoms.add(key)
        else:
            assert record.accepted < 2**bits, "an identifier must fit one word"
            assert record.weight == int(record.weight) and 1 <= record.weight <= top
            words[key] += accepted_words
    senders = defaultdict(list)
    for key in sent:
        senders[key[:2]].append(key)
    rounds = {}
    for step, keys in senders.items():
        busiest = max(sent[key] for key in keys)
        tight = any(sent[key] == busiest and key not in bottoms for key in keys)
        rounds[step] = (max(words[key] for key in keys), tight)
    return rounds


def marking_rounds(result):
    """Rounds per phase to flood every centre's marking down its cluster tree."""
    joins = defaultdict(dict)  # phase -> {vertex: the neighbour it joined through}
    for record in result.broadcasts:
        if record.step == "step2" and record.accepted is not None:
            joins[record.phase][record.sender] = record.accepted
    parent = {}
    rounds = []
    for phase in range(result.k - 1):
        members = result.clusters_per_phase[phase]
        speaking = {v for v, centre in members.items() if v == centre}
        heard = set(speaking)
        elapsed = 0
        while speaking:
            elapsed += 1
            speaking = {v for v in members if v not in heard and parent.get(v) in speaking}
            heard |= speaking
        assert heard == set(members), "a cluster member is cut off from its centre"
        rounds.append(elapsed)
        parent.update(joins[phase])
    return rounds


def check_rounds(view: EdgeView, result):
    """Hold every charge of ``result`` against the broadcast replay of its step."""
    connect = connect_step_rounds(view, result)
    flood = marking_rounds(result)
    charged_steps = [(phase, step) for phase, step, _ in result.charges]
    assert len(set(charged_steps)) == len(charged_steps)
    assert set(connect) <= set(charged_steps)
    unit_weights = view.max_weight() == 1
    for phase, step, charged in result.charges:
        if step == "marking":
            assert flood[phase] <= charged, f"the marking of phase {phase} is under-charged"
            continue
        rounds, tight = connect.get((phase, step), (0, False))
        assert rounds <= charged, f"{step} of phase {phase} is under-charged"
        if tight:
            exact = 2 * rounds if unit_weights else rounds
            assert charged == exact, f"{step} of phase {phase} is tight but not charged exactly"


def run_and_replay(view, probabilities, k, seed):
    result = ReferenceProbabilisticSpanner(view, probabilities, k=k, seed=seed).run()
    f_plus, f_minus = replay(view, result)
    assert f_plus == result.f_plus
    assert f_minus == result.f_minus
    check_rounds(view, result)
    return result


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deterministic_input(k, seed):
    """``p === 1``: the transcript names every spanner edge and nothing fails."""
    graph = generators.random_weighted_graph(40, average_degree=7, max_weight=4, seed=seed)
    result = run_and_replay(EdgeView.from_graph(graph), None, k, seed + 10)
    assert result.f_minus == set()
    assert len(result.f_plus) > 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.7])
def test_constant_probability(k, p):
    graph = generators.random_weighted_graph(40, average_degree=8, max_weight=3, seed=k)
    view = EdgeView.from_graph(graph)
    result = run_and_replay(view, np.full(view.base_m, p), k, seed=k + 20)
    assert len(result.f_minus) > 0


@pytest.mark.parametrize("seed", range(6))
def test_sparsifier_style_probabilities_on_a_sub_view(seed):
    """Algorithm 5's inputs: probabilities 4^-i, certain edges among them, dead edges."""
    graph = generators.random_weighted_graph(50, average_degree=10, max_weight=5, seed=seed)
    rng = np.random.default_rng(seed)
    view = EdgeView.from_graph(graph)
    view = view.subview(rng.random(view.base_m) < 0.8)
    probabilities = 0.25 ** rng.integers(0, 3, size=view.base_m)
    result = run_and_replay(view, probabilities, k=3, seed=seed + 30)
    alive = {view.edge_key(i) for i in view.alive_indices().tolist()}
    assert result.f_plus | result.f_minus <= alive


def test_grid_with_unit_weights():
    """All weights tie: the scan order is decided by identifiers alone."""
    graph = generators.grid_graph(6, 7)
    view = EdgeView.from_graph(graph)
    run_and_replay(view, np.full(view.base_m, 0.5), k=3, seed=5)


@pytest.mark.parametrize("k", [2, 3])
def test_every_bundle_layer_replays(k):
    """Algorithm 3 runs the spanner again on what the earlier layers left
    undecided; each layer's transcript is replayed on that residual view.
    The reference runs the layers as ``bundle_spanner`` does, on one shared
    generator, and decides what the bundle's layers decided."""
    graph = generators.random_weighted_graph(40, average_degree=10, max_weight=4, seed=k)
    view = EdgeView.from_graph(graph)
    probabilities = np.full(view.base_m, 0.5)
    bundle = bundle_spanner(view, probabilities, k=k, t=3, seed=k + 40)
    assert len(bundle.per_spanner) >= 2  # at least one layer runs on a residual view
    rng = np.random.default_rng(k + 40)
    alive = view.alive.copy()
    for layer in bundle.per_spanner:
        residual = view.subview(alive.copy())
        result = ReferenceProbabilisticSpanner(residual, probabilities, k=k, rng=rng).run()
        assert (result.f_plus, result.f_minus) == (layer.f_plus, layer.f_minus)
        assert replay(residual, result) == (layer.f_plus, layer.f_minus)
        check_rounds(residual, result)
        alive[layer.f_plus_idx] = False
        alive[layer.f_minus_idx] = False


# -- the replay's own rules -------------------------------------------------------


@pytest.mark.parametrize("n, bits", [(1, 1), (2, 1), (16, 4), (1024, 10), (1025, 11)])
def test_a_word_is_log_n_bits(n, bits):
    assert word_bits(n) == bits


@given(st.integers(min_value=2, max_value=10**6))
def test_every_identifier_fits_one_word(n):
    assert (n - 1).bit_length() <= word_bits(n)


@pytest.mark.parametrize(
    "n, top, words", [(16, 1, 1), (16, 2, 2), (16, 16, 2), (16, 17, 3), (1024, 1024, 2)]
)
def test_accepted_edge_words(n, top, words):
    """The weight field is sized from ``W`` alone: at ``W = 1`` it is empty."""
    assert edge_words(n, top) == words


@pytest.mark.parametrize("max_weight", [1, 2, 5, 64, 200])
def test_the_executor_charges_an_accepted_edge_its_words(max_weight):
    """``words_per_message`` is the replay's size of an accepted edge, except
    at ``W = 1``, where the empty weight field is charged a word."""
    if max_weight == 1:
        graph = generators.grid_graph(6, 7)
    else:
        graph = generators.random_weighted_graph(40, average_degree=8, max_weight=max_weight, seed=max_weight)
    view = EdgeView.from_graph(graph)
    top = int(view.max_weight())
    charged = ProbabilisticSpanner(view).words_per_message
    assert charged == (2 if top == 1 else edge_words(view.n, top))


def join(phase, sender, through):
    """The step-2 broadcast by which ``sender`` joins the cluster of ``through``."""
    return BroadcastRecord(
        phase=phase, step="step2", sender=sender, target_cluster=0, accepted=through, weight=1.0
    )


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_the_marking_flood_takes_one_round_per_tree_level(depth):
    """One cluster that grows into a path hanging off centre 0, one vertex per
    phase: phase ``p``'s tree has depth ``p``, so its flood takes ``p + 1`` rounds."""
    clusters = [{v: v for v in range(depth + 1)}]
    clusters += [{v: 0 for v in range(phase + 1)} for phase in range(1, depth + 1)]
    joins = [join(phase, phase + 1, phase) for phase in range(depth)]
    result = SimpleNamespace(k=depth + 2, clusters_per_phase=clusters, broadcasts=joins)
    assert marking_rounds(result) == list(range(1, depth + 2))


def test_a_member_cut_off_from_its_centre_is_caught():
    clusters = [{0: 0, 1: 1, 2: 2}, {0: 0, 1: 0, 2: 0}]  # vertex 2 never joined
    result = SimpleNamespace(k=3, clusters_per_phase=clusters, broadcasts=[join(0, 1, 0)])
    with pytest.raises(AssertionError, match="cut off"):
        marking_rounds(result)


def replayed_run():
    """A run whose transcript uses every step of the algorithm."""
    graph = generators.random_weighted_graph(40, average_degree=8, max_weight=3, seed=3)
    view = EdgeView.from_graph(graph)
    return view, run_and_replay(view, np.full(view.base_m, 0.5), k=3, seed=23)


def with_charge(result, phase, step, rounds):
    result.charges = [
        (p, s, rounds if (p, s) == (phase, step) else charged) for p, s, charged in result.charges
    ]


STEPS = ["marking", "step2", "step3.1", "step3.2", "step4.1", "step4.2", "step4.3"]


@pytest.mark.parametrize("step", STEPS)
def test_an_under_charge_is_caught(step):
    view, result = replayed_run()
    if step == "marking":
        replayed = {(phase, step): rounds for phase, rounds in enumerate(marking_rounds(result))}
    else:
        replayed = {key: rounds for key, (rounds, _) in connect_step_rounds(view, result).items()}
    rounds, phase = max((rounds, key[0]) for key, rounds in replayed.items() if key[1] == step)
    assert rounds >= 1
    with_charge(result, phase, step, rounds - 1)
    with pytest.raises(AssertionError, match="under-charged"):
        check_rounds(view, result)


def test_an_over_charge_of_a_tight_step_is_caught():
    view, result = replayed_run()
    tight = [(key, rounds) for key, (rounds, is_tight) in connect_step_rounds(view, result).items() if is_tight]
    assert tight
    (phase, step), rounds = tight[0]
    with_charge(result, phase, step, rounds + 1)
    with pytest.raises(AssertionError, match="not charged exactly"):
        check_rounds(view, result)


def test_a_forged_acceptance_is_caught():
    """A receiver cannot place an accepted neighbour that is not adjacent to the sender."""
    view, result = replayed_run()
    edges = {view.edge_key(i) for i in view.alive_indices().tolist()}
    index, record = next((i, r) for i, r in enumerate(result.broadcasts) if r.accepted is not None)
    stranger = next(
        u for u in range(view.n) if u != record.sender and canonical_edge(u, record.sender) not in edges
    )
    result.broadcasts[index] = replace(record, accepted=stranger)
    with pytest.raises(AssertionError, match="cannot place"):
        replay(view, result)
