import pytest

from oee import revision, universe
from oee.epistemics import agent_state
from oee.revision import (
    ContradictoryObservations,
    ExtensionClass,
    RevisionStrategy,
    StrategyKind,
    classify_extension,
    propose_revisions,
    revise,
    symmetry_score,
)
from oee.universe import Theory, clause, empty_theory, unit

DEDUCTIVE = RevisionStrategy(StrategyKind.DEDUCTIVE)


def theory_of(predicates, *clauses):
    return Theory(frozenset(predicates), tuple(clauses))


def agent(theory, agent_id=1):
    return agent_state(agent_id, theory)


# --- revise ------------------------------------------------------------------

def test_case1_minimal_repair():
    a = agent(theory_of({1}, unit(1, False)))
    out = revise(a, {(1, True)}, DEDUCTIVE)
    assert unit(1, False) not in out.theory.clauses
    assert unit(1, True) in out.theory.clauses
    assert out.theory.models()


def test_case2_language_extension():
    a = agent(theory_of({0}, unit(0, True)))
    out = revise(a, {(2, True)}, DEDUCTIVE)
    assert out.predicates == frozenset({0, 2})
    assert unit(2, True) in out.theory.clauses


def test_no_change_without_news():
    a = agent(theory_of({0}, unit(0, True)))
    out = revise(a, {(0, True)}, DEDUCTIVE)
    assert out.theory == a.theory


def test_strategies_diverge_on_bridging():
    a = agent(theory_of({0}, unit(0, True)))
    ded = revise(a, {(2, True)}, DEDUCTIVE)
    aes = revise(a, {(2, True)}, RevisionStrategy(StrategyKind.AESTHETIC, 7))
    # the aesthetic agent adopts a bridging clause the deductive one does not
    assert len(aes.theory.clauses) > len(ded.theory.clauses)
    assert aes.theory.models()


def test_revise_always_consistent_random_inputs():
    from oee.rng import SplitMix64

    rng = SplitMix64(3)
    strategies = [RevisionStrategy(k, 5) for k in StrategyKind]
    for trial in range(40):
        a = agent(empty_theory())
        for step in range(6):
            obs = set()
            for p in range(4):
                if rng.next_u64() & 1:
                    obs.add((p, bool(rng.next_u64() & 1)))
            a = revise(a, obs, strategies[trial % len(strategies)])
            assert a.theory.models()


def test_revise_deterministic():
    a = agent(theory_of({0}, unit(0, True)))
    s = RevisionStrategy(StrategyKind.RANDOM, 99)
    assert revise(a, {(1, True), (2, False)}, s).theory == \
        revise(a, {(1, True), (2, False)}, s).theory


def test_revise_rejects_contradictory_observations():
    a = agent(theory_of({0, 1}, unit(1, True)))
    with pytest.raises(ContradictoryObservations, match="p0"):
        revise(a, {(0, True), (0, False), (1, True)}, DEDUCTIVE)
    assert issubclass(ContradictoryObservations, ValueError)


def test_revise_never_enumerates_models(monkeypatch):
    def no_models(*args):
        raise AssertionError("revise enumerated models")

    monkeypatch.setattr(Theory, "models", no_models)
    # the engine reads `_models` directly, each module through its own name
    for module in (universe, revision):
        monkeypatch.setattr(module, "_models", no_models)
    base = theory_of({0, 1}, unit(0, True), clause((0, False), (1, True)))
    for kind in StrategyKind:
        strategy = RevisionStrategy(kind, 3)
        # contradicted, extending, both at once, and consistent news
        for obs in ({(1, False)}, {(2, True), (3, False)}, {(0, False), (4, True)}, {(1, True)}):
            out = revise(agent(base), obs, strategy)
            assert obs <= {next(iter(c.literals)) for c in out.theory.clauses if len(c.literals) == 1}


def test_revise_calls_propose_revisions_once(monkeypatch):
    calls = []
    real = revision.propose_revisions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(revision, "propose_revisions", counting)
    base = agent(theory_of({0, 1}, unit(0, True), clause((0, False), (1, True))))
    for kind in StrategyKind:
        strategy = RevisionStrategy(kind, 3)
        # nothing, fitting, contradicting, extending, and contradicting while extending
        for obs in (set(), {(1, True)}, {(1, False)}, {(2, True), (3, False)},
                    {(0, False), (4, True)}):
            calls.clear()
            revise(base, obs, strategy)
            assert calls == [(base, frozenset(obs), strategy, 1)]


# --- propose_revisions -------------------------------------------------------

def test_propose_contradictory_observations_has_no_repair():
    a = agent(theory_of({0, 1}, unit(1, True)))
    for kind in StrategyKind:
        with pytest.raises(ContradictoryObservations, match="p0 both values"):
            propose_revisions(a, {(0, True), (0, False)}, RevisionStrategy(kind), 4)
    # p20 is inconsistent and shares no predicate with the observation, so no
    # retraction from the suspect pool {~p1} repairs the theory
    a = agent(theory_of({1, 20}, unit(1, False), unit(20, True), unit(20, False)))
    for kind in StrategyKind:
        with pytest.raises(ValueError, match="inconsistent apart from"):
            propose_revisions(a, {(1, True)}, RevisionStrategy(kind), 4)


def test_propose_minimal_retractions_first():
    t = theory_of({0, 1}, unit(0, True), clause((0, False), (1, True)))
    a = agent(t)
    ranked = propose_revisions(a, {(1, False)}, DEDUCTIVE, budget=4)
    # the top candidate retracts only the implication (the newest clause that
    # conflicts); the no-retraction variant is inconsistent
    top = ranked[0]
    assert unit(0, True) in top.clauses
    assert clause((0, False), (1, True)) not in top.clauses
    assert unit(1, False) in top.clauses


def test_propose_budget_respected():
    t = theory_of({0, 1}, unit(0, True), unit(1, True))
    ranked = propose_revisions(agent(t), {(0, False)}, DEDUCTIVE, budget=1)
    assert len(ranked) == 1
    with pytest.raises(ValueError):
        propose_revisions(agent(t), {(0, False)}, DEDUCTIVE, budget=0)


def test_propose_deductive_retracts_newest_on_ties():
    a = agent(theory_of({0, 1}, unit(0, True), unit(1, True)))
    ranked = propose_revisions(a, {(1, False)}, DEDUCTIVE, budget=4)
    # minimal repair keeps the older unit p0
    assert unit(0, True) in ranked[0].clauses


def test_propose_all_consistent():
    t = theory_of({0, 1}, unit(0, True), clause((0, False), (1, True)), unit(1, True))
    for kind in StrategyKind:
        for cand in propose_revisions(agent(t), {(1, False)}, RevisionStrategy(kind, 1), 8):
            assert cand.models()


# --- symmetry score ----------------------------------------------------------

def test_symmetry_score_symmetric_pair():
    t = theory_of({0, 1}, unit(0, True), unit(1, True))
    assert symmetry_score(t) == 1
    t2 = theory_of({0, 1}, unit(0, True), unit(1, False))
    assert symmetry_score(t2) == 0


def test_symmetry_score_clause_swap():
    # the 0<->1 transposition fixes a symmetric disjunction
    assert symmetry_score(theory_of({0, 1}, clause((0, True), (1, True)))) == 1
    assert symmetry_score(theory_of({0, 1}, clause((0, True), (1, False)))) == 0


def test_aesthetic_prefers_symmetric_bridge():
    from oee.revision import _bridging_candidates

    a = agent(theory_of({0}, unit(0, True)))
    out = revise(a, {(1, True)}, RevisionStrategy(StrategyKind.AESTHETIC, 0))
    bridges = [c for c in out.theory.clauses if len(c.literals) == 2]
    assert len(bridges) == 1
    # the chosen theory maximizes the symmetry score among consistent options
    base = theory_of({0, 1}, unit(0, True), unit(1, True))
    options = _bridging_candidates(base, 1, {0})
    assert symmetry_score(out.theory) == max(
        symmetry_score(base.with_clause(c)) for c in options)


# --- classify_extension ------------------------------------------------------

def test_classify_new_predicate_essential():
    old = theory_of({0, 1}, clause((0, True), (1, True)))
    new = theory_of({0, 1, 2}, clause((0, True), (1, True)), clause((2, False), (0, True)))
    assert classify_extension(old, new) is ExtensionClass.ESSENTIAL


def test_classify_entailed_clause_inessential():
    old = theory_of({0, 1}, unit(0, True))
    new = theory_of({0, 1}, unit(0, True), clause((0, True), (1, True)))
    assert classify_extension(old, new) is ExtensionClass.INESSENTIAL


def test_classify_strengthening_essential():
    old = theory_of({0, 1}, clause((0, True), (1, True)))
    new = theory_of({0, 1}, clause((0, True), (1, True)), unit(0, True))
    assert classify_extension(old, new) is ExtensionClass.ESSENTIAL


def test_classify_not_an_extension():
    old = theory_of({0}, unit(0, True))
    new = theory_of({0}, unit(0, False))
    assert classify_extension(old, new) is ExtensionClass.NOT_AN_EXTENSION


def test_classify_identity_inessential():
    t = theory_of({0, 1}, clause((0, True), (1, True)))
    assert classify_extension(t, t) is ExtensionClass.INESSENTIAL


def test_predicate_growth_always_essential():
    from oee.rng import SplitMix64

    rng = SplitMix64(21)
    for _ in range(100):
        a = agent(theory_of({0}, unit(0, rng.next_u64() & 1 == 0)))
        kind = [k for k in StrategyKind][rng.randrange(4)]
        value = bool(rng.next_u64() & 1)
        out = revise(a, {(1, value)}, RevisionStrategy(kind, rng.next_u64()))
        assert out.predicates > a.predicates
        assert classify_extension(a.theory, out.theory) is ExtensionClass.ESSENTIAL
