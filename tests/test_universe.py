from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oee import universe
from oee.universe import (
    MAX_MODELS,
    MAX_PREDICATE_INDEX,
    Clause,
    satisfiable,
    solutions,
    ConfigError,
    NicheError,
    NoveltyKind,
    State,
    Theory,
    UniverseGenerator,
    _models,
    clause,
    empty_theory,
    predicate_mask,
    unit,
)
from oee.rng import MASK64, mix


def make(seed=7, weights=("0.5", "0.3", "0.2"), k=3, arity=2):
    return UniverseGenerator(seed, weights, k, arity)


def test_state_invariant():
    with pytest.raises(ValueError):
        State(frozenset({0}), frozenset({1}))
    s = State(frozenset({0, 1}), frozenset({1}))
    assert not s.value(0) and s.value(1)
    assert s.bits() == "01"
    with pytest.raises(KeyError):
        s.value(5)


@given(st.data())
def test_state_hash_is_the_hash_of_its_fields(data):
    """The hash computed once equals `hash((domain, true))`, the dataclass
    hash it replaces, so every set order is unchanged; equal states built
    from distinct frozensets hash equal, and the field stays out of repr."""
    domain = data.draw(st.frozensets(st.integers(0, 200), max_size=6))
    true = data.draw(st.frozensets(st.sampled_from(sorted(domain)), max_size=6)
                     if domain else st.just(frozenset()))
    s = State(domain, true)
    assert hash(s) == hash((domain, true))
    twin = State(frozenset(sorted(domain, reverse=True)), frozenset(list(true)))
    assert twin == s and hash(twin) == hash(s)
    assert repr(s) == f"State(domain={domain!r}, true={true!r})"
    other = data.draw(st.sampled_from(sorted(domain))) if domain else None
    if other is not None:
        flipped = State(domain, true ^ {other})
        assert flipped != s and hash(flipped) == hash((domain, true ^ {other}))


def test_state_restrict_and_update():
    s = State(frozenset({0, 1, 2}), frozenset({0, 2}))
    assert s.restrict(frozenset({0, 1})).bits() == "10"
    assert s.with_value(3, True).value(3)
    assert not s.with_value(0, False).value(0)


def test_clause_invariants():
    with pytest.raises(ValueError):
        Clause(frozenset())
    with pytest.raises(ValueError):
        clause((0, True), (0, False))
    c = clause((0, True), (1, False))
    assert c.predicates() == frozenset({0, 1})
    assert c.render() == "p0 | ~p1"


def test_clause_masks():
    c = clause((0, True), (5, False), (60, True))
    assert c.masks == (1 | 1 << 60, 1 << 5)
    assert unit(3, False).masks == (0, 1 << 3)
    # computed, not passed: equality, hashing and repr ignore the masks
    with pytest.raises(TypeError):
        Clause(frozenset({(0, True)}), (1, 0))
    with pytest.raises(AttributeError):
        c.masks = (0, 0)
    assert c.mask == 1 | 1 << 5 | 1 << 60
    assert c == clause((60, True), (0, True), (5, False))
    assert hash(c) == hash(clause((60, True), (0, True), (5, False))) == hash((c.literals,))
    assert "masks" not in repr(c)


def test_clause_rejects_negative_predicate():
    with pytest.raises(ValueError, match="predicate index -1 lies outside 0"):
        clause((0, True), (-1, False))


def test_clause_rejects_predicate_past_the_limit():
    assert unit(MAX_PREDICATE_INDEX, True).masks == (1 << MAX_PREDICATE_INDEX, 0)
    with pytest.raises(ValueError, match=f"outside 0..{MAX_PREDICATE_INDEX}"):
        unit(MAX_PREDICATE_INDEX + 1, False)


def test_theory_invariants():
    with pytest.raises(ValueError):
        Theory(frozenset({0}), (unit(1, True),))
    t = empty_theory({0, 1})
    assert len(t.models()) == 4
    assert t.with_clause(unit(0, True)).models() == Theory(
        frozenset({0, 1}), (unit(0, True),)
    ).models()


def test_models_by_unit_propagation():
    t = Theory(
        frozenset({0, 1, 2}),
        (unit(0, True), clause((0, False), (1, True)), clause((1, False), (2, False))),
    )
    # p0 forces p1 forces ~p2
    assert [s.bits() for s in t.models()] == ["110"]


def test_models_inconsistent():
    t = Theory(frozenset({0}), (unit(0, True), unit(0, False)))
    assert t.models() == ()


def test_models_disjunction():
    t = Theory(frozenset({0, 1}), (clause((0, True), (1, True)),))
    assert sorted(s.bits() for s in t.models()) == ["01", "10", "11"]


def sweep_models(theory: Theory) -> list[State]:
    """The models of `theory` by truth table: every assignment over its
    predicates tried against every clause, in `State.sort_key` order."""
    preds = sorted(theory.predicates)
    states = (
        State(theory.predicates, frozenset(p for i, p in enumerate(preds) if code >> i & 1))
        for code in range(1 << len(preds))
    )
    models = [s for s in states if all(c.satisfied_by(s) for c in theory.clauses)]
    return sorted(models, key=State.sort_key)


@st.composite
def sparse_theories(draw):
    """Up to 8 predicates drawn from 0-60, clauses of 1-3 literals over them,
    some predicates mentioned by no clause, and sometimes a contradictory
    pair of units."""
    preds = sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=8)))
    literal = st.tuples(st.sampled_from(preds), st.booleans())
    clauses = [
        Clause(frozenset(dict(lits).items()))
        for lits in draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=10))
    ]
    if draw(st.booleans()):
        p = draw(st.sampled_from(preds))
        clauses += [unit(p, True), unit(p, False)]
    return Theory(frozenset(preds), tuple(dict.fromkeys(clauses)))


@settings(max_examples=400, deadline=None)
@given(sparse_theories())
def test_models_match_truth_table(theory):
    models = theory.models()
    swept = sweep_models(theory)
    assert list(models) == swept
    assert list(_models(theory)) == [predicate_mask(s.true) for s in swept]
    assert satisfiable([c.masks for c in theory.clauses]) == bool(models)
    assert theory.consistent() == bool(swept)


def reference_validation(predicates, clauses) -> bool:
    """Whether `Theory` accepts the clauses, by the frozenset definition:
    each clause's predicates inside the theory's, no clause twice."""
    return all(c.predicates() <= predicates for c in clauses) and \
        len(set(clauses)) == len(clauses)


@settings(max_examples=400, deadline=None)
@given(st.frozensets(st.integers(0, 70), max_size=8),
       st.lists(st.dictionaries(st.integers(0, 70), st.booleans(), min_size=1, max_size=3)
                .map(lambda d: Clause(frozenset(d.items()))), max_size=6))
def test_theory_validation_matches_the_frozenset_check(predicates, clauses):
    clauses = tuple(clauses)
    if not reference_validation(predicates, clauses):
        with pytest.raises(ValueError):
            Theory(predicates, clauses)
        return
    t = Theory(predicates, clauses)
    assert t.mask == sum(1 << p for p in predicates)
    units = [next(iter(c.literals)) for c in clauses if len(c.literals) == 1]
    assert t.units == (sum(1 << p for p, v in units if v), sum(1 << p for p, v in units if not v))
    # computed once, as the hash of the compared fields
    assert hash(t) == hash((predicates, clauses))


def test_theory_predicates_must_have_mask_bits():
    for p in (-1, MAX_PREDICATE_INDEX + 1):
        with pytest.raises(ValueError, match=f"outside 0..{MAX_PREDICATE_INDEX}"):
            Theory(frozenset({0, p}), ())


def test_models_refuse_to_expand_past_the_limit(monkeypatch):
    assert MAX_MODELS == 1 << 16
    # one cube of 2**17 models; and cubes of 2**16 and 2**15, past the limit
    # only together
    wide = frozenset(range(17))
    for t in (empty_theory(wide), Theory(wide, (clause((0, True), (1, True)),))):
        with pytest.raises(ValueError, match="limit of 65,536 models"):
            t.models()
    monkeypatch.setattr(universe, "MAX_MODELS", 4)
    assert len(_models(empty_theory({40, 41}))) == 4
    with pytest.raises(ValueError, match="limit of 4 models"):
        _models(empty_theory({40, 41, 42}))


def test_solutions_yield_disjoint_cubes():
    # p0 | p1 splits on p0: p0 true, then p0 false and p1 true by propagation
    cubes = list(solutions([clause((0, True), (1, True)).masks, unit(2, False).masks]))
    assert cubes == [(0b001, 0b100), (0b010, 0b101)]
    assert list(solutions([unit(60, True).masks, unit(60, False).masks])) == []
    assert list(solutions([])) == [(0, 0)]


def test_models_expand_free_predicates_beyond_the_clauses():
    # sort-key order compares the true sets: (7, 60) before (60,)
    t = Theory(frozenset({7, 60}), (unit(60, True),))
    assert [s.bits() for s in t.models()] == ["11", "01"]


def test_constructor_contract():
    g = make()
    assert g.revealed_predicates == frozenset({0, 1, 2})
    assert g.revealed_theory.clauses == ()
    assert g.tick_index == 0


def test_constructor_determinism():
    assert make().actual == make().actual


def test_config_errors():
    with pytest.raises(ConfigError):
        make(weights=("0.5", "0.3", "0.1"))
    with pytest.raises(ConfigError):
        make(k=0)
    with pytest.raises(ConfigError):
        make(arity=1)


class FixedDraws:
    """A stand-in for the generator's stream that returns the given words."""

    def __init__(self, words):
        self.words = iter(words)

    def next_u64(self):
        return next(self.words)


def reference_kind(weights, u):
    """The novelty kind of the word u: the first whose cumulative weight
    exceeds u / 2**64, summed as fractions."""
    acc = Fraction(0)
    for w, kind in zip(weights, NoveltyKind):
        acc += w
        if Fraction(u, 1 << 64) < acc:
            return kind
    return NoveltyKind.EMERGENCE


weight_triples = st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)).filter(
    any).map(lambda t: tuple(Fraction(w, sum(t)) for w in t))


@settings(max_examples=200, deadline=None)
@given(weight_triples, st.lists(st.integers(0, MASK64), max_size=8), st.integers(-2, 2))
def test_kind_draw_matches_the_fraction_walk(weights, words, offset):
    # also the words at each cut and beside it
    for w in (weights[0], weights[0] + weights[1]):
        words.append(min(MASK64, max(0, w.numerator * (1 << 64) // w.denominator + offset)))
    g = make(weights=weights)
    g._rng = FixedDraws(words)
    for u in words:
        assert g._draw_kind() is reference_kind(weights, u)


def test_emergence_only_counting():
    g = make(weights=(0, 0, 1))
    for _ in range(10):
        event = g.tick()
        assert event.kind is NoveltyKind.EMERGENCE
    assert len(g.revealed_predicates) == 13


def test_emergence_reveals_next_index():
    g = make(weights=(0, 0, 1))
    event = g.tick()
    assert event.predicate == 3
    assert event.clause is not None and 3 in event.clause.predicates()


def test_actual_satisfies_revealed_always():
    for seed in range(20):
        g = make(seed=seed)
        for _ in range(50):
            g.tick()
            assert g.satisfies_revealed()


def test_variation_retracts_falsified():
    for seed in range(30):
        g = make(seed=seed, weights=("0.5", "0.5", "0"))
        for _ in range(30):
            event = g.tick()
            if event.kind is NoveltyKind.VARIATION and event.retracted:
                for c in event.retracted:
                    assert c not in g.revealed_theory.clauses
        assert g.satisfies_revealed()


def test_ticks_deterministic():
    a, b = make(), make()
    for _ in range(25):
        assert a.tick() == b.tick()
    assert a.actual == b.actual


cuts = st.fractions(0, 1, max_denominator=10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64), low=cuts, high=cuts, arity=st.integers(2, 4),
       k=st.integers(1, 12), ticks=st.integers(1, 40))
def test_carried_state_matches_the_actual_state(seed, low, high, arity, k, ticks):
    """After every tick, the true-mask and the ascending predicate tuple that
    Nature carries are those of its actual state."""
    low, high = sorted((low, high))
    g = UniverseGenerator(seed, (low, high - low, 1 - high), k, arity)
    for _ in range(ticks):
        g.tick()
        assert g._true == predicate_mask(g.actual.true)
        assert g._order == tuple(sorted(g.revealed_predicates))


def test_observe_full_visibility():
    g = make()
    g.tick()
    obs = g.observe(frozenset(), Fraction(1), agent_seed=1)
    assert obs == frozenset((p, g.actual.value(p)) for p in g.revealed_predicates)


def test_observe_zero_visibility_empty_niche():
    g = make()
    g.tick()
    assert g.observe(frozenset(), Fraction(0), agent_seed=1) == frozenset()


def test_observe_niche_always_included():
    g = make()
    obs = g.observe(frozenset({0}), Fraction(0), agent_seed=1)
    assert obs == frozenset({(0, g.actual.value(0))})


def test_observe_deterministic_and_stateless():
    g = make()
    g.tick()
    first = g.observe(frozenset({0}), Fraction(1, 2), agent_seed=9)
    # repeated calls do not advance the universe stream
    assert g.observe(frozenset({0}), Fraction(1, 2), agent_seed=9) == first
    before = g.actual
    assert g.actual == before


def test_observe_salt_gives_independent_draws():
    g = make(k=8)
    a = g.observe(frozenset(), Fraction(1, 2), agent_seed=9, salt=0)
    b = g.observe(frozenset(), Fraction(1, 2), agent_seed=9, salt=1)
    assert a != b  # distinct channels for seed 7 / k 8


def test_observe_niche_error():
    g = make()
    with pytest.raises(NicheError):
        g.observe(frozenset({99}), Fraction(1), agent_seed=1)


def reference_observe(g, niche, visibility, agent_seed, salt=0):
    """`observe` as first written: one full `mix` per revealed predicate."""
    literals = {(p, g.actual.value(p)) for p in niche}
    for p in sorted(g.revealed_predicates - niche):
        draw = mix(agent_seed, salt, g.tick_index, p)
        if draw * visibility.denominator < visibility.numerator << 64:
            literals.add((p, g.actual.value(p)))
    return frozenset(literals)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 1000),
    k=st.integers(1, 8),
    ticks=st.integers(0, 30),
    agent_seed=st.integers(0, MASK64),
    salt=st.integers(0, 3),
    visibility=st.fractions(0, 1, max_denominator=32),
    data=st.data(),
)
def test_observe_matches_plain_mix_reference(seed, k, ticks, agent_seed, salt, visibility, data):
    g = make(seed=seed, k=k)
    for _ in range(ticks):
        g.tick()
    revealed = sorted(g.revealed_predicates)
    niche = frozenset(data.draw(st.lists(st.sampled_from(revealed), unique=True)))
    assert g.observe(niche, visibility, agent_seed, salt) == \
        reference_observe(g, niche, visibility, agent_seed, salt)
