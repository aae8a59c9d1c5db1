import pytest
from hypothesis import given, strategies as st

from oee import formula
from oee.formula import (
    MAX_FORMULA_DEPTH,
    And,
    Atom,
    Common,
    Implies,
    Know,
    Not,
    Or,
    ParseError,
    atoms,
    depth,
    enumerate_sentences,
    evaluate,
    is_propositional,
    parse,
    render,
    sentence_count,
)


def test_render_examples():
    assert render(Atom(0)) == "p0"
    assert render(Not(Atom(1))) == "~p1"
    assert render(And(Atom(0), Or(Atom(1), Atom(2)))) == "(p0 & (p1 | p2))"
    assert render(Implies(Atom(0), Atom(1))) == "(p0 -> p1)"
    assert render(Know(1, Atom(0))) == "K1 p0"
    assert render(Common(frozenset({2, 1}), Atom(0))) == "C{1,2} p0"


def test_parse_examples():
    assert parse("p0") == Atom(0)
    assert parse("~ p12") == Not(Atom(12))
    assert parse("(p0 & p1)") == And(Atom(0), Atom(1))
    assert parse("p0 -> p1 -> p2") == Implies(Atom(0), Implies(Atom(1), Atom(2)))
    assert parse("K3 (p0 | p1)") == Know(3, Or(Atom(0), Atom(1)))
    assert parse("C{1,2} p0") == Common(frozenset({1, 2}), Atom(0))


def test_precedence():
    assert parse("~p0 & p1 | p2") == Or(And(Not(Atom(0)), Atom(1)), Atom(2))
    assert parse("p0 | p1 -> p2") == Implies(Or(Atom(0), Atom(1)), Atom(2))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("p0 &")
    with pytest.raises(ParseError):
        parse("(p0")
    with pytest.raises(ParseError):
        parse("K p0")
    with pytest.raises(ParseError):
        parse("q1")
    # `str.isdigit` holds for "²", which `int` refuses: indices are decimal
    for text in ("p²", "K² p0", "C{²} p0"):
        with pytest.raises(ParseError):
            parse(text)
    err = None
    try:
        parse("p0 & & p1")
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset == 5


def _nested(n):
    """Formulas nested n deep: in negations, in parentheses, and in the
    tree of a conjunction chain and of an implication chain."""
    return ["~" * n + "p0", "(" * n + "p0" + ")" * n, "p0 & " * n + "p0", "p0 -> " * n + "p0"]


def test_parse_bounds_nesting():
    for text in _nested(MAX_FORMULA_DEPTH):
        f = parse(text)
        assert parse(render(f)) == f
    for text in _nested(MAX_FORMULA_DEPTH + 1) + _nested(3000):
        with pytest.raises(ParseError, match=f"nesting at most {MAX_FORMULA_DEPTH} deep"):
            parse(text)


def test_common_requires_agents():
    with pytest.raises(ValueError):
        Common(frozenset(), Atom(0))


def test_atoms_and_depth():
    f = parse("(p0 & ~p3) -> p0")
    assert atoms(f) == frozenset({0, 3})
    assert depth(parse("p0")) == 0
    assert depth(parse("~p0")) == 1
    assert depth(parse("p0 & ~p1")) == 2


def test_is_propositional():
    assert is_propositional(parse("p0 -> ~p1"))
    assert not is_propositional(parse("K1 p0"))


def test_evaluate():
    lookup = {0: True, 1: False}.__getitem__
    assert evaluate(parse("p0 & ~p1"), lookup)
    assert not evaluate(parse("p0 -> p1"), lookup)
    with pytest.raises(ValueError):
        evaluate(parse("K1 p0"), lookup)


_formulas = st.recursive(
    st.integers(min_value=0, max_value=2).map(Atom),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda ab: And(*ab)),
        st.tuples(children, children).map(lambda ab: Or(*ab)),
        st.tuples(children, children).map(lambda ab: Implies(*ab)),
        st.tuples(st.integers(min_value=0, max_value=3), children).map(
            lambda af: Know(*af)
        ),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_parse_render_roundtrip(f):
    assert parse(render(f)) == f


def test_enumerate_depth1_single_atom():
    got = [render(f) for f in enumerate_sentences({0}, 1)]
    assert got == ["p0", "~p0", "(p0 & p0)", "(p0 | p0)", "(p0 -> p0)"]


def test_enumerate_depth0():
    assert [render(f) for f in enumerate_sentences({1, 0}, 0)] == ["p0", "p1"]


def test_enumerate_is_prefix_monotone():
    for d in range(2):
        shorter = enumerate_sentences({0, 1}, d)
        longer = enumerate_sentences({0, 1}, d + 1)
        assert longer[: len(shorter)] == shorter
    assert enumerate_sentences({0}, 2)[:5] == enumerate_sentences({0}, 1)


def test_enumerate_deterministic_and_propositional():
    a = enumerate_sentences({0, 1}, 2)
    b = enumerate_sentences({0, 1}, 2)
    assert a == b
    assert len(set(a)) == len(a)
    assert all(is_propositional(f) and depth(f) <= 2 for f in a)


def test_enumerate_validates_inputs():
    with pytest.raises(ValueError):
        enumerate_sentences(set(), 1)
    with pytest.raises(ValueError):
        enumerate_sentences({0}, -1)


def reference_sentences(predicates, max_depth):
    """Slow reference: grow candidate trees level by level and keep each
    structurally new one, deduplicated through a set of formulas."""
    current = [Atom(p) for p in sorted(predicates)]
    seen = set(current)
    for _ in range(max_depth):
        fresh = []
        for f in current:
            if Not(f) not in seen:
                seen.add(Not(f))
                fresh.append(Not(f))
        for f in current:
            for g in current:
                for combo in (And(f, g), Or(f, g), Implies(f, g)):
                    if combo not in seen:
                        seen.add(combo)
                        fresh.append(combo)
        current = current + fresh
    return sorted(seen, key=lambda f: (depth(f), len(render(f)), render(f)))


# one-, two- and three-digit indices, so that text order differs from numeric order
_indices = st.sets(st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 101]), min_size=1, max_size=3)


@given(_indices, st.integers(0, 2))
def test_enumerate_matches_reference(predicates, max_depth):
    assert enumerate_sentences(predicates, max_depth) == reference_sentences(predicates, max_depth)


def test_enumerate_length_follows_the_recurrence():
    for n in range(1, 5):
        count = n
        for d in range(3):
            assert len(enumerate_sentences(range(n), d)) == count
            count = n + count + 3 * count * count


def test_enumerate_refuses_more_sentences_than_the_limit(monkeypatch):
    """The limit compares |S_d| from the recurrence, which equals the
    enumeration's length, before any formula is built."""
    for n in range(1, 5):
        for d in range(3):
            count = len(enumerate_sentences(range(n), d))
            assert sentence_count(n, d, count) == count
    count = len(enumerate_sentences({0, 1}, 2))
    monkeypatch.setattr(formula, "MAX_SENTENCES", count)
    assert len(enumerate_sentences({0, 1}, 2)) == count
    monkeypatch.setattr(formula, "MAX_SENTENCES", count - 1)
    monkeypatch.setattr(formula, "Atom", None)  # building any formula fails
    with pytest.raises(ValueError, match=f"depth 2 over 2 predicates .* limit of {count - 1:,} "):
        enumerate_sentences({0, 1}, 2)
    # the count stops at the first level past the limit, so a deep request fails fast
    with pytest.raises(ValueError, match="depth 1000000 over 1 predicates"):
        enumerate_sentences({0}, 10**6)


def test_enumerate_hashes_no_formula(monkeypatch):
    def no_hash(f):
        raise AssertionError(f"hashed {render(f)}")

    for cls in (Atom, Not, And, Or, Implies):
        monkeypatch.setattr(cls, "__hash__", no_hash)
    assert len(enumerate_sentences({3, 30, 300}, 2)) == 3 + 33 + 3 * 33 * 33
