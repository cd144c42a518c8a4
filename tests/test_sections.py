"""Section search as 2-SAT, against the backtracking oracle and at scale."""

import random

import pytest
from oracles import find_section_backtracking
from section_spaces import build, planted, random_space, rotated
from shipped import free_double_cover, sphere_pair_swap

from loopbetti.constructions import _components, decide_section, find_section, orbit_space
from loopbetti.simplicial import ValidationError


def assert_section(space, invol, witness):
    """Every fixed simplex, exactly one simplex of each free orbit, closed."""
    for n in range(space.top_dim() + 1):
        for key in space.nondeg(n):
            held = witness.contains_key(n, key)
            if invol(key) == key:
                assert held, key
            else:
                assert held != witness.contains_key(n, invol(key)), key
    witness.check_closure()


def assert_refutes(space, invol, cycle):
    """The cycle runs x => ... => tx => ... => x, and each step is forced:
    b is a face of a, or ta is a face of tb (so b is the only choice left)."""
    x = cycle[0]
    assert invol(x) != x and cycle[-1] == x and invol(x) in cycle

    def face_bases(key):
        n = space.dim_of(key)
        return {space._base_face(key, n, i).base for i in range(n + 1)} if n else set()

    for a, b in zip(cycle, cycle[1:]):
        assert b in face_bases(a) or invol(a) in face_bases(invol(b)), (a, b)


def check_against_oracle(space, invol):
    witness, cycle = decide_section(space, invol)
    oracle = find_section_backtracking(space, invol)
    assert (witness is None) == (oracle is None)
    if witness is None:
        assert_refutes(space, invol, cycle)
    else:
        assert cycle == ()
        assert_section(space, invol, witness)
        assert witness.counts() == oracle.counts()
    return witness


def test_agrees_with_backtracking_on_random_spaces():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(300):
        space, invol = random_space(
            rng, rng.randint(1, 4), edges=rng.randint(1, 7), triangles=rng.randint(0, 6)
        )
        verdicts.add(check_against_oracle(space, invol) is not None)
    assert verdicts == {True, False}


def test_agrees_with_backtracking_on_both_families():
    rng = random.Random(11)
    for edges in range(1, 8):
        for discs in range(0, 21 - edges, 3):
            space, invol = planted(rng, edges, discs)
            counts = {0: 1, 1: edges, 2: discs} if discs else {0: 1, 1: edges}
            assert check_against_oracle(space, invol).counts() == counts
    for m in range(1, 7):
        assert check_against_oracle(*rotated(m)) is None


def test_components_on_random_symmetric_graphs():
    # the implication graphs of sections have every edge both ways
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        graph = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            graph[u].append(v)
            graph[v].append(u)
        reach = []
        for start in range(n):
            seen, stack = {start}, [start]
            while stack:
                for w in graph[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach.append(seen)
        comp = _components(graph)
        for u in range(n):
            for v in range(n):
                assert (comp[u] == comp[v]) == (v in reach[u] and u in reach[v])
            assert comp[u] == min(reach[u])


def test_involution_of_another_space_is_refused():
    # read on the free double cover, the glued spheres' involution fixes
    # every simplex, so the whole space would pass for a section
    space, _ = free_double_cover()
    _, invol = sphere_pair_swap()
    for search in (orbit_space, decide_section, find_section):
        with pytest.raises(ValidationError, match="different space"):
            search(space, invol)


def test_faces_on_both_sides_of_an_orbit():
    # the edge u -> tu makes "u chosen" imply "tu chosen": the edge needs
    # both ends.  Its partner tu -> u needs them too, so neither edge fits
    space, invol = build(
        {0: ["*", "u", "w"], 1: ["e", "f"]},
        {"e": ["w", "u"], "f": ["u", "w"]},
        {"u": "w", "w": "u", "e": "f", "f": "e"},
    )
    witness, cycle = decide_section(space, invol)
    assert witness is None
    assert cycle[0] == cycle[-1] == "u" and "w" in cycle
    assert_refutes(space, invol, cycle)
    assert find_section_backtracking(space, invol) is None


def test_refutation_crosses_dimensions():
    space, invol = rotated(3)
    witness, cycle = decide_section(space, invol)
    assert witness is None
    assert_refutes(space, invol, cycle)
    # vertices have no faces: every step out of a vertex is a contrapositive
    # into an edge
    assert {space.dim_of(key) for key in cycle} == {0, 1}


def test_satisfiable_after_a_wrong_first_choice():
    # g needs tu and w, tg needs u and tw: choosing u and then w (the first
    # options in stored order) leaves neither, so backtracking undid w
    space, invol = build(
        {0: ["*", "u", "tu", "w", "tw"], 1: ["g", "tg"]},
        {"g": ["w", "tu"], "tg": ["tw", "u"]},
        {"u": "tu", "tu": "u", "w": "tw", "tw": "w", "g": "tg", "tg": "g"},
    )
    witness = check_against_oracle(space, invol)
    chosen = {key for n in (0, 1) for key in witness.nondeg(n)}
    assert chosen in ({"*", "tu", "w", "g"}, {"*", "u", "tw", "tg"})


def test_refutation_on_the_free_double_cover():
    space, invol = free_double_cover()
    witness, cycle = decide_section(space, invol)
    assert witness is None
    assert_refutes(space, invol, cycle)


def test_witness_on_the_glued_spheres():
    space, invol = sphere_pair_swap()
    witness, cycle = decide_section(space, invol)
    assert cycle == ()
    assert_section(space, invol, witness)


def test_witness_lists_each_dimension_in_stored_order():
    space, invol = planted(random.Random(1), 200, 500)
    witness, _ = decide_section(space, invol)
    for n in range(space.top_dim() + 1):
        stored = space.nondeg(n)
        assert witness.nondeg(n) == tuple(k for k in stored if witness.contains_key(n, k))
    assert_section(space, invol, witness)


def test_planted_past_the_recursion_limit():
    # one recursion frame per orbit overflowed the stack at about 1000
    space, invol = planted(random.Random(3), 400, 800)
    witness = find_section(space, invol)
    assert witness.counts() == {0: 1, 1: 400, 2: 800}
    assert_section(space, invol, witness)


def test_rotated_cycle_too_long_to_backtrack():
    # about 2^100 steps for the backtracking search
    space, invol = rotated(100)
    witness, cycle = decide_section(space, invol)
    assert witness is None
    assert_refutes(space, invol, cycle)


def test_section_search_pauses_the_cycle_collector(monkeypatch):
    """The cyclic collector is off while the clauses are built and their
    components taken, and as it was found afterwards: on again after a
    witness, after a refutation and after an involution of another space
    is refused, and still off where the caller had switched it off."""
    import gc

    import loopbetti.constructions as constructions

    collecting = []

    def watched(graph):
        collecting.append(gc.isenabled())
        return _components(graph)

    monkeypatch.setattr(constructions, "_components", watched)
    glued, double = sphere_pair_swap(), free_double_cover()
    runs = [(glued, True), (double, False), ((glued[0], double[1]), None)]
    try:
        for was_on in (True, False):
            for (space, invol), found in runs:
                collecting.clear()
                if was_on:
                    gc.enable()
                else:
                    gc.disable()
                if found is None:
                    with pytest.raises(ValidationError, match="different space"):
                        decide_section(space, invol)
                    assert not collecting
                else:
                    witness, cycle = decide_section(space, invol)
                    assert (witness is not None) == found and bool(cycle) != found
                    assert collecting == [False]
                assert gc.isenabled() == was_on, (was_on, found)
    finally:
        gc.enable()
