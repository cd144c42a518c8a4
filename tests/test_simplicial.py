"""The operator calculus, constructions and searches on simplicial sets."""

import random

import pytest
from oracles import (
    SimplicialMap,
    compose,
    count_by_enumeration,
    orbit_projection,
    section_map,
    wedge_axes_subset,
    whole_subset,
)
from section_spaces import planted
from shipped import (
    circle,
    circle_subset,
    free_double_cover,
    interval,
    point,
    sphere_pair_swap,
    trivial_circle,
    two_disc_sphere,
)

from loopbetti.constructions import (
    decide_section,
    find_section,
    orbit_space,
    product,
    quotient,
    smash,
    smash_power,
)
from loopbetti.homology import ChainComplexGF2, reduced_betti
from loopbetti.simplicial import (
    FiniteSimplicialSet,
    Involution,
    PointedSubset,
    SimplexRef,
    ValidationError,
    basepoint_subset,
    SimplicialSet,
    TruncationError,
    insert_degeneracy,
)


# ---------------------------------------------------------------------------
# Word calculus.
# ---------------------------------------------------------------------------

def test_degeneracy_cancellations():
    c = circle()
    v = c.simplex("*")
    s0v = c.degenerate_of(v, 0)
    assert c.face_of(s0v, 0) == v  # d0 s0 = id
    assert c.face_of(s0v, 1) == v  # d1 s0 = id


def test_face_commutes_past_degeneracy():
    c = circle()
    e = c.simplex("e")
    s1e = c.degenerate_of(e, 1)
    # d0 s1 = s0 d0, and d0 e is the basepoint
    assert c.face_of(s1e, 0) == SimplexRef(0, "*", (0,))


def test_double_degeneracy_normal_form():
    c = circle()
    v = c.simplex("*")
    s0v = c.degenerate_of(v, 0)
    s0s0v = c.degenerate_of(s0v, 0)
    # s0 s0 rewrites to s1 s0: the stored word is (0, 1)
    assert s0s0v == SimplexRef(0, "*", (0, 1))


def naive_normalize(ops):
    """Oracle: rewrite an operator list (outermost first) to normal form
    using s_i s_j -> s_{j+1} s_i for i <= j, by repeated scanning."""
    ops = list(ops)
    changed = True
    while changed:
        changed = False
        for k in range(len(ops) - 1):
            if ops[k] <= ops[k + 1]:
                ops[k], ops[k + 1] = ops[k + 1] + 1, ops[k]
                changed = True
    return tuple(reversed(ops))


def test_word_normalization_matches_naive_rewriting():
    rng = random.Random(7)
    for _ in range(300):
        length = rng.randint(0, 6)
        ops_applied = []  # innermost first
        dim = 0
        for _ in range(length):
            ops_applied.append(rng.randint(0, dim))
            dim += 1
        word = ()
        for j in ops_applied:
            word = insert_degeneracy(word, j)
        assert word == naive_normalize(list(reversed(ops_applied)))


SPACES = [circle(), two_disc_sphere(), interval(), sphere_pair_swap()[0]]


def test_simplicial_identities_exhaustive():
    """All the operator identities, on every simplex of several spaces
    through dimension 5 (each base with each word) and every index pair,
    so that faces which cancel a repeat and faces which reach the base are
    both checked at every position."""
    for space in SPACES:
        for n in range(6):
            for r in space.refs_at(n):
                s = [space.degenerate_of(r, j) for j in range(n + 1)]
                d = [space.face_of(r, i) for i in range(n + 1)] if n else []
                # s_i s_j = s_{j+1} s_i for i <= j
                for j in range(n + 1):
                    for i in range(j + 1):
                        assert space.degenerate_of(s[j], i) == space.degenerate_of(s[i], j + 1)
                # d_i d_j = d_{j-1} d_i for i < j
                for j in range(1, n + 1) if n >= 2 else ():
                    for i in range(j):
                        assert space.face_of(d[j], i) == space.face_of(d[i], j - 1)
                # d_i s_j = s_{j-1} d_i (i < j), id (i = j, j + 1), s_j d_{i-1} (i > j + 1)
                for j in range(n + 1):
                    for i in range(n + 2):
                        if i < j:
                            expected = space.degenerate_of(d[i], j - 1)
                        elif i <= j + 1:
                            expected = r
                        else:
                            expected = space.degenerate_of(d[i - 1], j)
                        assert space.face_of(s[j], i) == expected, (r, j, i)


def test_stored_face_tables_satisfy_identities():
    for space in SPACES:
        space.check_face_identities()


def test_validation_computes_each_distinct_face_once(monkeypatch):
    # every edge of the planted space is a disc face, and each disc's other
    # faces are s0@*; validation reads the faces of the 20 edges from the
    # table, so the only faces of faces it computes are d_0 and d_1 of s0@*
    face_of = SimplicialSet.face_of
    calls = 0

    def counting(self, ref, i):
        nonlocal calls
        calls += 1
        return face_of(self, ref, i)

    monkeypatch.setattr(SimplicialSet, "face_of", counting)
    counts = []
    for discs in (1000, 2000):
        calls = 0
        space, _ = planted(random.Random(1), 10, discs)
        counts.append(calls)
        disc_faces = [space._base_face(d, 2, i) for d in space.nondeg(2) for i in range(3)]
        assert {ref.base for ref in disc_faces[::3]} == set(space.nondeg(1))
    assert counts == [2, 2]
    degenerate = [ref for k, ref in enumerate(disc_faces) if k % 3]
    assert degenerate[0] == SimplexRef(0, "*", (0,))
    assert all(ref is degenerate[0] for ref in degenerate)


def test_face_index_out_of_range():
    c = circle()
    with pytest.raises(ValueError):
        c.face_of(c.simplex("e"), 2)
    with pytest.raises(ValueError):
        c.face_of(c.simplex("*"), 0)


def test_unknown_face_base_rejected():
    with pytest.raises(ValidationError):
        FiniteSimplicialSet(4, {0: ["*"], 1: ["e"]}, {"e": ["*", "ghost"]})


# ---------------------------------------------------------------------------
# Products and smashes.
# ---------------------------------------------------------------------------

def test_product_with_point_is_isomorphic():
    c = circle()
    pr = product(point(), c, truncation=6)
    assert [len(pr.nondeg(n)) for n in range(4)] == \
        [len(c.nondeg(n)) for n in range(4)]


def test_product_of_circles_has_two_shuffle_triangles():
    c = circle()
    pr = product(c, c, truncation=6)
    assert len(pr.nondeg(2)) == 2
    assert len(pr.nondeg(1)) == 3  # two edge-vertex mixes and the diagonal


def exhaustive_product_count(a, b, n):
    """Oracle: normalize every pair of dimension-n simplices and count the
    distinct nondegenerate results."""
    pr = product(a, b, truncation=n + 1)
    seen = set()
    for ra in a.refs_at(n):
        for rb in b.refs_at(n):
            ref = pr.canonical_ref((ra, rb))
            if not ref.word:
                seen.add(ref.base)
    return seen


def test_product_counts_match_exhaustive_enumeration():
    pairs = [(circle(), circle()), (circle(), two_disc_sphere())]
    for a, b in pairs:
        pr = product(a, b, truncation=5)
        for n in range(5):
            assert set(pr.nondeg(n)) == exhaustive_product_count(a, b, n)


# dimensions enumerated per smash power s = 1..6, kept to a few thousand cells
COUNT_DEPTHS = {
    sphere_pair_swap: (2, 4, 4, 3, 2, 2),
    trivial_circle: (1, 2, 3, 4, 5, 5),
    free_double_cover: (1, 2, 3, 3, 2, 2),
}


@pytest.mark.parametrize("builder", sorted(COUNT_DEPTHS, key=lambda b: b.__name__))
def test_closed_count_matches_enumeration_on_smash_powers(builder):
    from loopbetti.verify import try_materialize_count

    orbit, _, _ = orbit_space(*builder())
    for s, top in enumerate(COUNT_DEPTHS[builder], start=1):
        space = smash_power(orbit, s, top)
        for n in range(top + 1):
            total = count_by_enumeration(space, n)
            assert try_materialize_count(orbit, s, n, total) == total, (s, n)
            assert try_materialize_count(orbit, s, n, total - 1) is None


def test_smash_of_point_is_point():
    sm = smash(point(), circle(), truncation=5)
    assert [len(sm.nondeg(n)) for n in range(3)] == [1, 0, 0]


def test_smash_power_one_matches_the_space():
    sp = two_disc_sphere()
    s1 = smash_power(sp, 1, truncation=6)
    assert [len(s1.nondeg(n)) for n in range(4)] == \
        [len(sp.nondeg(n)) for n in range(4)]
    assert reduced_betti(s1, 3).nonzero() == reduced_betti(sp, 3).nonzero()


def test_smash_equals_product_collapsed_by_axes():
    a, b = circle(), two_disc_sphere()
    pr = product(a, b, truncation=4)
    sm = smash(a, b, truncation=4)
    quot, _ = quotient(pr, wedge_axes_subset(pr))
    for n in range(1, 5):
        assert set(quot.nondeg(n)) == set(sm.nondeg(n))
    assert reduced_betti(quot, 3).nonzero() == reduced_betti(sm, 3).nonzero()


def test_smash_power_rejects_zero():
    with pytest.raises(ValidationError):
        smash_power(circle(), 0)


# ---------------------------------------------------------------------------
# Quotients.
# ---------------------------------------------------------------------------

def test_quotient_by_basepoint_is_identity():
    sp = two_disc_sphere()
    quot, _ = quotient(sp, basepoint_subset(sp))
    assert [len(quot.nondeg(n)) for n in range(3)] == \
        [len(sp.nondeg(n)) for n in range(3)]


def test_quotient_projection_is_a_simplicial_map():
    sp = two_disc_sphere()
    for subset, edge_image in ((basepoint_subset(sp), sp.simplex("e")),
                               (circle_subset(sp), SimplexRef(0, "*", (0,)))):
        quot, projection = quotient(sp, subset)
        SimplicialMap(sp, quot, projection)  # checks faces and the basepoint
        assert projection[1] == {"e": edge_image}
        assert projection[2] == {"g1": sp.simplex("g1"), "g2": sp.simplex("g2")}


def test_quotient_by_everything_is_point():
    sp = two_disc_sphere()
    quot, _ = quotient(sp, whole_subset(sp))
    assert [len(quot.nondeg(n)) for n in range(3)] == [1, 0, 0]


def test_reaches_is_the_one_truncation_rule():
    """Above its recorded truncation a listed space still reaches: nondeg is
    empty and refs_at gives the degeneracies.  A smash power cut at its
    truncation raises one message wherever a dimension past it is asked."""
    listed = FiniteSimplicialSet(1, {0: ["*"], 1: ["e"]}, {"e": ["*", "*"]})
    assert listed.nondeg(3) == ()
    assert listed.refs_at(3) == [SimplexRef(0, "*", (0, 1, 2))] + [
        SimplexRef(1, "e", word) for word in ((0, 1), (0, 2), (1, 2))
    ]
    assert reduced_betti(listed, 3).nonzero() == {1: 1}
    cut = smash_power(two_disc_sphere(), 2, truncation=2)
    asks = [
        (3, lambda: cut.nondeg(3)),
        (3, lambda: cut.refs_at(3)),
        (3, lambda: cut.degenerate_of(cut.basepoint_ref(2), 0)),
        (4, lambda: ChainComplexGF2(cut, 4)),
        (3, lambda: PointedSubset(cut, {}, truncation=3)),
    ]
    for n, ask in asks:
        with pytest.raises(TruncationError) as caught:
            ask()
        assert str(caught.value) == f"dimension {n} beyond truncation 2"


def test_subset_closure_validated():
    sp = two_disc_sphere()
    with pytest.raises(ValidationError):
        PointedSubset(sp, {2: ["g1"]})  # missing the edge below the disc


@pytest.mark.parametrize("members, key", [({0: ["ghost"]}, "ghost"), ({1: ["*"]}, "*")])
def test_subset_member_must_be_a_simplex_of_the_ambient(members, key):
    with pytest.raises(ValidationError, match="is not a nondegenerate") as caught:
        PointedSubset(circle(), members)
    assert caught.value.simplex == key


def test_closure_check_names_the_first_failing_member_in_stored_order():
    """Each dimension is checked whole, then scanned again in stored order
    on a failure: the error names the first failing member and, for it,
    the first failing face, as a member-by-member scan would."""
    sp = FiniteSimplicialSet(
        4,
        {0: ["*"], 1: ["e", "f"], 2: ["A", "B"]},
        {
            "e": ["*", "*"],
            "f": ["*", "*"],
            "A": ["s0@*", "s0@*", "f"],  # only face 2 can escape
            "B": ["e", "s0@*", "f"],
        },
    )
    escapes = "subset is not face-closed: face {} of {!r} escapes"
    cases = [
        # a member whose face escapes, then one that is no simplex at all
        ({1: ["e"], 2: ["A", "ghost"]}, escapes.format(2, "A")),
        # a later member failing at a lower face index
        ({2: ["A", "B"]}, escapes.format(2, "A")),
        ({2: ["B", "A"]}, escapes.format(0, "B")),
        ({1: ["e"], 2: ["B", "A", "ghost"]}, escapes.format(2, "B")),
        ({1: ["e", "f"], 2: ["ghost", "A"]}, "'ghost' is not a nondegenerate 2-simplex"),
        ({1: ["e", "f"], 2: ["A", "ghost"]}, "'ghost' is not a nondegenerate 2-simplex"),
        # the lower dimension fails first, whatever fails above it
        ({1: ["e", "A"], 2: ["A"]}, "'A' is not a nondegenerate 1-simplex"),
    ]
    for members, message in cases:
        with pytest.raises(ValidationError) as caught:
            PointedSubset(sp, members)
        assert str(caught.value) == message, members
    PointedSubset(sp, {1: ["f", "e"], 2: ["B", "A"]})  # closed
    # an ambient without a face table takes the same route
    torus = product(circle(), circle(), truncation=3)
    triangle = torus.nondeg(2)[0]
    with pytest.raises(ValidationError) as caught:
        PointedSubset(torus, {2: [triangle]})
    assert str(caught.value) == escapes.format(0, triangle)


def test_subset_keeps_the_callers_order():
    sp = FiniteSimplicialSet(
        4,
        {0: ["*", "p", "q"], 1: ["u", "w"]},
        {"u": ["p", "q"], "w": ["q", "p"]},
    )
    subset = PointedSubset(sp, {1: ["w", "u", "w"], 0: ["q", "p", "q"]})
    # the basepoint, left out, comes first; repeats go; dimensions ascend
    assert [subset.nondeg(n) for n in range(2)] == [("*", "q", "p"), ("w", "u")]
    assert list(subset.counts()) == [0, 1]
    listed = PointedSubset(sp, {0: ["q", "*", "p"]})
    assert listed.nondeg(0) == ("q", "*", "p")  # a listed basepoint stays put


# ---------------------------------------------------------------------------
# Involutions, orbit spaces, sections.
# ---------------------------------------------------------------------------

def test_involution_must_square_to_identity():
    sp = two_disc_sphere()
    Involution(sp, {"g1": "g2", "g2": "g1"})  # a genuine swap is fine
    with pytest.raises(ValidationError):
        Involution(sp, {"g1": "g2"})  # g1 -> g2 -> g2 does not square to one


def test_involution_must_commute_with_faces():
    space, _ = free_double_cover()
    with pytest.raises(ValidationError):
        # swapping two vertices without moving the edges breaks d_i
        Involution(space, {"v0": "v1", "v1": "v0"})


def test_involution_applied_twice_is_identity():
    space, invol = sphere_pair_swap()
    for n in range(space.top_dim() + 1):
        for key in space.nondeg(n):
            assert invol(invol(key)) == key


def test_orbit_space_of_trivial_action_is_the_space():
    space, invol = trivial_circle()
    orbit, _, fixed = orbit_space(space, invol)
    assert [len(orbit.nondeg(n)) for n in range(2)] == [1, 1]
    assert fixed.counts() == {0: 1, 1: 1}


def test_orbit_space_of_glued_spheres(glued_spheres):
    orbit = glued_spheres["orbit"]
    fixed = glued_spheres["fixed"]
    sphere = two_disc_sphere()
    assert [len(orbit.nondeg(n)) for n in range(3)] == \
        [len(sphere.nondeg(n)) for n in range(3)]
    assert reduced_betti(orbit, 3).nonzero() == {2: 1}
    assert fixed.counts() == {0: 1, 1: 1}
    assert reduced_betti(fixed, 2).nonzero() == {1: 1}


def test_orbit_space_picks_the_first_stored_simplex_of_each_orbit():
    for space, invol in (sphere_pair_swap(), free_double_cover(), planted(random.Random(3), 6, 9)):
        orbit, rep, fixed = orbit_space(space, invol)
        projection = orbit_projection(space, orbit, rep)
        for n in range(space.top_dim() + 1):
            stored = space.nondeg(n)
            reps = tuple(k for k in stored if stored.index(k) <= stored.index(invol(k)))
            assert orbit.nondeg(n) == reps
            assert fixed.nondeg(n) == tuple(k for k in stored if invol(k) == k)
            for key in stored:
                image = min(key, invol(key), key=stored.index)
                assert projection.apply_key(n, key) == SimplexRef(n, image, ())


def test_orbit_space_of_free_cover():
    space, invol = free_double_cover()
    orbit, _, fixed = orbit_space(space, invol)
    assert [len(orbit.nondeg(n)) for n in range(2)] == [3, 2]
    assert fixed.counts() == {0: 1}


def test_section_exists_for_glued_spheres(glued_spheres):
    space = glued_spheres["space"]
    invol = glued_spheres["invol"]
    orbit = glued_spheres["orbit"]
    projection = orbit_projection(space, orbit, glued_spheres["rep"])
    section = find_section(space, invol)
    assert section is not None
    assert section.counts() == {0: 1, 1: 1, 2: 2}
    j = section_map(orbit, space, section, invol)
    composite = compose(projection, j)
    for n in range(orbit.top_dim() + 1):
        for key in orbit.nondeg(n):
            assert composite.apply_key(n, key) == SimplexRef(n, key, ())


def test_orbit_pairing_is_built_once_per_dimension(monkeypatch):
    """The orbit space, the section search and the fixed simplices all read
    one pairing per involution and dimension, built on first use."""
    built = []
    pair = Involution._pair

    def counting(self, n):
        built.append((id(self), n))
        return pair(self, n)

    monkeypatch.setattr(Involution, "_pair", counting)
    for space, invol in (sphere_pair_swap(), free_double_cover(), planted(random.Random(3), 6, 9)):
        built.clear()
        orbit_space(space, invol)
        decide_section(space, invol)
        for n in range(space.top_dim() + 1):
            invol.fixed(n)
        assert sorted(built) == [(id(invol), n) for n in range(space.top_dim() + 1)]


def test_section_exists_for_trivial_action():
    space, invol = trivial_circle()
    section = find_section(space, invol)
    assert section is not None
    assert section.counts() == {0: 1, 1: 1}


def test_no_section_for_free_double_cover():
    space, invol = free_double_cover()
    assert find_section(space, invol) is None


def test_smash_functoriality_on_betti():
    c = circle()
    for a, b in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        joined = smash_power(c, a + b, truncation=a + b + 1)
        split = smash(
            smash_power(c, a, truncation=a + b + 1),
            smash_power(c, b, truncation=a + b + 1),
            truncation=a + b + 1,
        )
        top = a + b
        assert reduced_betti(joined, top).through(top) == \
            reduced_betti(split, top).through(top)
