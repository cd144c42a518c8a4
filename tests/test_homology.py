"""GF(2) linear algebra, chain complexes, Betti numbers, induced ranks."""

import random
from copy import deepcopy

import pytest
from oracles import (
    constant_map,
    dense,
    first_nonzero_square,
    identity_map,
    identity_matrix,
    inclusion_map,
    induced_ranks_via_cycles,
    is_zero,
    kunneth_certified_by_scan,
    matmul,
    pivot_columns,
    quotient_betti_via_les,
    reduced_diagonal,
)
from shipped import (
    circle,
    circle_subset,
    free_double_cover,
    interval,
    point,
    sphere_pair_swap,
    trivial_circle,
    two_disc_sphere,
    zero_sphere_subset,
)

from loopbetti.constructions import (
    orbit_space,
    product,
    quotient,
    smash,
    smash_power,
)
from loopbetti.homology import (
    BettiTable,
    ChainComplexGF2,
    GF2SparseMatrix,
    UncertifiedRangeError,
    boundary_ranks,
    check_squares_to_zero,
    kunneth,
    rank_of_columns,
    reduce_columns,
    reduced_betti,
    table_from_dict,
    transpose,
)
from loopbetti.simplicial import PointedSubset, SimplexRef


# ---------------------------------------------------------------------------
# Sparse rank.
# ---------------------------------------------------------------------------

def test_rank_of_zero_and_identity():
    assert GF2SparseMatrix.zero(5, 7).rank() == 0
    assert identity_matrix(6).rank() == 6


def dense_rank_oracle(rows):
    """Textbook row reduction on a dense 0/1 matrix."""
    m = [row[:] for row in rows]
    rank = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        for r in range(n_rows):
            if r != pivot_row and m[r][col]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def test_rank_matches_dense_oracle_on_random_matrices():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[rng.randint(0, 1) for _ in range(20)] for _ in range(20)]
        cols = [{i for i in range(20) if rows[i][j]} for j in range(20)]
        mat = GF2SparseMatrix(20, 20, cols)
        assert mat.rank() == dense_rank_oracle(rows)


def test_matrix_product():
    a = GF2SparseMatrix(2, 2, [{0, 1}, {1}])
    b = GF2SparseMatrix(2, 2, [{0}, {0, 1}])
    # over GF(2): [[1,0],[1,1]] @ [[1,1],[0,1]] = [[1,1],[1,0]]
    assert dense(matmul(a, b)) == [[1, 1], [1, 0]]


# ---------------------------------------------------------------------------
# Chain complexes and Betti numbers.
# ---------------------------------------------------------------------------

def test_circle_boundary_is_zero():
    cc = ChainComplexGF2(circle(), 2)
    assert is_zero(cc.boundary(1))
    assert reduced_betti(circle(), 3).nonzero() == {1: 1}


def test_two_disc_sphere_boundary_and_betti():
    sp = two_disc_sphere()
    cc = ChainComplexGF2(sp, 3)
    # each disc has exactly the circle edge for a boundary
    assert dense(cc.boundary(2)) == [[1, 1]]
    assert reduced_betti(sp, 3).nonzero() == {2: 1}


def test_point_has_trivial_reduced_homology():
    assert reduced_betti(point(), 3).nonzero() == {}


def test_boundary_squares_to_zero_everywhere():
    spaces = [
        circle(),
        two_disc_sphere(),
        interval(),
        sphere_pair_swap()[0],
        smash_power(circle(), 3, truncation=4),
        product(circle(), two_disc_sphere(), truncation=4),
    ]
    for space in spaces:
        ChainComplexGF2(space, min(4, space.truncation)).check_boundary_squares_to_zero()


def clearing_spaces():
    """Every fixture (with the orbit space and fixed set of each involution)
    and smash powers s = 2..4 of the small ones, each with a chain top."""
    sphere = two_disc_sphere()
    spaces = [
        (point(), 2),
        (circle(), 3),
        (interval(), 3),
        (sphere, 3),
        (circle_subset(sphere), 2),
        (zero_sphere_subset(interval()), 2),
    ]
    orbits = []
    for builder in (sphere_pair_swap, free_double_cover, trivial_circle):
        space, invol = builder()
        orbit, _, fixed = orbit_space(space, invol)
        spaces += [(space, 3), (orbit, 3), (fixed, 2)]
        orbits.append(orbit)
    for s in (2, 3, 4):
        for base in [circle(), sphere] + orbits:
            top = s + 2 if base.top_dim() == 1 or s < 4 else 3
            spaces.append((smash_power(base, s, top), top))
    return spaces


def test_rank_with_clearing_equals_rank_without():
    """Clearing needs a boundary that squares to zero, so it is checked on
    real chain complexes: per degree against the plain elimination and, on
    the small matrices, the dense oracle; the Betti numbers stay the same."""
    dense_checked = 0
    for space, top in clearing_spaces():
        cc = ChainComplexGF2(space, top)
        mats = {n: cc.boundary(n) for n in range(1, top + 1)}
        cleared = boundary_ranks({n: transpose(mat.cols, mat.nrows) for n, mat in mats.items()})
        for n, mat in mats.items():
            plain = rank_of_columns(mat.cols)
            assert cleared[n] == plain == mat.rank(), (space, n)
            if mat.nrows * mat.ncols <= 5000:
                assert plain == dense_rank_oracle(dense(mat)), (space, n)
                dense_checked += 1
        for n in range(top):
            plain_betti = (
                len(cc.basis(n)) - cc.boundary(n).rank() - cc.boundary(n + 1).rank()
            )
            assert cc.betti(n) == plain_betti, (space, n)
    assert dense_checked >= 90


def test_clearing_skips_only_pivot_rows_of_the_degree_below(monkeypatch):
    # a filled triangle, bottom up: the coboundary to 1 lists each vertex's
    # edges and reduces to pivot rows 1 and 2, so edges 1 and 2 are skipped
    # in the coboundary to 2, and edge 0 alone still gives it rank 1
    import loopbetti.homology as homology

    vertices, edges = [{0, 2}, {0, 1}, {1, 2}], [{0}, {0}, {0}]
    skipped = []
    reduce = homology.reduce_columns

    def reduced(cols, skip=()):
        skipped.append(set(skip))
        return reduce(cols, skip)

    monkeypatch.setattr(homology, "reduce_columns", reduced)
    assert boundary_ranks({1: vertices, 2: edges}) == {1: 2, 2: 1}
    assert skipped == [set(), {1, 2}]
    assert boundary_ranks({2: edges}) == {2: 1}
    # pivot rows of the coboundary to 1 index 1-cells, so they never clear
    # columns of the coboundary to 3, which index 2-cells
    assert boundary_ranks({1: [{0}], 3: [{0}]}) == {1: 1, 3: 1}


def test_boundary_ranks_raises_on_a_non_complex():
    # one edge on vertices 0 and 1, and one 2-cell whose boundary is that
    # edge, whose own boundary {0, 1} is not zero
    cob = {1: [(0,), (0,)], 2: [(0,)]}
    with pytest.raises(ValueError, match="does not square to zero at dimension 2"):
        boundary_ranks(cob)
    with pytest.raises(ValueError, match="does not square to zero at dimension 2"):
        boundary_ranks(iter(sorted(cob.items())))
    with pytest.raises(ValueError, match="lowest degree up"):
        boundary_ranks(iter([(2, [(0,)]), (1, [(0,), (0,)])]))


def test_streamed_boundaries_rank_like_a_mapping():
    for space, top in clearing_spaces():
        cc = ChainComplexGF2(space, top)
        mats = {n: transpose(cc.boundary(n).cols, cc.boundary(n).nrows) for n in range(1, top + 1)}
        streamed = boundary_ranks((n, mats[n]) for n in range(1, top + 1))
        assert streamed == boundary_ranks(mats), space
        assert cc.ranks().items() <= streamed.items(), space


def test_boundary_ranks_checks_each_pair_before_reducing_and_streams(monkeypatch):
    """Bottom up: d_(n-1) d_n = 0 is checked, against the pivots of the
    coboundary to n - 1, before the coboundary to n is reduced, and that
    one is reduced before the next is asked for; by then the routine has
    let go of every raw coboundary, and of the one below it keeps only the
    pivots."""
    import weakref

    import loopbetti.homology as homology

    class Coboundary(list):
        degree = 0

    cc = ChainComplexGF2(smash_power(circle(), 3, truncation=4), 3)
    events = []
    alive: dict[int, weakref.ref] = {}
    pivots_of: dict[int, dict] = {}
    check, reduce = homology.check_squares_to_zero, homology.reduce_columns

    def checked(upper, lower, n):
        events.append(("check", n))
        assert upper.degree == n
        assert list(lower) == list(pivots_of[n - 1].values())
        return check(upper, lower, n)

    def reduced(cols, skip=()):
        cols = list(cols)
        latest = alive[max(alive)]()
        assert all(col is given for (_, col), given in zip(cols, latest))
        events.append(("reduce", latest.degree))
        pivots_of[latest.degree] = pivots = reduce(cols, skip)
        return pivots

    def stream():
        for n in (1, 2, 3):
            held = [k for k, ref in alive.items() if ref() is not None]
            assert held == [], (n, held)
            events.append(("yield", n))
            cob = Coboundary(transpose(cc.boundary(n).cols, cc.boundary(n).nrows))
            cob.degree = n
            alive[n] = weakref.ref(cob)
            yield n, cob
            del cob

    monkeypatch.setattr(homology, "check_squares_to_zero", checked)
    monkeypatch.setattr(homology, "reduce_columns", reduced)
    assert homology.boundary_ranks(stream()) == cc.ranks()
    assert events == [
        ("yield", 1), ("reduce", 1),
        ("yield", 2), ("check", 2), ("reduce", 2),
        ("yield", 3), ("check", 3), ("reduce", 3),
    ]


def test_square_check_against_the_pivots_below_is_exact():
    """d^2 is checked against the pivots of the coboundary below, not its
    raw columns.  One seeded entry of one coboundary of each complex is
    flipped: ``boundary_ranks`` raises at the degree where a check of every
    raw column first fails, and ranks like the plain elimination where that
    passes.  Some flips break d^2 only in columns that the check never
    reads as given: columns that clearing skips, that are eliminated to
    zero, or that are kept only once reduced.  A kept column always fails
    as well, since the kept columns span the others once the pair below
    has passed."""
    only_unread = 0
    for k, (space, top) in enumerate(clearing_spaces()):
        cc = ChainComplexGF2(space, top)
        cob = {n: transpose(cc.boundary(n).cols, cc.boundary(n).nrows) for n in range(1, top + 1)}
        assert first_nonzero_square(cob) is None
        assert boundary_ranks(cob) == {m: rank_of_columns(c) for m, c in cob.items()}, space
        flippable = [n for n in cob if cob[n] and cc.basis(n)]
        if not flippable:
            continue
        rng = random.Random(k)
        n = rng.choice(flippable)
        j, i = rng.randrange(len(cob[n])), rng.randrange(len(cc.basis(n)))
        cob[n][j] = tuple(sorted(set(cob[n][j]) ^ {i}))
        failure = first_nonzero_square(cob)
        if failure is None:
            assert boundary_ranks(cob) == {m: rank_of_columns(c) for m, c in cob.items()}, space
            continue
        degree, failing = failure
        with pytest.raises(ValueError, match=f"at dimension {degree}$"):
            boundary_ranks(cob)
        # the columns of the coboundary to degree - 1 that its reduction
        # keeps, cleared by the pivot rows of the one below it
        skip: object = ()
        for m in range(1, degree - 1):
            skip = reduce_columns(enumerate(cob[m]), skip)
        kept = pivot_columns(enumerate(cob[degree - 1]), skip)
        assert set(failing) & set(kept), space
        only_unread += not any(kept.get(c) for c in failing)
    assert only_unread


def test_square_check_is_exact_by_parity():
    """A column passes exactly when the rows it names hold every cell an
    even number of times: sorted, their concatenation must agree at even
    and odd positions.  Cells held 2 or 4 times pass; a cell held once or
    three times raises, also where the total length is even, and so does
    an odd total length.  Rows are tuples or, as the brute kernel builds
    them, lists, and every call leaves them as they were: each column is
    gathered into a list of its own, never into its first row."""
    keyed = {1: (10, 20), 2: (10, 30), 3: (20, 30), 4: (10, 20), 5: (10,), 6: (20,), 7: (30,)}
    passing = [(1, 2, 3), (1, 4), (1, 1, 4, 4), (5, 5), (1, 4, 5, 5, 6, 6)]
    failing = [
        (5, 6),  # 10 and 20 once each
        (1, 2),  # 10 twice, 20 and 30 once each
        (1, 5),  # 10 twice, 20 once: odd length
        (1, 4, 5, 6),  # 10 and 20 three times each: even length
        (5, 5, 5),  # 10 three times: odd length
        (7,),  # 30 once
    ]
    for kind in (tuple, list):
        upper = {j: kind(row) for j, row in keyed.items()}
        listed = list(map(kind, [(3, 9), (9, 3), (3,)]))
        before = deepcopy(upper), deepcopy(listed)
        check_squares_to_zero(upper, passing, 4)
        check_squares_to_zero(listed, [(0, 1), (2, 2)], 4)
        assert (upper, listed) == before, kind
        for col in failing:
            with pytest.raises(ValueError, match="at dimension 4$"):
                check_squares_to_zero(upper, passing + [col], 4)
            assert upper == before[0], (kind, col)


def test_code_keyed_columns_rank_like_positional_ones():
    """``reduce_columns`` and ``boundary_ranks`` read a coboundary keyed by
    cell codes as one indexed by position: the same ranks, with ``skip``
    matched by key.  The codes are spread out, and in the second labelling
    out of order, so no key equals its position by accident."""
    rng = random.Random(5)
    labellings = [
        lambda size: [5 + 3 * i for i in range(size)],
        lambda size: rng.sample(range(10 * size + 1), size),
    ]
    for space, top in clearing_spaces():
        cc = ChainComplexGF2(space, top)
        positional = {
            n: transpose(cc.boundary(n).cols, cc.boundary(n).nrows) for n in range(1, top + 1)
        }
        for monotone, label in zip((True, False), labellings):
            codes = [label(len(cc.basis(n))) for n in range(top + 1)]
            keyed = {
                n: {codes[n - 1][j]: tuple(codes[n][i] for i in col) for j, col in enumerate(cols)}
                for n, cols in positional.items()
            }
            assert boundary_ranks(keyed) == boundary_ranks(positional), space
            for n, cols in positional.items():
                skip = set(rng.sample(range(len(cols)), len(cols) // 3))
                by_key = reduce_columns(keyed[n].items(), {codes[n - 1][j] for j in skip})
                by_index = reduce_columns(enumerate(cols), skip)
                assert len(by_key) == len(by_index), (space, n)
                if monotone:
                    assert set(by_key) == {codes[n][p] for p in by_index}, (space, n)


def test_reduce_columns_leaves_its_input_columns_unmutated():
    """A column that needs no elimination becomes a pivot as it is, so the
    pivots alias the caller's columns, which the next d^2 check reads
    again; neither tuple, set nor list columns (the brute kernel's rows)
    may change."""
    cc = ChainComplexGF2(smash_power(two_disc_sphere(), 2, truncation=5), 4)
    for kind in (tuple, set, list):
        aliased = reduced = 0
        for n in (1, 2, 3, 4):
            cols = list(map(kind, transpose(cc.boundary(n).cols, cc.boundary(n).nrows)))
            before = [sorted(col) for col in cols]
            pivots = reduce_columns(enumerate(cols))
            assert [sorted(col) for col in cols] == before, (kind, n)
            assert len(pivots) == cc.ranks().get(n, 0), (kind, n)
            given = {id(col) for col in cols}
            for p, col in pivots.items():
                assert max(col) == p
                assert id(col) in given or type(col) is tuple
                aliased += id(col) in given
                reduced += id(col) not in given
        # both kinds of pivot occur, so both paths were checked
        assert aliased and reduced, kind


def test_smash_powers_of_spheres():
    c = circle()
    assert reduced_betti(smash_power(c, 2, truncation=4), 3).nonzero() == {2: 1}
    sp = two_disc_sphere()
    for s in (1, 2, 3):
        table = reduced_betti(smash_power(sp, s, truncation=2 * s + 1), 2 * s)
        assert table.nonzero() == {2 * s: 1}


def test_kunneth_on_fixture_smashes():
    pairs = [
        (circle(), circle()),
        (circle(), two_disc_sphere()),
        (two_disc_sphere(), two_disc_sphere()),
    ]
    for a, b in pairs:
        top = a.top_dim() + b.top_dim()
        sm = smash(a, b, truncation=top + 1)
        direct = reduced_betti(sm, top)
        tensored = kunneth(reduced_betti(a, a.top_dim()), reduced_betti(b, b.top_dim()))
        assert direct.through(top) == tensored.through(top)


def test_kunneth_keeps_only_certified_entries():
    """The product 1 + 3 lands at degree 4, above the certified degree 1
    (degree 2 is unknown: b_2 of the first factor is uncovered)."""
    table = kunneth(BettiTable({1: 1}, certified=1), table_from_dict({0: 1, 3: 1}))
    assert table == BettiTable({1: 1}, certified=1)


def random_table(rng):
    certified = rng.randint(-1, 5)
    zero_from = rng.choice([None, rng.randint(0, 8)])
    top = certified if zero_from is None else min(certified, zero_from - 1)
    entries = {n: rng.choice([0, 0, 1, 2]) for n in range(top + 1)}
    return BettiTable(entries, certified=certified, zero_from=zero_from)


def test_kunneth_certification_matches_the_scan():
    """The closed-form certified degree equals the degree-by-degree scan,
    and the table keeps exactly the convolution entries within it."""
    rng = random.Random(2013)
    for _ in range(15000):
        a, b = random_table(rng), random_table(rng)
        certified = kunneth_certified_by_scan(a, b)
        table = kunneth(a, b)
        assert table.certified == certified, (a, b)
        for n in range(certified + 1):
            # a split with an uncovered side has a covered zero on the other
            splits = [p for p in range(n + 1) if a.covers(p) and b.covers(n - p)]
            assert table[n] == sum(a[p] * b[n - p] for p in splits), (a, b, n)


def test_euler_characteristic_consistency():
    spaces = [
        circle(),
        two_disc_sphere(),
        sphere_pair_swap()[0],
        smash_power(circle(), 3, truncation=4),
    ]
    for space in spaces:
        top = space.top_dim()
        cc = ChainComplexGF2(space, top)
        table = reduced_betti(space, top)
        cells = sum((-1) ** n * len(cc.basis(n)) for n in range(top + 1))
        betti = sum((-1) ** n * table[n] for n in range(top + 1))
        assert cells == betti


def test_insufficient_truncation_is_refused():
    import pytest as _pytest

    from loopbetti.simplicial import TruncationError

    shallow = smash_power(two_disc_sphere(), 2, truncation=2)
    with _pytest.raises(TruncationError):
        reduced_betti(shallow, 3)


def test_betti_table_range_is_enforced():
    table = BettiTable({1: 1}, certified=2)
    assert table[2] == 0
    with pytest.raises(UncertifiedRangeError):
        table[3]
    complete = table_from_dict({1: 1})
    assert complete[99] == 0


# ---------------------------------------------------------------------------
# Induced ranks.
# ---------------------------------------------------------------------------

def induces_zero(f, t_max):
    return not any(induced_ranks_via_cycles(f, t_max).values())


def test_identity_induces_identity():
    for sp in (two_disc_sphere(), circle(), sphere_pair_swap()[0]):
        assert induced_ranks_via_cycles(identity_map(sp), 2) == reduced_betti(sp, 2).through(2)


def test_constant_map_induces_zero():
    ranks = induced_ranks_via_cycles(constant_map(circle(), two_disc_sphere()), 2)
    assert ranks == {0: 0, 1: 0, 2: 0}


def test_circle_diagonal_is_homologous_to_zero():
    diag = reduced_diagonal(circle(), truncation=6)
    diag.check()
    assert induces_zero(diag, 2)


def test_sphere_diagonal_is_homologous_to_zero():
    diag = reduced_diagonal(two_disc_sphere(), truncation=10)
    assert induces_zero(diag, 4)


def test_zero_sphere_diagonal_is_not_homologous_to_zero():
    space = interval()
    subset = zero_sphere_subset(space)
    diag = reduced_diagonal(subset, truncation=4)
    assert not induces_zero(diag, 1)


def test_identity_on_circle_not_homologous_zero():
    assert not induces_zero(identity_map(circle()), 2)


# ---------------------------------------------------------------------------
# Exact-sequence bookkeeping.
# ---------------------------------------------------------------------------

def test_les_matches_direct_quotient_on_named_pairs(glued_spheres):
    sp = two_disc_sphere()
    sub = circle_subset(sp)
    direct = reduced_betti(quotient(sp, sub)[0], 3)
    via_les = quotient_betti_via_les(sp, sub, 3)
    assert direct.through(3) == via_les.through(3)


def test_les_of_basepoint_and_whole():
    from oracles import whole_subset

    from loopbetti.simplicial import basepoint_subset

    sp = two_disc_sphere()
    assert quotient_betti_via_les(sp, basepoint_subset(sp), 3).through(3) == \
        reduced_betti(sp, 3).through(3)
    assert quotient_betti_via_les(sp, whole_subset(sp), 3).nonzero() == {}


def random_subset(rng, space):
    """A random face-closed pointed subset: seed with random simplices and
    close downward."""
    members = {n: set() for n in range(space.top_dim() + 1)}
    members[0].add(space.basepoint)
    for n in range(space.top_dim() + 1):
        for key in space.nondeg(n):
            if rng.random() < 0.4:
                members[n].add(key)
    for n in range(space.top_dim(), 0, -1):
        for key in list(members[n]):
            ref = SimplexRef(n, key, ())
            for i in range(n + 1):
                face = space.face_of(ref, i)
                members[face.base_dim].add(face.base)
    return PointedSubset(space, members)


def test_les_matches_direct_quotient_on_random_pairs():
    rng = random.Random(23)
    spaces = [
        sphere_pair_swap()[0],
        product(circle(), circle(), truncation=5),
        smash_power(two_disc_sphere(), 2, truncation=5),
        smash(circle(), two_disc_sphere(), truncation=5),
    ]
    checked = 0
    while checked < 20:
        space = rng.choice(spaces)
        subset = random_subset(rng, space)
        t_max = min(3, space.top_dim() - 1)
        direct = reduced_betti(quotient(space, subset)[0], t_max)
        via_les = quotient_betti_via_les(space, subset, t_max)
        assert direct.through(t_max) == via_les.through(t_max)
        checked += 1


def test_pinched_inclusion_into_smash_square_is_zero(glued_pinched, glued_spheres):
    from loopbetti.pinched import pinched_set

    ambient = glued_pinched.ambient(2, 5)
    subset = pinched_set(
        glued_spheres["orbit"], glued_spheres["fixed"], 2, ambient=ambient
    )
    assert induces_zero(inclusion_map(subset), 3)


def test_quotient_of_smash_square_by_pinched(glued_pinched, glued_spheres):
    orbit = glued_spheres["orbit"]
    amb = glued_pinched.ambient(2, 5)
    from loopbetti.pinched import pinched_set

    sub5 = pinched_set(orbit, glued_spheres["fixed"], 2, truncation=5, ambient=amb)
    quot, _ = quotient(amb, sub5)
    direct = reduced_betti(quot, 4)
    assert direct.nonzero() == {2: 1, 4: 1}
    # the rank bookkeeping agrees without building the quotient at all
    assert quotient_betti_via_les(amb, sub5, 4).through(4) == direct.through(4)
