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

from loopbetti.closed_form import (
    BettiInput,
    betti_pinched_example,
    betti_pinched_formula_table,
    loop_betti,
    poincare_coeffs,
    quotient_betti_concentrated,
)
from loopbetti.constructions import (
    TupleSpace,
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
from loopbetti.pinched import mv_e1_table, pinched_betti_brute, pinched_set, quotient_betti_brute
from loopbetti.simplicial import FiniteSimplicialSet, PointedSubset, SimplexRef
from loopbetti.sset_io import serialize
from loopbetti.verify import bookkept_quotient_betti


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
        cleared = boundary_ranks((n, transpose(mat.cols, mat.nrows)) for n, mat in mats.items())
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
    assert boundary_ranks([(1, vertices), (2, edges)]) == {1: 2, 2: 1}
    assert skipped == [set(), {1, 2}]
    # the lowest degree clears nothing
    assert boundary_ranks([(2, edges)]) == {2: 1}
    assert skipped[2:] == [set()]


def test_boundary_ranks_raises_on_a_non_complex():
    # one edge on vertices 0 and 1, and one 2-cell whose boundary is that
    # edge, whose own boundary {0, 1} is not zero
    cob = [(1, [(0,), (0,)]), (2, [(0,)])]
    with pytest.raises(ValueError, match="does not square to zero at dimension 2"):
        boundary_ranks(cob)
    with pytest.raises(ValueError, match="does not square to zero at dimension 2"):
        boundary_ranks(iter(cob))


def test_boundary_ranks_raises_on_degrees_out_of_sequence():
    """The degrees must be consecutive from the lowest up: a stream that
    goes down, repeats a degree or skips one raises before it is ranked."""
    vertices, edges = [(0, 2), (0, 1), (1, 2)], [(0,), (0,), (0,)]
    assert boundary_ranks([(1, vertices), (2, edges)]) == {1: 2, 2: 1}
    for stream in (
        [(2, edges), (1, vertices)],
        [(1, vertices), (1, vertices)],
        [(1, [(0,)]), (3, [(0,)])],
        [(1, vertices), (2, edges), (4, [])],
    ):
        with pytest.raises(ValueError, match="consecutive degrees"):
            boundary_ranks(iter(stream))


def test_streamed_boundaries_rank_like_each_degree_alone():
    """The stream's ranks, taken with clearing and the ∂² check, are the
    ranks of each coboundary reduced on its own."""
    for space, top in clearing_spaces():
        cc = ChainComplexGF2(space, top)
        mats = {n: transpose(cc.boundary(n).cols, cc.boundary(n).nrows) for n in range(1, top + 1)}
        streamed = boundary_ranks((n, mats[n]) for n in range(1, top + 1))
        assert streamed == {n: rank_of_columns(rows) for n, rows in mats.items()}, space
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
        latest = alive[max(alive)]()
        assert cols is latest
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
        plain = {m: rank_of_columns(c) for m, c in cob.items()}
        assert boundary_ranks(cob.items()) == plain, space
        flippable = [n for n in cob if cob[n] and cc.basis(n)]
        if not flippable:
            continue
        rng = random.Random(k)
        n = rng.choice(flippable)
        j, i = rng.randrange(len(cob[n])), rng.randrange(len(cc.basis(n)))
        cob[n][j] = tuple(sorted(set(cob[n][j]) ^ {i}))
        failure = first_nonzero_square(cob)
        if failure is None:
            plain = {m: rank_of_columns(c) for m, c in cob.items()}
            assert boundary_ranks(cob.items()) == plain, space
            continue
        degree, failing = failure
        with pytest.raises(ValueError, match=f"at dimension {degree}$"):
            boundary_ranks(cob.items())
        # the columns of the coboundary to degree - 1 that its reduction
        # keeps, cleared by the pivot rows of the one below it
        skip: object = ()
        for m in range(1, degree - 1):
            skip = reduce_columns(cob[m], skip)
        kept = pivot_columns(cob[degree - 1], skip)
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
    rows = [(10, 20), (10, 30), (20, 30), (10, 20), (10,), (20,), (30,)]
    passing = [(0, 1, 2), (0, 3), (0, 0, 3, 3), (4, 4), (0, 3, 4, 4, 5, 5)]
    failing = [
        (4, 5),  # 10 and 20 once each
        (0, 1),  # 10 twice, 20 and 30 once each
        (0, 4),  # 10 twice, 20 once: odd length
        (0, 3, 4, 5),  # 10 and 20 three times each: even length
        (4, 4, 4),  # 10 three times: odd length
        (6,),  # 30 once
    ]
    for kind in (tuple, list):
        upper = list(map(kind, rows))
        before = deepcopy(upper)
        check_squares_to_zero(upper, passing, 4)
        assert upper == before, kind
        for col in failing:
            with pytest.raises(ValueError, match="at dimension 4$"):
                check_squares_to_zero(upper, passing + [col], 4)
            assert upper == before, (kind, col)


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
            pivots = reduce_columns(cols)
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
    ambient = glued_pinched.ambient(2, 5)
    subset = pinched_set(
        glued_spheres["orbit"], glued_spheres["fixed"], 2, ambient=ambient
    )
    assert induces_zero(inclusion_map(subset), 3)


def test_quotient_of_smash_square_by_pinched(glued_pinched, glued_spheres):
    orbit = glued_spheres["orbit"]
    amb = glued_pinched.ambient(2, 5)
    sub5 = pinched_set(orbit, glued_spheres["fixed"], 2, truncation=5, ambient=amb)
    quot, _ = quotient(amb, sub5)
    direct = reduced_betti(quot, 4)
    assert direct.nonzero() == {2: 1, 4: 1}
    # the rank bookkeeping agrees without building the quotient at all
    assert quotient_betti_via_les(amb, sub5, 4).through(4) == direct.through(4)


def test_bookkeeping_refuses_what_its_tables_cannot_decide(glued_spheres):
    """Bookkeeping through degree 1 refuses tables that do not reach it,
    and a nonzero pinched b_0 beside a nonzero ambient b_0 at degree 0,
    before degree 1 reads that pinched class."""
    orbit = glued_spheres["orbit"]
    point = BettiTable({}, certified=0)
    assert bookkept_quotient_betti(orbit, 2, 1, point, point) == (
        None, "tables not certified at degree 1"
    )
    both = BettiTable({0: 1}, certified=1)
    assert bookkept_quotient_betti(orbit, 2, 1, both, both) == (
        None,
        "cannot certify the inclusion rank at degree 0: ambient and pinched homology "
        "may both be nonzero",
    )


# ---------------------------------------------------------------------------
# Refusals across the library.
# ---------------------------------------------------------------------------

def input_tables():
    return BettiInput(table_from_dict({1: 1}), table_from_dict({1: 1}))


# each call, given the glued spheres, raises ValueError with this message
REFUSALS = {
    "quotient_brute_below_two": (
        lambda g: quotient_betti_brute(g["orbit"], g["fixed"], 1, 2),
        "the integer quotient needs s >= 2",
    ),
    "cover_sum_below_two": (
        lambda g: mv_e1_table(input_tables(), 1, 2), "the cover sum needs s >= 2"
    ),
    "formula_table_below_two": (
        lambda g: betti_pinched_formula_table(input_tables(), 1, 2),
        "the pinched formula needs s >= 2",
    ),
    "formula_example_below_two": (lambda g: betti_pinched_example(1, 2), "needs s >= 2"),
    "concentrated_below_one": (
        lambda g: quotient_betti_concentrated(0, BettiTable({}, certified=2)), "needs s >= 1"
    ),
    "loop_betti_below_one": (
        lambda g: loop_betti({}, 0), "reduced loop-space degrees start at 1"
    ),
    "poincare_below_zero": (lambda g: poincare_coeffs(-1), "n_max must be nonnegative"),
    "tuple_space_without_factors": (
        lambda g: TupleSpace([], 2, True), "a tuple space needs at least one factor"
    ),
    "quotient_by_a_foreign_subset": (
        lambda g: quotient(g["space"], g["fixed"]),
        "subset does not live in the space being collapsed",
    ),
    "pinched_brute_foreign_subset": (
        lambda g: pinched_betti_brute(g["space"], g["fixed"], 2, 2),
        "the fixed subset does not live in the given space",
    ),
    "pinched_set_wrong_ambient": (
        lambda g: pinched_set(g["orbit"], g["fixed"], 3, ambient=smash_power(g["orbit"], 2, 2)),
        "supplied ambient is not the s-fold smash power",
    ),
    "matrix_column_count": (
        lambda g: GF2SparseMatrix(2, 2, [[0]]), "column count mismatch"
    ),
    "matrix_row_out_of_range": (
        lambda g: GF2SparseMatrix(2, 1, [[2]]), "row index out of range"
    ),
    "matrix_repeated_row": (
        lambda g: GF2SparseMatrix(2, 1, [[1, 1]]), "duplicate entry in a column"
    ),
    "betti_negative": (
        lambda g: BettiTable({1: -1}, certified=2), "Betti numbers are nonnegative"
    ),
    "betti_past_certified": (
        lambda g: BettiTable({3: 1}, certified=2),
        "nonzero entry at 3 outside the certified range",
    ),
    "betti_at_zero_from": (
        lambda g: BettiTable({2: 1}, certified=2, zero_from=2),
        "nonzero entry at 2 contradicts vanishing from 2",
    ),
    "serialize_int_labels": (
        lambda g: serialize(FiniteSimplicialSet(0, {0: [0]}, {})),
        "only simplicial sets with string labels can be serialized",
    ),
    "degeneracy_index_out_of_range": (
        lambda g: g["orbit"].degenerate_of(SimplexRef(0, g["orbit"].basepoint, ()), 1),
        "degeneracy index 1 out of range for dimension 0",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_refusals_are_pinned(glued_spheres, case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call(glued_spheres)
    assert str(err.value) == message
