"""Pinched subsets, blockwise pieces, intersections, and the cover sum."""

import gc
import random
import sys
from itertools import combinations
from operator import lt

import pytest

from oracles import (
    Composition,
    WordCalculusTables,
    adjacent_pair_predicate,
    alpha_top_bound,
    composition_betti,
    compositions_of,
    cover_sum_by_intersections,
    delta_alpha,
    delta_intersection,
    diagonal_null_via_cycles,
    inductive_predicate,
    intersection_to_composition,
    member_dims,
    pinched_inductive,
    pinched_union,
    tuple_boundary_columns,
    tuple_pinched_cells,
    tuple_quotient_cells,
    tuple_table_betti,
    union_predicate,
    whole_subset,
)
from section_spaces import (
    SURFACES,
    build,
    planted,
    planted_fixed_loop,
    random_verify_case,
    trivial_surface,
)
from shipped import (
    DEFAULT_TRUNCATION,
    FIXTURE_DIR,
    free_double_cover,
    interval,
    sphere_pair_swap,
    trivial_circle,
    zero_sphere_subset,
)

from loopbetti.closed_form import BettiInput, betti_pinched_formula, betti_pinched_formula_table
from loopbetti.constructions import orbit_space, quotient, smash_power
from loopbetti.homology import (
    BettiTable,
    UncertifiedRangeError,
    reduced_betti,
    table_from_dict,
    transpose,
)
from loopbetti.pinched import (
    HypothesisError,
    _byte_faces,
    _byte_sized,
    _FactorTables,
    _cells,
    _coboundary_columns,
    _digits,
    _face_passes,
    _group_faces,
    _slot_bits,
    _table_betti,
    _walk,
    check_diagonal_null,
    mv_e1_betti,
    mv_e1_table,
    pinched_betti_brute,
    pinched_set,
    pinched_top_bound,
    quotient_betti_brute,
)
from loopbetti.simplicial import (
    FiniteSimplicialSet,
    Involution,
    PointedSubset,
    TruncationError,
    ValidationError,
    basepoint_subset,
)
from loopbetti.sset_io import parse_file
from loopbetti.verify import try_materialize_count


# ---------------------------------------------------------------------------
# Compositions.
# ---------------------------------------------------------------------------

def test_composition_basics():
    alpha = Composition((2, 1, 3))
    assert alpha.length == 6
    assert alpha.dim == 3
    with pytest.raises(ValidationError):
        Composition((1, 0))


def test_compositions_of_count():
    for total in range(1, 8):
        assert len(compositions_of(total)) == 2 ** (total - 1)


def test_intersection_to_composition_examples():
    assert intersection_to_composition([], 4).parts == (1, 1, 1, 1)
    assert intersection_to_composition([1, 2], 3).parts == (3,)
    assert intersection_to_composition([1, 3], 4).parts == (2, 2)
    assert intersection_to_composition([2], 5).parts == (1, 2, 1, 1)


def test_merge_multiset_identity():
    """For every p, merging the size-p cover index sets yields exactly the
    compositions with s - p parts, as a multiset."""
    for s in range(2, 7):
        by_dim = {}
        for alpha in compositions_of(s):
            by_dim.setdefault(alpha.dim, []).append(alpha.parts)
        for p in range(1, s):
            merged = sorted(
                intersection_to_composition(index, s).parts
                for index in combinations(range(1, s), p)
            )
            expected = sorted(by_dim.get(s - p, []))
            assert merged == expected


# ---------------------------------------------------------------------------
# Pinched subsets.
# ---------------------------------------------------------------------------

def test_pinched_trivial_levels(glued_spheres):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    for s in (0, 1):
        subset = pinched_set(orbit, fixed, s)
        assert subset.counts() == {0: 1}
    ambient = pinched_set(orbit, fixed, 0).ambient  # the empty smash power: a point
    assert ambient.nondeg(0) == ("*",) and ambient.top_dim() == 0
    assert ambient.truncation == DEFAULT_TRUNCATION


def test_subset_members_keep_the_component_sort_order(glued_spheres):
    """A pinched subset lists its members in the smash power's order:
    componentwise by base dimension, stored position of the base, then
    degeneracy word, the order of ``refs_at``."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    ambient = smash_power(orbit, 3, 4)
    for subset in (
        pinched_set(orbit, fixed, 3, truncation=4, ambient=ambient),
        whole_subset(ambient, 4),
    ):
        for n in range(5):
            members = list(subset.nondeg(n))
            assert members == sorted(
                members,
                key=lambda key: tuple(
                    (c.base_dim, orbit.nondeg(c.base_dim).index(c.base), c.word)
                    for c in key
                ),
            ), n


def test_pinched_set_lists_the_basepoint_first_and_dimensions_ascending(glued_spheres):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    subset = pinched_set(orbit, fixed, 3, truncation=100)
    assert list(subset.counts().items()) == [(0, 1), (1, 1), (2, 12), (3, 12)]
    assert subset.nondeg(0) == (smash_power(orbit, 3, 3).basepoint,)


def test_pinched_two_is_the_fixed_circle(glued_pinched):
    table = glued_pinched.betti(2, 2)
    assert table.through(2) == {0: 0, 1: 1, 2: 0}


def test_pinched_three_counts_and_betti(glued_pinched):
    subset = glued_pinched.subset(3, 3)
    assert subset.counts() == {0: 1, 1: 1, 2: 12, 3: 12}
    assert glued_pinched.betti(3, 3).nonzero() == {2: 1, 3: 2}


def test_three_constructions_agree(glued_spheres, glued_pinched):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    for s, trunc in [(2, 3), (3, 4), (4, 5), (5, 5)]:
        ambient = glued_pinched.ambient(s, trunc)
        direct = pinched_set(orbit, fixed, s, truncation=trunc, ambient=ambient)
        inductive = pinched_inductive(orbit, fixed, s, truncation=trunc, ambient=ambient)
        union = pinched_union(orbit, fixed, s, truncation=trunc, ambient=ambient)
        assert direct.same_members(inductive), f"s={s} inductive"
        assert direct.same_members(union), f"s={s} union"


def test_inductive_base_case_is_the_double_block(glued_spheres, glued_pinched):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    ambient = glued_pinched.ambient(2, 3)
    inductive = pinched_inductive(orbit, fixed, 2, truncation=3, ambient=ambient)
    double = delta_alpha(orbit, fixed, (2,), truncation=3, ambient=ambient)
    assert inductive.same_members(double)


def test_formula_matches_brute_force_on_suspension_fixture(
    trivial_circle_action, trivial_pinched
):
    """Second oracle fixture: the fixed set is the whole circle, which is a
    suspension, so the closed formula applies and must match brute force."""
    from loopbetti.closed_form import BettiInput, betti_pinched_formula
    from loopbetti.homology import table_from_dict

    inp = BettiInput(table_from_dict({1: 1}), table_from_dict({1: 1}))
    for s in range(2, 5):
        table = trivial_pinched.betti(s, 5)
        for t in range(6):
            assert betti_pinched_formula(inp, s, t) == table[t], (s, t)


def test_three_constructions_agree_trivial_action(trivial_circle_action):
    orbit = trivial_circle_action["orbit"]
    fixed = trivial_circle_action["fixed"]
    for s in range(2, 6):
        trunc = min(s + 1, 6)
        ambient = smash_power(orbit, s, trunc)
        direct = pinched_set(orbit, fixed, s, truncation=trunc, ambient=ambient)
        inductive = pinched_inductive(orbit, fixed, s, truncation=trunc, ambient=ambient)
        union = pinched_union(orbit, fixed, s, truncation=trunc, ambient=ambient)
        assert direct.same_members(inductive)
        assert direct.same_members(union)


def test_predicates_agree_on_full_ambient(glued_spheres):
    """Exhaustive equality of the three membership predicates on every
    nondegenerate simplex of small smash powers."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    for s, max_dim in [(2, 4), (3, 4), (4, 4)]:
        ambient = smash_power(orbit, s, max_dim)
        direct = adjacent_pair_predicate(fixed)
        inductive = inductive_predicate(orbit, fixed)
        union = union_predicate(fixed, s)
        for n in range(max_dim + 1):
            for key in ambient.nondeg(n):
                if key == ambient.basepoint:
                    continue
                d = direct(key)
                assert inductive(key) == d
                assert union(key) == d


def test_trivial_action_pinched_is_plain_fat_diagonal(trivial_circle_action):
    """With everything fixed, membership degenerates to a plain adjacent
    equality, with no fixed-set condition left."""
    orbit = trivial_circle_action["orbit"]
    fixed = trivial_circle_action["fixed"]
    for s in range(2, 5):
        ambient = smash_power(orbit, s, s + 1)
        for n in range(s + 2):
            for key in ambient.nondeg(n):
                if key == ambient.basepoint:
                    continue
                plain = any(a == b for a, b in zip(key, key[1:]))
                assert adjacent_pair_predicate(fixed)(key) == plain


def test_pinched_vanishing_above_bound(glued_pinched):
    for s in (2, 3, 4):
        table = glued_pinched.betti(s, 2 * s - 2)
        bound = 2 * s - 3
        assert table.zero_from <= bound + 1
        for t in range(bound + 1, 2 * s - 1):
            assert table[t] == 0


# ---------------------------------------------------------------------------
# The brute kernel against the generic route.
# ---------------------------------------------------------------------------

def dunce_cap():
    """One triangle with all three edges on the same loop, trivial action:
    a boundary column meets one face three times, so mod 2 it keeps it once."""
    space = FiniteSimplicialSet(
        DEFAULT_TRUNCATION,
        {0: ["*"], 1: ["a"], 2: ["x"]},
        {"a": ["*", "*"], "x": ["a", "a", "a"]},
    )
    return space, Involution(space, {})


def doubled_face():
    """One triangle with faces (a, a, b) on two loops, trivial action: a
    column meets face a twice, so mod 2 it drops it."""
    space = FiniteSimplicialSet(
        DEFAULT_TRUNCATION,
        {0: ["*"], 1: ["a", "b"], 2: ["x"]},
        {"a": ["*", "*"], "b": ["*", "*"], "x": ["a", "a", "b"]},
    )
    return space, Involution(space, {})


@pytest.mark.parametrize(
    "builder", [sphere_pair_swap, trivial_circle, free_double_cover, dunce_cap, doubled_face]
)
def test_brute_kernel_equals_generic_route(builder):
    """The integer kernel equals the generic route, pinched_set through the
    chain complex over SimplexRef keys, for s <= 4 and every t <= 5.  Asked
    through one degree short of the structural bound, the kernel has
    enumerated every cell, so it is certified through the bound."""
    orbit, _, fixed = orbit_space(*builder())
    for s in range(2, 5):
        bound = pinched_top_bound(orbit, fixed, s)
        generic = reduced_betti(pinched_set(orbit, fixed, s, truncation=min(6, bound)), 5)
        for t in range(6):
            brute = pinched_betti_brute(orbit, fixed, s, t)
            certified = bound if t == bound - 1 else t
            assert (brute.certified, brute.zero_from) == (certified, generic.zero_from), (s, t)
            top = min(certified, 5)
            assert brute.through(top) == generic.through(top), (s, t)


def test_brute_kernel_equals_generic_route_at_five(glued_spheres, glued_pinched):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    generic = glued_pinched.betti(5, 6)
    brute = pinched_betti_brute(orbit, fixed, 5, 6)
    assert brute.through(6) == generic.through(6)
    assert brute.zero_from == generic.zero_from


@pytest.mark.parametrize("builder", [sphere_pair_swap, trivial_circle, free_double_cover])
def test_brute_tables_certify_every_degree_their_cells_decide(builder):
    """A brute table asked through one degree short of its structural top
    (the pinched bound, or s top(Q) for the quotient) has enumerated every
    cell: it is complete and equals the table asked through the top."""
    orbit, _, fixed = orbit_space(*builder())
    for s in range(2, 5):
        bound = pinched_top_bound(orbit, fixed, s)
        short = pinched_betti_brute(orbit, fixed, s, bound - 1)
        assert short.complete and short == pinched_betti_brute(orbit, fixed, s, bound), s
        top = s * orbit.top_dim()
        short = quotient_betti_brute(orbit, fixed, s, top - 1)
        assert short.complete and short == quotient_betti_brute(orbit, fixed, s, top), s


def decode(tables, s, n, cells):
    """The cells at n that ``_cells`` gives, as tuples of component indices."""
    return list(zip(*_digits(cells, _slot_bits(tables, s, n), s)))


def encode(cell, bits):
    """The code of a cell of component indices, ``bits`` a slot: the layout
    of ``_slot_bits``."""
    code = 0
    for index in cell:
        code = code << bits | index + 1
    return code


def as_cells(tables, s, n, cells):
    """Tuples of component indices as ``_cells`` gives cells at n, so that
    ``decode`` reads them back: native 64-bit words where the tables are
    byte-sized, else int codes."""
    codes = [encode(cell, _slot_bits(tables, s, n)) for cell in cells]
    if _byte_sized(tables, s, n):
        return memoryview(b"".join(code.to_bytes(8, sys.byteorder) for code in codes)).cast("Q")
    return codes


def test_brute_kernel_refuses_cells_missing_a_face(glued_spheres):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    tables = _FactorTables(orbit, fixed, 3)
    below = _cells(tables, 3, 2, True)
    cells = _cells(tables, 3, 3, True)
    # the complete cells pass, though some faces are degenerate or the basepoint
    rows = _coboundary_columns(tables, 3, cells, below, 3, [])
    assert sum(map(len, rows)) < 4 * len(cells)
    kept = decode(tables, 3, 2, below)
    del kept[next(j for j, row in enumerate(rows) if row)]
    with pytest.raises(ValidationError):
        _coboundary_columns(tables, 3, cells, as_cells(tables, 3, 2, kept), 3, [])


def test_last_face_pass_is_proven_dead_on_the_glued_spheres(glued_spheres, monkeypatch):
    """On the glued spheres the last face of every nondegenerate cell is
    the basepoint, at every s and n.  The factor tables prove it once per
    dimension, and the brute kernel, on byte-sized tables here, builds face
    translations, so face codes, for the live passes only."""
    import loopbetti.pinched as pinched

    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    build_translations, faces_of = pinched._face_translations, pinched._faces_of
    passes_at: dict[int, list[int]] = {}
    built, coded = [], []

    def translations_for(tables, n, passes):
        passes_at[n] = list(passes)
        assert passes == _face_passes(tables, n)[0]
        built.extend(build_translations(tables, n, passes))
        return built[-len(passes):] if passes else []

    def faces_for(words, translation):
        coded.append(translation)
        return faces_of(words, translation)

    monkeypatch.setattr(pinched, "_face_translations", translations_for)
    monkeypatch.setattr(pinched, "_faces_of", faces_for)
    for s in range(2, 6):
        bound = pinched_top_bound(orbit, fixed, s)
        passes_at.clear()
        built.clear()
        coded.clear()
        assert pinched_betti_brute(orbit, fixed, s, bound).nonzero()
        assert sorted(passes_at) == list(range(1, bound + 1)), s
        for n, live in passes_at.items():
            assert n not in live, (s, n)
        assert len(built) == sum(map(len, passes_at.values())), s
        # every live pass codes faces, through its own translation only
        assert {id(t) for t in coded} == {id(t) for t in built}, s


def test_brute_kernel_refuses_a_degenerate_cell(glued_spheres):
    """The dead-pass and no-repeat proofs hold only for nondegenerate
    cells, both of which are used here, so a degenerate cell raises, in
    both kernels.  The one injected here, s_0 of a cell below, has faces 0
    and 1 below and every other face degenerate, so the face-closure check
    alone passes it; unnormalized, its column would hold it twice."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    tables = _FactorTables(orbit, fixed, 3)
    live, distinct = _face_passes(tables, 3)
    assert len(live) < 4 and distinct
    index = {ref: i for i, ref in enumerate(orbit.refs_at(3, include_basepoint=False))}
    low = orbit.refs_at(2, include_basepoint=False)
    for relative in (False, True):
        below, cells = _cells(tables, 3, 2, not relative), _cells(tables, 3, 3, not relative)
        _coboundary_columns(tables, 3, cells, below, 3, [], relative)
        first = decode(tables, 3, 2, below)[0]
        degenerate = tuple(index[orbit.degenerate_of(low[i], 0)] for i in first)
        extended = as_cells(tables, 3, 3, [*decode(tables, 3, 3, cells), degenerate])
        assert decode(tables, 3, 3, extended)[-1] == degenerate
        assert degenerate not in decode(tables, 3, 3, cells)
        with pytest.raises(ValidationError, match="3-cell is degenerate"):
            _coboundary_columns(tables, 3, extended, below, 3, [], relative)


def test_no_repeat_proof_holds_on_every_shipped_fixture():
    """No nondegenerate cell meets one face twice on any shipped fixture,
    under its own involution or the trivial one where none ships, and the
    factor tables prove it at every n <= 6, so the columns are not
    normalized.  The dunce cap and the doubled face have a triangle that
    meets one edge twice, so there the proof fails from n = 2 on and the
    columns keep the cells they hold an odd number of times."""
    for path in sorted(FIXTURE_DIR.glob("*.sset")):
        space, invol = parse_file(path)
        orbit, _, fixed = orbit_space(space, invol or Involution(space, {}))
        tables = _FactorTables(orbit, fixed, 6)
        assert all(_face_passes(tables, n)[1] for n in range(1, 7)), path.stem
    for make_space in (dunce_cap, doubled_face):
        orbit, _, fixed = orbit_space(*make_space())
        tables = _FactorTables(orbit, fixed, 6)
        failing = [n for n in range(1, 7) if not _face_passes(tables, n)[1]]
        assert failing == [2, 3, 4, 5, 6], make_space.__name__


def test_factor_tables_equal_word_calculus_reference(glued_spheres):
    """The factor tables, whose degenerate faces come from the dimension
    below, equal field by field the tables built by ``face_of`` on every
    component, at every top through 6 (the truncation where that is lower):
    on the shipped fixtures under their own involution or the trivial one,
    the trivial surfaces, a planted space and 30 random cases; on a smash
    square truncated below its top dimension, where both refuse the
    dimension past the truncation; and on a fixed set as its own factor,
    as ``check_diagonal_null`` builds it."""
    rng = random.Random(1)
    actions = [parse_file(path) for path in sorted(FIXTURE_DIR.glob("*.sset"))]
    actions = [(space, invol or Involution(space, {})) for space, invol in actions]
    actions += [*map(trivial_surface, SURFACES), planted(random.Random(1), 20, 20)]
    actions += [random_verify_case(rng)[:2] for _ in range(30)]
    factors = [(orbit, fixed) for orbit, _, fixed in (orbit_space(*pair) for pair in actions)]
    truncated = smash_power(glued_spheres["orbit"], 2, 3)
    assert truncated.truncation < truncated.top_dim()
    factors.append((truncated, basepoint_subset(truncated)))
    for _, fixed in factors[:8]:  # the fixtures' fixed sets and the surfaces
        whole = {n: fixed.nondeg(n) for n in range(fixed.top_dim() + 1)}
        factors.append((fixed, PointedSubset(fixed, whole, check=False)))
    fields = ("top_q", "masks", "fixed", "faces", "groups")
    for q, fixed in factors:
        for top in range(min(6, q.truncation) + 1):
            tables, reference = _FactorTables(q, fixed, top), WordCalculusTables(q, fixed, top)
            for name in fields:
                assert getattr(tables, name) == getattr(reference, name), (q, top, name)
    for build in (_FactorTables, WordCalculusTables):
        with pytest.raises(TruncationError):
            build(truncated, basepoint_subset(truncated), truncated.truncation + 1)


def test_brute_tables_below_degree_zero_are_empty(glued_spheres):
    """Any negative t_max (or n_max) gives the empty table certified
    through it, with the vanishing that t_max = -1 certifies, in both
    brute kernels."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    pinched_zero = pinched_top_bound(orbit, fixed, 3) + 1
    quotient_zero = orbit.top_dim() * 3 + 1
    for t_max in (-1, -2, -3, -10):
        table = pinched_betti_brute(orbit, fixed, 3, t_max)
        assert table == BettiTable({}, certified=t_max, zero_from=pinched_zero), t_max
        table = quotient_betti_brute(orbit, fixed, 3, t_max)
        assert table == BettiTable({}, certified=t_max, zero_from=quotient_zero), t_max


def test_cut_table_eliminates_at_most_a_betti_number_of_columns(glued_spheres, monkeypatch):
    """Bottom up with clearing, the coboundary to n eliminates at most
    b_(n-1) columns to zero, even at the top of a table cut below its
    structural bound (s = 4 is cut at n = 3 here, its bound being 5).  Top
    down, the boundary from 3 gets no clearing and eliminates every column
    outside its rank to zero."""
    import loopbetti.homology as homology

    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    assert pinched_top_bound(orbit, fixed, 4) > 3
    reduce = homology.reduce_columns
    zeros, ranks = [], []

    def counted(cols, skip=()):
        pivots = reduce(cols, skip)
        kept = sum(1 for j, col in enumerate(cols) if j not in skip)
        zeros.append(kept - len(pivots))
        ranks.append(len(pivots))
        return pivots

    monkeypatch.setattr(homology, "reduce_columns", counted)
    table = pinched_betti_brute(orbit, fixed, 4, 2)
    assert len(zeros) == 3
    for n, eliminated in enumerate(zeros, start=1):
        assert eliminated <= table[n - 1], (n, eliminated)
    tables = _FactorTables(orbit, fixed, 3)
    # 438 cells at n = 3 and rank 75: 363 columns top down
    assert len(_cells(tables, 4, 3, True)) - ranks[2] > 300


SHIPPED_ACTIONS = {
    path.stem: action
    for path in sorted(FIXTURE_DIR.glob("*.sset"))
    if (action := parse_file(path))[1] is not None
}


@pytest.mark.parametrize("name", [*SHIPPED_ACTIONS, "dunce_cap", "doubled_face"])
def test_packed_kernel_equals_tuple_reference(name):
    """The packed kernel (cells as words, face translations, the flagged
    miss check, streaming) gives the cells, the transposes of the per-cell
    column row sets and the Betti tables of the tuple kernel, for the
    pinched chains and the chains relative to them, for s <= 4 and n <= 6
    (Betti numbers through 4).  The cells come in ascending order, the
    tuple kernel's sorted, and a cell's id is its position there: the
    coboundary has one row per cell below, and its entries are the int
    objects of one list of positions, so no int is made per entry."""
    built = {"dunce_cap": dunce_cap, "doubled_face": doubled_face}
    orbit, _, fixed = orbit_space(*(built[name]() if name in built else SHIPPED_ACTIONS[name]))
    tables = _FactorTables(orbit, fixed, 6)
    kernels = [(tuple_pinched_cells, False), (tuple_quotient_cells, True)]
    for s in range(2, 5):
        for tuple_at, relative in kernels:
            top = min(6, orbit.top_dim() * s)
            below, tuple_lower, ids = [], {}, []
            for n in range(top + 1):
                codes, cells = _cells(tables, s, n, not relative), tuple_at(tables, s, n)
                decoded_cells = decode(tables, s, n, codes)
                assert decoded_cells == sorted(cells), (s, n)
                if n:
                    packed = _coboundary_columns(tables, s, codes, below, n, ids, relative)
                    assert len(packed) == len(below), (s, n)
                    assert ids[:len(codes)] == list(range(len(codes))), (s, n)
                    pool = set(map(id, ids))
                    assert all(id(c) in pool for row in packed for c in row), (s, n)
                    reference = tuple_boundary_columns(tables, cells, tuple_lower, n, relative)
                    reference = transpose(reference, len(tuple_lower))
                    lower = list(tuple_lower)
                    assert {
                        decoded_below[p]: sorted(map(decoded_cells.__getitem__, row))
                        for p, row in enumerate(packed)
                    } == {
                        lower[j]: sorted(map(cells.__getitem__, col))
                        for j, col in enumerate(reference)
                    }, (s, n)
                below, decoded_below = codes, decoded_cells
                tuple_lower = {cell: j for j, cell in enumerate(cells)}
            # through n = 4: the ranks of the relative boundaries from n = 5
            # and 6 at s = 4 (125,640 and 191,520 columns on the glued
            # spheres) take seconds per kernel
            top = min(4, top)
            entries, _ = _table_betti(tables, s, top, top, relative)
            assert entries == tuple_table_betti(tables, tuple_at, s, top, top, relative), s


def decoded(tables, s, n, cells, below, rows):
    """Rows indexed by the positions of the cells below, holding positions
    of ``cells``, as columns keyed by the cells below, all decoded to tuples
    of component indices, each column sorted."""
    low, high = decode(tables, s, n - 1, below), decode(tables, s, n, cells)
    return {low[p]: sorted(map(high.__getitem__, row)) for p, row in enumerate(rows)}


def engine_columns(engine, tables, s, n, cells, below, relative):
    """The columns one face engine scatters from the cells at n (words for
    the byte engine, their int codes for the group engine), before any
    mod-2 normalization, decoded."""
    rows = [[] for _ in below]
    given = cells if engine is _byte_faces else list(cells)
    ids = list(range(len(cells)))
    engine(tables, s, n, given, ids, _face_passes(tables, n)[0], dict(zip(below, rows)), relative)
    return decoded(tables, s, n, cells, below, rows)


def engine_actions():
    """Every shipped fixture under its own involution and the trivial one,
    the dunce cap, the doubled face and three random cases."""
    actions = {}
    for path in sorted(FIXTURE_DIR.glob("*.sset")):
        space, invol = parse_file(path)
        if invol is not None:
            actions[path.stem] = (space, invol)
        actions[f"{path.stem}/trivial"] = (space, Involution(space, {}))
    actions["dunce_cap"], actions["doubled_face"] = dunce_cap(), doubled_face()
    rng = random.Random(1)
    for i in range(3):
        actions[f"random_{i}"] = random_verify_case(rng)[:2]
    return actions


def test_face_engines_agree_on_byte_sized_tables():
    """The byte engine and the group engine, called directly on the same
    byte-sized tables and cells, scatter the same columns for the pinched
    chains and the chains relative to them, for s <= 4 and n <= 7 - s; where
    the factor tables cannot prove that no cell meets a face twice (the
    dunce cap and the doubled face), the kernel's mod-2 normalization of
    the byte engine's columns keeps what the group engine's hold an odd
    number of times."""
    normalized = 0
    for name, action in engine_actions().items():
        orbit, _, fixed = orbit_space(*action)
        tables = _FactorTables(orbit, fixed, 5)
        for s in range(2, 5):
            for relative in (False, True):
                top = min(7 - s, orbit.top_dim() * s)
                below = _cells(tables, s, 0, not relative)
                for n in range(1, top + 1):
                    assert _byte_sized(tables, s, n), (name, s, n)
                    cells = _cells(tables, s, n, not relative)
                    by_bytes = engine_columns(_byte_faces, tables, s, n, cells, below, relative)
                    by_groups = engine_columns(_group_faces, tables, s, n, cells, below, relative)
                    assert by_bytes == by_groups, (name, s, n, relative)
                    if not _face_passes(tables, n)[1]:
                        kernel = _coboundary_columns(tables, s, cells, below, n, [], relative)
                        kept = decoded(tables, s, n, cells, below, kernel)
                        odd = {
                            face: sorted(c for c in set(col) if col.count(c) % 2)
                            for face, col in by_groups.items()
                        }
                        assert kept == odd, (name, s, n, relative)
                        normalized += any(odd[face] != col for face, col in by_groups.items())
                    below = cells
    assert normalized


def test_byte_engine_reads_word_masks_past_one_byte():
    """At n = 9 a word mask takes two byte planes.  On the smash cube of
    the 3-sphere (one 3-simplex on the basepoint, trivial action) relative
    to its pinched subset, 1,680 cells at n = 9: both engines scatter the
    same columns there; on either one, a cell whose components share only
    word bit 8, in the second plane, raises, and so does a missing face;
    and the table is that of the exact sequence of the pair, b5 = 1 and
    b7 = 2 from the pinched b4 = 1 and b6 = 2, and b9 = 1 from S^9."""
    orbit, _, fixed = orbit_space(*build({0: ["*"], 3: ["C"]}, {"C": ["s1s0@*"] * 4}, {}))
    tables = _FactorTables(orbit, fixed, 9)
    below, cells = _cells(tables, 3, 8, False), _cells(tables, 3, 9, False)
    assert len(cells) == 1680 and _byte_sized(tables, 3, 9)
    by_bytes = engine_columns(_byte_faces, tables, 3, 9, cells, below, True)
    assert by_bytes == engine_columns(_group_faces, tables, 3, 9, cells, below, True)
    index = {ref: i for i, ref in enumerate(orbit.refs_at(9, include_basepoint=False))}
    low = orbit.refs_at(8, include_basepoint=False)
    cell = decode(tables, 3, 8, below)[0]
    lifted = tuple(index[orbit.degenerate_of(low[i], 8)] for i in cell)
    extended = as_cells(tables, 3, 9, [*decode(tables, 3, 9, cells), lifted])
    live, ids = _face_passes(tables, 9)[0], list(range(len(extended)))
    for engine, given in ((_byte_faces, memoryview), (_group_faces, list)):
        with pytest.raises(ValidationError, match="9-cell is degenerate"):
            engine(tables, 3, 9, given(extended), ids, live, {code: [] for code in below}, True)
        with pytest.raises(ValidationError, match="not face-closed"):
            lookup = {code: [] for code in below[1:]}
            engine(tables, 3, 9, given(cells), ids, live, lookup, True)
    assert quotient_betti_brute(orbit, fixed, 3, 9).nonzero() == {5: 1, 7: 2, 9: 1}
    assert pinched_betti_brute(orbit, fixed, 3, 9).nonzero() == {4: 1, 6: 2}

def test_cell_walks_agree_and_ascend():
    """On byte-sized tables the walk that writes words and the walk that
    builds int codes give the same codes, strictly ascending, for the
    pinched chains and the chains relative to them, for s <= 4 and
    n <= 7 - s."""
    for name, action in engine_actions().items():
        orbit, _, fixed = orbit_space(*action)
        tables = _FactorTables(orbit, fixed, 5)
        for s in range(2, 5):
            for pinched in (True, False):
                for n in range(min(7 - s, orbit.top_dim() * s) + 1):
                    assert _byte_sized(tables, s, n), (name, s, n)
                    words = _cells(tables, s, n, pinched)
                    codes = _walk(tables, s, n, pinched, False)
                    assert list(words) == codes, (name, s, n, pinched)
                    assert all(map(lt, codes, codes[1:])), (name, s, n, pinched)


def wide_cases():
    """Tables past the byte layout, as (tables, s, top): 150 + 150 planted
    orbits at s = 2 (450 components and the marker at n = 2, fewer at
    n = 1) and the trivial circle at s = 9."""
    orbit, _, fixed = orbit_space(*planted(random.Random(1), 150, 150))
    tables = _FactorTables(orbit, fixed, 2)
    assert len(tables.masks[1]) < 256 <= len(tables.masks[2]) == 451
    orbit, _, fixed = orbit_space(*trivial_circle())
    return [(tables, 2, 2), (_FactorTables(orbit, fixed, 3), 9, 3)]


def code_keyed_columns(tables, s, n, cells, below):
    """A reference coboundary to n in the layout where each cell is its own
    id: for the code of each cell below, the sorted codes of the n-cells
    that hold it as a face an odd number of times, built cell by cell from
    the face tables."""
    low_bits = _slot_bits(tables, s, n - 1)
    columns = {code: [] for code in below}
    for code, cell in zip(cells, decode(tables, s, n, cells)):
        for face in tables.faces[n]:
            face_code = encode([face[i] for i in cell], low_bits)
            if face_code in columns:
                columns[face_code].append(code)
    return {code: sorted(c for c in set(col) if col.count(c) % 2) for code, col in columns.items()}


def test_coboundary_rows_name_cells_by_position():
    """The coboundary holds one row per cell below, in the order of
    ``below``, and each row holds positions in ``cells``; mapped back
    through the cells, the rows are the reference's code-keyed columns.  On
    byte-sized tables (the cases of ``engine_actions``, s <= 4 and
    n <= 6 - s) and on wide ones, pinched and relative."""
    cases = []
    for action in engine_actions().values():
        orbit, _, fixed = orbit_space(*action)
        tables = _FactorTables(orbit, fixed, 4)
        cases += [(tables, s, min(6 - s, orbit.top_dim() * s)) for s in range(2, 5)]
    for tables, s, top in cases + wide_cases():
        for relative in (False, True):
            below, ids = _cells(tables, s, 0, not relative), []
            for n in range(1, top + 1):
                cells = _cells(tables, s, n, not relative)
                rows = _coboundary_columns(tables, s, cells, below, n, ids, relative)
                assert len(rows) == len(below), (s, n)
                assert all(0 <= c < len(cells) for row in rows for c in row), (s, n)
                mapped = {below[p]: sorted(map(cells.__getitem__, row)) for p, row in enumerate(rows)}
                assert mapped == code_keyed_columns(tables, s, n, cells, below), (s, n, relative)
                below = cells


class RecordedLookup(dict):
    """A face lookup that records every key asked, by ``__getitem__``,
    ``get`` or ``in``."""

    def __init__(self, items):
        super().__init__(items)
        self.asked = []

    def __getitem__(self, key):
        self.asked.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.asked.append(key)
        return super().__contains__(key)


def test_byte_engine_looks_up_only_live_faces():
    """The byte engine asks its lookup for live faces only, each of which
    is a cell below, and asks once per entry it scatters.  Where no cell
    meets a face twice, the lookups are exactly the entries of the
    reference's code-keyed coboundary; the faces coded in the live passes
    are more, so a lookup of every face would fail here.  On the cases of
    ``engine_actions`` (every shipped fixture among them), s <= 4 and
    n <= 7 - s, pinched and relative."""
    coded = asked = 0
    for name, action in engine_actions().items():
        orbit, _, fixed = orbit_space(*action)
        tables = _FactorTables(orbit, fixed, 5)
        for s in range(2, 5):
            for relative in (False, True):
                below = _cells(tables, s, 0, not relative)
                for n in range(1, min(7 - s, orbit.top_dim() * s) + 1):
                    cells = _cells(tables, s, n, not relative)
                    live, distinct = _face_passes(tables, n)
                    rows = [[] for _ in below]
                    lookup = RecordedLookup(zip(below, rows))
                    ids = list(range(len(cells)))
                    _byte_faces(tables, s, n, cells, ids, live, lookup, relative)
                    faces = list(zip(*_digits(lookup.asked, _slot_bits(tables, s, n - 1), s)))
                    assert set(faces) <= set(decode(tables, s, n - 1, below)), (name, s, n)
                    assert len(lookup.asked) == sum(map(len, rows)), (name, s, n, relative)
                    if distinct:
                        reference = code_keyed_columns(tables, s, n, cells, below)
                        entries = sum(map(len, reference.values()))
                        assert len(lookup.asked) == entries, (name, s, n, relative)
                    coded += len(cells) * len(live)
                    asked += len(lookup.asked)
                    below = cells
    assert asked < coded


def test_wide_tables_take_the_group_engine(monkeypatch):
    """Tables past the byte layout route to the group engine, their int
    walk gives strictly ascending codes, and both match the tuple kernel
    (the cells sorted): 150 + 150 planted orbits at s = 2 and the trivial
    circle at s = 9 (``wide_cases``)."""
    import loopbetti.pinched as pinched

    ran = []

    def recorded(name):
        run = getattr(pinched, name)

        def engine(tables, s, n, *rest):
            ran.append((n, name))
            return run(tables, s, n, *rest)

        return engine

    for name in ("_byte_faces", "_group_faces"):
        monkeypatch.setattr(pinched, name, recorded(name))
    routes = [[(1, "_byte_faces"), (2, "_group_faces")], [(n, "_group_faces") for n in (1, 2, 3)]]
    for (case_tables, s, top), route in zip(wide_cases(), routes):
        for tuple_at, relative in ((tuple_pinched_cells, False), (tuple_quotient_cells, True)):
            for n in range(top + 1):
                cells = _cells(case_tables, s, n, not relative)
                if not _byte_sized(case_tables, s, n):
                    assert all(map(lt, cells, cells[1:])), (s, n, relative)
                assert decode(case_tables, s, n, cells) == sorted(tuple_at(case_tables, s, n))
            ran.clear()
            entries, _ = _table_betti(case_tables, s, top, top, relative)
            reference = tuple_table_betti(case_tables, tuple_at, s, top, top, relative)
            assert entries == reference, (s, relative)
            assert sorted(ran) == route, (s, relative)


def test_pair_groups_on_wide_digits_scatter_like_single_slots(monkeypatch):
    """Pair groups on tables of at least 256 components: 22 + 22 planted
    orbits under the trivial involution, so every simplex is fixed, wide
    from n = 3 (264 components and the marker, 440 at n = 4).  There the
    relative chains at s = 2 (one pair group, and faces missed for being
    pinched) and the pinched chains at s = 3 (a pair and a lone slot) take
    the group engine, with the faces coded in bytes at n = 3 and in 9-bit
    slots at n = 4.  With pair groups forced, its rows are the rows it
    gives with every slot a group of its own, and the tuple kernel's
    coboundary."""
    import loopbetti.pinched as pinched

    space, _ = planted(random.Random(1), 22, 22)
    orbit, _, fixed = orbit_space(space, Involution(space, {}))
    tables = _FactorTables(orbit, fixed, 4)
    assert [len(masks) for masks in tables.masks[2:]] == [133, 265, 441]
    chosen, pinched_of = pinched._slot_groups, pinched._pinched
    checked = []

    def pinched_faces(faces, *rest):
        checked.append(len(faces))
        return pinched_of(faces, *rest)

    monkeypatch.setattr(pinched, "_pinched", pinched_faces)
    cases = [(2, tuple_quotient_cells, True), (3, tuple_pinched_cells, False)]
    for s, tuple_at, relative in cases:
        below = _cells(tables, s, 2, not relative)
        lower = {cell: j for j, cell in enumerate(decode(tables, s, 2, below))}
        for n in (3, 4):
            cells = _cells(tables, s, n, not relative)
            assert not _byte_sized(tables, s, n)
            decoded = decode(tables, s, n, cells)
            assert decoded == sorted(tuple_at(tables, s, n)), (s, n, relative)
            rows, widths = {}, []
            for pairs in (True, False):

                def groups(s, bits, size, pairs=pairs):
                    # the rule takes pairs from as many cells as a pair table has entries
                    widths.append(chosen(s, bits, (1 << 2 * bits) * pairs))
                    return widths[-1]

                monkeypatch.setattr(pinched, "_slot_groups", groups)
                rows[pairs] = _coboundary_columns(tables, s, cells, below, n, [], relative)
            assert [max(w for _, w in groups) for groups in widths] == [2, 1], widths
            assert rows[True] == rows[False], (s, n, relative)
            reference = tuple_boundary_columns(tables, decoded, lower, n, relative)
            assert list(map(sorted, rows[True])) == transpose(reference, len(lower)), (s, n)
            assert sum(map(len, rows[True])), (s, n, relative)
            below, lower = cells, {cell: j for j, cell in enumerate(decoded)}
    # the relative chains missed live faces, which had to be pinched
    assert sum(checked)


def test_both_face_engines_refuse_what_the_kernel_refuses(glued_spheres):
    """On either engine: cells missing a face below raise, a degenerate
    cell raises before any face is coded, and in the chains relative to
    the pinched subset a missing face that is not pinched raises."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    tables = _FactorTables(orbit, fixed, 3)
    live = _face_passes(tables, 3)[0]
    index = {ref: i for i, ref in enumerate(orbit.refs_at(3, include_basepoint=False))}
    low = orbit.refs_at(2, include_basepoint=False)
    in_fixed = tables.fixed[2]
    for engine in (_byte_faces, _group_faces):

        def scatter(cells, below, relative):
            rows = [[] for _ in below]
            given = cells if engine is _byte_faces else list(cells)
            ids = list(range(len(cells)))
            engine(tables, 3, 3, given, ids, live, dict(zip(below, rows)), relative)
            return rows

        for relative in (False, True):
            below, cells = _cells(tables, 3, 2, not relative), _cells(tables, 3, 3, not relative)
            rows = scatter(cells, below, relative)
            first = decode(tables, 3, 2, below)[0]
            degenerate = tuple(index[orbit.degenerate_of(low[i], 0)] for i in first[:3])
            with pytest.raises(ValidationError, match="3-cell is degenerate"):
                scatter(as_cells(tables, 3, 3, [*decode(tables, 3, 3, cells), degenerate]),
                        below, relative)
            cell_of = decode(tables, 3, 2, below)
            # a face whose repeat is outside the fixed set is not pinched
            missing = next(
                p for p, cell in enumerate(cell_of)
                if rows[p] and any(
                    a == b and not in_fixed[a] for a, b in zip(cell, cell[1:])
                ) == relative
            )
            with pytest.raises(ValidationError, match="not face-closed"):
                scatter(cells, [code for p, code in enumerate(below) if p != missing], relative)
        below, cells = _cells(tables, 3, 2, False), _cells(tables, 3, 3, False)
        with pytest.raises(ValidationError, match="not face-closed"):
            scatter(cells, below, False)


def test_a_corrupt_face_translation_is_caught(glued_spheres, monkeypatch):
    """A face translation with one entry changed is refused.  At s = 3 on
    the glued spheres every change of the face of a component at n = 3 to
    another component fails the relative chains through n = 4: the
    coboundary to 4 no longer kills the one to 3.  In the pinched chains,
    where n = 3 is the top, sending face 0 of component 0 to the component
    2, outside the fixed set, makes faces that are live but not cells,
    which the face-closure check finds."""
    import loopbetti.pinched as pinched

    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    assert pinched_top_bound(orbit, fixed, 3) == 3
    tables = _FactorTables(orbit, fixed, 3)
    build = pinched._face_translations

    def corrupt(n, place, component, target):
        def translations(tables, m, passes):
            out = build(tables, m, passes)
            if m == n:
                table = bytearray(out[place])
                table[component + 1] = target + 1
                out[place] = bytes(table)
            return out

        monkeypatch.setattr(pinched, "_face_translations", translations)

    changes = 0
    for place, k in enumerate(_face_passes(tables, 3)[0]):
        for component, face in enumerate(tables.faces[3][k]):
            for target in range(len(tables.masks[2]) - 1):
                if target != face:
                    corrupt(3, place, component, target)
                    with pytest.raises(ValueError, match="does not square to zero"):
                        quotient_betti_brute(orbit, fixed, 3, 3)
                    changes += 1
    assert changes == 86
    assert _face_passes(tables, 3)[0][0] == 0 and not tables.fixed[2][2]
    corrupt(3, 0, 0, 2)
    with pytest.raises(ValidationError, match="face 0 of a 3-cell is missing"):
        pinched_betti_brute(orbit, fixed, 3, 3)


def test_brute_tables_pause_the_cycle_collector(glued_spheres, monkeypatch):
    """The cyclic collector is off while a brute table is built and
    reduced, and as it was found afterwards: on again after a table, also
    when the kernel raises on a degenerate cell, on a missing face or on a
    coboundary that does not square to zero, and still off where the caller
    had switched it off."""
    import loopbetti.pinched as pinched

    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    tables = _FactorTables(orbit, fixed, 3)
    cells_of, translations_of = pinched._cells, pinched._face_translations
    build = pinched._coboundary_columns
    collecting = []

    def watched(*args):
        collecting.append(gc.isenabled())
        return build(*args)

    index = {ref: i for i, ref in enumerate(orbit.refs_at(3, include_basepoint=False))}
    low = orbit.refs_at(2, include_basepoint=False)
    first = decode(tables, 3, 2, cells_of(tables, 3, 2, True))[0]
    degenerate = tuple(index[orbit.degenerate_of(low[i], 0)] for i in first)

    def with_degenerate(tables, s, n, pinched):
        cells = cells_of(tables, s, n, pinched)
        return as_cells(tables, s, n, [*decode(tables, s, n, cells), degenerate]) if n == 3 else cells

    def without_n2(tables, s, n, pinched):
        return as_cells(tables, s, n, []) if n == 2 else cells_of(tables, s, n, pinched)

    def corrupted(tables, n, passes):
        out = translations_of(tables, n, passes)
        if n == 3:
            # face of component 0 sent to the next component at n = 2
            target = (tables.faces[3][passes[0]][0] + 1) % (len(tables.masks[2]) - 1)
            table = bytearray(out[0])
            table[1] = target + 1
            out[0] = bytes(table)
        return out

    runs = [
        (None, None, pinched_betti_brute, None),
        ("_cells", with_degenerate, pinched_betti_brute, "3-cell is degenerate"),
        ("_cells", without_n2, pinched_betti_brute, "face . of a 3-cell is missing"),
        ("_face_translations", corrupted, quotient_betti_brute, "square to zero"),
    ]
    monkeypatch.setattr(pinched, "_coboundary_columns", watched)
    try:
        for was_on in (True, False):
            for name, patch, brute, match in runs:
                if name:
                    monkeypatch.setattr(pinched, name, patch)
                collecting.clear()
                if was_on:
                    gc.enable()
                else:
                    gc.disable()
                if match:
                    with pytest.raises(ValueError, match=match):
                        brute(orbit, fixed, 3, 3)
                else:
                    assert brute(orbit, fixed, 3, 3).nonzero()
                assert gc.isenabled() == was_on, (was_on, match)
                assert collecting and not any(collecting), (was_on, match)
                monkeypatch.undo()
                monkeypatch.setattr(pinched, "_coboundary_columns", watched)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The integer quotient against the generic route.
# ---------------------------------------------------------------------------

def generic_quotient_betti(orbit, fixed, s, n_max):
    """The quotient table over SimplexRef keys: smash power, pinched
    subset, quotient, chain complex."""
    trunc = min(n_max + 1, orbit.top_dim() * s)
    ambient = smash_power(orbit, s, trunc)
    subset = pinched_set(orbit, fixed, s, truncation=trunc, ambient=ambient)
    return reduced_betti(quotient(ambient, subset)[0], n_max)


@pytest.mark.parametrize(
    "make_space, s, n_max",
    [
        # every dimension enumerated, and a truncated top
        *((free_double_cover, s, n) for s in (2, 3, 4) for n in (s - 1, s + 1)),
        *((sphere_pair_swap, s, n) for s, n in ((2, 2), (2, 5), (3, 3), (3, 6), (4, 3))),
        *((trivial_circle, s, n) for s in range(2, 7) for n in (s - 2, s)),
    ],
)
def test_integer_quotient_equals_generic_route(make_space, s, n_max):
    """Asked through one degree short of s top(Q), the integer quotient
    has every cell and is certified through s top(Q), so the generic route
    is asked through the degree the table certifies."""
    orbit, _, fixed = orbit_space(*make_space())
    table = quotient_betti_brute(orbit, fixed, s, n_max)
    generic = generic_quotient_betti(orbit, fixed, s, table.certified)
    assert table.nonzero() == generic.nonzero()
    assert (table.certified, table.zero_from) == (generic.certified, generic.zero_from)


def test_integer_quotient_refuses_cells_missing_a_face(glued_spheres):
    """Pinched faces are zero in the quotient, so the quotient cells pass
    only as relative chains; a missing face that is not pinched, degenerate
    or the basepoint raises in either mode.  The face taken out repeats a
    component outside the fixed set, which does not make it pinched."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    tables = _FactorTables(orbit, fixed, 3)
    below = _cells(tables, 3, 2, False)
    cells = _cells(tables, 3, 3, False)
    rows = _coboundary_columns(tables, 3, cells, below, 3, [], relative=True)
    with pytest.raises(ValidationError):
        _coboundary_columns(tables, 3, cells, below, 3, [])
    in_fixed = tables.fixed[2]
    kept = decode(tables, 3, 2, below)
    del kept[next(
        p
        for p, cell in enumerate(kept)
        if rows[p] and any(a == b and not in_fixed[a] for a, b in zip(cell, cell[1:]))
    )]
    with pytest.raises(ValidationError):
        _coboundary_columns(tables, 3, cells, as_cells(tables, 3, 2, kept), 3, [], relative=True)


def test_quotient_cells_are_the_complement_of_the_pinched_cells(glued_spheres):
    """The two walks split the nondegenerate tuples of the smash power at
    s = 2 and 3: on the glued spheres through n = 5, and through n = 4 on
    the three trivial surfaces, a planted space and 30 random cases."""
    rng = random.Random(1)
    spaces = [
        *map(trivial_surface, SURFACES),
        planted(random.Random(1), 20, 20),
        *(random_verify_case(rng)[:2] for _ in range(30)),
    ]
    cases = [(glued_spheres["orbit"], glued_spheres["fixed"], 5)]
    cases += [(orbit, fixed, 4) for orbit, _, fixed in (orbit_space(*pair) for pair in spaces)]
    for orbit, fixed, top in cases:
        tables = _FactorTables(orbit, fixed, top)
        for s in (2, 3):
            total = 0
            for n in range(top + 1):
                pinched, rest = _cells(tables, s, n, True), _cells(tables, s, n, False)
                assert not set(pinched) & set(rest)
                total += len(pinched) + len(rest) + (n == 0)
                assert try_materialize_count(orbit, s, n, total) == total, (s, n)


def test_cell_walk_work_does_not_grow_with_free_orbits():
    """On a planted space the fixed set is the basepoint, so no cell is
    pinched, and the states of the walk (common word, no fixed last
    component, no witness) do not depend on the number of free orbits.  So
    at s = 4, n <= 5 the walk scans the group member lists as often with
    20 orbit pairs as with 60."""
    scans = []
    for k in (20, 60):
        orbit, _, fixed = orbit_space(*planted(random.Random(1), k, k))
        tables = _FactorTables(orbit, fixed, 5)
        count = [0]

        class Scanned(list):
            def __iter__(self):
                count[0] += 1
                return super().__iter__()

        tables.groups = [[(mask, Scanned(members)) for mask, members in at] for at in tables.groups]
        for n in range(6):
            assert len(_cells(tables, 4, n, True)) == 0, (k, n)
        scans.append(count[0])
    assert scans[0] == scans[1], scans


def test_cell_walk_moves_do_not_grow_with_free_orbits(monkeypatch):
    """A state's last component is fixed or none, so the members of a slot
    group outside the fixed set step to one state, as one run: on a planted
    space each state yields as many runs with 60 orbit pairs as with 20, in
    the pinched walk at s = 4, n <= 5 and in the other at s = 2, n <= 2."""
    import loopbetti.pinched as pinched

    moves = pinched._moves
    runs = []

    def counting(*args):
        runs.append(0)
        for move in moves(*args):
            runs[-1] += 1
            yield move

    monkeypatch.setattr(pinched, "_moves", counting)
    seen = []
    for k in (20, 60):
        orbit, _, fixed = orbit_space(*planted(random.Random(1), k, k))
        tables = _FactorTables(orbit, fixed, 5)
        runs.clear()
        for n in range(6):
            _walk(tables, 4, n, True, False)
        for n in range(3):
            _walk(tables, 2, n, False, False)
        seen.append(list(runs))
    assert seen[0] == seen[1]
    assert max(seen[0]) < 20


def test_cell_walk_is_not_recursive_in_s(glued_spheres):
    """The walk holds one level of states per slot, not one stack frame,
    so a smash power of 1,100 factors gets its table through degree 0."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    table = pinched_betti_brute(orbit, fixed, 1100, 0)
    bound = pinched_top_bound(orbit, fixed, 1100)
    assert table == BettiTable({}, certified=0, zero_from=bound + 1)


# ---------------------------------------------------------------------------
# Blockwise pieces.
# ---------------------------------------------------------------------------

def test_all_ones_is_the_whole_smash_power(glued_spheres):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    ambient = smash_power(orbit, 3, 4)
    whole = delta_alpha(orbit, fixed, (1, 1, 1), truncation=4, ambient=ambient)
    for n in range(5):
        expected = {k for k in ambient.nondeg(n)}
        got = set(whole.nondeg(n)) | {ambient.basepoint} if n == 0 else set(whole.nondeg(n))
        assert got == expected


def test_full_block_is_the_fixed_set(glued_spheres):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    for s in range(2, 5):
        piece = delta_alpha(orbit, fixed, (s,), truncation=3)
        assert reduced_betti(piece, 2).nonzero() == {1: 1}


def test_block_two_one_is_a_smashed_circle_sphere(glued_spheres):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    piece = delta_alpha(orbit, fixed, (2, 1), truncation=4)
    assert reduced_betti(piece, 3).nonzero() == {3: 1}


def test_empty_composition_rejected(glued_spheres):
    with pytest.raises(ValidationError):
        delta_alpha(glued_spheres["orbit"], glued_spheres["fixed"], ())


def test_intersections_equal_merged_compositions(glued_spheres, glued_pinched):
    """Cover intersections literally coincide with the merged-composition
    pieces, compared memberwise."""
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    depth = {2: 5, 3: 5, 4: 5, 5: 4, 6: 3}
    for s in range(2, 7):
        trunc = depth[s]
        ambient = glued_pinched.ambient(s, trunc)
        for p in range(1, s):
            for index in combinations(range(1, s), p):
                inter = delta_intersection(
                    orbit, fixed, index, s, truncation=trunc, ambient=ambient
                )
                merged = delta_alpha(
                    orbit,
                    fixed,
                    intersection_to_composition(index, s),
                    truncation=trunc,
                    ambient=ambient,
                )
                assert inter.same_members(merged), f"s={s}, index={index}"


# ---------------------------------------------------------------------------
# The cover sum.
# ---------------------------------------------------------------------------

def test_diagonal_hypothesis_check(glued_spheres):
    assert check_diagonal_null(glued_spheres["fixed"])
    space = interval()
    assert not check_diagonal_null(zero_sphere_subset(space))


def test_diagonal_check_matches_the_cycle_basis_oracle():
    """The quotient at s = 2 decides the hypothesis as the induced ranks of
    the reduced diagonal do, at fixed sets of top dimension 0, 1 and 2."""
    subsets = [zero_sphere_subset(interval())]
    for builder in (sphere_pair_swap, free_double_cover, trivial_circle):
        subsets.append(orbit_space(*builder())[2])
    for name in SURFACES:
        subsets.append(whole_subset(trivial_surface(name)[0]))
    # S^1 v S^2: homology in two positive degrees, every cup product zero
    wedge, _ = build(
        {0: ["*"], 1: ["a"], 2: ["S"]}, {"a": ["*", "*"], "S": ["s0@*", "s0@*", "s0@*"]}, {}
    )
    subsets.append(whole_subset(wedge))
    assert reduced_betti(wedge, 3).nonzero() == {1: 1, 2: 1} and check_diagonal_null(subsets[-1])
    rng = random.Random(1)
    for _ in range(300):
        space, invol, _ = random_verify_case(rng)
        subsets.append(orbit_space(space, invol)[2])
    verdicts = set()
    for fixed in subsets:
        null = check_diagonal_null(fixed)
        assert null == diagonal_null_via_cycles(fixed), fixed
        verdicts.add((fixed.top_dim(), null))
    assert verdicts == {(top, null) for top in (0, 1, 2) for null in (True, False)}


def test_cover_sum_requires_the_hypothesis(monkeypatch):
    import loopbetti.pinched as pinched

    space = interval()
    subset = zero_sphere_subset(space)
    assert not check_diagonal_null(subset)
    # no answer is remembered: every call checks and refuses
    checked = []
    monkeypatch.setattr(pinched, "check_diagonal_null", lambda a: checked.append(a) or False)
    for _ in range(2):
        with pytest.raises(HypothesisError):
            mv_e1_betti(space, subset, 2, 1)
    assert checked == [subset, subset]


def test_cover_sum_examples(glued_spheres):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    assert mv_e1_betti(orbit, fixed, 3, 3) == 2
    assert mv_e1_betti(orbit, fixed, 3, 2) == 1
    for s in (2, 3, 4):
        for t in range(2 * s - 2, 2 * s + 2):
            assert mv_e1_betti(orbit, fixed, s, t) == 0


def test_cover_sum_matches_brute_force(glued_spheres, glued_pinched):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    for s in (2, 3, 4):
        table = glued_pinched.betti(s, 5)
        for t in range(6):
            assert mv_e1_betti(orbit, fixed, s, t) == table[t], (s, t)


def test_cover_sum_matches_brute_force_trivial_action(trivial_circle_action, trivial_pinched):
    orbit = trivial_circle_action["orbit"]
    fixed = trivial_circle_action["fixed"]
    for s in (2, 3, 4):
        table = trivial_pinched.betti(s, 5)
        for t in range(6):
            assert mv_e1_betti(orbit, fixed, s, t) == table[t], (s, t)


def orbit_tables(builder, t_max):
    orbit, _, fixed = orbit_space(*builder())
    betti_q = reduced_betti(orbit, max(t_max, orbit.top_dim()))
    betti_a = reduced_betti(fixed, max(t_max, fixed.top_dim()))
    return orbit, fixed, betti_q, betti_a


@pytest.mark.parametrize("builder", [sphere_pair_swap, trivial_circle, free_double_cover])
def test_transfer_matrix_equals_intersection_sum(builder):
    orbit, fixed, betti_q, betti_a = orbit_tables(builder, 12)
    for s in range(2, 9):
        expected = cover_sum_by_intersections(betti_q, betti_a, s, 12)
        got = mv_e1_table(BettiInput(betti_q, betti_a), s, 12)
        assert got == expected, s


@pytest.mark.parametrize("builder", [sphere_pair_swap, trivial_circle])
def test_transfer_matrix_equals_closed_formula(builder):
    orbit, fixed, betti_q, betti_a = orbit_tables(builder, 30)
    inp = BettiInput(betti_q, betti_a)
    for s in range(2, 31):
        cover = mv_e1_table(inp, s, 30)
        for t in range(31):
            expected = betti_pinched_formula(inp, s, t)
            assert cover[t] == expected, (s, t)


@pytest.mark.parametrize("make_space", [sphere_pair_swap, trivial_circle])
def test_formula_tables_equal_the_per_degree_calls(make_space):
    orbit, fixed, betti_q, betti_a = orbit_tables(make_space, 30)
    inp = BettiInput(betti_q, betti_a)
    for s in range(2, 11):
        cover = mv_e1_table(inp, s, 30)
        closed = betti_pinched_formula_table(inp, s, 30)
        assert cover == [mv_e1_betti(orbit, fixed, s, t) for t in range(31)]
        assert closed == [betti_pinched_formula(inp, s, t) for t in range(31)]
        for t_max in (-1, -2):
            assert mv_e1_table(inp, s, t_max) == []
            assert betti_pinched_formula_table(inp, s, t_max) == []


def test_cover_sum_refuses_uncertified_tables(glued_spheres):
    """Both formula tables share one input check."""
    fixed = glued_spheres["fixed"]
    short = BettiInput(BettiTable({2: 1}, certified=3), reduced_betti(fixed, fixed.top_dim()))
    messages = set()
    for table in (mv_e1_table, betti_pinched_formula_table):
        assert table(short, 3, 3)[3] == 2
        with pytest.raises(UncertifiedRangeError) as exc:
            table(short, 3, 4)
        messages.add(str(exc.value))
    assert messages == {"input table not certified through dimension 4"}


def test_composition_betti_is_a_smash_table():
    b_orbit = table_from_dict({2: 1})
    b_fixed = table_from_dict({1: 1})
    assert composition_betti(Composition((2, 1)), b_orbit, b_fixed).nonzero() == {3: 1}
    assert composition_betti(Composition((3,)), b_orbit, b_fixed).nonzero() == {1: 1}
    assert composition_betti(
        Composition((1, 1)), b_orbit, b_fixed
    ).nonzero() == {4: 1}


def test_top_bounds_are_sharp_enough(glued_spheres, glued_pinched):
    orbit, fixed = glued_spheres["orbit"], glued_spheres["fixed"]
    for s in (2, 3, 4):
        bound = pinched_top_bound(orbit, fixed, s)
        assert bound == 2 * s - 3
        subset = glued_pinched.subset(s, 2 * s)
        assert max(member_dims(subset)) <= bound
    assert alpha_top_bound(orbit, fixed, Composition((2, 1, 1))) == 5
