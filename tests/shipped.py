"""The shipped spaces, each call parsing afresh the ``fixtures/*.sset`` file
that is its one copy; then small spaces and subsets that no file ships."""

from __future__ import annotations

from pathlib import Path

from loopbetti.simplicial import FiniteSimplicialSet, Involution, PointedSubset
from loopbetti.sset_io import parse_file

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
DEFAULT_TRUNCATION = 32  # the truncation record of every shipped file


def circle() -> FiniteSimplicialSet:
    """One vertex and one edge with both faces at the vertex."""
    return parse_file(FIXTURE_DIR / "circle.sset")[0]


def two_disc_sphere() -> FiniteSimplicialSet:
    """Two 2-simplices glued along the circle's edge, other faces degenerate."""
    return parse_file(FIXTURE_DIR / "two_disc_sphere.sset")[0]


def sphere_pair_swap() -> tuple[FiniteSimplicialSet, Involution]:
    """Four discs on one circle; the involution swaps the discs of each pair."""
    return parse_file(FIXTURE_DIR / "sphere_pair_swap.sset")


def free_double_cover() -> tuple[FiniteSimplicialSet, Involution]:
    """A square rotated halfway beside a fixed basepoint: no section."""
    return parse_file(FIXTURE_DIR / "free_double_cover.sset")


def trivial_circle() -> tuple[FiniteSimplicialSet, Involution]:
    """The circle with the identity involution; every simplex is fixed."""
    return parse_file(FIXTURE_DIR / "trivial_circle.sset")


def point() -> FiniteSimplicialSet:
    """The one-point simplicial set."""
    return FiniteSimplicialSet(DEFAULT_TRUNCATION, {0: ["*"]}, {})


def interval() -> FiniteSimplicialSet:
    """An interval from the basepoint to a second vertex."""
    return FiniteSimplicialSet(DEFAULT_TRUNCATION, {0: ["*", "p"], 1: ["w"]}, {"w": ["p", "*"]})


def zero_sphere_subset(space: FiniteSimplicialSet) -> PointedSubset:
    """The two vertices of the interval: a subset whose reduced diagonal is
    not homologous to zero (its zeroth homology maps isomorphically)."""
    return PointedSubset(space, {0: ["*", "p"]})


def circle_subset(space: FiniteSimplicialSet) -> PointedSubset:
    """The circle {*, e} inside ``two_disc_sphere`` (or any set containing it)."""
    return PointedSubset(space, {0: ["*"], 1: ["e"]})
