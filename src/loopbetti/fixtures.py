"""Hand-built simplicial sets used throughout the tests and the CLI.

The central example is a pair of 2-spheres sharing an equatorial circle,
with the involution that swaps the two hemispheres of each sphere.  Its
orbit space is a 2-sphere built from two discs glued along a collapsed
circle, and its fixed set is that circle.
"""

from __future__ import annotations

from .simplicial import FiniteSimplicialSet, Involution, PointedSubset

DEFAULT_TRUNCATION = 32


def point(truncation: int = DEFAULT_TRUNCATION) -> FiniteSimplicialSet:
    """The one-point simplicial set."""
    return FiniteSimplicialSet(truncation, {0: ["*"]}, {})


def circle(truncation: int = DEFAULT_TRUNCATION) -> FiniteSimplicialSet:
    """A circle: one vertex and one edge with both faces at the vertex."""
    return FiniteSimplicialSet(truncation, {0: ["*"], 1: ["e"]}, {"e": ["*", "*"]})


def interval(truncation: int = DEFAULT_TRUNCATION) -> FiniteSimplicialSet:
    """An interval from the basepoint to a second vertex."""
    return FiniteSimplicialSet(
        truncation, {0: ["*", "p"], 1: ["w"]}, {"w": ["p", "*"]}
    )


def zero_sphere_subset(space: FiniteSimplicialSet) -> PointedSubset:
    """The two vertices of the interval: a subset whose reduced diagonal is
    not homologous to zero (its zeroth homology maps isomorphically)."""
    return PointedSubset(space, {0: ["*", "p"]})


def two_disc_sphere(truncation: int = DEFAULT_TRUNCATION) -> FiniteSimplicialSet:
    """A 2-sphere made of two discs glued along a collapsed circle.

    Each disc is a 2-simplex whose zeroth face is the circle's edge and
    whose other faces are degenerate.
    """
    return FiniteSimplicialSet(
        truncation,
        {0: ["*"], 1: ["e"], 2: ["g1", "g2"]},
        {
            "e": ["*", "*"],
            "g1": ["e", "s0@*", "s0@*"],
            "g2": ["e", "s0@*", "s0@*"],
        },
    )


def circle_subset(space: FiniteSimplicialSet) -> PointedSubset:
    """The circle {*, e} inside ``two_disc_sphere`` (or any set containing it)."""
    return PointedSubset(space, {0: ["*"], 1: ["e"]})


def sphere_pair_swap(
    truncation: int = DEFAULT_TRUNCATION,
) -> tuple[FiniteSimplicialSet, Involution]:
    """Two 2-spheres sharing an equatorial circle, hemispheres swapped.

    Four discs glued along one circle; the involution swaps the discs within
    each pair and fixes the circle.  The orbit space is ``two_disc_sphere``
    and the fixed set is the circle.
    """
    space = FiniteSimplicialSet(
        truncation,
        {0: ["*"], 1: ["e"], 2: ["D1+", "D1-", "D2+", "D2-"]},
        {
            "e": ["*", "*"],
            "D1+": ["e", "s0@*", "s0@*"],
            "D1-": ["e", "s0@*", "s0@*"],
            "D2+": ["e", "s0@*", "s0@*"],
            "D2-": ["e", "s0@*", "s0@*"],
        },
    )
    invol = Involution(
        space, {"D1+": "D1-", "D1-": "D1+", "D2+": "D2-", "D2-": "D2+"}
    )
    return space, invol


def free_double_cover(
    truncation: int = DEFAULT_TRUNCATION,
) -> tuple[FiniteSimplicialSet, Involution]:
    """A square circle rotated halfway, plus a disjoint fixed basepoint.

    The action is free away from the basepoint, so the orbit projection is a
    nontrivial double cover of a circle and admits no section.
    """
    space = FiniteSimplicialSet(
        truncation,
        {0: ["*", "v0", "v1", "v2", "v3"], 1: ["e0", "e1", "e2", "e3"]},
        {
            "e0": ["v1", "v0"],
            "e1": ["v2", "v1"],
            "e2": ["v3", "v2"],
            "e3": ["v0", "v3"],
        },
    )
    invol = Involution(
        space,
        {
            "v0": "v2", "v2": "v0", "v1": "v3", "v3": "v1",
            "e0": "e2", "e2": "e0", "e1": "e3", "e3": "e1",
        },
    )
    return space, invol


def trivial_circle(
    truncation: int = DEFAULT_TRUNCATION,
) -> tuple[FiniteSimplicialSet, Involution]:
    """The circle with the identity involution; every simplex is fixed."""
    space = circle(truncation)
    return space, Involution(space, {})
