import pytest
from shipped import sphere_pair_swap, trivial_circle

from loopbetti.constructions import orbit_space, smash_power
from loopbetti.homology import reduced_betti
from loopbetti.pinched import pinched_set, pinched_top_bound


@pytest.fixture(scope="session")
def glued_spheres():
    """The main worked example: space, involution, orbit data."""
    space, invol = sphere_pair_swap()
    orbit, rep, fixed = orbit_space(space, invol)
    return {
        "space": space,
        "invol": invol,
        "orbit": orbit,
        "rep": rep,
        "fixed": fixed,
    }


@pytest.fixture(scope="session")
def trivial_circle_action():
    space, invol = trivial_circle()
    orbit, rep, fixed = orbit_space(space, invol)
    return {
        "space": space,
        "invol": invol,
        "orbit": orbit,
        "rep": rep,
        "fixed": fixed,
    }


class PinchedCache:
    """Session cache of pinched subsets and their brute Betti tables."""

    def __init__(self, orbit, fixed):
        self.orbit = orbit
        self.fixed = fixed
        self._subsets = {}
        self._tables = {}
        self._ambients = {}

    def ambient(self, s, truncation):
        key = (s, truncation)
        if key not in self._ambients:
            self._ambients[key] = smash_power(self.orbit, s, truncation)
        return self._ambients[key]

    def subset(self, s, t_max):
        trunc = min(t_max + 1, pinched_top_bound(self.orbit, self.fixed, s))
        key = (s, trunc)
        if key not in self._subsets:
            self._subsets[key] = pinched_set(
                self.orbit, self.fixed, s, truncation=trunc,
                ambient=self.ambient(s, trunc),
            )
        return self._subsets[key]

    def betti(self, s, t_max):
        have = self._tables.get(s)
        if have is not None and have.certified >= t_max:
            return have
        table = reduced_betti(self.subset(s, t_max), t_max)
        self._tables[s] = table
        return table


@pytest.fixture(scope="session")
def glued_pinched(glued_spheres):
    return PinchedCache(glued_spheres["orbit"], glued_spheres["fixed"])


@pytest.fixture(scope="session")
def trivial_pinched(trivial_circle_action):
    return PinchedCache(
        trivial_circle_action["orbit"], trivial_circle_action["fixed"]
    )
