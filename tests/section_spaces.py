"""Spaces with involutions for the section-search tests, built as tables.

* ``planted``: free loop-edge orbits {a, ta} at the basepoint and free disc
  orbits {D, tD} whose zeroth face is one of those edges (tx for tD), the
  other faces degenerate at the basepoint.  Every choice of edges extends
  to the discs, so a section exists, with one simplex per free orbit.
  ``planted_fixed_loop`` adds one fixed loop edge at the basepoint.
* ``rotated``: a free 2m-cycle v0 -> v1 -> ... -> v(2m-1) -> v0 rotated by
  m steps, beside a fixed basepoint.  The orbit projection is a connected
  double cover of an m-cycle, so there is no section.
* ``random_space``: a few vertices, edges and triangles, each fixed or in a
  free pair, glued at random; the verdict is left to the searches.
* ``random_verify_case``: a small ``random_space`` with random ``verify``
  bounds, for the three-path agreement checks.
* ``trivial_surface``: the trivial involution on a one-vertex 2-sphere,
  real projective plane or torus, so the fixed set is the whole surface, a
  fixed set with homology in degree 2.
"""

from __future__ import annotations

import random

from loopbetti.simplicial import FiniteSimplicialSet, Involution


def build(
    simplices: dict[int, list[str]], faces: dict[str, list[str]], tau: dict[str, str]
) -> tuple[FiniteSimplicialSet, Involution]:
    """Validated space and involution from label tables (basepoint ``*``)."""
    space = FiniteSimplicialSet(8, simplices, faces, basepoint="*")
    return space, Involution(space, {a: b for a, b in tau.items() if a != b})


def planted(rng: random.Random, edge_orbits: int, disc_orbits: int):
    return build(*_planted_tables(rng, edge_orbits, disc_orbits))


def planted_fixed_loop(rng: random.Random, edge_orbits: int, disc_orbits: int):
    """``planted`` with the same draws plus one fixed loop edge ``f`` at the
    basepoint, so the fixed set is a circle rather than a point."""
    simplices, faces, tau = _planted_tables(rng, edge_orbits, disc_orbits)
    simplices[1].append("f")
    faces["f"] = ["*", "*"]
    tau["f"] = "f"
    return build(simplices, faces, tau)


def _planted_tables(rng: random.Random, edge_orbits: int, disc_orbits: int):
    edges = [(f"a{k}", f"b{k}") for k in range(edge_orbits)]
    tau = {"*": "*"}
    faces = {}
    for x, y in edges:
        tau[x], tau[y] = y, x
        faces[x] = faces[y] = ["*", "*"]
    discs = [(f"D{k}", f"E{k}") for k in range(disc_orbits)]
    for d, e in discs:
        tau[d], tau[e] = e, d
        x = rng.choice(rng.choice(edges))
        faces[d] = [x, "s0@*", "s0@*"]
        faces[e] = [tau[x], "s0@*", "s0@*"]
    simplices = {
        0: ["*"],
        1: [x for pair in edges for x in pair],
        2: [x for pair in discs for x in pair],
    }
    return simplices, faces, tau


def rotated(m: int):
    n = 2 * m
    tau = {"*": "*"}
    faces = {}
    for i in range(n):
        tau[f"v{i}"] = f"v{(i + m) % n}"
        tau[f"e{i}"] = f"e{(i + m) % n}"
        faces[f"e{i}"] = [f"v{(i + 1) % n}", f"v{i}"]
    simplices = {0: ["*"] + [f"v{i}" for i in range(n)], 1: [f"e{i}" for i in range(n)]}
    return build(simplices, faces, tau)


def random_space(rng: random.Random, vertex_orbits: int, edges: int, triangles: int):
    """Random vertices, edges and triangles with an involution.

    A free simplex x gets random faces and tx gets their images; a fixed
    simplex is made only when all its faces are fixed.  Triangle faces are
    chosen to meet at three vertices, so the face identities hold.
    """
    tau = {"*": "*"}
    simplices: dict[int, list[str]] = {0: ["*"], 1: [], 2: []}
    faces: dict[str, list[str]] = {}

    def add(n: int, label: str, entries: list[str], fixed: bool) -> None:
        if fixed:
            tau[label] = label
            simplices[n].append(label)
            faces[label] = entries
            return
        partner = label + "'"
        tau[label], tau[partner] = partner, label
        simplices[n] += [label, partner]
        faces[label] = entries
        faces[partner] = [ref_image(e) for e in entries]

    def ref_image(ref: str) -> str:
        ops, at, base = ref.rpartition("@")
        return ops + at + tau[base]

    for k in range(vertex_orbits):
        if rng.random() < 0.3:
            tau[f"p{k}"] = f"p{k}"
            simplices[0].append(f"p{k}")
        else:
            tau[f"u{k}"], tau[f"w{k}"] = f"w{k}", f"u{k}"
            simplices[0] += [f"u{k}", f"w{k}"]
    vertices = simplices[0]
    for k in range(edges):
        d0, d1 = rng.choice(vertices), rng.choice(vertices)
        fixed = tau[d0] == d0 and tau[d1] == d1 and rng.random() < 0.5
        add(1, f"x{k}", [d0, d1], fixed)
    # edges as (ref, source, target), degenerate ones included
    paths = [(e, faces[e][1], faces[e][0]) for e in simplices[1]]
    paths += [(f"s0@{v}", v, v) for v in vertices]
    for k in range(triangles):
        e01, v0, v1 = rng.choice(paths)
        e12, _, v2 = rng.choice([p for p in paths if p[1] == v1])
        closing = [p for p in paths if p[1] == v0 and p[2] == v2]
        if not closing:
            continue
        e02 = rng.choice(closing)[0]
        entries = [e12, e02, e01]
        fixed = all(ref_image(e) == e for e in entries) and rng.random() < 0.5
        add(2, f"T{k}", entries, fixed)
    return build(simplices, faces, tau)


def random_verify_case(rng: random.Random):
    """A small random space with involution and keyword arguments of
    ``run_verify``: s <= 4, t <= 5, loop row through n <= 6, brute-forced
    through s = 4.  One run takes tens of milliseconds."""
    space, invol = random_space(
        rng, rng.randint(1, 3), edges=rng.randint(1, 4), triangles=rng.randint(0, 3)
    )
    loop_max = rng.randint(0, 6)
    flags = {
        "s_max": rng.randint(2, 4),
        "t_max": rng.randint(0, 5),
        "loop_max": loop_max,
        "brute_loop_max": min(loop_max, 4),
    }
    return space, invol, flags


# the simplices above the basepoint and their faces, per surface
SURFACES = {
    "sphere": ({2: ["S"]}, {"S": ["s0@*", "s0@*", "s0@*"]}),
    "projective_plane": ({1: ["a"], 2: ["P"]}, {"a": ["*", "*"], "P": ["a", "s0@*", "a"]}),
    "torus": (
        {1: ["a", "b", "c"], 2: ["U", "L"]},
        {"a": ["*", "*"], "b": ["*", "*"], "c": ["*", "*"], "U": ["b", "c", "a"], "L": ["a", "c", "b"]},
    ),
}


def trivial_surface(name: str):
    simplices, faces = SURFACES[name]
    return build({0: ["*"], **simplices}, faces, {})
