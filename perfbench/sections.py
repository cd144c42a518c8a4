"""Seeded generator of section-search instances as ``.sset`` texts.

Two families, each with its verdict known by construction:

* ``planted``: free loop-edge orbits {a, ta} at a fixed basepoint, plus free
  disc orbits {D, tD} whose zeroth face is a random edge x (and tx for tD),
  the other faces degenerate at the basepoint.  Any choice of edge
  representatives extends to exactly one disc per orbit, so a section
  always exists and has one cell per free orbit.
* ``rotated``: a free 2m-cycle v0 -> v1 -> ... -> v(2m-1) -> v0 rotated by m
  steps, beside a fixed isolated basepoint (``free_double_cover`` for
  m = 2).  The orbit projection is a connected nontrivial double cover of an
  m-cycle, so no section exists.

The seed changes labels, the choice of disc faces and the order of every
record; sizes are fixed, so cost does not depend on the seed.
"""

from __future__ import annotations

import random


def _text(simplices: dict[int, list[str]], faces: dict[str, list[str]],
          invol: dict[str, str], rng: random.Random) -> str:
    lines = ["truncation 32", "basepoint *"]
    for dim in sorted(simplices):
        labels = list(simplices[dim])
        rng.shuffle(labels)
        lines.append(f"simplices {dim} " + " ".join(labels))
    face_lines = [f"faces {label} " + " ".join(entries) for label, entries in faces.items()]
    rng.shuffle(face_lines)
    invol_lines = [f"involution {a} {b}" for a, b in invol.items()]
    rng.shuffle(invol_lines)
    return "\n".join(lines + face_lines + invol_lines) + "\n"


def planted(rng: random.Random, edge_orbits: int, disc_orbits: int) -> str:
    """Free loop-edge and disc orbits with a planted section."""
    tags = rng.sample(range(10 * (edge_orbits + disc_orbits)), edge_orbits + disc_orbits)
    edges = [(f"a{t}", f"b{t}") for t in tags[:edge_orbits]]
    discs = [(f"D{t}", f"E{t}") for t in tags[edge_orbits:]]
    partner = {}
    for x, y in edges:
        partner[x], partner[y] = y, x
    faces = {x: ["*", "*"] for pair in edges for x in pair}
    for d, e in discs:
        x = rng.choice(rng.choice(edges))
        faces[d] = [x, "s0@*", "s0@*"]
        faces[e] = [partner[x], "s0@*", "s0@*"]
    invol = {}
    for x, y in edges + discs:
        invol[x], invol[y] = y, x
    simplices = {
        0: ["*"],
        1: [x for pair in edges for x in pair],
        2: [x for pair in discs for x in pair],
    }
    return _text(simplices, faces, invol, rng)


def rotated(rng: random.Random, m: int) -> str:
    """A free 2m-cycle rotated halfway, beside a fixed basepoint."""
    n = 2 * m
    shift = rng.randrange(n)
    v = [f"v{(i + shift) % n}" for i in range(n)]
    e = [f"e{(i + shift) % n}" for i in range(n)]
    faces = {e[i]: [v[(i + 1) % n], v[i]] for i in range(n)}
    invol = {}
    for i in range(n):
        invol[v[i]] = v[(i + m) % n]
        invol[e[i]] = e[(i + m) % n]
    return _text({0: ["*"] + v, 1: e}, faces, invol, rng)
