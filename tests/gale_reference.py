"""Eager face enumeration, the reference for ``gale.enumerate_faces``.

This builds every face's primitive normal up front and re-checks it by exact
dot products before the face is emitted.  ``gale.enumerate_faces`` builds
each normal only when it is first read; the tests compare the two.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul

from kneser_chroma.gale import FaceSet, HemispherePartition, build_embedding


def _times_linear(poly, a, b):
    out = [b * c for c in poly] + [0]
    for i, c in enumerate(poly):
        out[i + 1] += a * c
    return out


def _zero_set_poly(roots):
    poly = [1]
    for r in roots:
        poly = _times_linear(poly, 1, -r)
    return poly


def enumerate_faces_eager(emb) -> FaceSet:
    """Every face of the alternating moment-curve arrangement, normals built.

    Same sign-change rule, order and ``certified_exhaustive`` as
    ``gale.enumerate_faces``; see its docstring for the proof.
    """
    if emb != build_embedding(emb.n, emb.s):
        raise ValueError("enumerate_faces_eager needs build_embedding(n, s)")
    n, d, points = emb.n, emb.d, emb.points
    xs = range(1, n + 1)
    faces = []
    for j in range(d):
        for zeros in combinations(xs, j):
            rest, flip = [], []
            above = -1 if j % 2 else 1
            for x in xs:
                if x in zeros:
                    above = -above
                else:
                    rest.append(x)
                    flip.append(-above if x % 2 else above)
            neg_flip = [-f for f in flip]
            zero_poly = _zero_set_poly(zeros)
            factor = [
                (2, -(a + b)) if (a + b) % 2 else (1, -(a + b) // 2)
                for a, b in zip(rest, rest[1:])
            ]
            group = []
            for changes in range(d - j):
                for cuts in combinations(range(1, len(rest)), changes):
                    poly = zero_poly
                    for c in cuts:
                        poly = _times_linear(poly, *factor[c - 1])
                    normal = tuple(poly) + (0,) * (d - len(poly))
                    signs = []
                    lo, run = 0, flip if changes % 2 == 0 else neg_flip
                    for hi in cuts:
                        signs += run[lo:hi]
                        lo, run = hi, neg_flip if run is flip else flip
                    signs += run[lo:]
                    for z in zeros:
                        signs.insert(z - 1, 0)
                    for p, want in zip(points, signs):
                        v = sum(map(mul, p, normal))
                        if (v > 0) - (v < 0) != want:
                            raise RuntimeError(
                                f"normal {normal} does not realize {signs}"
                            )
                    group.append((tuple(signs), normal))
                    group.append(
                        (tuple([-s for s in signs]), tuple([-x for x in normal]))
                    )
            group.sort()
            faces.extend(HemispherePartition(normal=c, signs=s) for s, c in group)
    cover = sum(
        math.comb(n, j) * 2 * sum(math.comb(n - j - 1, i) for i in range(d - j))
        for j in range(d)
    )
    return FaceSet(faces=tuple(faces), certified_exhaustive=len(faces) == cover)
