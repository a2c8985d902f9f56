"""References for ``gale``: eager faces, Bareiss determinants, indexed Gale check.

``enumerate_faces_eager`` builds every face's primitive normal up front and
re-checks it by exact dot products before the face is emitted.
``gale.enumerate_faces`` builds each normal only when it is first read; the
tests compare the two.  ``general_position_bareiss`` decides general
position of any point set by C(n, d) determinants, where
``gale.general_position_check`` takes only moment curves and relies on the
Vandermonde proof.  ``verify_gale_property_indexed`` lists the stable
s-subsets and asks a ``SubsetIndex`` about every canonical plus side, where
``gale.verify_gale_property`` counts the side's runs on the n-cycle.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul

from kneser_chroma import gale
from kneser_chroma.gale import FaceSet, HemispherePartition, build_embedding
from kneser_chroma.setfam import SubsetIndex, enumerate_stable_ksubsets


def det_exact(rows) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    mat = [list(r) for r in rows]
    n = len(mat)
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                mat[i][j] = (mat[i][j] * mat[c][c] - mat[i][c] * mat[c][j]) // prev
            mat[i][c] = 0
        prev = mat[c][c]
    return sign * mat[n - 1][n - 1]


def general_position_bareiss(emb) -> bool:
    """True iff every d of the n points are linearly independent; any point set."""
    return all(
        det_exact([emb.points[i] for i in idx]) != 0
        for idx in combinations(range(emb.n), emb.d)
    )


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
                    sums = tuple(rest[c - 1] + rest[c] for c in cuts)
                    for o in (1, -1):
                        group.append((
                            tuple([o * s for s in signs]),
                            tuple([o * x for x in normal]),
                            (points, zeros, sums, o),
                        ))
            group.sort()
            for s, c, recipe in group:
                plus = sum(1 << i for i, x in enumerate(s) if x > 0)
                minus = sum(1 << i for i, x in enumerate(s) if x < 0)
                face = HemispherePartition(plus, minus, recipe)
                face.normal = c  # built and checked above
                faces.append(face)
    cover = sum(
        math.comb(n, j) * 2 * sum(math.comb(n - j - 1, i) for i in range(d - j))
        for j in range(d)
    )
    return FaceSet(iter(faces), cover)


def verify_gale_property_indexed(emb):
    """``gale.verify_gale_property`` by stable-set enumeration and an index.

    The first canonical hemisphere whose plus side contains no stable
    s-subset of [n], or None; same hemisphere cap, and n > 64 raises from
    the enumeration.
    """
    what = f"canonical hemispheres of {emb.n} points in dimension {emb.d}"
    gale._check_capacity(2 * math.comb(emb.n, emb.d - 1), gale.MAX_HEMISPHERES, what)
    stable_masks = [t.mask for t in enumerate_stable_ksubsets(emb.n, emb.s)]
    index = SubsetIndex(stable_masks, emb.n)
    for part in gale.canonical_hemispheres(emb):
        if index.within(part.plus_mask) == 0:
            return part
    return None
