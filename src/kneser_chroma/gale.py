"""Moment-curve point placements and exact hemisphere combinatorics.

Points are integer vectors, never normalized: every predicate is a sign of
an exact integer inner product or determinant, so there is no floating
point anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul

from .errors import NoWitnessFound
from .setfam import SubsetIndex, enumerate_stable_ksubsets


@dataclass(frozen=True)
class GaleEmbedding:
    """n alternating-sign moment-curve points in Z^d, d = n - 2s + 1."""

    n: int
    s: int
    d: int
    points: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HemispherePartition:
    """Signs of <point_i, normal> for an exact integer normal direction."""

    normal: tuple[int, ...]
    signs: tuple[int, ...]  # one of -1, 0, +1 per point

    # computed on first access and kept; most enumerated faces never need them
    @cached_property
    def plus_mask(self) -> int:
        return _mask_of(self.signs, 1)

    @cached_property
    def minus_mask(self) -> int:
        return _mask_of(self.signs, -1)

    @property
    def zero_mask(self) -> int:
        return _mask_of(self.signs, 0)

    def signs_string(self) -> str:
        return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in self.signs)


@dataclass(frozen=True)
class FaceSet:
    """All realizable sign vectors, zeros allowed (covectors of the arrangement)."""

    faces: tuple[HemispherePartition, ...]
    certified_exhaustive: bool


@dataclass(frozen=True)
class Witness:
    """Direction whose two strict open sides both host >= t of the same color.

    The direction may lie on up to d-1 point hyperplanes; those points count
    for neither side.  Witnesses on such boundary faces do occur: there are
    colorings for which no full-dimensional cell works.
    """

    face: HemispherePartition
    color: int
    count_pos: int
    count_neg: int
    t_pos: int
    t_neg: int


def _mask_of(signs, value: int) -> int:
    m = 0
    for i, s in enumerate(signs):
        if s == value:
            m |= 1 << i
    return m


def _signs(points, normal) -> tuple[int, ...]:
    """Exact sign of <point, normal> for every point."""
    out = []
    for p in points:
        v = sum(map(mul, p, normal))
        out.append((v > 0) - (v < 0))
    return tuple(out)


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


def build_embedding(n: int, s: int) -> GaleEmbedding:
    """Alternating moment-curve points: point i = (-1)^i (1, i, ..., i^(d-1))."""
    if s < 1:
        raise ValueError(f"s={s} must be >= 1")
    d = n - 2 * s + 1
    if d < 2:
        raise ValueError(f"d = n - 2s + 1 = {d} < 2 (need n >= 2s + 1)")
    points = []
    for i in range(1, n + 1):
        sgn = -1 if i % 2 else 1
        points.append(tuple(sgn * i**j for j in range(d)))
    return GaleEmbedding(n=n, s=s, d=d, points=tuple(points))


def general_position_check(emb: GaleEmbedding) -> bool:
    """True iff every d of the n points are linearly independent."""
    if emb.n < emb.d:
        return True
    for idx in combinations(range(emb.n), emb.d):
        if det_exact([emb.points[i] for i in idx]) == 0:
            return False
    return True


def _times_linear(poly: list[int], a: int, b: int) -> list[int]:
    """Coefficients, constant term first, of poly(x) * (a x + b)."""
    out = [b * c for c in poly] + [0]
    for i, c in enumerate(poly):
        out[i + 1] += a * c
    return out


def _zero_set_poly(roots) -> list[int]:
    """Coefficients, constant term first, of prod_{r in roots} (x - r)."""
    poly = [1]
    for r in roots:
        poly = _times_linear(poly, 1, -r)
    return poly


def _curve_parameters(emb: GaleEmbedding) -> tuple[list[int], list[int]]:
    """(sigma, x) with point i = sigma_i (1, x_i, ..., x_i^(d-1)), x ascending.

    Any other point set raises ValueError.
    """
    d, points = emb.d, emb.points
    if d >= 2 and len(points) == emb.n and all(len(p) == d for p in points):
        sigmas = [p[0] for p in points]
        xs = [p[0] * p[1] for p in points]
        curve = [tuple(sg * x**j for j in range(d)) for sg, x in zip(sigmas, xs)]
        if (
            set(sigmas) <= {1, -1}
            and all(a < b for a, b in zip(xs, xs[1:]))
            and curve == [tuple(p) for p in points]
        ):
            return sigmas, xs
    raise ValueError(
        "canonical_hemispheres needs points sigma_i (1, x_i, ..., x_i^(d-1)) "
        "with sigma_i = +-1 and ascending x_i"
    )


def canonical_hemispheres(emb: GaleEmbedding):
    """Both orientations of every great sphere through d-1 of the points.

    The points must be sigma_i (1, x_i, ..., x_i^(d-1)) with sigma_i = +-1 and
    ascending x_i; any other point set raises ValueError.  A direction c with
    polynomial f(x) = sum_j c_j x^j has <point_i, c> = sigma_i f(x_i), so the
    sphere through the boundary set Z has the normal
    f = s prod_{z in Z} (x - x_z), s = (-1)^(d-1) prod_{z in Z} sigma_z.  It is
    monic up to sign, hence primitive, and it is the cofactor normal of the
    boundary rows divided by their Vandermonde determinant, which is positive
    for ascending x: expanding det(rows of Z, point i) along its last row gives
    (-1)^(d-1) <point_i, cofactor normal> = prod sigma_z sigma_i V_Z
    prod_{z in Z} (x_i - x_z).

    Emitted in a fixed order: boundary subsets ascending lexicographically,
    positive orientation first.  Signs are exact dot products, and in general
    position exactly the boundary subset gets sign 0.
    """
    sigmas, xs = _curve_parameters(emb)
    d, points = emb.d, emb.points
    for idx in combinations(range(emb.n), d - 1):
        s = -1 if d % 2 == 0 else 1
        for i in idx:
            s *= sigmas[i]
        normal = tuple(s * c for c in _zero_set_poly([xs[i] for i in idx]))
        signs = _signs(points, normal)
        zeros = tuple(i for i, sg in enumerate(signs) if sg == 0)
        if zeros != idx:
            raise RuntimeError(
                f"embedding not in general position: boundary {idx} zeros {zeros}"
            )
        yield HemispherePartition(normal=normal, signs=signs)
        yield HemispherePartition(
            normal=tuple(-x for x in normal), signs=tuple(-sg for sg in signs)
        )


def verify_gale_property(emb: GaleEmbedding) -> HemispherePartition | None:
    """None if every canonical open hemisphere contains a stable s-subset.

    Returns the first violating partition otherwise.  Together with the
    orientation-reversed copies this covers both open sides of every
    canonical great sphere; inclusion-minimality of canonical hemispheres
    extends the check to arbitrary ones.
    """
    stable_masks = [t.mask for t in enumerate_stable_ksubsets(emb.n, emb.s)]
    index = SubsetIndex(stable_masks, emb.n)
    for part in canonical_hemispheres(emb):
        if index.within(part.plus_mask) == 0:
            return part
    return None


def enumerate_faces(emb: GaleEmbedding) -> FaceSet:
    """Every realizable sign vector of the moment-curve arrangement, zeros included.

    Point i (1-based) is (-1)^i (1, i, ..., i^(d-1)), so a direction c with
    polynomial f(x) = sum_j c_j x^j has <point_i, c> = (-1)^i f(i).  A sign
    vector sigma with zero set Z, |Z| = j < d, is realizable iff the corrected
    signs tau_i = sigma_i (-1)^i (-1)^#{z in Z : z > i} change sign at most
    d-1-j times along the points i not in Z.
    Proof: f = prod_{z in Z} (x - z) * g with g != 0, deg g <= d-1-j and
    tau_i = sign g(i), so each change of tau needs its own root of g; conversely
    g = +-prod (2x - (a+b)) over the neighbours a < b of each change realizes tau.

    That f, made primitive, is each face's normal: by Gauss's lemma it is the
    product of the primitive factors, 2x - (a+b) halved when a+b is even.
    Every face is re-checked by exact dot products.  Faces come in
    (|Z|, Z, signs) order: zero count ascending (full cells first), zero sets
    in ``combinations`` order, sign tuples ascending.  ``WitnessSearch.find``
    reports the first witness in this order.  ``certified_exhaustive`` is the
    check that the face count equals Cover's formula.  Any other point set
    raises ValueError: the criterion holds only on this curve.
    """
    if emb != build_embedding(emb.n, emb.s):
        raise ValueError(
            "enumerate_faces needs the alternating moment curve "
            f"build_embedding({emb.n}, {emb.s})"
        )
    n, d, points = emb.n, emb.d, emb.points
    xs = range(1, n + 1)
    faces = []
    for j in range(d):
        for zeros in combinations(xs, j):
            # sigma_x / tau_x = (-1)^(x + #{z in Z: z > x}) at each point x
            # off the zero set, and its negation
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
            # factor[c-1]: the root of g between rest[c-1] and rest[c]
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
                    # tau is +1 above the largest cut (g > 0 above its largest
                    # root) and alternates across the cuts below it
                    signs = []
                    lo, run = 0, flip if changes % 2 == 0 else neg_flip
                    for hi in cuts:
                        signs += run[lo:hi]
                        lo, run = hi, neg_flip if run is flip else flip
                    signs += run[lo:]
                    for z in zeros:
                        signs.insert(z - 1, 0)
                    # signs are linear in the normal: one check covers both
                    # orientations
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


class WitnessSearch:
    """Reusable antipodal-witness search for many colorings of one instance.

    Precomputes the face arrangement of an embedding (full cells first, then
    boundary faces with 1..d-1 zeros).  The per-face census, the bitset of
    stable k-subsets lying strictly inside each open side, is built in face
    order as ``find`` first reaches a face, and kept for later colorings.
    Some colorings admit no witness on any full cell, so the boundary faces
    are part of the search space, with per-face thresholds
    ceil(|side census| / d).
    """

    def __init__(self, emb: GaleEmbedding, k: int):
        self.emb = emb
        self.k = k
        self.stables = enumerate_stable_ksubsets(emb.n, k)
        self.num_stable = len(self.stables)
        self.faceset = enumerate_faces(emb)
        self._index = SubsetIndex([t.mask for t in self.stables], emb.n)
        # (pos, neg, t_pos, t_neg) of the faces find has reached, in face order
        self._census: list[tuple[int, int, int, int]] = []

    def _census_of(self, i: int) -> tuple[int, int, int, int]:
        census = self._census
        if i == len(census):
            face = self.faceset.faces[i]
            pos = self._index.within(face.plus_mask)
            neg = self._index.within(face.minus_mask)
            d = self.emb.d
            census.append(
                (pos, neg, -(-pos.bit_count() // d), -(-neg.bit_count() // d))
            )
        return census[i]

    def find(self, coloring) -> Witness:
        """First witness in (face order, color index) order; raises if none."""
        d = self.emb.d
        colors = list(coloring)
        if len(colors) != self.num_stable:
            raise ValueError(
                f"coloring must assign all {self.num_stable} stable {self.k}-subsets"
            )
        if any(not 0 <= c < d for c in colors):
            raise ValueError(f"colors must lie in 0..{d - 1}")
        classes = [0] * d
        for i, c in enumerate(colors):
            classes[c] |= 1 << i
        for i, face in enumerate(self.faceset.faces):
            pos, neg, t_pos, t_neg = self._census_of(i)
            for color, cls in enumerate(classes):
                cp = (pos & cls).bit_count()
                cn = (neg & cls).bit_count()
                if cp >= t_pos and cn >= t_neg:
                    return Witness(
                        face=face,
                        color=color,
                        count_pos=cp,
                        count_neg=cn,
                        t_pos=t_pos,
                        t_neg=t_neg,
                    )
        raise NoWitnessFound(
            "no direction carries the same color above threshold on both sides"
            + (
                ""
                if self.faceset.certified_exhaustive
                else " (face count differs from Cover's formula)"
            ),
            certified=self.faceset.certified_exhaustive,
        )


def witness_to_json_dict(w: Witness) -> dict:
    return {
        "normal": list(w.face.normal),
        "signs": w.face.signs_string(),
        "color": w.color,
        "counts": {
            "pos": w.count_pos,
            "neg": w.count_neg,
            "t_pos": w.t_pos,
            "t_neg": w.t_neg,
        },
    }


def partition_to_json_dict(p: HemispherePartition) -> dict:
    return {"normal": list(p.normal), "signs": p.signs_string()}


__all__ = [
    "GaleEmbedding",
    "HemispherePartition",
    "FaceSet",
    "Witness",
    "WitnessSearch",
    "build_embedding",
    "general_position_check",
    "canonical_hemispheres",
    "verify_gale_property",
    "enumerate_faces",
    "det_exact",
    "witness_to_json_dict",
    "partition_to_json_dict",
]
