"""Moment-curve point placements and exact hemisphere combinatorics.

Points are integer vectors, never normalized: every predicate is a sign of
an exact integer inner product or determinant, so there is no floating
point anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import NoWitnessFound
from .setfam import enumerate_stable_ksubsets


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

    @property
    def plus_mask(self) -> int:
        return _mask_of(self.signs, 1)

    @property
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


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


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


def _cross_normal(rows) -> tuple[int, ...]:
    """Integer vector spanning the orthogonal complement of d-1 rows in R^d."""
    d = len(rows) + 1
    normal = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in rows]
        normal.append((-1) ** j * (det_exact(minor) if minor else 1))
    return tuple(normal)


def _primitive(vec) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def canonical_hemispheres(emb: GaleEmbedding):
    """Both orientations of every great sphere through d-1 of the points.

    Emitted in a fixed order: boundary subsets ascending lexicographically,
    positive orientation first.  In general position exactly the boundary
    subset gets sign 0.
    """
    d = emb.d
    for idx in combinations(range(emb.n), d - 1):
        normal = _primitive(_cross_normal([emb.points[i] for i in idx]))
        if all(x == 0 for x in normal):
            raise RuntimeError(f"rank-deficient boundary subset {idx}")
        signs = tuple(_sign(_dot(p, normal)) for p in emb.points)
        zeros = tuple(i for i, s in enumerate(signs) if s == 0)
        if zeros != idx:
            raise RuntimeError(
                f"embedding not in general position: boundary {idx} zeros {zeros}"
            )
        yield HemispherePartition(normal=normal, signs=signs)
        yield HemispherePartition(
            normal=tuple(-x for x in normal), signs=tuple(-s for s in signs)
        )


def verify_gale_property(emb: GaleEmbedding) -> HemispherePartition | None:
    """None if every canonical open hemisphere contains a stable s-subset.

    Returns the first violating partition otherwise.  Together with the
    orientation-reversed copies this covers both open sides of every
    canonical great sphere; inclusion-minimality of canonical hemispheres
    extends the check to arbitrary ones.
    """
    stable_masks = [t.mask for t in enumerate_stable_ksubsets(emb.n, emb.s)]
    for part in canonical_hemispheres(emb):
        plus = part.plus_mask
        if not any(m & plus == m for m in stable_masks):
            return part
    return None


def _times_linear(poly: list[int], a: int, b: int) -> list[int]:
    """Coefficients, constant term first, of poly(x) * (a x + b)."""
    out = [b * c for c in poly] + [0]
    for i, c in enumerate(poly):
        out[i + 1] += a * c
    return out


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

    That f, made primitive, is each face's normal; every face is re-checked by
    exact dot products.  Faces come in (|Z|, Z, signs) order: zero count
    ascending (full cells first), zero sets in ``combinations`` order, sign
    tuples ascending.  ``WitnessSearch.find`` reports the first witness in this
    order.  ``certified_exhaustive`` is the check that the face count equals
    Cover's formula.  Any other point set raises ValueError: the criterion
    holds only on this curve.
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
            rest = [x for x in xs if x not in zeros]
            # sigma_x / tau_x at each point off the zero set
            flip = {x: (-1) ** (x + sum(z > x for z in zeros)) for x in rest}
            zero_poly = [1]
            for z in zeros:
                zero_poly = _times_linear(zero_poly, 1, -z)
            group = []
            for changes in range(d - j):
                # cut c: tau changes sign between rest[c-1] and rest[c]
                for cuts in combinations(range(1, len(rest)), changes):
                    poly = zero_poly
                    for c in cuts:
                        poly = _times_linear(poly, 2, -(rest[c - 1] + rest[c]))
                    normal = _primitive(poly + [0] * (d - len(poly)))
                    signs = [0] * n
                    tau = 1  # g > 0 above its largest root
                    for r in range(len(rest) - 1, -1, -1):
                        signs[rest[r] - 1] = tau * flip[rest[r]]
                        if r in cuts:
                            tau = -tau
                    signs = tuple(signs)
                    # signs are linear in the normal: one check covers both
                    # orientations
                    if tuple(_sign(_dot(p, normal)) for p in points) != signs:
                        raise RuntimeError(f"normal {normal} does not realize {signs}")
                    group.append((signs, normal))
                    group.append(
                        (tuple(-s for s in signs), tuple(-x for x in normal))
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
    boundary faces with 1..d-1 zeros) and, per face, which stable k-subsets
    lie strictly inside each open side.  Some colorings admit no witness on
    any full cell, so the boundary faces are part of the search space, with
    per-face thresholds ceil(|side census| / d).
    """

    def __init__(self, emb: GaleEmbedding, k: int):
        self.emb = emb
        self.k = k
        self.stables = enumerate_stable_ksubsets(emb.n, k)
        self.num_stable = len(self.stables)
        self.faceset = enumerate_faces(emb)
        d = emb.d
        self._per_face = []
        for face in self.faceset.faces:
            plus, minus = face.plus_mask, face.minus_mask
            inside_pos = [
                i for i, t in enumerate(self.stables) if t.mask & plus == t.mask
            ]
            inside_neg = [
                i for i, t in enumerate(self.stables) if t.mask & minus == t.mask
            ]
            t_pos = -(-len(inside_pos) // d)
            t_neg = -(-len(inside_neg) // d)
            self._per_face.append((face, inside_pos, inside_neg, t_pos, t_neg))

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
        for face, inside_pos, inside_neg, t_pos, t_neg in self._per_face:
            cp = [0] * d
            for i in inside_pos:
                cp[colors[i]] += 1
            cn = [0] * d
            for i in inside_neg:
                cn[colors[i]] += 1
            for color in range(d):
                if cp[color] >= t_pos and cn[color] >= t_neg:
                    return Witness(
                        face=face,
                        color=color,
                        count_pos=cp[color],
                        count_neg=cn[color],
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
