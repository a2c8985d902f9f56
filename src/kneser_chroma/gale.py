"""Moment-curve point placements and exact hemisphere combinatorics.

Points are integer vectors, never normalized, and there is no floating
point anywhere in this module: every sign comes from a sign-change rule
proven in its docstring, and every normal is re-checked against its signs
by exact integer Horner evaluation when it is read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, reduce
from itertools import combinations
from operator import xor

from .errors import CapacityError, NoWitnessFound
from .graphs import SCHRIJVER, family_vertices
from .setfam import SubsetIndex, _check_domain

# the most faces enumerate_faces builds (Cover's formula) and the most
# canonical hemispheres verify_gale_property checks (2 C(n, d-1)); either
# builds only its sides, and a normal only when it is read
MAX_FACES = 2**18
MAX_HEMISPHERES = 2**16


class GaleEmbedding(namedtuple("GaleEmbedding", "n s d signs")):
    """n moment-curve points in Z^d: point i = signs[i-1] (1, i, ..., i^(d-1)).

    ``signs`` of a length other than n, or with an entry other than the int
    1 or -1, is a ValueError, from ``_replace`` too.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, n, s, d, signs):
        signs = tuple(signs)
        if len(signs) != n or any(sg not in (1, -1) or type(sg) is not int
                                  for sg in signs):
            raise ValueError(f"need {n} signs, each 1 or -1, got {signs}")
        return super().__new__(cls, n, s, d, signs)

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sg * x**j for j in range(self.d))
                     for x, sg in enumerate(self.signs, 1))


class HemispherePartition:
    """Sides of the points relative to an exact integer normal direction.

    Built from the plus and minus masks and a recipe (points, the x of the
    zero set, a+b for each sign change, orientation); the signs are derived
    on first read.  The partition builds its primitive normal from the
    recipe (``_face_normal``), and checks it against its masks by Horner's
    rule in exact integers, when ``normal`` is first read.  Partitions are
    equal iff their plus and minus masks are, so comparing them builds no
    normal.
    """

    def __init__(self, plus_mask: int, minus_mask: int, recipe):
        self.plus_mask = plus_mask
        self.minus_mask = minus_mask
        self._recipe = recipe

    @cached_property
    def normal(self) -> tuple[int, ...]:
        normal = _face_normal(*self._recipe)
        high = normal[::-1]
        plus = minus = 0
        # point i (from 1) is sigma_i (1, i, ..., i^(d-1)), so its inner
        # product with the normal is sigma_i f(i), f by Horner's rule
        for x, p in enumerate(self._recipe[0], 1):
            v = 0
            for c in high:
                v = v * x + c
            v *= p[0]
            if v > 0:
                plus |= 1 << (x - 1)
            elif v < 0:
                minus |= 1 << (x - 1)
        if (plus, minus) != (self.plus_mask, self.minus_mask):
            raise RuntimeError(f"normal {normal} does not realize {self.signs}")
        return normal

    def __eq__(self, other):
        if not isinstance(other, HemispherePartition):
            return NotImplemented
        return (self.plus_mask, self.minus_mask) == (other.plus_mask, other.minus_mask)

    def __repr__(self):
        return f"HemispherePartition(signs={self.signs_string()!r})"

    # computed on first access and kept; most partitions never need them
    @cached_property
    def signs(self) -> tuple[int, ...]:
        plus, minus = self.plus_mask, self.minus_mask
        n = len(self._recipe[0])
        return tuple((plus >> i & 1) - (minus >> i & 1) for i in range(n))

    @property
    def zero_mask(self) -> int:
        return ((1 << len(self._recipe[0])) - 1) ^ self.plus_mask ^ self.minus_mask

    def signs_string(self) -> str:
        return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in self.signs)


class FaceSet:
    """The realizable sign vectors, zeros allowed, built only as far as read.

    ``built`` is the prefix pulled from ``stream`` so far; iterating pulls a
    face only past its end.  ``faces`` and ``certified_exhaustive`` (the count
    of faces generated equals ``cover``, Cover's formula) drain the stream.
    """

    def __init__(self, stream, cover: int):
        self._stream = stream
        self.cover = cover
        self.built: list[HemispherePartition] = []

    def __iter__(self):
        i = 0
        while True:
            if i == len(self.built):
                face = next(self._stream, None)
                if face is None:
                    return
                self.built.append(face)
            yield self.built[i]
            i += 1

    @cached_property
    def faces(self) -> tuple[HemispherePartition, ...]:
        self.built += self._stream
        return tuple(self.built)

    @property
    def certified_exhaustive(self) -> bool:
        return len(self.faces) == self.cover


class Witness(namedtuple("Witness", "face color count_pos count_neg t_pos t_neg")):
    """Direction whose two strict open sides both host >= t of the same color.

    The direction may lie on up to d-1 point hyperplanes; those points count
    for neither side.  Witnesses on such boundary faces do occur: there are
    colorings for which no full-dimensional cell works.
    """

    __slots__ = ()


def build_embedding(n: int, s: int) -> GaleEmbedding:
    """Alternating moment-curve points: point i = (-1)^i (1, i, ..., i^(d-1))."""
    if s < 1:
        raise ValueError(f"s={s} must be >= 1")
    d = n - 2 * s + 1
    if d < 2:
        raise ValueError(f"d = n - 2s + 1 = {d} < 2 (need n >= 2s + 1)")
    _check_domain(n, s)
    return GaleEmbedding(n, s, d, tuple((-1) ** i for i in range(1, n + 1)))


def general_position_check(emb: GaleEmbedding) -> bool:
    """True: every d of the n points are linearly independent.

    No determinant is needed: the rows i_1 < ... < i_d form diag(sigma_i)
    times the Vandermonde matrix of i_1 < ... < i_d, whose determinant
    prod sigma_i * prod_(a < b) (i_b - i_a) is a product of nonzero factors.
    """
    return True


def _times_linear(poly: list[int], a: int, b: int) -> list[int]:
    """Coefficients, constant term first, of poly(x) * (a x + b)."""
    out = [b * c for c in poly] + [0]
    for i, c in enumerate(poly):
        out[i + 1] += a * c
    return out


def _zero_sets(signs, j: int):
    """Each j-subset Z of the points, in ``combinations`` order, with its sides.

    ``signs`` is the curve's sigma: point i (bit i) is
    sigma_i (1, x_i, ..., x_i^(d-1)) with x_i = i + 1.  For each Z this
    yields (the x of Z, prod_{z in Z} sigma_z, off, base): ``off`` is the
    mask of the points off Z, and ``base`` the plus side of the direction
    whose polynomial is prod_{z in Z} (x - x_z).

    The sides come without a dot product.  A direction c with polynomial
    f(x) = sum_j c_j x^j has <point_i, c> = sigma_i f(x_i), here
    sigma_i prod_{z in Z} (x_i - x_z): zero on Z, and off Z a product of
    nonzero factors (the x are distinct), negative exactly for the z > i
    (the x ascend).  So point i off Z is on the plus side iff an even number
    of sigma_i < 0 and #{z in Z : z > i} odd hold.  Bit i of (1 << z) - 1 is
    set iff i < z, so P = XOR_{z in Z} ((1 << z) - 1) has bit i set iff
    #{z > i} is odd, and with S the mask of sigma_i = +1,
    base = (S ^ P) & off.  Negating the direction negates every sign off Z,
    so the plus side of -f is base ^ off.
    """
    n = len(signs)
    full = (1 << n) - 1
    up = sum(1 << i for i, sg in enumerate(signs) if sg > 0)
    prefixes = [(1 << z) - 1 for z in range(n)]
    bits = [1 << z for z in range(n)]
    # parallel combinations of the same indices: one zero set Z per row
    for pre, bit, sg, zx in zip(
        *(combinations(v, j) for v in (prefixes, bits, signs, range(1, n + 1)))
    ):
        off = full - sum(bit)
        yield zx, math.prod(sg), off, reduce(xor, pre, up) & off


def canonical_hemispheres(emb: GaleEmbedding):
    """Both orientations of every great sphere through d-1 of the points.

    A direction c with polynomial f(x) = sum_j c_j x^j has
    <point_i, c> = sigma_i f(x_i) (``_zero_sets``), so the sphere through the
    boundary set Z has the normal f = s prod_{z in Z} (x - x_z),
    s = (-1)^(d-1) prod_{z in Z} sigma_z.  It is monic up to sign, hence
    primitive, and it is the cofactor normal of the boundary rows divided by
    their Vandermonde determinant, which is positive for ascending x:
    expanding det(rows of Z, point i) along its last row gives
    (-1)^(d-1) <point_i, cofactor normal> = prod sigma_z sigma_i V_Z
    prod_{z in Z} (x_i - x_z).

    The sides come from ``_zero_sets`` without a dot product: the plus side
    is its ``base`` when s > 0 and ``base ^ off`` otherwise, and the reversed
    orientation swaps the masks.  Each partition builds f from Z and s, and
    re-checks it against its sides by Horner's rule, when its ``normal`` is
    first read.

    Emitted in a fixed order: boundary subsets ascending lexicographically,
    positive orientation first.
    """
    points = emb.points
    sign = 1 if emb.d % 2 else -1
    for zx, sg, off, base in _zero_sets(emb.signs, emb.d - 1):
        s = sign * sg
        plus = base if s > 0 else base ^ off
        yield HemispherePartition(plus, off ^ plus, (points, zx, (), s))
        yield HemispherePartition(off ^ plus, plus, (points, zx, (), -s))


def _check_capacity(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise CapacityError(f"{count} {what} exceed the cap of {cap}")


def _max_stable(mask: int, n: int) -> int:
    """Size of the largest stable subset of ``mask`` on the n-cycle: floor(n/2)
    for the whole cycle, else the sum of ceil(L/2) over its runs of L points.
    """
    full = (1 << n) - 1
    if mask == full:
        return n // 2
    # rotate the lowest missing position to the top, so no run wraps; each
    # pass counts every run's start and drops it and the point after it
    shift = (~mask & (mask + 1)).bit_length()
    m = (mask >> shift | mask << (n - shift)) & full
    size = 0
    while m:
        starts = m & ~(m << 1)
        size += starts.bit_count()
        m &= ~(starts | starts << 1)
    return size


def verify_gale_property(emb: GaleEmbedding) -> HemispherePartition | None:
    """None if every canonical open hemisphere contains a stable s-subset.

    Returns the first violating partition otherwise.  Together with the
    orientation-reversed copies this covers both open sides of every
    canonical great sphere; inclusion-minimality of canonical hemispheres
    extends the check to arbitrary ones.  More than ``MAX_HEMISPHERES``
    canonical hemispheres, or more than ``MAX_GROUND_SET`` points, is a
    CapacityError, raised before any hemisphere is built.

    No stable set is listed: a side P holds a stable s-subset iff its
    largest stable subset on the n-cycle has at least s points (subsets of
    stable sets are stable).  If P is the whole cycle that size is
    floor(n/2).  Otherwise P splits into maximal cyclic runs, each followed
    by a missing position, so points of different runs are never
    consecutive; a run of L consecutive points holds at most ceil(L/2)
    pairwise non-consecutive ones (every other point from one end), and the
    size is the sum of ceil(L/2) over the runs (``_max_stable``).

    The check first takes |P| - |P & rot(P)|, where P & rot(P) marks the
    cyclically consecutive pairs inside P.  A run of L < n points has L - 1
    such pairs and adds 1 <= ceil(L/2), with equality iff L <= 2; the whole
    cycle gives n - n = 0 <= floor(n/2).  So this is a lower bound on the
    size, exact when no run is longer than 2, and only a side whose bound is
    below s is counted run by run.

    On the alternating curve the bound is exact, so the runs are counted
    only for a side that violates the property, and Gale's lemma says there
    is none.  There sigma_i = (-1)^i and x_i = i, so for a fixed sign c the
    plus side of the sphere through Z holds point i iff
    (-1)^i c prod_{z in Z} (i - z) > 0 (``_zero_sets``).  Two
    points i, i+1 off Z have no boundary point between them, so the product
    has one sign at both while (-1)^i flips: at most one of them is plus.
    Only the pair {n, 1} can therefore be consecutive in P, no run is
    longer than 2, and the bound is exact.
    """
    n = emb.n
    what = f"canonical hemispheres of {n} points in dimension {emb.d}"
    _check_capacity(2 * math.comb(n, emb.d - 1), MAX_HEMISPHERES, what)
    _check_domain(n, emb.s)
    s, top = emb.s, n - 1
    for part in canonical_hemispheres(emb):
        plus = part.plus_mask
        pairs = plus & (plus << 1 | plus >> top)
        if plus.bit_count() - pairs.bit_count() < s and _max_stable(plus, n) < s:
            return part
    return None


def _face_normal(points, zeros, sums, orientation: int) -> tuple[int, ...]:
    """Primitive normal of a partition's recipe, ``orientation`` = +-1.

    The product of x - z over the x values z in ``zeros`` and of 2x - ab
    over ``sums`` (ab = a + b for the x values a < b either side of a sign
    change), each halved when ab is even, times ``orientation``.
    """
    poly = [1]
    for z in zeros:
        poly = _times_linear(poly, 1, -z)
    for ab in sums:
        poly = _times_linear(poly, *((2, -ab) if ab % 2 else (1, -ab // 2)))
    poly += [0] * (len(points[0]) - len(poly))
    return tuple(poly) if orientation > 0 else tuple([-c for c in poly])


def enumerate_faces(emb: GaleEmbedding) -> FaceSet:
    """Every realizable sign vector of the moment-curve arrangement, zeros included.

    A face's zero set Z has j < min(d, n) points (the all-zero vector is no
    face), and a direction with zero set Z has the polynomial
    f = prod_{z in Z} (x - x_z) g with g != 0 and deg g <= d-1-j, so by
    ``_zero_sets`` its sign at a point i off Z is tau_i = sign g(x_i),
    negated where ``base`` does not hold i.  A
    sign vector with zero set Z is therefore realizable iff its tau changes
    sign at most d-1-j times along the points off Z: each change of tau
    needs its own root of g; conversely g = +-prod (2x - (a+b)) over the
    x values a < b either side of each change realizes tau.

    That f, made primitive, is each face's normal: by Gauss's lemma it is the
    product of the primitive factors, 2x - (a+b) halved when a+b is even.
    Only the signs are built here.  A face builds its normal from Z and its
    changes when ``normal`` is first read, and checks it then by Horner's
    rule; ``WitnessSearch`` reads it before it uses the face.  Faces come
    in (|Z|, Z, signs) order: zero count ascending (full cells first), zero
    sets in ``combinations`` order, sign tuples ascending.  ``WitnessSearch.find``
    reports the first witness in this order.

    Within a zero set the signs come ascending with no sort: a depth-first
    walk fixes tau at one point off Z after another, keeping it or spending
    one of the d-1-j changes, and walks first the child that puts -1 at that
    point (the faces below a node share its prefix).  At a leaf tau is v
    from the last change up, so the plus side is ``base`` (``base ^ off``
    when v < 0) with the points below each change flipped: XOR with
    (1 << i) - 1 for the first point i above it.

    The returned ``FaceSet`` is a stream that builds a face only when a
    reader first reaches it, so memory and time follow the faces read unless
    ``faces`` is read whole.  Cover's formula is checked against ``MAX_FACES``
    (CapacityError) before any face is built; ``certified_exhaustive``
    compares it with the count the drained stream generated.
    """
    n, d = emb.n, emb.d
    cover = sum(
        math.comb(n, j) * 2 * sum(math.comb(n - j - 1, i) for i in range(d - j))
        for j in range(min(d, n))
    )
    _check_capacity(cover, MAX_FACES, f"faces of {n} points in dimension {d}")
    return FaceSet(_face_stream(emb.points, d, emb.signs), cover)


def _face_stream(points, d: int, signs):
    """The faces of ``enumerate_faces``, one at a time, in face order."""
    n = len(signs)
    for j in range(min(d, n)):
        for zx, _, off, base in _zero_sets(signs, j):
            rest = [i for i in range(n) if off >> i & 1]
            # depth-first over rest: a node (r, v, b, cuts) has fixed tau at
            # rest[:r], v at rest[r-1], b changes left, and a change just
            # below rest[c] for each c in cuts; the sign at a point is tau
            # there, negated where base does not hold it
            v = 1 if base >> rest[0] & 1 else -1
            stack = [(1, v, d - 1 - j, ()), (1, -v, d - 1 - j, ())]
            while stack:
                r, v, b, cuts = stack.pop()
                if b and r < len(rest):
                    stay = (r + 1, v, b, cuts)
                    change = (r + 1, -v, b - 1, (*cuts, r))
                    # pop first the child with sign -1 at rest[r]
                    minus = (v > 0) != (base >> rest[r] & 1)
                    stack += (change, stay) if minus else (stay, change)
                    continue
                plus = base if v > 0 else base ^ off
                for c in cuts:
                    plus ^= (1 << rest[c]) - 1
                plus &= off
                # point rest[c] has x = rest[c] + 1
                sums = tuple(rest[c - 1] + rest[c] + 2 for c in cuts)
                yield HemispherePartition(plus, off ^ plus, (points, zx, sums, v))


class WitnessSearch:
    """Reusable antipodal-witness search for many colorings of one instance.

    Reads the ``enumerate_faces`` stream (full cells first, then boundary
    faces with 1..d-1 zeros) only as far as its readers reach.  There each
    face builds and checks its normal, then its census (``census_of``: the
    bitset of stable k-subsets strictly inside each open side), kept for
    later colorings.  More stable sets than SG(n, k)'s vertex cap, or more than
    ``MAX_FACES`` faces, is a CapacityError raised before any of them is built.
    Some colorings admit no witness on any full cell, so the boundary faces
    are searched too, with per-face thresholds ceil(|side census| / d).
    """

    def __init__(self, emb: GaleEmbedding, k: int):
        self.emb = emb
        self.k = k
        # the stable k-subsets are the vertices of SG(n, k), capped as the graph's
        self.stables = family_vertices(SCHRIJVER, emb.n, k)
        self.faceset = enumerate_faces(emb)
        self.num_stable = len(self.stables)
        self._index = SubsetIndex([t.mask for t in self.stables], emb.n)
        # (pos, neg, t_pos, t_neg) of the faces read so far, in face order
        self._census: list[tuple[int, int, int, int]] = []

    def census_of(self, i: int) -> tuple[int, int, int, int]:
        """(pos, neg, t_pos, t_neg) of ``faceset.built[i]``, kept once built:
        bitsets over ``stables`` of each open side, t = ceil(|side| / d)."""
        census, built = self._census, self.faceset.built
        while len(census) <= i:
            face = built[len(census)]
            face.normal  # builds and checks the normal before the signs are used
            pos = self._index.within(face.plus_mask)
            neg = self._index.within(face.minus_mask)
            d = self.emb.d
            census.append(
                (pos, neg, -(-pos.bit_count() // d), -(-neg.bit_count() // d))
            )
        return census[i]

    def find(self, coloring) -> Witness:
        """First witness in (face order, color index) order; raises if none.

        The raise drains the face stream first: it is ``certified`` only if
        the stream generated Cover's count of faces.
        """
        d = self.emb.d
        colors = list(coloring)
        if len(colors) != self.num_stable:
            raise ValueError(
                f"coloring must assign all {self.num_stable} stable {self.k}-subsets"
            )
        if any(type(c) is not int or not 0 <= c < d for c in colors):
            raise ValueError(f"colors must lie in 0..{d - 1}")
        classes = [0] * d
        for i, c in enumerate(colors):
            classes[c] |= 1 << i
        for i, face in enumerate(self.faceset):
            pos, neg, t_pos, t_neg = self.census_of(i)
            for color, cls in enumerate(classes):
                cp = (pos & cls).bit_count()
                cn = (neg & cls).bit_count()
                if cp >= t_pos and cn >= t_neg:
                    return Witness(face, color, cp, cn, t_pos, t_neg)
        certified = self.faceset.certified_exhaustive
        raise NoWitnessFound(
            "no direction carries the same color above threshold on both sides"
            + ("" if certified else " (face count differs from Cover's formula)"),
            certified=certified,
        )


def partition_to_json_dict(p: HemispherePartition) -> dict:
    return {"normal": list(p.normal), "signs": p.signs_string()}


def witness_to_json_dict(w: Witness) -> dict:
    return {
        **partition_to_json_dict(w.face),
        "color": w.color,
        "counts": {
            "pos": w.count_pos,
            "neg": w.count_neg,
            "t_pos": w.t_pos,
            "t_neg": w.t_neg,
        },
    }
