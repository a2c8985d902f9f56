import hashlib
import math
import random
import sys
from itertools import combinations
from types import SimpleNamespace

import pytest
from gale_reference import (
    det_exact,
    enumerate_faces_eager,
    general_position_bareiss,
    verify_gale_property_indexed,
)

from kneser_chroma import events, gale, graphs, seeds, setfam
from kneser_chroma.errors import CapacityError, NoWitnessFound
from kneser_chroma.gale import (
    MAX_FACES,
    MAX_HEMISPHERES,
    FaceSet,
    GaleEmbedding,
    Witness,
    WitnessSearch,
    build_embedding,
    canonical_hemispheres,
    enumerate_faces,
    general_position_check,
    verify_gale_property,
    witness_to_json_dict,
)
from kneser_chroma.setfam import SubsetIndex, enumerate_stable_ksubsets

# (n, k, ell) of the benchmark's witness-grid workload
WITNESS_GRID = ((10, 2, 2), (12, 3, 2), (12, 2, 3), (9, 2, 1))


def brute_det(rows):
    """Leibniz-formula determinant; independent of the Bareiss routine."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in [list(x) for x in rows[1:]]]
        total += (-1) ** j * rows[0][j] * brute_det(minor)
    return total


def random_integer_direction(rng, d, bound=10**6):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(d))
        if any(v):
            return v


def cells(emb):
    """Full-dimensional cells: the faces with no zero sign."""
    return [f for f in enumerate_faces(emb).faces if f.zero_mask == 0]


def signs_of(points, x):
    out = []
    for p in points:
        s = sum(a * b for a, b in zip(p, x))
        out.append((s > 0) - (s < 0))
    return tuple(out)


def cross_normal(rows):
    """Integer vector spanning the orthogonal complement of d-1 rows in R^d.

    The cofactor construction ``canonical_hemispheres`` used before the
    sign-change rule; the reference its normals are compared with.
    """
    d = len(rows) + 1
    normal = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in rows]
        normal.append((-1) ** j * (det_exact(minor) if minor else 1))
    return tuple(normal)


def cofactor_hemispheres(emb):
    """(normal, signs) of canonical_hemispheres(emb), from cofactor normals."""
    out = []
    for idx in combinations(range(emb.n), emb.d - 1):
        normal = cross_normal([emb.points[i] for i in idx])
        g = math.gcd(*normal)
        normal = tuple(x // g for x in normal)
        signs = signs_of(emb.points, normal)
        assert tuple(i for i, s in enumerate(signs) if s == 0) == idx
        out.append((normal, signs))
        out.append((tuple(-x for x in normal), tuple(-s for s in signs)))
    return out


def moment_curve(sigmas, d):
    """GaleEmbedding of the points sigma_i (1, i, ..., i^(d-1)), i = 1..n."""
    return GaleEmbedding(n=len(sigmas), s=1, d=d, signs=sigmas)


class EagerWitnessSearch:
    """WitnessSearch with the census of every face built up front.

    The reference for the census ``WitnessSearch`` builds as ``find`` needs
    it; returns None where ``find`` raises.
    """

    def __init__(self, emb, k):
        self.d = emb.d
        stables = enumerate_stable_ksubsets(emb.n, k)
        index = SubsetIndex([t.mask for t in stables], emb.n)
        self.per_face = []
        for face in enumerate_faces_eager(emb).faces:
            pos, neg = index.within(face.plus_mask), index.within(face.minus_mask)
            t_pos = -(-pos.bit_count() // self.d)
            t_neg = -(-neg.bit_count() // self.d)
            self.per_face.append((face, pos, neg, t_pos, t_neg))

    def find(self, coloring):
        classes = [0] * self.d
        for i, c in enumerate(coloring):
            classes[c] |= 1 << i
        for face, pos, neg, t_pos, t_neg in self.per_face:
            for color, cls in enumerate(classes):
                cp = (pos & cls).bit_count()
                cn = (neg & cls).bit_count()
                if cp >= t_pos and cn >= t_neg:
                    return Witness(face, color, cp, cn, t_pos, t_neg)
        return None


class TestEmbedding:
    def test_moment_curve_6_2(self):
        emb = build_embedding(6, 2)
        assert emb.d == 3
        for i in range(1, 7):
            sgn = -1 if i % 2 else 1
            assert emb.points[i - 1] == (sgn, sgn * i, sgn * i * i)

    def test_5_2_dimension(self):
        emb = build_embedding(5, 2)
        assert emb.d == 2
        assert len(emb.points) == 5
        assert all(len(p) == 2 for p in emb.points)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            build_embedding(5, 3)  # d = 0
        with pytest.raises(ValueError):
            build_embedding(6, 0)

    def test_ground_set_cap_after_domain_checks(self):
        # the s and d checks still come first (exit 2), then the cap (exit 4)
        with pytest.raises(ValueError):
            build_embedding(10**400, 0)
        with pytest.raises(ValueError):
            build_embedding(800, 400)  # d = 1
        with pytest.raises(CapacityError, match="n=65 exceeds 64"):
            build_embedding(65, 2)
        assert len(build_embedding(64, 2).points) == 64

    def test_general_position_8_2(self):
        emb = build_embedding(8, 2)
        assert emb.d == 5
        assert general_position_check(emb)

    def test_general_position_10_4(self):
        assert general_position_check(build_embedding(10, 4))

    def test_record_refuses_bad_signs(self):
        # an embedding is its curve's signs, so no other point set is built
        emb = build_embedding(6, 2)
        assert emb.signs == (-1, 1, -1, 1, -1, 1)
        for signs in [(1,) * 5, (1,) * 7, (1, 1, 2, 1, 1, 1), (1, 1, 0, 1, 1, 1),
                      (1.0,) * 6, (True,) * 6]:
            with pytest.raises(ValueError):
                GaleEmbedding(n=6, s=2, d=3, signs=signs)
            with pytest.raises(ValueError):
                emb._replace(signs=signs)
        with pytest.raises(ValueError):
            emb._replace(n=7)
        assert emb._replace(signs=[1] * 6).points == positive_curve(6, 2).points
        assert GaleEmbedding._make(emb) == emb

    def test_duplicate_point_fails(self):
        # a repeated point needs a repeated x or a sign other than +-1; the
        # x are 1..n, and a sign of 0 or 2 is refused before a point is built
        emb = build_embedding(6, 2)
        assert len(set(emb.points)) == emb.n
        assert general_position_bareiss(emb)
        pts = list(emb.points)
        pts[3] = pts[0]
        assert not general_position_bareiss(SimpleNamespace(n=6, d=3, points=pts))
        for signs in [(-1, 1, -1, 0, -1, 1), (-1, 1, -1, 2, -1, 1)]:
            with pytest.raises(ValueError):
                GaleEmbedding(n=6, s=2, d=3, signs=signs)
            with pytest.raises(ValueError):
                general_position_check(emb._replace(signs=signs))

    def test_det_matches_bruteforce(self):
        rng = random.Random(7)
        for size in (1, 2, 3, 4, 5):
            for _ in range(20):
                mat = [
                    [rng.randint(-9, 9) for _ in range(size)] for _ in range(size)
                ]
                assert det_exact(mat) == brute_det(mat)


class TestCanonicalHemispheres:
    def test_count_planar(self):
        emb = moment_curve((1, 1, -1, 1), 2)
        parts = list(canonical_hemispheres(emb))
        assert len(parts) == 8  # 2 * C(4,1)

    def test_count_6_2(self):
        parts = list(canonical_hemispheres(build_embedding(6, 2)))
        assert len(parts) == 30  # 2 * C(6,2)

    def test_zero_counts(self):
        for n, s in [(6, 2), (8, 2), (9, 3)]:
            emb = build_embedding(n, s)
            for part in canonical_hemispheres(emb):
                assert part.zero_mask.bit_count() == emb.d - 1

    def test_orientation_reversal_swaps_signs(self):
        parts = list(canonical_hemispheres(build_embedding(7, 2)))
        for pos, neg in zip(parts[0::2], parts[1::2]):
            assert neg.normal == tuple(-x for x in pos.normal)
            assert neg.signs == tuple(-s for s in pos.signs)
            assert pos.plus_mask == neg.minus_mask

    def test_partition_triples_bounded_by_3n(self):
        for n, s in [(6, 2), (8, 3), (10, 4), (12, 5)]:
            emb = build_embedding(n, s)
            triples = {p.signs for p in canonical_hemispheres(emb)}
            assert len(triples) <= 3**n

    def test_normals_orthogonal_to_boundary(self):
        emb = build_embedding(8, 3)
        for part in canonical_hemispheres(emb):
            for i in range(emb.n):
                dot = sum(a * b for a, b in zip(emb.points[i], part.normal))
                assert (dot == 0) == bool(part.zero_mask >> i & 1)

    def test_rejects_points_off_a_moment_curve(self):
        # with x = 1..n only a bad sign or a wrong count leaves the curve:
        # both are refused before a hemisphere is generated
        for sigmas, d in [((1, 2, 1, 1), 3), ((1, 0, 1, 1), 3), ((1, -1, 1.0, 1), 3)]:
            with pytest.raises(ValueError):
                list(canonical_hemispheres(moment_curve(sigmas, d)))
        emb = build_embedding(7, 2)
        with pytest.raises(ValueError):
            list(canonical_hemispheres(emb._replace(signs=emb.signs[:6] + (-2,))))
        with pytest.raises(ValueError):
            list(canonical_hemispheres(emb._replace(n=8)))

class TestAgainstCofactorNormals:
    """The sign-change normals equal the primitive cofactor normals."""

    def test_alternating_curve_grid(self):
        for n in range(5, 15):
            for s in range(1, (n - 1) // 2 + 1):
                emb = build_embedding(n, s)
                got = [(p.normal, p.signs) for p in canonical_hemispheres(emb)]
                assert got == cofactor_hemispheres(emb), (n, s)

    def test_non_alternating_curve(self):
        # demo 03's counterexample embedding
        emb = moment_curve([1] * 6, 3)
        got = [(p.normal, p.signs) for p in canonical_hemispheres(emb)]
        assert got == cofactor_hemispheres(emb)

    def test_random_curves(self):
        rng = random.Random(17)
        for _ in range(300):
            d = rng.randint(2, 6)
            n = rng.randint(d - 1, 10)
            emb = moment_curve([rng.choice((1, -1)) for _ in range(n)], d)
            got = [(p.normal, p.signs) for p in canonical_hemispheres(emb)]
            assert got == cofactor_hemispheres(emb), emb


class TestGaleProperty:
    def test_6_2_ok(self):
        assert verify_gale_property(build_embedding(6, 2)) is None

    def test_desk_scale_grid_ok(self):
        for n in range(5, 13):
            for s in range(2, (n - 1) // 2 + 1):
                assert verify_gale_property(build_embedding(n, s)) is None

    def test_adversarial_counterexample(self):
        # no sign alternation: all points in the x1 > 0 halfspace
        adv = GaleEmbedding(n=6, s=2, d=3, signs=(1,) * 6)
        assert general_position_check(adv)
        bad = verify_gale_property(adv)
        assert bad is not None
        # the violating side has fewer than s points in total
        assert bad.plus_mask.bit_count() < adv.s or not any(
            t.mask & bad.plus_mask == t.mask
            for t in enumerate_stable_ksubsets(6, 2)
        )

    def test_hemisphere_lower_bound(self):
        # both open sides hold at least C(s, k) stable k-subsets
        for n in range(5, 13):
            for s in range(2, (n - 1) // 2 + 1):
                emb = build_embedding(n, s)
                for k in range(1, s + 1):
                    floor = math.comb(s, k)
                    masks = [t.mask for t in enumerate_stable_ksubsets(n, k)]
                    for part in canonical_hemispheres(emb):
                        for side in (part.plus_mask, part.minus_mask):
                            assert sum(m & side == m for m in masks) >= floor


def positive_curve(n, s):
    """The all-positive curve (1, x, ..., x^(d-1)), x = 1..n: no alternation."""
    d = n - 2 * s + 1
    return moment_curve([1] * n, d)._replace(s=s)


def gale_grid():
    return [(n, s) for n in range(3, 17) for s in range(1, (n - 1) // 2 + 1)]


class TestCurveSignsDigest:
    """Everything ``gale`` derives from a curve, pinned on both sign patterns.

    For n = 3..14 and every valid s, one line per canonical hemisphere and
    per face, each as (plus, minus, normal) in stream order (the CapacityError
    past ``MAX_FACES``), then ``verify_gale_property``'s counterexample and
    ``WitnessSearch.find`` for k = 1..s and seeds 0-4.  The digests were taken
    while embeddings still held a free list of points, decoded back to the
    curve's signs and x.
    """

    @staticmethod
    def key(part):
        return (part.plus_mask, part.minus_mask, part.normal)

    def lines(self, emb):
        yield [self.key(p) for p in canonical_hemispheres(emb)]
        try:
            yield [self.key(f) for f in enumerate_faces(emb)]
        except CapacityError as e:
            yield str(e)
        bad = verify_gale_property(emb)
        yield None if bad is None else self.key(bad)
        for k in range(1, emb.s + 1):
            try:
                search = WitnessSearch(emb, k)
            except CapacityError as e:
                yield (k, str(e))
                continue
            for seed in range(5):
                coloring = [
                    seeds.color_at(seed, i, emb.d) for i in range(search.num_stable)
                ]
                try:
                    w = search.find(coloring)
                except NoWitnessFound as e:
                    yield (k, seed, str(e), e.certified)
                else:
                    yield (k, seed, self.key(w.face), *w[1:])

    @pytest.mark.parametrize("curve, want", [
        (build_embedding,
         "c7912cc41f67bb32ab419b9239672578b6b2b59f4c614d396122430fc31a43e0"),
        (positive_curve,
         "db8d896dbc2d98f7b7bff1453f0f0cef72f2213673aec6cb02f5870a4906fdc4"),
    ])
    def test_grid_pinned(self, curve, want):
        h = hashlib.sha256()
        for n in range(3, 15):
            for s in range(1, (n - 1) // 2 + 1):
                for line in self.lines(curve(n, s)):
                    h.update(repr(line).encode() + b"\n")
        assert h.hexdigest() == want


class TestAgainstIndexedVerify:
    """Counting runs on the n-cycle reports what the SubsetIndex check did."""

    @staticmethod
    def same(emb):
        got, want = verify_gale_property(emb), verify_gale_property_indexed(emb)
        if want is None:
            assert got is None, emb
        else:
            assert got is not None, emb
            assert (got.plus_mask, got.minus_mask) == (want.plus_mask, want.minus_mask)
            assert got.signs == want.signs
        return got

    def test_alternating_curve_grid(self):
        assert all(self.same(build_embedding(n, s)) is None for n, s in gale_grid())

    def test_all_positive_curve_grid(self):
        assert all(self.same(positive_curve(n, s)) for n, s in gale_grid())

    def test_random_curves(self):
        rng = random.Random(29)
        found = set()
        for _ in range(400):
            d = rng.randint(2, 6)
            n = rng.randint(d - 1, 13)
            emb = moment_curve([rng.choice((1, -1)) for _ in range(n)], d)
            emb = emb._replace(s=rng.randint(1, max(1, n // 2)))
            found.add(self.same(emb) is None)
        assert found == {True, False}

    def test_max_stable_matches_bruteforce(self):
        for n in range(3, 13):
            stables = [
                t.mask for k in range(n // 2 + 1)
                for t in enumerate_stable_ksubsets(n, k)
            ]
            for mask in range(1 << n):
                want = max(t.bit_count() for t in stables if t & mask == t)
                assert gale._max_stable(mask, n) == want, (n, bin(mask))


class TestCells:
    def test_negation_closure(self):
        for emb in (build_embedding(7, 3), build_embedding(8, 3)):
            cs = cells(emb)
            present = {c.signs for c in cs}
            for c in cs:
                assert tuple(-s for s in c.signs) in present

    def test_directions_realize_signs(self):
        emb = build_embedding(8, 3)
        for c in cells(emb):
            assert signs_of(emb.points, c.normal) == c.signs

    def test_strictness(self):
        # full cells come first: the zero-free faces are a prefix
        faces = enumerate_faces(build_embedding(9, 3)).faces
        head = sum(f.zero_mask == 0 for f in faces)
        assert head > 0
        assert all(0 not in f.signs for f in faces[:head])

    def test_sampling_finds_no_extra_cell(self):
        # random integer directions always land in an enumerated cell
        emb = build_embedding(6, 2)
        present = {c.signs for c in cells(emb)}
        rng = random.Random(0)
        found = set()
        for _ in range(100_000):
            x = random_integer_direction(rng, emb.d)
            s = signs_of(emb.points, x)
            if 0 in s:
                continue
            assert s in present
            found.add(s)
        # thin cells are rarely hit, but sampling must reach a solid majority
        assert len(found) >= len(present) // 2

    def test_cell_count_formula_central_arrangement(self):
        # n hyperplanes in general position in R^d: 2 * sum C(n-1, i), i < d
        for n, s in [(6, 2), (7, 2), (7, 3), (9, 3)]:
            emb = build_embedding(n, s)
            expected = 2 * sum(math.comb(n - 1, i) for i in range(emb.d))
            assert len(cells(emb)) == expected


class TestFaces:
    def test_faces_include_cells_and_boundaries(self):
        emb = build_embedding(8, 3)
        fs = enumerate_faces(emb)
        assert fs.certified_exhaustive
        zero_counts = {p.zero_mask.bit_count() for p in fs.faces}
        assert zero_counts == set(range(emb.d))

    def test_faces_realize_signs(self):
        emb = build_embedding(7, 2)
        for f in enumerate_faces(emb).faces:
            assert signs_of(emb.points, f.normal) == f.signs

    def test_faces_negation_closure(self):
        fs = enumerate_faces(build_embedding(8, 3))
        present = {f.signs for f in fs.faces}
        for f in fs.faces:
            assert tuple(-s for s in f.signs) in present

    def test_face_count_formula(self):
        # generic central arrangement: faces with z zeros number
        # C(n,z) * 2 * sum_{i < d-z} C(n-z-1, i)
        for n, s in [(6, 2), (7, 2), (7, 3), (8, 3), (9, 3), (9, 4)]:
            emb = build_embedding(n, s)
            expected = sum(
                math.comb(n, z)
                * 2
                * sum(math.comb(n - z - 1, i) for i in range(emb.d - z))
                for z in range(emb.d)
            )
            assert len(enumerate_faces(emb).faces) == expected

    def test_rejects_other_point_sets(self):
        # the sign-change rule holds only on a curve sigma_i (1, i, ...);
        # signs that leave it are refused before a face is built
        with pytest.raises(ValueError):
            enumerate_faces(moment_curve((1, 1, -1, 2), 2))
        emb = build_embedding(7, 2)
        for bad in [{"signs": emb.signs[:6]}, {"signs": emb.signs[:6] + (0,)},
                    {"n": 6}]:
            with pytest.raises(ValueError):
                enumerate_faces(emb._replace(**bad))

    def test_other_moment_curves(self):
        # the all-positive curve, and random sigma: exhaustive, checked
        # normals, distinct signs in face order, and level d-1 is the
        # canonical hemispheres
        curves = [([1] * n, d) for n in range(4, 11) for d in range(2, min(n, 6))]
        rng = random.Random(29)
        for _ in range(40):
            d = rng.randint(2, 5)
            sigmas = [rng.choice((1, -1)) for _ in range(rng.randint(d, 9))]
            curves.append((sigmas, d))
        for sigmas, d in curves:
            emb = moment_curve(sigmas, d)
            fs = enumerate_faces(emb)
            assert fs.certified_exhaustive, emb
            keys = []
            for f in fs.faces:
                assert signs_of(emb.points, f.normal) == f.signs
                zeros = [i for i, s in enumerate(f.signs) if s == 0]
                keys.append((len(zeros), zeros, f.signs))
            assert keys == sorted(keys)
            assert len({f.signs for f in fs.faces}) == len(keys)
            top = {(f.signs, f.normal) for f in fs.faces if f.signs.count(0) == d - 1}
            assert top == {(p.signs, p.normal) for p in canonical_hemispheres(emb)}

    def test_fewer_points_than_dimensions(self):
        # with n < d every nonzero sign vector is a face: 3^n - 1 of them
        rng = random.Random(31)
        curves = [([1, 1, 1], 4)]
        for _ in range(30):
            d = rng.randint(2, 6)
            sigmas = [rng.choice((1, -1)) for _ in range(rng.randint(1, d - 1))]
            curves.append((sigmas, d))
        for sigmas, d in curves:
            emb = moment_curve(sigmas, d)
            fs = enumerate_faces(emb)
            assert fs.certified_exhaustive, emb
            assert fs.cover == len(fs.faces) == 3 ** len(sigmas) - 1
            assert len({f.signs for f in fs.faces}) == len(fs.faces)
            for f in fs.faces:
                assert signs_of(emb.points, f.normal) == f.signs

    def test_sign_strings_pinned(self):
        # sha256 of the ordered sign strings, one line per face and a blank
        # line per instance; the value comes from an independent enumeration
        # through exact null spaces of the point arrangement
        h = hashlib.sha256()
        for n, s in [(6, 2), (7, 2), (7, 3), (8, 3), (9, 3), (9, 4), (10, 3),
                     (10, 4), (11, 4), (11, 5), (12, 4), (12, 5)]:
            for f in enumerate_faces(build_embedding(n, s)).faces:
                h.update(f.signs_string().encode() + b"\n")
            h.update(b"\n")
        assert h.hexdigest() == (
            "5f312085b350c863fc5ced1f825afccccbe33752b58842198364337b192aa151"
        )

    def test_normals_primitive_and_canonical(self):
        # faces on d-1 zeros have a unique primitive normal up to sign
        for n, s in [(7, 2), (8, 3), (9, 3), (10, 4)]:
            emb = build_embedding(n, s)
            faces = enumerate_faces(emb).faces
            assert all(math.gcd(*f.normal) == 1 for f in faces)
            boundary = {
                f.signs: f.normal
                for f in faces
                if f.zero_mask.bit_count() == emb.d - 1
            }
            canonical = {p.signs: p.normal for p in canonical_hemispheres(emb)}
            assert boundary == canonical

    def test_sampled_boundary_faces_are_enumerated(self):
        # directions orthogonal to one point land on enumerated faces
        emb = build_embedding(7, 3)
        present = {f.signs for f in enumerate_faces(emb).faces}
        rng = random.Random(1)
        for part in canonical_hemispheres(emb):
            assert part.signs in present
        for _ in range(20_000):
            x = random_integer_direction(rng, emb.d)
            assert signs_of(emb.points, x) in present


class TestMinimality:
    def test_sampled_hemispheres_contain_canonical_positive_set(self):
        # every sampled open hemisphere's point set contains the strict-
        # positive set of some canonical partition
        for n, s in [(6, 2), (7, 2), (8, 3)]:
            emb = build_embedding(n, s)
            canon_plus = [p.plus_mask for p in canonical_hemispheres(emb)]
            rng = random.Random(42)
            for _ in range(20_000):
                x = random_integer_direction(rng, emb.d)
                plus = 0
                for i, sg in enumerate(signs_of(emb.points, x)):
                    if sg > 0:
                        plus |= 1 << i
                assert any(cm & plus == cm for cm in canon_plus)


class TestWitness:
    def test_constant_coloring(self):
        emb = build_embedding(8, 3)
        num = len(enumerate_stable_ksubsets(8, 2))
        w = WitnessSearch(emb, 2).find([0] * num)
        assert w.color == 0
        assert w.count_pos >= w.t_pos >= 1
        assert w.count_neg >= w.t_neg >= 1

    def test_random_colorings_8_2_1(self):
        emb = build_embedding(8, 3)
        search = WitnessSearch(emb, 2)
        rng = random.Random(5)
        for _ in range(200):
            coloring = [rng.randrange(emb.d) for _ in range(search.num_stable)]
            w = search.find(coloring)
            cp = sum(
                1
                for i, t in enumerate(search.stables)
                if coloring[i] == w.color and t.mask & w.face.plus_mask == t.mask
            )
            assert cp == w.count_pos

    def test_exhaustive_all_two_colorings_7_2_1(self):
        # every one of the 2^14 colorings admits a witness; some need a
        # boundary face rather than a full cell
        emb = build_embedding(7, 3)
        search = WitnessSearch(emb, 2)
        m = search.num_stable
        assert m == 14
        boundary = 0
        for code in range(1 << m):
            w = search.find([(code >> i) & 1 for i in range(m)])
            if 0 in w.face.signs:
                boundary += 1
        assert boundary > 0

    def test_thresholds_honored(self):
        emb = build_embedding(9, 3)
        search = WitnessSearch(emb, 3)
        rng = random.Random(11)
        for _ in range(100):
            coloring = [rng.randrange(emb.d) for _ in range(search.num_stable)]
            w = search.find(coloring)
            assert w.count_pos >= w.t_pos
            assert w.count_neg >= w.t_neg

    def test_coloring_validation(self):
        emb = build_embedding(8, 3)
        num = len(enumerate_stable_ksubsets(8, 2))
        search = WitnessSearch(emb, 2)
        with pytest.raises(ValueError):
            search.find([0] * (num - 1))
        with pytest.raises(ValueError):
            search.find([emb.d] * num)

    def test_json_shape(self):
        emb = build_embedding(7, 3)
        num = len(enumerate_stable_ksubsets(7, 2))
        w = WitnessSearch(emb, 2).find([0] * num)
        obj = witness_to_json_dict(w)
        assert set(obj) == {"normal", "signs", "color", "counts"}
        assert set(obj["counts"]) == {"pos", "neg", "t_pos", "t_neg"}
        assert all(ch in "+-0" for ch in obj["signs"])

    def test_no_witness_is_certified_falsification(self):
        # a deliberately broken search space (single cell withheld) would
        # raise; on the true space the exception never fires for valid input
        emb = build_embedding(7, 3)
        search = WitnessSearch(emb, 2)
        try:
            for code in range(1 << 10):
                search.find([(code >> i) & 1 for i in range(search.num_stable)])
        except NoWitnessFound:
            pytest.fail("witness must exist for every coloring")


def test_boundary_faces_needed_for_some_coloring():
    # cells-only search provably fails for this coloring; the witness lives
    # on a face orthogonal to one point
    emb = build_embedding(7, 3)
    search = WitnessSearch(emb, 2)
    coloring = [0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1]
    d = emb.d
    stables = search.stables
    for cell in cells(emb):
        plus, minus = cell.plus_mask, cell.minus_mask
        ip = [i for i, t in enumerate(stables) if t.mask & plus == t.mask]
        im = [i for i, t in enumerate(stables) if t.mask & minus == t.mask]
        tp, tm = -(-len(ip) // d), -(-len(im) // d)
        for color in range(d):
            cp = sum(1 for i in ip if coloring[i] == color)
            cn = sum(1 for i in im if coloring[i] == color)
            assert not (cp >= tp and cn >= tm)
    w = search.find(coloring)
    assert 0 in w.face.signs


class TestAgainstEagerCensus:
    """find on the on-demand census matches the census of every face."""

    def test_all_two_colorings_7_2_1(self):
        emb = build_embedding(7, 3)
        search, eager = WitnessSearch(emb, 2), EagerWitnessSearch(emb, 2)
        for code in range(1 << 14):
            coloring = [(code >> i) & 1 for i in range(14)]
            assert search.find(coloring) == eager.find(coloring), code

    @pytest.mark.parametrize("n,k,ell", WITNESS_GRID)
    def test_witness_grid_instances(self, n, k, ell):
        emb = build_embedding(n, k + ell)
        search, eager = WitnessSearch(emb, k), EagerWitnessSearch(emb, k)
        rng = random.Random(n * 100 + k * 10 + ell)
        for _ in range(200):
            coloring = [rng.randrange(emb.d) for _ in range(search.num_stable)]
            assert search.find(coloring) == eager.find(coloring)

    def test_census_of_builds_up_to_the_face_it_reads(self):
        emb = build_embedding(9, 3)
        search, eager = WitnessSearch(emb, 2), EagerWitnessSearch(emb, 2)
        want = [tuple(c) for _, *c in eager.per_face[:40]]
        for _ in zip(range(40), search.faceset):
            pass
        assert search.census_of(39) == want[39] and len(search._census) == 40
        assert [search.census_of(i) for i in range(40)] == want
        with pytest.raises(IndexError):
            search.census_of(40)  # not yet pulled from the stream

    def test_no_witness_raised_after_every_face(self):
        # with the boundary faces withheld this coloring has no witness; the
        # search must census every remaining face, and drain the stream,
        # before it gives up.  A certificate decided before the stream ran
        # out would compare a prefix of the full cells with the face count.
        emb = build_embedding(7, 3)
        full = [f for f in enumerate_faces(emb).faces if f.zero_mask == 0]
        coloring = [0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1]
        for cover in (len(full), enumerate_faces(emb).cover):
            pulled = []

            def stream():
                for face in full:
                    pulled.append(face)
                    yield face
                pulled.append("drained")

            search = WitnessSearch(emb, 2)
            search.faceset = FaceSet(stream(), cover)
            with pytest.raises(NoWitnessFound) as err:
                search.find(coloring)
            assert pulled == [*full, "drained"]
            assert err.value.certified == (cover == len(full))
            assert len(search._census) == len(full)


def boundary_coloring(eager, num_stable, level, seed):
    """A coloring with no witness on any face of at most ``level`` zeros.

    Hill-climbs a seeded random coloring, one recolored stable set at a
    time, down the number of (face, color) witnesses on those faces.
    """
    d = eager.d
    census = [c for f, *c in eager.per_face if f.zero_mask.bit_count() <= level]
    rng = random.Random(seed)
    coloring = [rng.randrange(d) for _ in range(num_stable)]

    def witnesses():
        classes = [0] * d
        for i, c in enumerate(coloring):
            classes[c] |= 1 << i
        return sum(
            (pos & cls).bit_count() >= t_pos and (neg & cls).bit_count() >= t_neg
            for pos, neg, t_pos, t_neg in census
            for cls in classes
        )

    score = witnesses()
    for _ in range(5000):
        if not score:
            return coloring
        i = rng.randrange(num_stable)
        old, coloring[i] = coloring[i], rng.randrange(d)
        new = witnesses()
        if new <= score:
            score = new
        else:
            coloring[i] = old
    raise AssertionError(f"seed {seed}: {score} witnesses left after 5000 steps")


class TestStreamPastLevelZero:
    """Witnesses on boundary faces match the eager search, and the stream
    stops at the witness: no face after it, so no zero-set group after its
    group, is built."""

    @staticmethod
    def check(emb, k, eager, coloring):
        search = WitnessSearch(emb, k)
        w = search.find(coloring)
        assert w == eager.find(coloring)
        faces = [f for f, *_ in eager.per_face]
        assert search.faceset.built == faces[: faces.index(w.face) + 1]
        return w

    def test_first_boundary_coloring_7_2_1(self):
        emb = build_embedding(7, 3)
        coloring = [0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1]
        w = self.check(emb, 2, EagerWitnessSearch(emb, 2), coloring)
        assert w.face.zero_mask.bit_count() == 1

    @pytest.mark.parametrize(
        "n,k,ell,level", [(9, 3, 1, 0), (10, 3, 1, 0), (12, 2, 3, 0), (12, 2, 3, 1)]
    )
    def test_seeded_boundary_colorings(self, n, k, ell, level):
        emb = build_embedding(n, k + ell)
        eager = EagerWitnessSearch(emb, k)
        num_stable = len(enumerate_stable_ksubsets(n, k))
        for seed in range(3):
            coloring = boundary_coloring(eager, num_stable, level, seed)
            w = self.check(emb, k, eager, coloring)
            assert w.face.zero_mask.bit_count() > level


class TestFaceStream:
    def test_reading_faces_drains_the_stream(self):
        fs = enumerate_faces(build_embedding(9, 3))
        assert fs.built == []
        first = next(iter(fs))
        assert fs.built == [first]
        assert fs.certified_exhaustive  # drains the stream to decide
        assert len(fs.built) == len(fs.faces) == fs.cover
        assert fs.built == list(fs.faces) and fs.faces[0] is first
        assert list(fs) == fs.built

    def test_readers_share_one_prefix(self):
        fs = enumerate_faces(build_embedding(8, 3))
        a, b = iter(fs), iter(fs)
        firsts = [next(a) for _ in range(60)]
        assert [next(b) for _ in range(60)] == firsts
        assert len(fs.built) == 60
        assert firsts + list(a) == list(fs.faces)


def small_embeddings(max_n, max_d):
    for n in range(5, max_n + 1):
        for s in range(1, (n - 1) // 2 + 1):
            emb = build_embedding(n, s)
            if emb.d <= max_d:
                yield emb


def bench_search(n, k, ell, seed):
    """WitnessSearch and the seeded coloring of one witness-grid op."""
    emb = build_embedding(n, k + ell)
    search = WitnessSearch(emb, k)
    coloring = [seeds.color_at(seed, i, emb.d) for i in range(search.num_stable)]
    return search, coloring


class TestAgainstEagerFaces:
    """Faces that build their normals on first read match the eager build."""

    def test_small_grid(self):
        for emb in small_embeddings(13, 5):
            lazy, eager = enumerate_faces(emb), enumerate_faces_eager(emb)
            assert lazy.certified_exhaustive == eager.certified_exhaustive
            assert [f.signs for f in lazy.faces] == [f.signs for f in eager.faces]
            assert [f.normal for f in lazy.faces] == [f.normal for f in eager.faces]

    @pytest.mark.parametrize("n,k,ell", WITNESS_GRID)
    def test_normals_built_only_for_censused_faces(self, monkeypatch, n, k, ell):
        built = []
        real = gale._face_normal

        def spy(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(gale, "_face_normal", spy)
        for seed in range(1, 6):
            built.clear()
            search, coloring = bench_search(n, k, ell, seed)
            w = search.find(coloring)
            assert len(built) == len(search._census)
            assert len(built) < len(search.faceset.faces)
            assert signs_of(search.emb.points, w.face.normal) == w.face.signs

    def test_broken_helper_fails_the_check(self, monkeypatch):
        def wrong(poly, a, b):
            out = [b * c for c in poly] + [0]
            for i, c in enumerate(poly):
                out[i + 1] -= a * c
            return out

        monkeypatch.setattr(gale, "_times_linear", wrong)
        # a face with a zero set builds its normal through _times_linear
        faces = enumerate_faces(build_embedding(9, 3)).faces
        for face in [f for f in faces if f.zero_mask][::50]:
            with pytest.raises(RuntimeError, match="does not realize"):
                face.normal

    @pytest.mark.parametrize("n,k,ell", WITNESS_GRID)
    def test_find_raises_on_a_corrupted_witness_face(self, n, k, ell):
        search, coloring = bench_search(n, k, ell, 7)
        target = search.faceset.faces.index(search.find(coloring).face)
        search, coloring = bench_search(n, k, ell, 7)
        face = search.faceset.faces[target]
        *rest, orientation = face._recipe
        face._recipe = (*rest, -orientation)
        with pytest.raises(RuntimeError, match="does not realize"):
            search.find(coloring)
        assert len(search._census) == target

    def test_equality_reads_no_normal(self):
        faces = enumerate_faces(build_embedding(10, 4)).faces
        last = faces[-1]
        assert faces.index(last) == len(faces) - 1
        assert all("normal" not in vars(f) for f in faces[:-1])


class TestGeneralPosition:
    def test_curve_path_matches_bareiss(self):
        embs = [build_embedding(n, s) for n in range(5, 15)
                for s in range(1, (n - 1) // 2 + 1)]
        embs += [moment_curve((1, -1, -1, 1, 1, -1), 4)]
        for emb in embs:
            assert general_position_bareiss(emb), (emb.n, emb.s)
            assert general_position_check(emb)
        assert not hasattr(gale, "det_exact")

    def test_other_point_sets_raise(self):
        # random sign vectors: all +-1 is a curve in general position, as
        # the Bareiss reference confirms; any other entry raises ValueError
        rng = random.Random(3)
        seen = set()
        for _ in range(200):
            d = rng.randint(2, 4)
            n = rng.randint(d, 7)
            signs = tuple(rng.choice((1, -1, 1, -1, 0, 2, -2)) for _ in range(n))
            want = set(signs) <= {1, -1}
            seen.add(want)
            if want:
                emb = GaleEmbedding(n=n, s=1, d=d, signs=signs)
                assert general_position_bareiss(emb), signs
                assert general_position_check(emb)
            else:
                with pytest.raises(ValueError):
                    general_position_check(GaleEmbedding(n=n, s=1, d=d, signs=signs))
        assert seen == {True, False}

def patch_hemispheres(monkeypatch, each):
    """Wrap ``canonical_hemispheres`` so that ``each`` sees every partition it
    yields, in every package global bound to it, as a tracer rebinds them."""
    real = gale.canonical_hemispheres

    def wrapped(emb):
        for part in real(emb):
            each(part)
            yield part

    copies = [
        (mod, name)
        for key, mod in sorted(sys.modules.items())
        if key == "kneser_chroma" or key.startswith("kneser_chroma.")
        for name, value in vars(mod).items()
        if value is real
    ]
    assert (gale, "canonical_hemispheres") in copies
    for mod, name in copies:
        monkeypatch.setattr(mod, name, wrapped)


def patch_face_stream(monkeypatch, each):
    """Wrap the face stream behind ``enumerate_faces`` so that ``each`` sees
    every face it builds, before any reader does."""
    real = gale._face_stream

    def wrapped(*args):
        for face in real(*args):
            each(face)
            yield face

    monkeypatch.setattr(gale, "_face_stream", wrapped)


def spy_normals(monkeypatch):
    """The recipes of the normals built from here on."""
    built = []
    real = gale._face_normal

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(gale, "_face_normal", spy)
    return built


def adversarial_curve():
    # demo 03's embedding: no sign alternation, so the Gale property fails
    return moment_curve([1] * 6, 3)


class TestLazyHemisphereNormals:
    """Canonical hemispheres build their normals only when read, and check them."""

    def test_passing_instance_builds_no_normal(self, monkeypatch):
        built = spy_normals(monkeypatch)
        for emb in small_embeddings(12, 6):
            assert verify_gale_property(emb) is None
        assert built == []

    def test_counterexample_normal_built_and_checked_on_read(self, monkeypatch):
        built = spy_normals(monkeypatch)
        emb = adversarial_curve()
        bad = verify_gale_property(emb)
        assert bad is not None and built == []
        assert signs_of(emb.points, bad.normal) == bad.signs
        assert len(built) == 1
        assert gale.partition_to_json_dict(bad)["normal"] == list(bad.normal)
        assert len(built) == 1

    def test_event_a_partition_normal_built_and_checked_on_read(self, monkeypatch):
        # event A reads each full cell's census, which builds and checks the
        # cell's normal first; the report's cell then has its normal already
        built = spy_normals(monkeypatch)
        rep = events.event_a_oracle(8, 2, 1, 0.5, seed=1)
        assert rep.holds and len(built) == rep.partitions_examined
        assert all(not zeros for _, zeros, _, _ in built)
        obj = events.event_a_json_dict(rep)
        assert len(built) == rep.partitions_examined
        points = build_embedding(8, 3).points
        normal = tuple(obj["witness"]["partition"]["normal"])
        assert signs_of(points, normal) == rep.partition.signs

    def test_corrupted_recipe_raises(self):
        bad = verify_gale_property(adversarial_curve())
        *rest, orientation = bad._recipe
        bad._recipe = (*rest, -orientation)
        with pytest.raises(RuntimeError, match="does not realize"):
            gale.partition_to_json_dict(bad)

    def test_corrupted_event_a_partition_raises(self, monkeypatch):
        def corrupt(face):
            *rest, orientation = face._recipe
            face._recipe = (*rest, -orientation)

        patch_face_stream(monkeypatch, corrupt)
        with pytest.raises(RuntimeError, match="does not realize"):
            events.event_a_oracle(8, 2, 1, 0.5, seed=1)


class TestHemisphereCountHook:
    """``verify_gale_property`` iterates ``canonical_hemispheres`` through a
    module global, where a tracer can count its yields; event A reads the
    face stream instead."""

    def test_verify_sees_every_hemisphere(self, monkeypatch):
        # and counts runs: it lists no stable set and builds no SubsetIndex
        built = []
        for mod in (gale, setfam):
            monkeypatch.setattr(mod, "SubsetIndex", lambda *a: built.append(a))
        for mod in (graphs, setfam):
            monkeypatch.setattr(
                mod, "enumerate_stable_ksubsets", lambda *a: built.append(a)
            )
        seen = []
        patch_hemispheres(monkeypatch, seen.append)
        for n, k, ell in WITNESS_GRID:
            emb = build_embedding(n, k + ell)
            seen.clear()
            assert verify_gale_property(emb) is None
            assert len(seen) == 2 * math.comb(emb.n, emb.d - 1)
        assert built == []

    def test_event_a_sees_its_hemispheres(self, monkeypatch):
        hemispheres, faces = [], []
        patch_hemispheres(monkeypatch, hemispheres.append)
        patch_face_stream(monkeypatch, faces.append)
        for p in (0.5, 1.0):
            faces.clear()
            rep = events.event_a_oracle(8, 2, 1, p, seed=1)
            full = [f for f in faces if f.zero_mask == 0]
            assert len(full) == rep.partitions_examined >= 1
        # p = 1 fails: all 2 (C(7,0) + C(7,1) + C(7,2)) = 58 full cells are
        # examined, and the walk stops at the first boundary face
        assert len(full) == 58 and len(faces) == 59 and faces[-1].zero_mask
        assert hemispheres == []


class TestCapacity:
    def test_tested_instances_well_below_the_caps(self):
        # (12, 4) is the largest enumerate_faces call of the tests apart from
        # TestCurveSignsDigest, which reads every instance of its grid under
        # the cap and pins the CapacityError of the rest; gale-verify
        # (16, 5) has 2 C(16, 6) = 16,016 canonical hemispheres
        assert 8 * len(enumerate_faces(build_embedding(12, 4)).faces) < MAX_FACES
        assert 4 * 16016 < MAX_HEMISPHERES
