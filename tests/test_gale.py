import hashlib
import math
import random

import pytest

from kneser_chroma.errors import NoWitnessFound
from kneser_chroma.gale import (
    GaleEmbedding,
    WitnessSearch,
    build_embedding,
    canonical_hemispheres,
    det_exact,
    enumerate_faces,
    general_position_check,
    verify_gale_property,
    witness_to_json_dict,
)
from kneser_chroma.setfam import enumerate_stable_ksubsets


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

    def test_general_position_8_2(self):
        emb = build_embedding(8, 2)
        assert emb.d == 5
        assert general_position_check(emb)

    def test_general_position_10_4(self):
        assert general_position_check(build_embedding(10, 4))

    def test_duplicate_point_fails(self):
        base = build_embedding(6, 2)
        pts = list(base.points)
        pts[3] = pts[0]
        assert not general_position_check(
            GaleEmbedding(n=6, s=2, d=3, points=tuple(pts))
        )

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
        emb = GaleEmbedding(
            n=4, s=1, d=2, points=((1, 1), (1, 2), (-1, 3), (2, -1))
        )
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


class TestGaleProperty:
    def test_6_2_ok(self):
        assert verify_gale_property(build_embedding(6, 2)) is None

    def test_desk_scale_grid_ok(self):
        for n in range(5, 13):
            for s in range(2, (n - 1) // 2 + 1):
                assert verify_gale_property(build_embedding(n, s)) is None

    def test_adversarial_counterexample(self):
        # no sign alternation: all points in the x1 > 0 halfspace
        pts = tuple(tuple(i**j for j in range(3)) for i in range(1, 7))
        adv = GaleEmbedding(n=6, s=2, d=3, points=pts)
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
        # the sign-change rule holds only on the alternating moment curve
        pts = tuple(tuple(i**j for j in range(3)) for i in range(1, 7))
        with pytest.raises(ValueError):
            enumerate_faces(GaleEmbedding(n=6, s=2, d=3, points=pts))

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
