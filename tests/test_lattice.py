import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfields.lattice import (
    HalfSpaceRegion,
    InvariantOrder,
    OrthantRegion,
    Window,
    centered_box,
    corner_point,
    pos_block,
    sym_block,
)

DEFAULT2 = InvariantOrder(dim=2)


def small_points(dim):
    return st.tuples(*[st.integers(-50, 50)] * dim)


def orders(dim):
    return st.builds(
        InvariantOrder,
        dim=st.just(dim),
        perm=st.permutations(range(dim)).map(tuple),
        signs=st.tuples(*[st.sampled_from((-1, 1))] * dim),
    )


class TestLexCompare:
    def test_reflexive(self):
        assert DEFAULT2.compare((0, 0), (0, 0)) == 0

    def test_first_axis_dominates(self):
        # dictionary order: s1 < t1 decides regardless of later axes
        assert DEFAULT2.compare((0, 1), (1, -5)) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DEFAULT2.compare((0, 0, 0), (0, 0))

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, data, dim):
        order = data.draw(orders(dim))
        s = data.draw(small_points(dim))
        t = data.draw(small_points(dim))
        i = data.draw(small_points(dim))
        c = order.compare(s, t)
        shifted = order.compare(
            tuple(a + b for a, b in zip(s, i)), tuple(a + b for a, b in zip(t, i))
        )
        assert c == shifted

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_total_order(self, data, dim):
        order = data.draw(orders(dim))
        s = data.draw(small_points(dim))
        t = data.draw(small_points(dim))
        assert order.compare(s, t) == -order.compare(t, s)
        assert (order.compare(s, t) == 0) == (s == t)

    def test_before_origin_mask_matches_compare(self):
        order = InvariantOrder(dim=2, perm=(1, 0), signs=(-1, 1))
        pts = centered_box(3, 2).point_array()
        mask = order.before_origin_mask(pts)
        for p, m in zip(pts, mask):
            assert m == (order.compare(tuple(p), (0, 0)) < 0)

    @pytest.mark.parametrize("dim, width", [(2, 3), (3, 2)])
    def test_before_origin_mask_dimension_mismatch(self, dim, width):
        # a 2-D order on 3-D points would silently ignore the third axis
        with pytest.raises(ValueError, match="dimension mismatch with order"):
            InvariantOrder(dim).before_origin_mask([[0] * (width - 1) + [-1]])


class TestCornerPoint:
    def test_zero_corner(self):
        assert corner_point((0, 0), (5, 5)) == (0, 0)

    def test_mixed_corner(self):
        assert corner_point((1, 0), (5, 7)) == (4, 0)

    def test_opposite_corner(self):
        assert corner_point((1, 1), (3, 3)) == (2, 2)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_always_a_vertex(self, data, dim):
        r = data.draw(st.tuples(*[st.integers(1, 9)] * dim))
        i = data.draw(st.tuples(*[st.integers(0, 1)] * dim))
        p = corner_point(i, r)
        assert pos_block(r).contains(p)
        assert all(x in (0, rl - 1) for x, rl in zip(p, r))


class TestOrthantRegion:
    def test_positive_quadrant(self):
        assert OrthantRegion((0, 0), 1).points() == [(0, 1), (1, 0), (1, 1)]

    def test_reflected_quadrant(self):
        assert OrthantRegion((1, 1), 1).points() == [(-1, -1), (-1, 0), (0, -1)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_cardinality_by_enumeration(self, dim, bound):
        # brute-force enumeration of the full box, row-major, as the independent oracle
        region = OrthantRegion((0,) * dim, bound).points()
        box = centered_box(bound, dim)
        brute = [
            p
            for p in box.points()
            if all(x >= 0 for x in p) and any(x != 0 for x in p)
        ]
        assert region == brute and len(region) == (bound + 1) ** dim - 1

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_point_reflection(self, dim, bound, data):
        i = data.draw(st.tuples(*[st.integers(0, 1)] * dim))
        flipped = tuple(1 - b for b in i)
        a = set(OrthantRegion(i, bound).points())
        b = {tuple(-x for x in p) for p in OrthantRegion(flipped, bound).points()}
        assert a == b


class TestHalfSpaceBoxes:
    @given(st.integers(1, 3).flatmap(orders), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_boxes_tile_the_region(self, order, bound):
        region = HalfSpaceRegion(order, bound)
        boxes = region.boxes()
        assert len(boxes) == order.dim
        rows = np.concatenate([b.point_array() for b in boxes])
        tiles = {tuple(p) for p in rows}
        assert len(tiles) == len(rows)  # disjoint
        assert tiles == {tuple(p) for p in region.point_array()}
        assert len(rows) == len(region.point_array())


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window((1, 0), (0, 5))

    def test_blocks(self):
        assert sym_block((3, 2)).lo == (-2, -1) and sym_block((3, 2)).hi == (2, 1)
        assert pos_block((4, 4)).hi == (3, 3)
        assert sym_block((3, 3)).cardinality == 25

    def test_point_array_row_major(self):
        w = Window((-1, 0), (0, 1))
        assert [tuple(p) for p in w.point_array()] == list(w.points())
        assert w.index((-1, 1)) == (0, 1)

    def test_dilate(self):
        w = pos_block((3, 3)).dilate(2)
        assert w.lo == (-2, -2) and w.hi == (4, 4)
