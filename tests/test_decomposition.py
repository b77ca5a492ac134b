"""Strip decomposition validation and node snapping."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr import DecompositionSpec, DomainSpec, build_grid, snap, validate
from oswr.errors import SnapFailure

UNIT = DomainSpec(n=1, alpha=0.0, beta=1.0, T=1.0)


class TestValidate:
    def test_two_strips_ok(self):
        spec = DecompositionSpec(count=2, a=(0.0, 0.4), b=(0.6, 1.0))
        assert validate(spec, UNIT) is None
        assert spec.overlaps() == pytest.approx((0.2,))

    def test_three_strips_ok(self):
        spec = DecompositionSpec(count=3, a=(0.0, 0.3, 0.6), b=(0.4, 0.7, 1.0))
        assert validate(spec, UNIT) is None

    def test_empty_overlap_named(self):
        spec = DecompositionSpec(count=2, a=(0.0, 0.6), b=(0.5, 1.0))
        assert validate(spec, UNIT) == "a_2 < b_1 fails"

    def test_non_adjacent_overlap_named(self):
        spec = DecompositionSpec(count=3, a=(0.0, 0.2, 0.35), b=(0.4, 0.8, 1.0))
        assert validate(spec, UNIT) == "b_1 < a_3 fails"

    def test_uniform_constructor(self):
        spec = DecompositionSpec.uniform(UNIT, 2, 0.2)
        assert spec.a == pytest.approx((0.0, 0.4))
        assert spec.b == pytest.approx((0.6, 1.0))


    @pytest.mark.parametrize("a,b,message", [
        ((0.2, 0.4), (0.6, 1.0), "a_1 = alpha fails (0.2 != 0)"),
        ((0.0, 0.4), (0.6, 0.8), "b_2 = beta fails (0.8 != 1)"),
        ((0.2, 0.4), (0.6, 0.8), "a_1 = alpha fails (0.2 != 0)"),
    ])
    def test_ends_must_be_domain_ends(self, a, b, message):
        spec = DecompositionSpec(count=2, a=a, b=b)
        assert validate(spec, UNIT) == message
        with pytest.raises(SnapFailure, match=re.escape(message)):
            snap(spec, build_grid(UNIT, 11, 4))

    def test_ends_on_shifted_domain(self):
        dom = DomainSpec(n=1, alpha=100.0, beta=101.0, T=1.0)
        assert validate(DecompositionSpec.uniform(dom, 3, 0.1), dom) is None
        assert validate(DecompositionSpec(count=2, a=(0.0, 100.4), b=(100.6, 101.0)),
                        dom) == "a_1 = alpha fails (0 != 100)"

    @pytest.mark.parametrize("count", [1, 0, -1])
    def test_uniform_needs_two_strips(self, count):
        with pytest.raises(ValueError, match="count must be at least 2"):
            DecompositionSpec.uniform(UNIT, count, 0.2)


class TestSnap:
    def test_exact_node(self):
        grid = build_grid(UNIT, 11, 4)
        layout = snap(DecompositionSpec(count=2, a=(0.0, 0.4), b=(0.6, 1.0)), grid)
        assert layout.entries[1].i_left == 4
        assert layout.entries[0].i_right == 6
        assert layout.entries[0].left_kind == "dirichlet"
        assert layout.entries[0].right_kind == "robin"

    def test_near_node_warns(self):
        grid = build_grid(UNIT, 11, 4)
        spec = DecompositionSpec(count=2, a=(0.0, 0.41), b=(0.6, 1.0))
        with pytest.warns(UserWarning, match="shift -0.01"):
            layout = snap(spec, grid)
        assert layout.entries[1].i_left == 4

    def test_midpoint_tie_enlarges_overlap(self):
        grid = build_grid(UNIT, 11, 4)
        spec = DecompositionSpec(count=2, a=(0.0, 0.45), b=(0.65, 1.0))
        with pytest.warns(UserWarning):
            layout = snap(spec, grid)
        # Left end of the right strip snaps down (4, not 5): larger overlap.
        assert layout.entries[1].i_left == 4

    def test_collapsed_overlap_fails(self):
        grid = build_grid(UNIT, 11, 4)
        spec = DecompositionSpec(count=2, a=(0.0, 0.52), b=(0.54, 1.0))
        with pytest.raises(SnapFailure):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                snap(spec, grid)

    def test_invalid_spec_fails(self):
        grid = build_grid(UNIT, 11, 4)
        spec = DecompositionSpec(count=2, a=(0.0, 0.6), b=(0.5, 1.0))
        with pytest.raises(SnapFailure, match="a_2 < b_1"):
            snap(spec, grid)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(2, 6),
       overlap_cells=st.integers(1, 4),
       nx=st.integers(41, 121))
def test_uniform_spec_snaps_to_full_cover(count, overlap_cells, nx):
    """Generated uniform specs validate and snap to a gapless cover."""
    grid = build_grid(UNIT, nx, 2)
    overlap = overlap_cells * grid.hx_axis * 1.5
    if overlap >= 1.0 / count:
        return  # constructor precondition
    spec = DecompositionSpec.uniform(UNIT, count, overlap)
    assert validate(spec, UNIT) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        layout = snap(spec, grid)
    covered = np.zeros(nx, dtype=bool)
    for entry in layout.entries:
        covered[entry.i_left:entry.i_right + 1] = True
    assert covered.all()
    for l in range(count - 1):
        left, right = layout.entries[l], layout.entries[l + 1]
        # Interior interfaces sit strictly inside the neighbor strip.
        assert left.i_right > right.i_left
        assert right.i_left < left.i_right < right.i_right
        assert left.i_left < right.i_left
