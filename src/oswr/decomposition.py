"""Overlapping strip decomposition along the last coordinate.

Strips Omega_l = D x (a_l, b_l) must interleave strictly:
alpha = a_1 < a_2 < b_1 < a_3 < b_2 < ... < a_I < b_{I-1} < b_I = beta,
so adjacent strips overlap and non-adjacent ones do not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import SnapFailure
from .grid import SpaceTimeGrid
from .problem import DomainSpec

RELTOL = 1e-9


@dataclass(frozen=True)
class DecompositionSpec:
    count: int
    a: Tuple[float, ...]
    b: Tuple[float, ...]

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("count must be at least 2")
        if len(self.a) != self.count or len(self.b) != self.count:
            raise ValueError("abscissa lists must have length I")

    @classmethod
    def uniform(cls, domain: DomainSpec, count: int, overlap: float) -> "DecompositionSpec":
        """I equal strips with uniform overlap delta around each cut point."""
        if count < 2:
            raise ValueError("count must be at least 2")
        if overlap <= 0:
            raise ValueError("overlap must be positive")
        width = domain.axis_length / count
        if overlap >= width:
            raise ValueError("overlap must be smaller than the strip width")
        cuts = [domain.alpha + i * width for i in range(1, count)]
        a = (domain.alpha,) + tuple(c - overlap / 2 for c in cuts)
        b = tuple(c + overlap / 2 for c in cuts) + (domain.beta,)
        if not all(lo < c < hi for lo, c, hi in zip(a[1:], cuts, b)):
            raise ValueError(f"overlap {overlap:g} does not move the strip ends off the cuts")
        return cls(count=count, a=a, b=b)

    def overlaps(self) -> Tuple[float, ...]:
        return tuple(self.b[l] - self.a[l + 1] for l in range(self.count - 1))


def validate(spec: DecompositionSpec, domain: DomainSpec) -> Optional[str]:
    """None if the strips span the domain and interleave; otherwise the
    first violation."""
    a, b, I = spec.a, spec.b, spec.count
    # Chain alpha = a_1 < a_2 < b_1 < a_3 < b_2 < ... < a_I < b_{I-1} < b_I = beta
    # (1-based names in the messages to match the usual notation).
    if a[0] != domain.alpha:
        return f"a_1 = alpha fails ({a[0]:g} != {domain.alpha:g})"
    if b[-1] != domain.beta:
        return f"b_{I} = beta fails ({b[-1]:g} != {domain.beta:g})"
    for l in range(I - 1):
        if not a[l] < a[l + 1]:
            return f"a_{l + 1} < a_{l + 2} fails"
        if not a[l + 1] < b[l]:
            return f"a_{l + 2} < b_{l + 1} fails"
        if not b[l] < b[l + 1]:
            return f"b_{l + 1} < b_{l + 2} fails"
    for l in range(I - 2):
        if not b[l] < a[l + 2]:
            return f"b_{l + 1} < a_{l + 3} fails"
    return None


@dataclass(frozen=True)
class SubdomainEntry:
    """One strip mapped onto grid nodes (global axis node indices)."""

    index: int
    i_left: int
    i_right: int
    left_kind: str   # 'dirichlet' at the extreme face, else 'robin'
    right_kind: str


@dataclass(frozen=True)
class SubdomainLayout:
    spec: DecompositionSpec
    entries: Tuple[SubdomainEntry, ...]

    @property
    def count(self) -> int:
        return len(self.entries)


def _snap_index(x: float, alpha: float, h: float, nmax: int, enlarge_down: bool) -> int:
    """Nearest node index; exact midpoints resolve toward larger overlap."""
    f = (x - alpha) / h
    lo = math.floor(f)
    frac = f - lo
    if abs(frac - 0.5) <= RELTOL:
        idx = lo if enlarge_down else lo + 1
    else:
        idx = lo if frac < 0.5 else lo + 1
    return min(max(idx, 0), nmax)


def snap(spec: DecompositionSpec, grid: SpaceTimeGrid) -> SubdomainLayout:
    """Map interface abscissas to the nearest grid nodes.

    Raises SnapFailure when the strips do not span the grid's domain or do
    not interleave (see validate), when an abscissa is farther than h/2
    from any node, or when a snapped overlap collapses below one grid cell.
    """
    msg = validate(spec, grid.domain)
    if msg is not None:
        raise SnapFailure(f"invalid decomposition: {msg}")
    h = grid.hx_axis
    alpha = grid.domain.alpha
    nmax = grid.nx_axis - 1
    ia: List[int] = []
    ib: List[int] = []
    for l in range(spec.count):
        # Ties enlarge the overlap: left ends snap down, right ends snap up.
        ia.append(_snap_index(spec.a[l], alpha, h, nmax, enlarge_down=True))
        ib.append(_snap_index(spec.b[l], alpha, h, nmax, enlarge_down=False))
        for idx, x in ((ia[l], spec.a[l]), (ib[l], spec.b[l])):
            shift = alpha + idx * h - x
            if abs(shift) > h / 2 + RELTOL * h:
                raise SnapFailure(f"abscissa {x} farther than h/2 from any grid node")
            if abs(shift) > RELTOL * max(h, abs(x)):
                warnings.warn(f"interface abscissa {x} snapped to node with shift {shift:g}",
                              stacklevel=2)
    for l in range(spec.count - 1):
        if ib[l] - ia[l + 1] < 1:
            raise SnapFailure(f"snapped overlap between strips {l + 1} and {l + 2} "
                              "collapsed below one grid cell")
    for l in range(spec.count):
        if l > 0 and not (ia[l - 1] < ia[l] < ib[l - 1]):
            raise SnapFailure(f"interface a_{l + 1} not interior to strip {l}")
        if l < spec.count - 1 and not (ia[l + 1] < ib[l] < ib[l + 1]):
            raise SnapFailure(f"interface b_{l + 1} not interior to strip {l + 2}")
    entries = tuple(
        SubdomainEntry(
            index=l,
            i_left=ia[l],
            i_right=ib[l],
            left_kind="dirichlet" if l == 0 else "robin",
            right_kind="dirichlet" if l == spec.count - 1 else "robin",
        )
        for l in range(spec.count)
    )
    return SubdomainLayout(spec=spec, entries=entries)
