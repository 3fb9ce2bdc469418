"""Piecewise polynomial spaces with per-interval degrees and joint continuities.

A space is described by an interval [a, b], interior breakpoints
x_1 < ... < x_q, one degree per interval (q+1 of them) and one continuity
order per breakpoint. Public spaces, the only kind `MDSpace.create` makes,
require 0 <= k_i <= min(d_{i-1}, d_i); internal spaces (derivative and
intermediate construction spaces) may carry negative degrees and continuities,
kept raw because the dimension bookkeeping uses them verbatim.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from operator import sub
from typing import Sequence

from .errors import SpaceValidationError


def _numbers(values, what: str, count: int | None = None) -> tuple[float, ...]:
    """The values as floats; a string, a mapping or a bool is rejected, not
    read as its characters, its keys or as 0 or 1, and so is a count other
    than `count` or an integer too large for a double."""
    items = None if isinstance(values, (str, bytes, dict)) else tuple(values)
    if (items is None or count not in (None, len(items))
            or not {str, bytes, bool}.isdisjoint(map(type, items))):
        need = "numbers" if count is None else f"{count} numbers"
        raise SpaceValidationError(f"{what} must be a list of {need}, got {values!r}")
    try:
        return tuple(map(float, items))
    except OverflowError as exc:
        raise SpaceValidationError(f"{what} must fit in a double: {exc}") from exc


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as ints; a non-integral value such as 3.7 or a bool is
    rejected, not truncated, while an integral float such as 3.0 is accepted;
    a string or a mapping is rejected, not read as its characters or keys."""
    if isinstance(values, (str, bytes, dict)):
        raise SpaceValidationError(f"{what} must be a list of integers, got {values!r}")
    values = tuple(values)
    try:
        out = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpaceValidationError(f"{what} must be integers: {exc}") from exc
    if out != values or bool in map(type, values):
        raise SpaceValidationError(f"{what} must be integers, got {list(values)}")
    return out


def _dimension(degrees, continuities) -> int:
    return degrees[0] + 1 + sum(map(sub, degrees[1:], continuities))


@dataclass(frozen=True)
class MDSpace:
    a: float
    b: float
    breakpoints: tuple[float, ...]
    degrees: tuple[int, ...]
    continuities: tuple[int, ...]
    internal: bool = False

    # -- construction ------------------------------------------------------

    @staticmethod
    def create(interval: Sequence[float], breakpoints: Sequence[float],
               degrees: Sequence[int], continuities: Sequence[int]) -> "MDSpace":
        space = MDSpace(*_numbers(interval, "interval", 2),
                        _numbers(breakpoints, "breakpoints"),
                        _integers(degrees, "degrees"),
                        _integers(continuities, "continuities"))
        space.validate()
        return space

    def validate(self) -> None:
        q, xs = len(self.breakpoints), self.xs
        if not all(map(math.isfinite, xs)):
            raise SpaceValidationError(f"interval and breakpoints must be finite: {list(xs)}")
        if not self.b > self.a:
            raise SpaceValidationError(f"empty interval [{self.a}, {self.b}]")
        if len(self.degrees) != q + 1:
            raise SpaceValidationError(
                f"{q} breakpoints need {q + 1} degrees, got {len(self.degrees)}")
        if len(self.continuities) != q:
            raise SpaceValidationError(
                f"{q} breakpoints need {q} continuities, got {len(self.continuities)}")
        for left, right in zip(xs, xs[1:]):
            if not right > left:
                raise SpaceValidationError(
                    f"breakpoints must be strictly increasing inside ({self.a}, {self.b})")
            if not math.isfinite(1 / (right - left)):
                raise SpaceValidationError(f"width of [{left}, {right}] has no finite reciprocal")
        if not math.isfinite(self.b - self.a):
            raise SpaceValidationError(f"span of [{self.a}, {self.b}] is not finite")
        if not self.internal:
            for j, d in enumerate(self.degrees):
                if d < 0:
                    raise SpaceValidationError(f"degree of interval {j} is negative: {d}")
            for i, k in enumerate(self.continuities, start=1):
                dmin = min(self.degrees[i - 1], self.degrees[i])
                if not 0 <= k <= dmin:
                    raise SpaceValidationError(
                        f"continuity {k} at breakpoint {i} outside [0, {dmin}]")
        else:
            # Raw multiset multiplicities must stay nonnegative; every space
            # reachable through derivatives or degree steps satisfies this.
            for i, k in enumerate(self.continuities, start=1):
                if self.degrees[i] - k < 0 or self.degrees[i - 1] - k < 0:
                    raise SpaceValidationError(
                        f"inconsistent internal continuity {k} at breakpoint {i}")

    # -- basic queries -------------------------------------------------------

    @property
    def q(self) -> int:
        return len(self.breakpoints)

    @property
    def xs(self) -> tuple[float, ...]:
        """All knots including endpoints: x_0 = a, ..., x_{q+1} = b."""
        return (self.a,) + self.breakpoints + (self.b,)

    @property
    def dimension(self) -> int:
        return _dimension(self.degrees, self.continuities)

    def find_interval(self, x: float) -> int:
        """Index j with x_j <= x < x_{j+1}; the last interval is closed at b."""
        if not self.a <= x <= self.b:
            raise ValueError(f"point {x} outside [{self.a}, {self.b}]")
        if x == self.b:
            return self.q
        return bisect_right(self.breakpoints, x)

    # -- derived spaces ------------------------------------------------------

    def extended_partitions(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Left/right extended partitions (support starts s and ends t).

        Both have exactly `dimension` entries; the i-th basis function is
        supported on [s_i, t_i]. Entries with s_i >= t_i mark zero-function
        slots (these occur only in internal spaces).
        """
        d, k, inner = self.degrees, self.continuities, self.breakpoints
        s = list(chain(repeat(self.a, d[0] + 1), *map(repeat, inner, map(sub, d[1:], k))))
        del s[:max(0, -(d[0] + 1))]
        t = list(chain(*map(repeat, inner, map(sub, d[:-1], k)), repeat(self.b, d[-1] + 1)))
        del t[len(t) - max(0, -(d[-1] + 1)):]
        if not len(s) == len(t) == _dimension(d, k):
            raise SpaceValidationError("extended partition length mismatch")
        return tuple(s), tuple(t)

    def associated_c0(self) -> "MDSpace":
        """The smallest containing space glued with C0 continuity at degree changes."""
        k0 = []
        for i, k in enumerate(self.continuities, start=1):
            if k < 0:
                k0.append(-1)
            elif self.degrees[i - 1] != self.degrees[i]:
                k0.append(0)
            else:
                k0.append(k)
        return MDSpace(self.a, self.b, self.breakpoints, self.degrees,
                       tuple(k0), self.internal)

    def derivative_space(self, r: int = 1) -> "MDSpace":
        """Descriptor of the r-th derivative space (raw shifted integers)."""
        if r < 0:
            raise ValueError("derivative order must be nonnegative")
        if r == 0:
            return self
        return MDSpace(self.a, self.b, self.breakpoints,
                       tuple(d - r for d in self.degrees),
                       tuple(k - r for k in self.continuities),
                       internal=True)

    def is_directly_evaluable(self) -> bool:
        """True when every degree change happens at a continuity <= 0."""
        return all(k <= 0 or self.degrees[i - 1] == self.degrees[i]
                   for i, k in enumerate(self.continuities, start=1))

    # -- sections -------------------------------------------------------------

    def section_decomposition(self) -> "SectionDecomposition":
        if self.internal:
            raise SpaceValidationError("section decomposition is for public spaces")
        boundaries = [0]
        for i in range(1, self.q + 1):
            if self.degrees[i - 1] != self.degrees[i]:
                boundaries.append(i)
        boundaries.append(self.q + 1)
        sections = tuple(self.restrict(j0, j1)
                         for j0, j1 in zip(boundaries, boundaries[1:]))
        joins = tuple(JoinSpec(self.xs[i], self.continuities[i - 1]) for i in boundaries[1:-1])
        return SectionDecomposition(tuple(boundaries), sections, joins)

    def restrict(self, j0: int, j1: int) -> "MDSpace":
        """Sub-space covering intervals j0..j1-1 (public restriction)."""
        xs = self.xs
        return MDSpace(xs[j0], xs[j1], self.breakpoints[j0:j1 - 1],
                       self.degrees[j0:j1], self.continuities[j0:j1 - 1],
                       self.internal)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"interval": [self.a, self.b],
                "breakpoints": list(self.breakpoints),
                "degrees": list(self.degrees),
                "continuities": list(self.continuities)}

    @staticmethod
    def from_dict(data: dict) -> "MDSpace":
        keys = {"interval", "breakpoints", "degrees", "continuities"}
        unknown = [k for k in data if k not in keys] if isinstance(data, dict) else []
        if unknown:
            raise SpaceValidationError(f"unknown keys in space description: {unknown}")
        try:
            return MDSpace.create(data["interval"], data.get("breakpoints", []),
                                  data["degrees"], data.get("continuities", []))
        except (KeyError, TypeError, IndexError) as exc:
            raise SpaceValidationError(f"malformed space description: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "MDSpace":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpaceValidationError(f"invalid JSON: {exc}") from exc
        return MDSpace.from_dict(data)

    def __str__(self) -> str:
        parts = [str(self.degrees[0])]
        for k, d in zip(self.continuities, self.degrees[1:]):
            parts.append(f"_{k} {d}")
        return "(" + "".join(parts) + f") on [{self.a}, {self.b}]"


@dataclass(frozen=True)
class JoinSpec:
    """A section boundary: its location and continuity."""
    x: float
    continuity: int


@dataclass(frozen=True)
class SectionDecomposition:
    boundaries: tuple[int, ...]        # 0 = j_0 < j_1 < ... < j_{v+1} = q+1
    sections: tuple[MDSpace, ...]      # one conventional space per section
    joins: tuple[JoinSpec, ...]        # left to right; joins[i] separates sections i, i + 1

    @property
    def join_order(self) -> tuple[JoinSpec, ...]:
        """Seams by decreasing continuity; ties by the lowest set bit of the
        1-based ordinal in `joins`, then left first, so a run of equal seams
        joins as a balanced binary tree."""
        ranked = sorted(enumerate(self.joins, start=1),
                        key=lambda p: (-p[1].continuity, p[0] & -p[0], p[0]))
        return tuple(jn for _, jn in ranked)
