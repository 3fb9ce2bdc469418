"""Named benchmark spaces with exactly representable breakpoints."""

from __future__ import annotations

from .spaces import MDSpace


def cox() -> MDSpace:
    """Degree 21, 21 uniform interior breakpoints, full smoothness."""
    return MDSpace.create((0.0, 22.0), tuple(float(i) for i in range(1, 22)),
                          (21,) * 22, (20,) * 21)


def test1() -> MDSpace:
    return MDSpace.create((-10000.0, 10000.0), (-9999.0, 0.0, 9999.0),
                          (5, 3, 3, 5), (3, 2, 3))


def test2() -> MDSpace:
    return MDSpace.create((-10000.0, 10000.0), (-9999.0, 0.0, 9999.0),
                          (3, 5, 5, 3), (3, 4, 3))


def test3() -> MDSpace:
    return MDSpace.create((1.0, 1024.0), tuple(float(2 ** j) for j in range(1, 10)),
                          (9, 9, 10, 10, 9, 9, 10, 10, 9, 9),
                          (8, 9, 9, 9, 8, 9, 9, 9, 8))


def test4() -> MDSpace:
    return MDSpace.create((-1024.0, 1.0),
                          tuple(float(-(2 ** (10 - j))) for j in range(1, 10)),
                          (9, 9, 10, 10, 9, 9, 10, 10, 9, 9),
                          (8, 9, 9, 9, 8, 9, 9, 9, 8))


def test5() -> MDSpace:
    degrees = tuple(21 if i <= 4 or i >= 17 else 20 if i <= 9 or i >= 12 else 19
                    for i in range(22))
    conts = tuple(20 if i <= 5 or i >= 18 else 19 if i <= 10 or i >= 13 else 18
                  for i in range(1, 22))
    return MDSpace.create((0.0, 22.0), tuple(float(i) for i in range(1, 22)),
                          degrees, conts)


def test6() -> MDSpace:
    return MDSpace.create((-10000.0, 10000.0), (-9999.0, 0.0, 9999.0),
                          (21, 19, 19, 21), (15, 10, 15))


def table7(k1: int = 19) -> MDSpace:
    """Two sections of degrees 19 and 20 on [0, 2] joined with continuity k1."""
    if not 0 <= k1 <= 19:
        raise ValueError(f"continuity {k1} out of range for degrees (19, 20)")
    return MDSpace.create((0.0, 2.0), (1.0,), (19, 20), (k1,))


TABLE7_RANGE = tuple(range(5, 20))

PRESETS = {
    "cox": cox,
    "test1": test1,
    "test2": test2,
    "test3": test3,
    "test4": test4,
    "test5": test5,
    "test6": test6,
    "table7": table7,
}

HIGHLIGHT_FUNCTION = {"cox": 22, "test1": 5, "test2": 4, "test3": 9}


def preset_space(name: str) -> MDSpace:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
