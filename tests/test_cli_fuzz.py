"""Space documents under a fuzzer: whatever the file holds, every command
exits 0, 1 or 2, writes at most one line to stderr and never a traceback, and
prints only finite numbers when it succeeds.

Documents start as valid spaces (q <= 6, degrees 0..12, integer knots scaled
by a power of ten from 1e-307 to 1e300) and take up to three
mutations: wrong types, huge, subnormal and non-finite numbers (written as the
NaN and Infinity literals Python's JSON writer emits), missing and unknown
keys. The degree fields stay small: the CLI does not bound a space's size yet.
"""

import contextlib
import io
import itertools
import json
import math
import re
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mdspline.cli import ROUTES, main

KEYS = ("interval", "breakpoints", "degrees", "continuities")
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
                  st.lists(st.text(max_size=2), max_size=2))
NUMBERS = st.one_of(
    st.integers(-20, 20),
    st.floats(),                    # NaN, infinities, subnormals and huge values
    st.sampled_from([1e308, -1e308, 5e-324, 1e-320, 4e-309, 1e-300, 10 ** 400, -10 ** 400]),
    WRONG)
SMALL_INTEGERS = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([2.0, 2.5, math.nan, math.inf, -math.inf, 1e-320]),
    WRONG)
# a number printed by a command: a decimal, or a non-finite word
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:nan|inf(?:inity)?|\d+\.?\d*(?:e[-+]?\d+)?)(?![\w.])",
                    re.IGNORECASE)


@st.composite
def space_documents(draw):
    q = draw(st.integers(0, 6))
    degrees = draw(st.lists(st.integers(0, 12), min_size=q + 1, max_size=q + 1))
    start = draw(st.integers(-20, 20))
    widths = draw(st.lists(st.integers(1, 6), min_size=q + 1, max_size=q + 1))
    scale = draw(st.sampled_from([1, 1e-307, 1e-300, 1e-12, 1e12, 1e300]))
    knots = [k * scale for k in itertools.accumulate([start] + widths)]
    doc = {"interval": [knots[0], knots[-1]], "breakpoints": knots[1:-1],
           "degrees": degrees,
           "continuities": [draw(st.integers(0, min(pair))) for pair in zip(degrees, degrees[1:])]}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(KEYS))
        values = SMALL_INTEGERS if key in ("degrees", "continuities") else NUMBERS
        kind = draw(st.sampled_from(["element", "element", "append", "field", "drop", "unknown"]))
        if kind == "element" and isinstance(doc.get(key), list) and doc[key]:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(values)
        elif kind == "append" and isinstance(doc.get(key), list):
            doc[key].append(draw(values))
        elif kind == "field":
            doc[key] = draw(values)
        elif kind == "drop":
            doc.pop(key, None)
        elif kind == "unknown":
            doc[draw(st.sampled_from(["degree", "knots", "Interval", ""]))] = draw(NUMBERS)
    return doc if draw(st.integers(0, 19)) else draw(NUMBERS)     # sometimes not an object


def run(argv):
    """Exit code, stdout and stderr lines of one in-process command; a
    warning counts as a stderr line, since the process would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=space_documents())
def test_every_space_document_is_handled(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-space.json"
    path.write_text(json.dumps(doc))
    commands = [["validate"], *(["matrix", "--method", route] for route in ROUTES),
                ["eval", "--grid", "5"]]
    for command in commands:
        argv = command + ["--space", str(path)]
        rc, out, err = run(argv)    # an uncaught exception fails the test
        assert rc in (0, 1, 2), (argv, doc, rc)
        assert len(err) <= 1 and not any("Traceback" in line for line in err), (argv, doc, err)
        if rc == 0:
            bad = [t for t in NUMBER.findall(out) if not math.isfinite(float(t))]
            assert not bad, (argv, doc, bad)
