"""Mutated documents for the commands that run the sparse law walks.

Each case starts from valid documents for one of `check`, `rep-check`, `lie`,
`special`, `dend-check`, `o-check`, `o-induce` and `from-form`, over Q or
F_3, and mutates them: a value replaced by garbage (JSON numbers, booleans,
null, nested arrays, objects), by a non-canonical or foreign-field scalar or
by another field descriptor; a list shortened, lengthened or nested; a key
dropped.  Every mutated input stays a few entries large.  The command must
exit 0, 1 or 2 without raising, print no traceback and finish within a
wall-clock bound.
"""

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antiprelie import documents as docs
from antiprelie.algebra import MultTable
from antiprelie.cli import main
from antiprelie.dendriform import AntiLDendriform
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix
from antiprelie.representation import regular_representation

SECONDS = 5.0


def _documents(field):
    """Valid documents per command over one field."""
    a2 = MultTable.from_dict(field, 2, {(0, 1, 1): 1})
    comm2 = MultTable.from_dict(field, 2, {(0, 0, 1): 1})
    alg, reg = docs.encode_algebra(a2), docs.encode_representation(regular_representation(a2))
    dend = docs.encode_dendriform(AntiLDendriform(
        MultTable.from_dict(field, 2, {(1, 1, 0): 1}), MultTable.from_dict(field, 2, {(1, 1, 0): -1})
    ))
    operator = docs.encode_o_operator(Matrix.identity(field, 2))
    zero_operator = docs.encode_o_operator(Matrix.zero(field, 2, 2))
    form = docs.encode_bilinear_form(Matrix.from_rows(
        field, [[field.of_int(-2), field.of_int(-2)], [field.of_int(2), field.zero()]]
    ))
    return {
        "check": [alg],
        "rep-check": [alg, reg],
        "lie": [alg],
        "special": [alg, reg],
        "dend-check": [dend],
        "o-check": [alg, reg, operator],
        "o-induce": [alg, reg, zero_operator],
        "from-form": [docs.encode_algebra(comm2), form],
    }


CASES = [(command, documents) for field in (QQ, PrimeField(3))
         for command, documents in _documents(field).items()]

GARBAGE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2, 2, allow_nan=False, width=16),
    st.sampled_from(["", "x", "1e3", "1.5", " 1", "+1", "1/0", "0/0", "2/4", "-0", "1 mod 3",
                     "4 mod 3", "1 mod 5", "1mod3", "mod", "١"]),
    st.sampled_from([[], {}, [[]], [[[]]], [["1"]], [[["1"]]], [None], {"kind": None}]),
    st.sampled_from([{"type": "rational"}, {"type": "prime", "p": 3}, {"type": "prime", "p": 4},
                     {"type": "prime"}, {"type": "real"}, {"p": 3}]),
)


@st.composite
def mutated(draw, value):
    """value with one place in it replaced, dropped, shortened or nested."""
    children = (list(value.items()) if isinstance(value, dict)
                else list(enumerate(value)) if isinstance(value, list) else [])
    if children and draw(st.integers(0, 3)):
        key, child = draw(st.sampled_from(children))
        out = dict(value) if isinstance(value, dict) else list(value)
        out[key] = draw(mutated(child))
        return out
    action = draw(st.sampled_from(["replace", "drop", "grow", "nest"]))
    if action == "drop" and children:
        key = draw(st.sampled_from(children))[0]
        if isinstance(value, dict):
            return {k: v for k, v in value.items() if k != key}
        return value[:key] + value[key + 1:]
    if action == "grow" and isinstance(value, list) and value:
        return value + [draw(st.sampled_from(value))]
    if action == "nest":
        return [value]
    return draw(GARBAGE)


@st.composite
def cases(draw):
    command, documents = draw(st.sampled_from(CASES))
    documents = list(documents)
    for index in draw(st.sets(st.integers(0, len(documents) - 1), min_size=1)):
        documents[index] = draw(mutated(documents[index]))
    return command, documents


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_mutated_documents_exit_cleanly(case):
    command, documents = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(documents):
            path = Path(tmp) / f"doc{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, *paths])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert elapsed < SECONDS
