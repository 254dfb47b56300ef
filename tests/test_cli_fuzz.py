"""Mutated documents and arguments for the commands that read documents.

Each case starts from valid documents for one of `check`, `rep-check`, `lie`,
`semidirect`, `dual`, `special`, `dend-check`, `assoc`, `o-check`,
`o-induce`, `o-compat`, `from-form`, `deform-check`, `infinitesimal`,
`trivialize`, `apply-iso`, `rigidity` (with 0 to 2 sample deformations),
`extend`, `extract`, `iso`, `cohomology` and `classify`, over Q or F_3, and
mutates them: a value replaced by garbage (JSON numbers, booleans, null,
nested arrays, objects), by a non-canonical or foreign-field scalar or by
another field descriptor; a list shortened, lengthened or nested; a key
dropped.  Every algebra in the documents has dimension at most 2 (an
extension is of a dim-1 algebra by a dim-1 representation).  The
`trivialize` order is drawn from -2..5 and the `rigidity --order` from
-3..6; for those two commands the documents are left intact in about half
the cases, so that the argument alone is under test.  The command must exit
0, 1 or 2 without raising, print no traceback and finish within a
wall-clock bound.

The `search` command is fuzzed over its non-document arguments instead: kind,
dimensions (negative ones too), prime (invalid ones too), result limit, sample
count (up to 10**12), seed, strict skewness and context documents that are
absent, over the searched prime or over another one.  Accepted exhaustive
spaces stay at most 3**8 candidates; a huge value only reaches paths that are
refused before any work.
"""

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from antiprelie import documents as docs
from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.cli import main
from antiprelie.cohomology import cohomology_spaces
from antiprelie.deformation import TruncatedDeformation, TruncatedIsomorphism, apply_isomorphism
from antiprelie.dendriform import AntiLDendriform
from antiprelie.extension import build_extension, semidirect_extension
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix
from antiprelie.representation import regular_representation
from antiprelie.search import MAX_EXHAUSTIVE

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
        "semidirect": [alg, reg],
        "dual": [reg],
        "assoc": [dend],
        "o-compat": [alg, reg, operator],
        "cohomology": [alg, reg],
        "classify": [alg, reg],
        **_deformation_documents(field),
        **_extension_documents(field),
    }


def _deformation_documents(field):
    """A verified order-2 deformation of a2, an isomorphism, and deformations
    of the rigid dim-2 algebra (H2 = 0 over its regular representation)."""
    def pulled_back(nonzero, *phis):
        base = AntiPreLieAlgebra.verify(MultTable.from_dict(field, 2, nonzero))
        iso = TruncatedIsomorphism(tuple(Matrix.from_rows(field, [
            [field.of_int(x) for x in row] for row in phi]) for phi in phis))
        return base, apply_isomorphism(TruncatedDeformation.trivial(base, len(phis)), iso), iso

    _, d, iso = pulled_back({(0, 1, 1): 1}, [[1, 0], [1, 1]], [[0, 2], [1, 0]])
    rigid, sample1, _ = pulled_back({(0, 1, 1): 1, (1, 1, 0): 1}, [[1, 2], [0, 1]], [[0, 1], [1, 1]])
    _, sample2, _ = pulled_back({(0, 1, 1): 1, (1, 1, 0): 1}, [[0, 1], [2, 0]])
    deformation = docs.encode_deformation(d)
    samples = [docs.encode_deformation(sample1), docs.encode_deformation(sample2)]
    return {
        "deform-check": [deformation],
        "infinitesimal": [deformation],
        "trivialize": [deformation],
        "apply-iso": [deformation, docs.encode_isomorphism(iso, field)],
        **{f"rigidity/{k}": [docs.encode_algebra(rigid), *samples[:k]] for k in range(3)},
    }


def _extension_documents(field):
    """Documents over e0.e0 = e0 and its regular representation: a cocycle
    (a coboundary there), its extension and the semidirect product."""
    alg = AntiPreLieAlgebra.verify(MultTable.from_dict(field, 1, {(0, 0, 0): 1}))
    reg = regular_representation(alg)
    theta = cohomology_spaces(alg, reg).z2_basis[0]
    ext = docs.encode_extension(build_extension(alg, reg, theta))
    return {
        "extend": [docs.encode_algebra(alg), docs.encode_representation(reg),
                   docs.encode_cochain2(theta)],
        "extract": [ext],
        "iso": [ext, docs.encode_extension(semidirect_extension(alg, reg))],
    }


# Non-document arguments drawn per command.
ARGUMENTS = {
    "trivialize": st.integers(-2, 5).map(lambda k: [str(k)]),
    "rigidity": st.integers(-3, 6).map(lambda k: ["--order", str(k)]),
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
    name, documents = draw(st.sampled_from(CASES))
    command = name.split("/")[0]
    arguments = ARGUMENTS.get(command)
    documents = list(documents)
    if arguments is None or draw(st.booleans()):
        for index in draw(st.sets(st.integers(0, len(documents) - 1), min_size=1)):
            documents[index] = draw(mutated(documents[index]))
    return command, documents, [] if arguments is None else draw(arguments)


def _run(argv):
    """(exit code, stderr, seconds) of one in-process CLI call; an argparse
    rejection is a SystemExit carrying the code."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - start


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_mutated_documents_exit_cleanly(case):
    command, documents, arguments = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(documents):
            path = Path(tmp) / f"doc{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        code, err, elapsed = _run([command, *paths, *arguments])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert elapsed < SECONDS


KINDS = ("algebra", "representation", "o-operator", "bilinear-form")
CELLS = {"algebra": lambda n, m: n**3, "representation": lambda n, m: 2 * n * m * m,
         "o-operator": lambda n, m: n * m, "bilinear-form": lambda n, m: n * n}


def _context(dim, p):
    """An algebra document of the given dimension over F_p and its regular
    representation."""
    field = PrimeField(p)
    table = MultTable.from_dict(field, dim, {(0, 0, 0): 1} if dim else {})
    return docs.encode_algebra(table), docs.encode_representation(regular_representation(table))


@st.composite
def search_arguments(draw):
    kind = draw(st.sampled_from(KINDS))
    dim, dim_v = draw(st.integers(-2, 4)), draw(st.integers(-2, 3))
    prime = draw(st.sampled_from([2, 3, 5, 0, 1, 4, 7, -3]))
    max_results = draw(st.none() | st.integers(-2, 5))
    samples = draw(st.none() | st.integers(-2, 50) | st.just(10**12))
    argv = ["search", "--kind", kind, "--dim", str(dim), "--prime", str(prime),
            "--dim-v", str(dim_v), "--seed", str(draw(st.integers(-3, 3)))]
    if max_results is not None:
        argv += ["--max-results", str(max_results)]
    if samples is not None:
        argv += ["--random", str(samples)]
    if draw(st.booleans()):
        argv.append("--strict-skew")
    context = draw(st.sampled_from(["absent", "matching", "wrong-prime"]))
    if context != "absent":
        p = prime if prime in (2, 3, 5) else 3
        if context == "wrong-prime":
            p = 2 if p != 2 else 3
        docs_dim = dim if dim >= 0 else 2
        argv += ["--context", "algebra", "--rep", "rep"]
        context = _context(docs_dim, p)
    else:
        context = None
    # Only a valid exhaustive spec does work proportional to its space; keep
    # the accepted ones small.
    if prime in (2, 3, 5) and min(dim, dim_v, max_results or 0) >= 0 and not samples:
        size = prime ** CELLS[kind](dim, dim_v)
        assume(size <= 3**8 or size > MAX_EXHAUSTIVE)
    return argv, context


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(search_arguments())
def test_search_arguments_exit_cleanly(case):
    argv, context = case
    with tempfile.TemporaryDirectory() as tmp:
        if context is not None:
            for name, doc in zip(("algebra", "rep"), context):
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(doc))
                argv[argv.index(name)] = str(path)
        code, err, elapsed = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert elapsed < SECONDS
