"""The lazy package surface, which package modules a command loads, and what
a command pays at start-up.

Each case runs in a fresh interpreter that records, for every package module
it imports, the chain of package (and driver) lines that led to the import,
and then prints the records as JSON.  A module a command must not load is
reported with that chain, so a stray top-level import names its line.  The
start-up cases check that a command loads no `dataclasses` or `inspect`
beyond a bare interpreter and that the parser holds only the named command.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import antiprelie
from antiprelie import documents as docs
from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.deformation import TruncatedDeformation
from antiprelie.fields import QQ
from antiprelie.representation import regular_representation

RECORDER = r"""
import io, json, sys, traceback
from contextlib import redirect_stderr, redirect_stdout

chains = {}


class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "antiprelie" and name not in chains:
            chains[name] = [
                ": ".join(filter(None, (f"{frame.filename.split('/')[-1]}:{frame.lineno}",
                                        frame.line)))
                for frame in traceback.extract_stack()[:-1]
                if "antiprelie" in frame.filename or frame.filename == "<string>"
            ]
        return None


sys.meta_path.insert(0, Recorder)
argv = json.loads(sys.argv[1])
if argv is None:
    import antiprelie
else:
    from antiprelie.cli import main

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, code
print(json.dumps(chains))
"""


def _run(code: str, *args: str) -> str:
    """The stdout of `python -c code args...` with this package on the path."""
    src = str(Path(antiprelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(argv) -> dict:
    """{module: import chain} for every package module the command loads."""
    return json.loads(_run(RECORDER, json.dumps(argv)))


def _cohomology_argv(tmp_path) -> list:
    alg = AntiPreLieAlgebra.verify(MultTable.from_dict(QQ, 2, {(0, 1, 1): 1}))
    paths = []
    for name, doc in (("a2", docs.encode_algebra(alg)),
                      ("rep", docs.encode_representation(regular_representation(alg)))):
        path = tmp_path / f"{name}.json"
        path.write_text(docs.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return ["cohomology", *paths]


def _deform_check_argv(tmp_path) -> list:
    alg = AntiPreLieAlgebra.verify(MultTable.from_dict(QQ, 2, {(0, 1, 1): 1}))
    path = tmp_path / "deformation.json"
    path.write_text(docs.dumps(docs.encode_deformation(TruncatedDeformation.trivial(alg, 2))),
                    encoding="utf-8")
    return ["deform-check", str(path)]


@pytest.mark.parametrize("case, absent", [
    ("import", None),
    ("search", ("representation", "dendriform", "cohomology", "deformation", "extension")),
    ("cohomology", ("dendriform", "deformation", "extension", "search")),
    ("deform-check", ("representation", "cohomology", "dendriform", "extension", "search")),
])
def test_command_loads_only_its_modules(tmp_path, case, absent):
    """`import antiprelie` loads no submodule; `search --kind algebra`,
    `cohomology` and `deform-check` load none of the modules their work does
    not use."""
    argv = {
        "import": None,
        "search": ["search", "--kind", "algebra", "--dim", "2", "--prime", "3"],
        "cohomology": _cohomology_argv(tmp_path),
        "deform-check": _deform_check_argv(tmp_path),
    }[case]
    chains = _loaded(argv)
    if absent is None:
        stray = {name: chain for name, chain in chains.items() if name != "antiprelie"}
    else:
        stray = {name: chains[name] for name in (f"antiprelie.{m}" for m in absent)
                 if name in chains}
    assert not stray, "\n".join(
        f"{name} imported by:\n  " + "\n  ".join(chain) for name, chain in stray.items()
    )


# Runs a command and then lists, on the last line of stdout, every module loaded.
STARTUP = r"""
import sys
from antiprelie.cli import main

code = main(sys.argv[1:])
assert code == 0, code
print()
print(" ".join(sorted(sys.modules)))
"""


def _modules(code: str, *argv: str) -> set:
    """The modules loaded by the end of `python -c code argv...`, read from
    the last line of its stdout."""
    return set(_run(code, *argv).splitlines()[-1].split())


@pytest.mark.parametrize("case", ["search", "cohomology"])
def test_command_starts_without_code_generation(tmp_path, case):
    """Records are plain classes (fields._record): neither `dataclasses` nor
    the `inspect` it pulls in is loaded by a command, beyond what a bare
    interpreter on this host already loads."""
    argv = {
        "search": ["search", "--kind", "algebra", "--dim", "2", "--prime", "3"],
        "cohomology": _cohomology_argv(tmp_path),
    }[case]
    bare = _modules("import sys; print(' '.join(sorted(sys.modules)))")
    loaded = _modules(STARTUP, *argv) - bare
    assert "antiprelie.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_parser_builds_only_the_named_command():
    from antiprelie.cli import COMMANDS, build_parser

    def commands(parser) -> list:
        return list(next(a for a in parser._actions if a.dest == "command").choices)

    every = [cmd.name for cmd in COMMANDS]
    assert commands(build_parser("cohomology")) == ["cohomology"]
    assert commands(build_parser()) == commands(build_parser("bogus")) == every
    assert len(every) == 23


def test_star_import_binds_the_public_surface():
    """`from antiprelie import *` binds every public name, dir() lists each,
    and each is the object its home module holds (a submodule for a module
    name)."""
    namespace = {}
    exec("from antiprelie import *", namespace)
    assert set(antiprelie.__all__) <= set(namespace)
    assert set(antiprelie.__all__) <= set(dir(antiprelie))
    for name in antiprelie.__all__:
        home = name if name in antiprelie._EXPORTS else antiprelie._HOME[name]
        module = importlib.import_module(f"antiprelie.{home}")
        expected = module if home == name else getattr(module, name)
        assert namespace[name] is expected is getattr(antiprelie, name), name
        defined_in = getattr(expected, "__module__", "")
        if inspect.isclass(expected) or inspect.isfunction(expected) and defined_in:
            assert defined_in in (module.__name__, "builtins"), name


def test_public_names_are_read_from_their_module_at_each_access(monkeypatch):
    """A wrapper installed on a home module is what the package hands out,
    and once it is removed the original is again: nothing is cached in the
    package namespace."""
    import antiprelie.algebra as algebra

    original = algebra.check_anti_pre_lie

    def wrapper(table):
        return original(table)

    monkeypatch.setattr(algebra, "check_anti_pre_lie", wrapper)
    assert antiprelie.check_anti_pre_lie is wrapper
    monkeypatch.undo()
    assert antiprelie.check_anti_pre_lie is original
    assert "check_anti_pre_lie" not in vars(antiprelie)
