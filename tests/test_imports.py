"""The lazy package surface, and which package modules a command loads.

Each case runs in a fresh interpreter that records, for every package module
it imports, the chain of package (and driver) lines that led to the import,
and then prints the records as JSON.  A module a command must not load is
reported with that chain, so a stray top-level import names its line.
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


def _loaded(argv) -> dict:
    """{module: import chain} for every package module the command loads."""
    src = str(Path(antiprelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", RECORDER, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
