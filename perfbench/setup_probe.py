"""What every CLI call pays before it computes: a fresh interpreter imports the
front end, then reads, decodes and verifies the workload's input documents.

Usage: python setup_probe.py MANIFEST.json

The manifest lists [kind, document path, algebra path or null] entries, with
kind one of "algebra", "rep" and "deformation"; a representation is verified
against the algebra document named beside it, which must come earlier.
"""

import json
import sys

from antiprelie import cli  # noqa: F401  (importing the front end is part of set-up)
from antiprelie import documents as docs
from antiprelie.algebra import AntiPreLieAlgebra
from antiprelie.deformation import verify_deformation
from antiprelie.representation import verify_representation


def main(manifest_path: str) -> None:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    tables = {}
    for kind, path, algebra_path in manifest:
        with open(path, encoding="utf-8") as fh:
            doc = docs.loads(fh.read())
        if kind == "algebra":
            tables[path] = AntiPreLieAlgebra.verify(docs.decode_algebra(doc)).table
        elif kind == "rep":
            verify_representation(tables[algebra_path], docs.decode_representation(doc))
        elif kind == "deformation":
            verify_deformation(docs.decode_deformation(doc))
        else:
            raise ValueError(f"unknown manifest kind {kind!r}")


if __name__ == "__main__":
    main(sys.argv[1])
