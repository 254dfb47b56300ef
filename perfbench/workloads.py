"""Seeded fixtures, job lists and seed-independent output checks.

Every workload is a fixed list of `antiprelie` CLI jobs over documents that
`generate` writes from a seed.  The seed drives only the column signs of the
dense basis change and the truncated isomorphisms behind the deformation
samples; the semidirect tower, rigid2 and the search specs are fixed.  Every
generated fixture is verified before it is written, and the d2 shape and
density of each cohomology input is recorded, so a "dense" fixture that
drifts sparse fails generation instead of quietly measuring the wrong thing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from antiprelie import documents as docs
from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.cohomology import d2_matrix
from antiprelie.deformation import (
    TruncatedDeformation,
    TruncatedIsomorphism,
    apply_isomorphism,
    verify_deformation,
)
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix
from antiprelie.representation import (
    Representation,
    dual_representation,
    regular_representation,
    semidirect_product,
    verify_representation,
)

from spans import nnz

WORKLOADS = ("cohomology-sparse", "cohomology-dense", "extensions", "search")

# Dims of the unconjugated dim-4 tower; conjugation is an isomorphism, so every
# seeded conjugate must reproduce them.
DIM4_REGULAR = (24, 13, 11)
DIM4_REGULAR_DUAL = (50, 25, 25)
DIM8_REGULAR = (116, 56, 60)
# Integer upper-triangular basis change of the dim-4 tower, dense above the
# diagonal; conjugating by it turns d2 from 1.4 % to 12 % nonzero.
DENSE_CHANGE = ((1, 2, 2, -2), (0, 1, 1, 2), (0, 0, 1, 2), (0, 0, 0, 1))
# Floors on the d2 density of the conjugated fixtures, which measure 12.5 % and
# 6.2 % (the unconjugated tower gives 1.4 % and 0.7 %).
DENSE_FLOOR = {"regular": 0.06, "regular+dual": 0.03}

Check = Callable[[int, bytes], Optional[str]]


@dataclass(frozen=True)
class Job:
    """One CLI call: argv after the program name, the documents it reads
    (names inside the work directory), and its seed-independent check."""

    name: str
    argv: tuple
    inputs: tuple
    check: Check


@dataclass
class Fixtures:
    seed: int
    jobs: list
    # Documents the setup probe reads, decodes and verifies: (kind, name, algebra name).
    verify: list = field(default_factory=list)
    d2: dict = field(default_factory=dict)


# --- fixed structures ------------------------------------------------------


def a2_table(field) -> MultTable:
    """The dim-2 algebra e0.e1 = e1."""
    return MultTable.from_dict(field, 2, {(0, 1, 1): 1})


def tower() -> tuple:
    """(a2, dim-4, dim-8): each step is the semidirect product with the regular rep."""
    a2 = AntiPreLieAlgebra.verify(a2_table(QQ))
    a4 = semidirect_product(a2, regular_representation(a2))
    a8 = semidirect_product(a4, regular_representation(a4))
    return a2, a4, a8


def rigid2() -> AntiPreLieAlgebra:
    """e0.e1 = e1, e1.e1 = e0: H2 vanishes over its regular representation."""
    return AntiPreLieAlgebra.verify(MultTable.from_dict(QQ, 2, {(0, 1, 1): 1, (1, 1, 0): 1}))


def direct_sum(r: Representation, s: Representation) -> Representation:
    """Block-diagonal sum of two representations of the same algebra."""
    z = r.field.zero()

    def block(x: Matrix, y: Matrix) -> Matrix:
        top = [list(row) + [z] * y.cols for row in x.entries]
        bottom = [[z] * x.cols + list(row) for row in y.entries]
        return Matrix.from_rows(r.field, top + bottom)

    return Representation(
        r.dim_a,
        r.dim_v + s.dim_v,
        tuple(block(x, y) for x, y in zip(r.rho, s.rho)),
        tuple(block(x, y) for x, y in zip(r.mu, s.mu)),
    )


# --- seeded structures -----------------------------------------------------


def dense_basis_change(rng: random.Random) -> Matrix:
    """DENSE_CHANGE with each column's sign drawn from the seed.

    Flipping column signs only flips the signs of basis vectors of the
    conjugate, so every seed gives a different table whose elimination does
    exactly the same arithmetic; with random magnitudes the work itself
    changed from seed to seed.
    """
    signs = [rng.choice((-1, 1)) for _ in DENSE_CHANGE]
    return Matrix.from_rows(QQ, [[Fraction(x * s) for x, s in zip(row, signs)] for row in DENSE_CHANGE])


def dense_conjugate(rng: random.Random, alg: AntiPreLieAlgebra) -> AntiPreLieAlgebra:
    return AntiPreLieAlgebra.verify(alg.table.conjugate(dense_basis_change(rng)))


def seeded_deformation(rng: random.Random, alg: AntiPreLieAlgebra, order: int) -> TruncatedDeformation:
    """The trivial deformation pulled back along a random truncated isomorphism."""
    n = alg.dim
    phis = tuple(
        Matrix.from_rows(QQ, [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                              for _ in range(n)])
        for _ in range(order)
    )
    d = apply_isomorphism(TruncatedDeformation.trivial(alg, order), TruncatedIsomorphism(phis))
    return verify_deformation(d)


# --- checks ----------------------------------------------------------------


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError:
        return None


def expect_dims(dims: tuple) -> Check:
    def check(code: int, out: bytes) -> Optional[str]:
        doc = _json(out)
        got = (doc.get("Z2"), doc.get("B2"), doc.get("H2")) if isinstance(doc, dict) else None
        if code != 0 or got != dims:
            return f"exit {code}, Z2/B2/H2 {got}, expected {dims}"
        return None
    return check


def expect_key(key: str, value) -> Check:
    def check(code: int, out: bytes) -> Optional[str]:
        doc = _json(out)
        got = doc.get(key) if isinstance(doc, dict) else None
        if code != 0 or got != value:
            return f"exit {code}, {key} {got!r}, expected {value!r}"
        return None
    return check


def expect_exit0(code: int, out: bytes) -> Optional[str]:
    return None if code == 0 else f"exit {code}, expected 0"


# --- generation ------------------------------------------------------------


class _Writer:
    def __init__(self, fx: Fixtures, work: Path):
        self.fx, self.work = fx, work

    def doc(self, name: str, doc: dict) -> str:
        (self.work / name).write_text(docs.dumps(doc), encoding="utf-8")
        return name

    def algebra(self, name: str, table) -> str:
        self.fx.verify.append(("algebra", name, None))
        return self.doc(name, docs.encode_algebra(table))

    def rep(self, name: str, alg, alg_doc: str, rep: Representation) -> str:
        verify_representation(alg, rep)
        self.fx.verify.append(("rep", name, alg_doc))
        return self.doc(name, docs.encode_representation(rep))

    def cohomology_job(self, job: str, alg: AntiPreLieAlgebra, alg_doc: str, rep_name: str,
                       rep: Representation, dims: tuple, floor: Optional[float]) -> Job:
        rep_doc = self.rep(rep_name, alg, alg_doc, rep)
        d2 = d2_matrix(alg, rep)
        count = nnz(d2.entries)
        density = count / (d2.rows * d2.cols)
        self.fx.d2[job] = {"shape": [d2.rows, d2.cols], "nnz": count, "density": round(density, 5)}
        if floor is not None and density < floor:
            raise RuntimeError(f"{job}: d2 density {density:.4f} fell below the dense floor {floor}")
        return Job(job, ("cohomology", alg_doc, rep_doc), (alg_doc, rep_doc), expect_dims(dims))


def generate(workload: str, seed: int, work: Path) -> Fixtures:
    """Write the workload's documents into `work` and return its job list."""
    rng = random.Random(seed)
    fx = Fixtures(seed, [])
    w = _Writer(fx, work)
    if workload == "cohomology-sparse":
        _, _, a8 = tower()
        alg = w.algebra("dim8.json", a8)
        fx.jobs.append(w.cohomology_job("cohomology-dim8-regular", a8, alg, "dim8-regular.json",
                                        regular_representation(a8), DIM8_REGULAR, None))
    elif workload == "cohomology-dense":
        _, a4, _ = tower()
        conj = dense_conjugate(rng, a4)
        alg = w.algebra("dim4-conj.json", conj)
        reg = regular_representation(conj)
        fx.jobs.append(w.cohomology_job("cohomology-dim4conj-regular", conj, alg,
                                        "dim4-conj-regular.json", reg, DIM4_REGULAR,
                                        DENSE_FLOOR["regular"]))
        fx.jobs.append(w.cohomology_job("cohomology-dim4conj-regular+dual", conj, alg,
                                        "dim4-conj-regular-dual.json",
                                        direct_sum(reg, dual_representation(reg)),
                                        DIM4_REGULAR_DUAL, DENSE_FLOOR["regular+dual"]))
    elif workload == "extensions":
        _, a4, _ = tower()
        conj = dense_conjugate(rng, a4)
        for tag, alg in (("dim4", a4), ("dim4-conj", conj)):
            alg_doc = w.algebra(f"{tag}.json", alg)
            rep_doc = w.rep(f"{tag}-regular.json", alg, alg_doc, regular_representation(alg))
            fx.jobs.append(Job(f"classify-{tag}", ("classify", alg_doc, rep_doc),
                               (alg_doc, rep_doc), expect_key("h2_dim", 11)))
        for tag, alg in (("dim4", a4), ("dim4-conj", conj)):
            d_doc = w.doc(f"{tag}-deformation.json",
                          docs.encode_deformation(seeded_deformation(rng, alg, 3)))
            fx.verify.append(("deformation", d_doc, None))
            fx.jobs.append(Job(f"deform-check-{tag}", ("deform-check", d_doc), (d_doc,),
                               expect_key("ok", True)))
        rigid = rigid2()
        alg_doc = w.algebra("rigid2.json", rigid)
        samples = []
        for i in range(4):
            samples.append(w.doc(f"rigid2-sample{i}.json",
                                 docs.encode_deformation(seeded_deformation(rng, rigid, 4))))
            fx.verify.append(("deformation", samples[-1], None))
        fx.jobs.append(Job("rigidity-rigid2", ("rigidity", alg_doc, *samples, "--order", "4"),
                           (alg_doc, *samples), expect_exit0))
    elif workload == "search":
        fx.jobs.append(Job("search-algebra-d2-p3",
                           ("search", "--kind", "algebra", "--dim", "2", "--prime", "3"),
                           (), expect_key("count", 273)))
        f5 = AntiPreLieAlgebra.verify(a2_table(PrimeField(5)))
        ctx5 = w.algebra("a2-mod5.json", f5)
        fx.jobs.append(Job("search-form-d2-p5",
                           ("search", "--kind", "bilinear-form", "--dim", "2", "--prime", "5",
                            "--context", ctx5),
                           (ctx5,), expect_exit0))
        f3 = AntiPreLieAlgebra.verify(a2_table(PrimeField(3)))
        ctx3 = w.algebra("a2-mod3.json", f3)
        rep3 = w.rep("a2-mod3-regular.json", f3, ctx3, regular_representation(f3))
        fx.jobs.append(Job("search-operator-d2-p3",
                           ("search", "--kind", "o-operator", "--dim", "2", "--prime", "3",
                            "--dim-v", "2", "--context", ctx3, "--rep", rep3),
                           (ctx3, rep3), expect_exit0))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return fx
