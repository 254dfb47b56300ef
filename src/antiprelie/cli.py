"""Command-line front end over every operation.

Documents are read from file paths given as positional arguments; results go
to standard output as canonical JSON, human-readable reports to standard
error.  Exit codes: 0 pass/success, 1 mathematical failure (failed check,
unsolvable system, refused construction), 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import documents as docs
from .algebra import (
    AntiPreLieAlgebra,
    MultTable,
    Report,
    StructureError,
    check_anti_pre_lie,
    sub_adjacent_lie,
)
from .cohomology import cohomology_spaces
from .deformation import (
    apply_isomorphism,
    check_deformation,
    infinitesimal,
    rigidity_certificate,
    trivialize_step,
    verify_deformation,
)
from .dendriform import (
    associated_anti_pre_lie,
    check_anti_L_dendriform,
    check_O_operator,
    compatible_from_invertible_O,
    dendriform_from_bilinear_form,
    induced_dendriform,
)
from .documents import DocumentError
from .extension import (
    are_isomorphic,
    build_extension,
    classify_extensions,
    extract_cocycle,
)
from .fields import PrimeField
from .representation import (
    check_representation,
    dual_representation,
    semidirect_product,
    special_condition_report,
    verify_representation,
)
from .search import (
    SearchSpec,
    SearchSpaceTooLarge,
    search_algebras,
    search_bilinear_forms,
    search_o_operators,
    search_representations,
    space_size,
)

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _read(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return docs.loads(fh.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _emit(doc: dict) -> None:
    sys.stdout.write(docs.dumps(doc))


def _report_doc(report: Report) -> dict:
    return {
        "ok": report.ok,
        "subject": report.subject,
        "violations": [
            {"law": v.law, "at": list(v.at), "residual": v.rendered()}
            for v in report.violations
        ],
    }


def _finish_report(report: Report) -> int:
    _emit(_report_doc(report))
    if not report.ok:
        for v in report.violations:
            sys.stderr.write(v.describe() + "\n")
        return FAIL
    return PASS


def _verified_algebra(doc: dict) -> AntiPreLieAlgebra:
    return AntiPreLieAlgebra.verify(docs.decode_algebra(doc))


def cmd_check(args) -> int:
    table = docs.decode_algebra(_read(args.algebra))
    return _finish_report(check_anti_pre_lie(table))


def cmd_lie(args) -> int:
    alg = _verified_algebra(_read(args.algebra))
    _emit(docs.encode_lie(sub_adjacent_lie(alg)))
    return PASS


def cmd_rep_check(args) -> int:
    table = docs.decode_algebra(_read(args.algebra))
    rep = docs.decode_representation(_read(args.rep))
    docs.require_same_field(table.field, rep.field)
    _match_dims(table, rep)
    return _finish_report(check_representation(table, rep))


def _match_dims(table: MultTable, rep) -> None:
    if rep.dim_a != table.dim:
        raise DocumentError(
            f"representation is over a dim-{rep.dim_a} algebra, document has dim {table.dim}"
        )


def cmd_semidirect(args) -> int:
    alg = _verified_algebra(_read(args.algebra))
    rep = docs.decode_representation(_read(args.rep))
    docs.require_same_field(alg.field, rep.field)
    _match_dims(alg.table, rep)
    _emit(docs.encode_algebra(semidirect_product(alg, rep)))
    return PASS


def cmd_dual(args) -> int:
    rep = docs.decode_representation(_read(args.rep))
    _emit(docs.encode_representation(dual_representation(rep)))
    return PASS


def cmd_special(args) -> int:
    table = docs.decode_algebra(_read(args.algebra))
    rep = docs.decode_representation(_read(args.rep))
    docs.require_same_field(table.field, rep.field)
    _match_dims(table, rep)
    conds = special_condition_report(table, rep)
    _emit({"conditions": list(conds), "equal": len(set(conds)) == 1})
    return PASS


def cmd_cohomology(args) -> int:
    alg = _verified_algebra(_read(args.algebra))
    rep = docs.decode_representation(_read(args.rep))
    docs.require_same_field(alg.field, rep.field)
    _match_dims(alg.table, rep)
    verify_representation(alg.table, rep)
    spaces = cohomology_spaces(alg, rep)
    _emit({
        "Z2": spaces.z2_dim,
        "B2": spaces.b2_dim,
        "H2": spaces.h2_dim,
        "z2_basis": [docs.encode_cochain2(c) for c in spaces.z2_basis],
        "b2_basis": [docs.encode_cochain2(c) for c in spaces.b2_basis],
        "h2_representatives": [docs.encode_cochain2(c) for c in spaces.h2_representatives],
    })
    return PASS


def cmd_dend_check(args) -> int:
    d = docs.decode_dendriform(_read(args.dendriform))
    return _finish_report(check_anti_L_dendriform(d))


def cmd_assoc(args) -> int:
    d = docs.decode_dendriform(_read(args.dendriform))
    _emit(docs.encode_algebra(associated_anti_pre_lie(d)))
    return PASS


def _o_context(args):
    alg = _verified_algebra(_read(args.algebra))
    rep = docs.decode_representation(_read(args.rep))
    t = docs.decode_o_operator(_read(args.operator))
    docs.require_same_field(alg.field, rep.field, t.field)
    _match_dims(alg.table, rep)
    verify_representation(alg.table, rep)
    if (t.rows, t.cols) != (alg.dim, rep.dim_v):
        raise DocumentError(
            f"operator matrix must be {alg.dim}x{rep.dim_v}, got {t.rows}x{t.cols}"
        )
    return alg, rep, t


def cmd_o_check(args) -> int:
    alg, rep, t = _o_context(args)
    return _finish_report(check_O_operator(alg, rep, t))


def cmd_o_induce(args) -> int:
    alg, rep, t = _o_context(args)
    _emit(docs.encode_dendriform(induced_dendriform(alg, rep, t)))
    return PASS


def cmd_o_compat(args) -> int:
    alg, rep, t = _o_context(args)
    _emit(docs.encode_dendriform(compatible_from_invertible_O(alg, rep, t)))
    return PASS


def cmd_from_form(args) -> int:
    alg = _verified_algebra(_read(args.algebra))
    b = docs.decode_bilinear_form(_read(args.form))
    docs.require_same_field(alg.field, b.field)
    if b.rows != alg.dim:
        raise DocumentError(f"form must be {alg.dim}x{alg.dim}, got {b.rows}x{b.cols}")
    _emit(docs.encode_dendriform(
        dendriform_from_bilinear_form(alg, b, strict_skew=args.strict_skew)
    ))
    return PASS


def cmd_deform_check(args) -> int:
    d = docs.decode_deformation(_read(args.deformation))
    return _finish_report(check_deformation(d))


def cmd_infinitesimal(args) -> int:
    d = docs.decode_deformation(_read(args.deformation))
    verify_deformation(d)
    _emit(docs.encode_cochain2(infinitesimal(d)))
    return PASS


def cmd_apply_iso(args) -> int:
    d = docs.decode_deformation(_read(args.deformation))
    iso = docs.decode_isomorphism(_read(args.isomorphism))
    verify_deformation(d)
    _emit(docs.encode_deformation(apply_isomorphism(d, iso)))
    return PASS


def cmd_trivialize(args) -> int:
    d = docs.decode_deformation(_read(args.deformation))
    verify_deformation(d)
    step = trivialize_step(d, args.order)
    if step is None:
        sys.stderr.write(f"term at order {args.order} is not a coboundary\n")
        _emit({"trivialized": False})
        return FAIL
    phi, out = step
    _emit({
        "trivialized": True,
        "phi": docs.encode_matrix(phi),
        "deformation": docs.encode_deformation(out),
    })
    return PASS


def cmd_rigidity(args) -> int:
    alg = _verified_algebra(_read(args.algebra))
    samples = []
    for path in args.deformations:
        d = docs.decode_deformation(_read(path))
        verify_deformation(d)
        samples.append(d)
    cert = rigidity_certificate(alg, samples, args.order)
    _emit({
        "h2_dim": cert.h2_dim,
        "order": cert.order,
        "rigid_verified": cert.rigid_verified,
        "eliminations": None if cert.eliminations is None else [
            [docs.encode_matrix(phi) for phi in run] for run in cert.eliminations
        ],
    })
    return PASS if cert.rigid_verified else FAIL


def cmd_extend(args) -> int:
    if args.rep is None or args.theta is None:
        combined = _read(args.algebra)
        for key in ("algebra", "rep", "theta"):
            if key not in combined:
                raise DocumentError("combined build document needs algebra, rep and theta")
        alg = _verified_algebra(combined["algebra"])
        rep = docs.decode_representation(combined["rep"])
        theta = docs.decode_cochain2(combined["theta"])
    else:
        alg = _verified_algebra(_read(args.algebra))
        rep = docs.decode_representation(_read(args.rep))
        theta = docs.decode_cochain2(_read(args.theta))
    docs.require_same_field(alg.field, rep.field, theta.field)
    _match_dims(alg.table, rep)
    if (theta.dim_a, theta.dim_v) != (alg.dim, rep.dim_v):
        raise DocumentError("cocycle dimensions do not match the algebra and representation")
    verify_representation(alg.table, rep)
    _emit(docs.encode_extension(build_extension(alg, rep, theta)))
    return PASS


def cmd_extract(args) -> int:
    ext = docs.decode_extension(_read(args.extension))
    section = None
    if args.section is not None:
        section = docs.decode_matrix(ext.field, _read_raw_matrix(args.section))
    theta, rep = extract_cocycle(ext, section)
    _emit({
        "theta": docs.encode_cochain2(theta),
        "rep": docs.encode_representation(rep),
    })
    return PASS


def _read_raw_matrix(path: str):
    doc = _read(path)
    if "matrix" not in doc:
        raise DocumentError("section document needs a `matrix` key")
    return doc["matrix"]


def cmd_iso(args) -> int:
    ext1 = docs.decode_extension(_read(args.extension1))
    ext2 = docs.decode_extension(_read(args.extension2))
    try:
        zeta = are_isomorphic(ext1, ext2)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if zeta is None:
        _emit({"isomorphic": False})
        sys.stderr.write("cocycles are not cohomologous\n")
        return FAIL
    _emit({"isomorphic": True, "zeta": docs.encode_matrix(zeta)})
    return PASS


def cmd_classify(args) -> int:
    alg = _verified_algebra(_read(args.algebra))
    rep = docs.decode_representation(_read(args.rep))
    docs.require_same_field(alg.field, rep.field)
    _match_dims(alg.table, rep)
    verify_representation(alg.table, rep)
    classes = classify_extensions(alg, rep)
    _emit({
        "h2_dim": len(classes),
        "classes": [
            {"theta": docs.encode_cochain2(theta), "extension": docs.encode_extension(ext)}
            for theta, ext in classes
        ],
    })
    return PASS


def cmd_search(args) -> int:
    spec = SearchSpec(
        kind=args.kind,
        dim=args.dim,
        p=args.prime,
        dim_v=args.dim_v,
        exhaustive=not args.random,
        samples=args.random or 0,
        max_results=args.max_results,
        seed=args.seed,
    )
    size = space_size(spec)
    sys.stderr.write(f"search space: {size} candidates\n")
    if args.kind == "algebra":
        results = [docs.encode_algebra(t) for t in search_algebras(spec)]
    else:
        context = _read(args.context) if args.context else None
        if context is None:
            raise DocumentError(f"search kind {args.kind!r} needs a context algebra document")
        table = docs.decode_algebra(context)
        if not isinstance(table.field, PrimeField) or table.field.p != spec.p:
            raise DocumentError("context algebra must live over the searched prime field")
        if args.kind == "representation":
            results = [docs.encode_representation(r) for r in search_representations(spec, table)]
        elif args.kind == "o-operator":
            if not args.rep:
                raise DocumentError("o-operator search needs a representation document")
            rep = docs.decode_representation(_read(args.rep))
            results = [docs.encode_o_operator(t) for t in search_o_operators(spec, table, rep)]
        elif args.kind == "bilinear-form":
            results = [
                docs.encode_bilinear_form(b)
                for b in search_bilinear_forms(spec, table, strict_skew=args.strict_skew)
            ]
        else:
            raise DocumentError(f"unknown search kind {args.kind!r}")
    _emit({"space": size, "count": len(results), "results": results})
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antiprelie",
        description="Exact verification and construction tools for anti-pre-Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, "verify the anti-pre-Lie laws of a table")
    p.add_argument("algebra")

    p = add("lie", cmd_lie, "commutator bracket of a verified algebra")
    p.add_argument("algebra")

    p = add("rep-check", cmd_rep_check, "verify the representation axioms")
    p.add_argument("algebra")
    p.add_argument("rep")

    p = add("semidirect", cmd_semidirect, "semidirect product algebra on A + V")
    p.add_argument("algebra")
    p.add_argument("rep")

    p = add("dual", cmd_dual, "dual representation on V*")
    p.add_argument("rep")

    p = add("special", cmd_special, "three-way equivalence report")
    p.add_argument("algebra")
    p.add_argument("rep")

    p = add("cohomology", cmd_cohomology, "Z2, B2 and H2 with representatives")
    p.add_argument("algebra")
    p.add_argument("rep")

    p = add("dend-check", cmd_dend_check, "verify the anti-L-dendriform laws")
    p.add_argument("dendriform")

    p = add("assoc", cmd_assoc, "associated anti-pre-Lie algebra of a dendriform structure")
    p.add_argument("dendriform")

    for name, fn, help_text in (
        ("o-check", cmd_o_check, "verify the operator relation"),
        ("o-induce", cmd_o_induce, "dendriform structure induced on V"),
        ("o-compat", cmd_o_compat, "compatible structure on A from an invertible operator"),
    ):
        p = add(name, fn, help_text)
        p.add_argument("algebra")
        p.add_argument("rep")
        p.add_argument("operator")

    p = add("from-form", cmd_from_form, "compatible structure from an invariant bilinear form")
    p.add_argument("algebra")
    p.add_argument("form")
    p.add_argument("--strict-skew", action="store_true", help="also require B(x,y) = -B(y,x)")

    p = add("deform-check", cmd_deform_check, "verify the deformation equations")
    p.add_argument("deformation")

    p = add("infinitesimal", cmd_infinitesimal, "degree-1 cocycle of a verified deformation")
    p.add_argument("deformation")

    p = add("apply-iso", cmd_apply_iso, "pull a deformation back along a truncated isomorphism")
    p.add_argument("deformation")
    p.add_argument("isomorphism")

    p = add("trivialize", cmd_trivialize, "flatten the first nonzero order if it is exact")
    p.add_argument("deformation")
    p.add_argument("order", type=int)

    p = add("rigidity", cmd_rigidity, "H2 computation plus sample trivializations")
    p.add_argument("algebra")
    p.add_argument("deformations", nargs="*", default=[])
    p.add_argument("--order", type=int, default=3)

    p = add("extend", cmd_extend, "build an abelian extension from a 2-cocycle")
    p.add_argument("algebra")
    p.add_argument("rep", nargs="?", default=None)
    p.add_argument("theta", nargs="?", default=None)

    p = add("extract", cmd_extract, "cocycle and representation of an extension")
    p.add_argument("extension")
    p.add_argument("section", nargs="?", default=None)

    p = add("iso", cmd_iso, "test two extensions for isomorphism")
    p.add_argument("extension1")
    p.add_argument("extension2")

    p = add("classify", cmd_classify, "one extension per second-cohomology class")
    p.add_argument("algebra")
    p.add_argument("rep")

    p = add("search", cmd_search, "enumerate verified instances over a prime field")
    p.add_argument("--kind", required=True,
                   choices=["algebra", "representation", "o-operator", "bilinear-form"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--prime", type=int, required=True, choices=[2, 3, 5])
    p.add_argument("--dim-v", type=int, default=0)
    p.add_argument("--max-results", type=int, default=None)
    p.add_argument("--random", type=int, default=0,
                   help="sample this many candidates instead of exhausting the space")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict-skew", action="store_true")
    p.add_argument("--context", default=None, help="context algebra document")
    p.add_argument("--rep", default=None, help="context representation document")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return BAD_INPUT
    except SearchSpaceTooLarge as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return FAIL
    except StructureError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        if exc.report is not None:
            for v in exc.report.violations[:20]:
                sys.stderr.write(f"  {v.law} at {v.at}\n")
        return FAIL
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
