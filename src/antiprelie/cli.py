"""Command-line front end over every operation.

Documents are read from file paths given as positional arguments; results go
to standard output as canonical JSON, human-readable reports to standard
error.  Exit codes: 0 pass/success, 1 mathematical failure (failed check,
unsolvable system, refused construction), 2 malformed input.

Every subcommand is one entry of COMMANDS: its documents by role, its other
options and a body.  One loader reads and decodes the documents in argument
order (an `algebra` is verified as it is decoded) and then runs the same
gates for every command, in this order: one field across all documents; a
representation over an algebra of the document's dimension; operator, form
and cocycle shapes; the representation axioms, when the command takes a
verified algebra.  The body gets the decoded objects and returns a document,
a Report or an Exit.  The parser is generated from the same table.  The
bodies reach the package's functions through its lazy surface when they
run, so a command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple, Optional

import antiprelie as api

from . import documents as docs
from .algebra import AntiPreLieAlgebra, Report, StructureError
from .documents import DocumentError
from .fields import PrimeField, _record

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _section(doc: dict):
    if "matrix" not in doc:
        raise DocumentError("section document needs a `matrix` key")
    return doc["matrix"]


# Role -> decoder of a parsed document.  The decoders are looked up on their
# modules at call time, so a wrapper installed there (a profiler, a span
# tracer) sees every decode.
ROLES = {
    "table": lambda doc: docs.decode_algebra(doc),
    "algebra": lambda doc: AntiPreLieAlgebra.verify(docs.decode_algebra(doc)),
    "rep": lambda doc: docs.decode_representation(doc),
    "operator": lambda doc: docs.decode_o_operator(doc),
    "form": lambda doc: docs.decode_bilinear_form(doc),
    "theta": lambda doc: docs.decode_cochain2(doc),
    "dendriform": lambda doc: docs.decode_dendriform(doc),
    "deformation": lambda doc: docs.decode_deformation(doc),
    "isomorphism": lambda doc: docs.decode_isomorphism(doc),
    "extension": lambda doc: docs.decode_extension(doc),
    # A bare matrix; the body decodes it over the extension's field.
    "section": _section,
}


class Doc(NamedTuple):
    """A document argument: its name on the command line and its role."""

    arg: str
    role: str
    nargs: Optional[str] = None  # None, "?" or "*"
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.arg.lstrip("-").replace("-", "_")


class Exit(NamedTuple):
    """A body's result other than plain success: output document (None for
    none), exit code, stderr note."""

    doc: Optional[dict]
    code: int
    note: str = ""


@_record()
class Command:
    name: str
    help: str
    body: Callable  # (args, *decoded documents in argument order) -> dict | Report | Exit
    documents: tuple = ()  # Doc per document argument, in argument order
    options: tuple = ()  # (argument, argparse keywords) per other argument
    bundled: bool = False  # the first file given alone holds every document, by argument name


def _read(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return docs.loads(fh.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _given(cmd: Command, args) -> list:
    """(Doc, path) for every file named on the command line, in argument order."""
    out = []
    for doc in cmd.documents:
        value = getattr(args, doc.dest)
        paths = value if isinstance(value, list) else [] if value is None else [value]
        out.extend((doc, path) for path in paths)
    return out


def _parsed(cmd: Command, args):
    """(Doc, parsed document) in argument order, each file read when it is reached."""
    given = _given(cmd, args)
    bundled = cmd.bundled and len(given) < len(cmd.documents)
    for doc, path in given[:1] if bundled else given:
        parsed = _read(path)
        if not bundled:
            yield doc, parsed
            continue
        names = [d.arg for d in cmd.documents]
        if not all(isinstance(parsed.get(name), dict) for name in names):
            raise DocumentError(
                f"combined build document needs {', '.join(names[:-1])} and {names[-1]}"
            )
        yield from ((d, parsed[d.arg]) for d in cmd.documents)


def _gate(decoded: list) -> None:
    """The checks every command's (role, object) pairs pass, in this order.

    An object that holds no scalars (an order-0 isomorphism, a representation
    of a dim-0 algebra) has no field and takes no part in the field check.
    """
    fields = [obj.field for role, obj in decoded if role != "section" and obj.field is not None]
    if fields:
        docs.require_same_field(*fields)
    got = dict(decoded)
    alg = got.get("algebra", got.get("table"))
    if alg is None:
        return
    rep, t, b, theta = (got.get(role) for role in ("rep", "operator", "form", "theta"))
    if rep is not None and rep.dim_a != alg.dim:
        raise DocumentError(
            f"representation is over a dim-{rep.dim_a} algebra, document has dim {alg.dim}"
        )
    if t is not None and (t.rows, t.cols) != (alg.dim, rep.dim_v):
        raise DocumentError(
            f"operator matrix must be {alg.dim}x{rep.dim_v}, got {t.rows}x{t.cols}"
        )
    if b is not None and b.rows != alg.dim:
        raise DocumentError(f"form must be {alg.dim}x{alg.dim}, got {b.rows}x{b.cols}")
    if theta is not None and (theta.dim_a, theta.dim_v) != (alg.dim, rep.dim_v):
        raise DocumentError("cocycle dimensions do not match the algebra and representation")
    if rep is not None and "algebra" in got:
        api.verify_representation(alg, rep)


def _load(cmd: Command, args) -> list:
    """The command's documents, decoded in argument order and gated, one value per Doc."""
    found = {doc.arg: [] for doc in cmd.documents}
    decoded = []
    for doc, parsed in _parsed(cmd, args):
        obj = ROLES[doc.role](parsed)
        found[doc.arg].append(obj)
        decoded.append((doc.role, obj))
    _gate(decoded)
    return [found[doc.arg] if doc.nargs == "*" else (found[doc.arg] or [None])[0]
            for doc in cmd.documents]


def _emit(doc: dict) -> None:
    sys.stdout.write(docs.dumps(doc))


def _finish(result) -> int:
    if isinstance(result, Report):
        _emit({
            "ok": result.ok,
            "subject": result.subject,
            "violations": [
                {"law": v.law, "at": list(v.at), "residual": v.rendered()}
                for v in result.violations
            ],
        })
        for v in result.violations:
            sys.stderr.write(v.describe() + "\n")
        return PASS if result.ok else FAIL
    if isinstance(result, dict):
        result = Exit(result, PASS)
    if result.doc is not None:
        _emit(result.doc)
    if result.note:
        sys.stderr.write(result.note + "\n")
    return result.code


# --- bodies that need more than one expression --------------------------------


def _special(args, table, rep) -> dict:
    conds = api.special_condition_report(table, rep)
    return {"conditions": list(conds), "equal": len(set(conds)) == 1}


def _cohomology(args, alg, rep) -> dict:
    spaces = api.cohomology_spaces(alg, rep)
    return {
        "Z2": spaces.z2_dim,
        "B2": spaces.b2_dim,
        "H2": spaces.h2_dim,
        "z2_basis": [docs.encode_cochain2(c) for c in spaces.z2_basis],
        "b2_basis": [docs.encode_cochain2(c) for c in spaces.b2_basis],
        "h2_representatives": [docs.encode_cochain2(c) for c in spaces.h2_representatives],
    }


def _trivialize(args, d):
    step = api.trivialize_step(api.verify_deformation(d), args.order)
    if step is None:
        return Exit({"trivialized": False}, FAIL, f"term at order {args.order} is not a coboundary")
    phi, out = step
    return {
        "trivialized": True,
        "phi": docs.encode_matrix(phi),
        "deformation": docs.encode_deformation(out),
    }


def _rigidity(args, alg, samples) -> Exit:
    samples = [api.verify_deformation(d) for d in samples]
    cert = api.rigidity_certificate(alg, samples, args.order)
    return Exit({
        "h2_dim": cert.h2_dim,
        "order": cert.order,
        "rigid_verified": cert.rigid_verified,
        "eliminations": None if cert.eliminations is None else [
            [docs.encode_matrix(phi) for phi in run] for run in cert.eliminations
        ],
    }, PASS if cert.rigid_verified else FAIL)


def _extract(args, ext, section) -> dict:
    if section is not None:
        section = docs.decode_matrix(ext.field, section)
    theta, rep = api.extract_cocycle(ext, section)
    return {"theta": docs.encode_cochain2(theta), "rep": docs.encode_representation(rep)}


def _iso(args, ext1, ext2):
    try:
        zeta = api.are_isomorphic(ext1, ext2)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if zeta is None:
        return Exit({"isomorphic": False}, FAIL, "cocycles are not cohomologous")
    return {"isomorphic": True, "zeta": docs.encode_matrix(zeta)}


def _classify(args, alg, rep) -> dict:
    classes = api.classify_extensions(alg, rep)
    return {
        "h2_dim": len(classes),
        "classes": [
            {"theta": docs.encode_cochain2(theta), "extension": docs.encode_extension(ext)}
            for theta, ext in classes
        ],
    }


def _search(args, context, rep):
    """The documents are checked before the space is sized: the context here,
    its dimensions by the search function before it sizes the space.  So the
    size is printed once the search has run."""
    spec = api.SearchSpec(
        kind=args.kind,
        dim=args.dim,
        p=args.prime,
        dim_v=args.dim_v,
        exhaustive=not args.random,
        samples=args.random or 0,
        max_results=args.max_results,
        seed=args.seed,
    )
    if args.kind != "algebra":
        if context is None:
            raise DocumentError(f"search kind {args.kind!r} needs a context algebra document")
        if context.field != PrimeField(spec.p):
            raise DocumentError("context algebra must live over the searched prime field")
        if args.kind == "o-operator" and rep is None:
            raise DocumentError("o-operator search needs a representation document")
    try:
        if args.kind == "algebra":
            results = [docs.encode_algebra(t) for t in api.search_algebras(spec)]
        elif args.kind == "representation":
            results = [docs.encode_representation(r)
                       for r in api.search_representations(spec, context)]
        elif args.kind == "o-operator":
            results = [docs.encode_o_operator(t)
                       for t in api.search_o_operators(spec, context, rep)]
        else:
            results = [
                docs.encode_bilinear_form(b)
                for b in api.search_bilinear_forms(spec, context, strict_skew=args.strict_skew)
            ]
    except api.SearchRefused as exc:
        return Exit(None, FAIL, f"refused: {exc}")
    size = api.space_size(spec)
    sys.stderr.write(f"search space: {size} candidates\n")
    return {"space": size, "count": len(results), "results": results}


ALGEBRA, TABLE, REP = Doc("algebra", "algebra"), Doc("algebra", "table"), Doc("rep", "rep")
DEFORMATION, DENDRIFORM = Doc("deformation", "deformation"), Doc("dendriform", "dendriform")
O_CONTEXT = (ALGEBRA, REP, Doc("operator", "operator"))

COMMANDS = (
    Command("check", "verify the anti-pre-Lie laws of a table",
            lambda args, table: api.check_anti_pre_lie(table), (TABLE,)),
    Command("lie", "commutator bracket of a verified algebra",
            lambda args, alg: docs.encode_lie(api.sub_adjacent_lie(alg)), (ALGEBRA,)),
    Command("rep-check", "verify the representation axioms",
            lambda args, table, rep: api.check_representation(table, rep), (TABLE, REP)),
    Command("semidirect", "semidirect product algebra on A + V",
            lambda args, alg, rep: docs.encode_algebra(api.semidirect_product(alg, rep)),
            (ALGEBRA, REP)),
    Command("dual", "dual representation on V*",
            lambda args, rep: docs.encode_representation(api.dual_representation(rep)), (REP,)),
    Command("special", "three-way equivalence report", _special, (TABLE, REP)),
    Command("cohomology", "Z2, B2 and H2 with representatives", _cohomology, (ALGEBRA, REP)),
    Command("dend-check", "verify the anti-L-dendriform laws",
            lambda args, d: api.check_anti_L_dendriform(d), (DENDRIFORM,)),
    Command("assoc", "associated anti-pre-Lie algebra of a dendriform structure",
            lambda args, d: docs.encode_algebra(api.associated_anti_pre_lie(d)), (DENDRIFORM,)),
    Command("o-check", "verify the operator relation",
            lambda args, alg, rep, t: api.check_O_operator(alg, rep, t), O_CONTEXT),
    Command("o-induce", "dendriform structure induced on V",
            lambda args, alg, rep, t: docs.encode_dendriform(api.induced_dendriform(alg, rep, t)),
            O_CONTEXT),
    Command("o-compat", "compatible structure on A from an invertible operator",
            lambda args, alg, rep, t: docs.encode_dendriform(
                api.compatible_from_invertible_O(alg, rep, t)),
            O_CONTEXT),
    Command("from-form", "compatible structure from an invariant bilinear form",
            lambda args, alg, b: docs.encode_dendriform(
                api.dendriform_from_bilinear_form(alg, b, strict_skew=args.strict_skew)),
            (ALGEBRA, Doc("form", "form")),
            (("--strict-skew", {"action": "store_true", "help": "also require B(x,y) = -B(y,x)"}),)),
    Command("deform-check", "verify the deformation equations",
            lambda args, d: api.check_deformation(d), (DEFORMATION,)),
    Command("infinitesimal", "degree-1 cocycle of a verified deformation",
            lambda args, d: docs.encode_cochain2(api.infinitesimal(api.verify_deformation(d))),
            (DEFORMATION,)),
    Command("apply-iso", "pull a deformation back along a truncated isomorphism",
            lambda args, d, iso: docs.encode_deformation(
                api.apply_isomorphism(api.verify_deformation(d), iso)),
            (DEFORMATION, Doc("isomorphism", "isomorphism"))),
    Command("trivialize", "flatten the first nonzero order if it is exact", _trivialize,
            (DEFORMATION,), (("order", {"type": int}),)),
    Command("rigidity", "H2 computation plus sample trivializations", _rigidity,
            (ALGEBRA, Doc("deformations", "deformation", "*")),
            (("--order", {"type": int, "default": 3}),)),
    Command("extend", "build an abelian extension from a 2-cocycle",
            lambda args, alg, rep, theta: docs.encode_extension(
                api.build_extension(alg, rep, theta)),
            (ALGEBRA, Doc("rep", "rep", "?"), Doc("theta", "theta", "?")), bundled=True),
    Command("extract", "cocycle and representation of an extension", _extract,
            (Doc("extension", "extension"), Doc("section", "section", "?"))),
    Command("iso", "test two extensions for isomorphism", _iso,
            (Doc("extension1", "extension"), Doc("extension2", "extension"))),
    Command("classify", "one extension per second-cohomology class", _classify, (ALGEBRA, REP)),
    Command("search", "enumerate verified instances over a prime field", _search,
            (Doc("--context", "table", help="context algebra document"),
             Doc("--rep", "rep", help="context representation document")),
            (("--kind", {"required": True,
                         "choices": ["algebra", "representation", "o-operator", "bilinear-form"]}),
             ("--dim", {"type": int, "required": True}),
             ("--prime", {"type": int, "required": True, "choices": [2, 3, 5]}),
             ("--dim-v", {"type": int, "default": 0}),
             ("--max-results", {"type": int}),
             ("--random", {"type": int, "default": 0,
                           "help": "sample this many candidates instead of exhausting the space"}),
             ("--seed", {"type": int, "default": 0}),
             ("--strict-skew", {"action": "store_true"}))),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of the named command alone, or of every command if none is
    named; its usage lists every command either way.  Only the full parser can
    report an unknown or missing command, which name the default metavar."""
    parser = argparse.ArgumentParser(
        prog="antiprelie",
        description="Exact verification and construction tools for anti-pre-Lie algebras.",
    )
    chosen = [cmd for cmd in COMMANDS if cmd.name == command]
    listed = {"metavar": "{" + ",".join(cmd.name for cmd in COMMANDS) + "}"} if chosen else {}
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for cmd in chosen or COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(command_entry=cmd)
        # Documents given by flag follow the other options, as in the help text.
        flagged = [d for d in cmd.documents if d.arg.startswith("-")]
        for doc in cmd.documents:
            if doc not in flagged:
                p.add_argument(doc.arg, nargs=doc.nargs, default=[] if doc.nargs == "*" else None)
        for arg, keywords in cmd.options:
            p.add_argument(arg, **keywords)
        for doc in flagged:
            p.add_argument(doc.arg, default=None, help=doc.help)
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    cmd = args.command_entry
    try:
        return _finish(cmd.body(args, *_load(cmd, args)))
    except DocumentError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return BAD_INPUT
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
