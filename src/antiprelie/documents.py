"""JSON interchange for every domain type.

Documents are tagged objects ({"kind": ...}) whose scalars are canonical
strings, never JSON numbers: rationals as "p/q" or "p" in lowest terms,
prime-field values as "k mod p".  Matrices and tensors are nested row-major
arrays.  Printing always emits canonical form, so parse(print(x)) = x.
Each decoder imports the module of the class it builds, so a command loads
only the modules of the documents it reads.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Union

from .algebra import AntiPreLieAlgebra, LieTable, MultTable
from .fields import Field, field_from_json
from .linalg import Matrix, Tensor3

if TYPE_CHECKING:
    from .cohomology import Cochain2
    from .deformation import TruncatedDeformation, TruncatedIsomorphism
    from .dendriform import AntiLDendriform
    from .extension import AbelianExtension
    from .representation import Representation

KIND_ALGEBRA = "anti-pre-lie"
KIND_REPRESENTATION = "representation"
KIND_COCHAIN2 = "cochain2"
KIND_DENDRIFORM = "dendriform"
KIND_O_OPERATOR = "o-operator"
KIND_BILINEAR_FORM = "bilinear-form"
KIND_DEFORMATION = "deformation"
KIND_ISOMORPHISM = "isomorphism"
KIND_EXTENSION = "extension"
KIND_LIE = "lie-table"


class DocumentError(ValueError):
    """Malformed or incompatible input document."""


def dumps(doc: dict) -> str:
    """The canonical text of a document: sorted keys, one line.  The encoders
    build every document afresh from immutable values, so it holds no cycle,
    and the writer does not look for one (a cyclic dict, which no encoder
    makes, raises RecursionError instead of ValueError)."""
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "), check_circular=False) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top-level document must be a JSON object")
    return doc


def _expect(doc: dict, kind: str) -> None:
    if doc.get("kind") != kind:
        raise DocumentError(f"expected a {kind!r} document, got kind {doc.get('kind')!r}")


def _field_of(doc: dict) -> Field:
    if "field" not in doc:
        raise DocumentError("document is missing its field descriptor")
    try:
        return field_from_json(doc["field"])
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def require_same_field(*fields: Field) -> Field:
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise DocumentError("documents live over different fields")
    return first


def _strings(f: Field, rows, width: int, zero: str) -> list:
    """Sparse rows {index: value} as lists of width scalar strings, zero
    elsewhere, each a list of its own; only the nonzero entries are rendered."""
    out = []
    for row in rows:
        strings = [zero] * width
        for k, x in row.items():
            strings[k] = f.to_str(x)
        out.append(strings)
    return out


def encode_matrix(m: Matrix) -> list:
    return _strings(m.field, m.nonzero, m.cols, m.field.to_str(m.field.zero()))


def _parsed(f: Field, strings, zero: str) -> dict:
    """The nonzero scalars {index: value} of strings; zero is not parsed."""
    return {k: x for k, s in enumerate(strings) if s != zero and (x := f.parse(s))}


def decode_matrix(field: Field, doc, rows: Optional[int] = None, cols: Optional[int] = None) -> Matrix:
    """A bad scalar is reported before a bad shape."""
    if not isinstance(doc, list) or any(not isinstance(r, list) for r in doc):
        raise DocumentError("matrix must be a nested array of scalar strings")
    zero = field.to_str(field.zero())
    try:
        stored = [_parsed(field, r, zero) for r in doc]
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"bad scalar in matrix: {exc}") from exc
    widths = {len(r) for r in doc}
    if len(widths) > 1:
        raise DocumentError("entries shape is ragged")
    width = max(widths, default=0 if cols is None else cols)
    if rows is not None and len(doc) != rows or cols is not None and width != cols:
        raise DocumentError(f"matrix has shape {len(doc)}x{width}, expected {rows}x{cols}")
    return Matrix(field, len(doc), width, stored)


def encode_tensor3(t: Tensor3) -> list:
    """The nested lists of scalar strings, written from the stored fibers:
    every place gets a list of its own, so editing one place of the document
    changes no other, and only the nonzero entries are rendered."""
    f = t.field
    zero = f.to_str(f.zero())
    return [_strings(f, line, t.dims[2], zero) for line in t.fibers]


def decode_tensor3(field: Field, doc, dims: tuple) -> Tensor3:
    """A bad scalar is reported before a bad shape."""
    if not isinstance(doc, list):
        raise DocumentError("tensor must be a nested array of scalar strings")
    zero = field.to_str(field.zero())
    try:
        fibers = [[_parsed(field, fiber, zero) for fiber in plane] for plane in doc]
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"bad scalar in tensor: {exc}") from exc
    # Every plane and fiber was iterated above, so each has a length.
    planes, lines = {len(plane) for plane in doc}, {len(fiber) for plane in doc for fiber in plane}
    if len(planes) > 1 or len(lines) > 1:
        raise DocumentError("entries shape is ragged")
    got = (len(doc), max(planes, default=0), max(lines, default=0))
    if got != dims:
        raise DocumentError(f"tensor has dims {got}, expected {dims}")
    return Tensor3(field, dims, fibers)


def encode_algebra(table_or_alg: Union[MultTable, AntiPreLieAlgebra]) -> dict:
    table = table_or_alg.table if isinstance(table_or_alg, AntiPreLieAlgebra) else table_or_alg
    return {
        "kind": KIND_ALGEBRA,
        "field": table.field.to_json(),
        "dim": table.dim,
        "mult": encode_tensor3(table.tensor),
    }


def decode_algebra(doc: dict) -> MultTable:
    _expect(doc, KIND_ALGEBRA)
    field = _field_of(doc)
    n = _int(doc, "dim")
    return MultTable(decode_tensor3(field, doc.get("mult"), (n, n, n)))


def _int(doc: dict, key: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise DocumentError(f"{key!r} must be a nonnegative integer")
    return v


def encode_lie(lie: LieTable) -> dict:
    return {
        "kind": KIND_LIE,
        "field": lie.field.to_json(),
        "dim": lie.dim,
        "bracket": encode_tensor3(lie.tensor),
    }


def encode_representation(rep: Representation) -> dict:
    return {
        "kind": KIND_REPRESENTATION,
        "field": rep.field.to_json(),
        "dim_a": rep.dim_a,
        "dim_v": rep.dim_v,
        "rho": [encode_matrix(m) for m in rep.rho],
        "mu": [encode_matrix(m) for m in rep.mu],
    }


def decode_representation(doc: dict) -> Representation:
    from .representation import Representation

    _expect(doc, KIND_REPRESENTATION)
    field = _field_of(doc)
    n = _int(doc, "dim_a")
    m = _int(doc, "dim_v")
    rho = doc.get("rho")
    mu = doc.get("mu")
    if not isinstance(rho, list) or not isinstance(mu, list) or len(rho) != n or len(mu) != n:
        raise DocumentError("rho and mu must each list one matrix per algebra basis vector")
    try:
        return Representation(
            n,
            m,
            tuple(decode_matrix(field, x, m, m) for x in rho),
            tuple(decode_matrix(field, x, m, m) for x in mu),
            field,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def encode_cochain2(c: Cochain2) -> dict:
    return {
        "kind": KIND_COCHAIN2,
        "field": c.field.to_json(),
        "dim_a": c.dim_a,
        "dim_v": c.dim_v,
        "values": encode_tensor3(c.tensor),
    }


def decode_cochain2(doc: dict) -> Cochain2:
    from .cohomology import Cochain2

    _expect(doc, KIND_COCHAIN2)
    field = _field_of(doc)
    n = _int(doc, "dim_a")
    m = _int(doc, "dim_v")
    return Cochain2(decode_tensor3(field, doc.get("values"), (n, n, m)))


def encode_dendriform(d: AntiLDendriform) -> dict:
    return {
        "kind": KIND_DENDRIFORM,
        "field": d.field.to_json(),
        "dim": d.dim,
        "right": encode_tensor3(d.right.tensor),
        "left": encode_tensor3(d.left.tensor),
    }


def decode_dendriform(doc: dict) -> AntiLDendriform:
    from .dendriform import AntiLDendriform

    _expect(doc, KIND_DENDRIFORM)
    field = _field_of(doc)
    n = _int(doc, "dim")
    return AntiLDendriform(
        MultTable(decode_tensor3(field, doc.get("right"), (n, n, n))),
        MultTable(decode_tensor3(field, doc.get("left"), (n, n, n))),
    )


def encode_o_operator(t: Matrix) -> dict:
    return {
        "kind": KIND_O_OPERATOR,
        "field": t.field.to_json(),
        "matrix": encode_matrix(t),
    }


def decode_o_operator(doc: dict) -> Matrix:
    _expect(doc, KIND_O_OPERATOR)
    return decode_matrix(_field_of(doc), doc.get("matrix"))


def encode_bilinear_form(b: Matrix) -> dict:
    return {
        "kind": KIND_BILINEAR_FORM,
        "field": b.field.to_json(),
        "matrix": encode_matrix(b),
    }


def decode_bilinear_form(doc: dict) -> Matrix:
    _expect(doc, KIND_BILINEAR_FORM)
    b = decode_matrix(_field_of(doc), doc.get("matrix"))
    if not b.is_square():
        raise DocumentError("bilinear form matrix must be square")
    return b


def encode_deformation(d: TruncatedDeformation) -> dict:
    return {
        "kind": KIND_DEFORMATION,
        "base": encode_algebra(d.base),
        "order": d.order,
        "terms": [encode_tensor3(t.tensor) for t in d.terms],
    }


def decode_deformation(doc: dict) -> TruncatedDeformation:
    from .deformation import TruncatedDeformation

    _expect(doc, KIND_DEFORMATION)
    base_doc = doc.get("base")
    if not isinstance(base_doc, dict):
        raise DocumentError("deformation document needs a base algebra document")
    table = decode_algebra(base_doc)
    base = AntiPreLieAlgebra.verify(table)
    order = _int(doc, "order")
    terms = doc.get("terms")
    if not isinstance(terms, list) or len(terms) != order:
        raise DocumentError("terms must list exactly `order` coefficient tensors")
    n = table.dim
    return TruncatedDeformation(
        base,
        tuple(MultTable(decode_tensor3(table.field, t, (n, n, n))) for t in terms),
    )


def encode_isomorphism(iso: TruncatedIsomorphism, field: Field) -> dict:
    return {
        "kind": KIND_ISOMORPHISM,
        "field": field.to_json(),
        "order": iso.order,
        "phis": [encode_matrix(p) for p in iso.phis],
    }


def decode_isomorphism(doc: dict) -> TruncatedIsomorphism:
    from .deformation import TruncatedIsomorphism

    _expect(doc, KIND_ISOMORPHISM)
    field = _field_of(doc)
    order = _int(doc, "order")
    phis = doc.get("phis")
    if not isinstance(phis, list) or len(phis) != order:
        raise DocumentError("phis must list exactly `order` square matrices")
    return TruncatedIsomorphism(tuple(decode_matrix(field, p) for p in phis))


def encode_extension(ext: AbelianExtension) -> dict:
    return {
        "kind": KIND_EXTENSION,
        "total": encode_algebra(ext.total),
        "iota": encode_matrix(ext.iota),
        "p": encode_matrix(ext.proj),
        "section": encode_matrix(ext.section),
    }


def decode_extension(doc: dict) -> AbelianExtension:
    """Accept an externally supplied extension and normalize it.

    The document carries the total algebra plus iota, p and a section; all
    exactness and abelianness invariants are verified during normalization.
    """
    from .extension import normalize_extension

    _expect(doc, KIND_EXTENSION)
    total_doc = doc.get("total")
    if not isinstance(total_doc, dict):
        raise DocumentError("extension document needs a total algebra document")
    table = decode_algebra(total_doc)
    field = table.field
    iota = decode_matrix(field, doc.get("iota"))
    proj = decode_matrix(field, doc.get("p"))
    section = decode_matrix(field, doc.get("section")) if "section" in doc else None
    total = AntiPreLieAlgebra.verify(table)
    return normalize_extension(total, iota, proj, section)
