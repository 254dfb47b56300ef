import json

import pytest

from antiprelie import documents as docs
from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.cli import main
from antiprelie.cohomology import Cochain2, cohomology_spaces
from antiprelie.deformation import TruncatedDeformation, TruncatedIsomorphism, apply_isomorphism
from antiprelie.dendriform import AntiLDendriform
from antiprelie.extension import build_extension
from antiprelie.fields import QQ
from antiprelie.linalg import Matrix
from antiprelie.representation import Representation, regular_representation

from conftest import bump_matrix, q_table


@pytest.fixture()
def write_doc(tmp_path):
    counter = [0]

    def _write(doc):
        counter[0] += 1
        path = tmp_path / f"doc{counter[0]}.json"
        path.write_text(docs.dumps(doc))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(out):
    return json.loads(out)


def test_check_pass_and_fail(write_doc, capsys, named_algebras, abar2_table):
    good = write_doc(docs.encode_algebra(named_algebras["a2"]))
    code, out, _ = run_cli(capsys, "check", good)
    assert code == 0
    assert out_json(out)["ok"] is True

    bad = write_doc(docs.encode_algebra(abar2_table))
    code, out, err = run_cli(capsys, "check", bad)
    assert code == 1
    payload = out_json(out)
    assert payload["ok"] is False
    assert payload["violations"][0]["at"] == [0, 1, 0]
    assert "exchange" in err


def _failing_report_docs(command, named_algebras):
    """Documents whose check fails at several places, some with two or more laws."""
    a2 = named_algebras["a2"]
    if command == "check":
        return [docs.encode_algebra(q_table(3, {(0, 1, 1): 1, (1, 2, 2): 1}))]
    if command == "rep-check":
        reg = regular_representation(a2)
        rep = Representation(2, 2, reg.rho, (bump_matrix(reg.mu[0], 1, 1), reg.mu[1]))
        return [docs.encode_algebra(a2), docs.encode_representation(rep)]
    if command == "dend-check":
        return [docs.encode_dendriform(AntiLDendriform(a2.table, q_table(2, {(0, 1, 0): 1})))]
    base = AntiPreLieAlgebra.verify(q_table(3, {(0, 1, 1): 1}))
    return [docs.encode_deformation(TruncatedDeformation(base, (q_table(3, {(0, 2, 0): 1}),)))]


FAILING_ORDER = {
    "check": (
        ("exchange", "cyclic"),
        [("exchange", [0, 1, 2]), ("cyclic", [0, 1, 2]), ("cyclic", [0, 2, 1]),
         ("exchange", [1, 0, 2]), ("cyclic", [1, 0, 2]), ("cyclic", [1, 2, 0]),
         ("cyclic", [2, 0, 1]), ("cyclic", [2, 1, 0])],
    ),
    "rep-check": (
        ("rep-rho", "rep-mixed", "rep-mu"),
        [("rep-mixed", [0, 0]), ("rep-mu", [0, 1]), ("rep-mixed", [1, 0]), ("rep-mu", [1, 0])],
    ),
    "dend-check": (
        ("dendriform-1", "dendriform-2", "dendriform-3"),
        [("dendriform-2", [0, 0, 1]), ("dendriform-1", [0, 1, 1]), ("dendriform-3", [0, 1, 1]),
         ("dendriform-1", [1, 0, 1]), ("dendriform-2", [1, 0, 1]), ("dendriform-3", [1, 0, 1])],
    ),
    "deform-check": (
        ("deformation-exchange", "deformation-cyclic"),
        [("deformation-cyclic", [1, 0, 1, 2]), ("deformation-exchange", [1, 0, 2, 1]),
         ("deformation-cyclic", [1, 0, 2, 1]), ("deformation-cyclic", [1, 1, 0, 2]),
         ("deformation-cyclic", [1, 1, 2, 0]), ("deformation-exchange", [1, 2, 0, 1]),
         ("deformation-cyclic", [1, 2, 0, 1]), ("deformation-cyclic", [1, 2, 1, 0])],
    ),
}


@pytest.mark.parametrize("command", list(FAILING_ORDER))
def test_failing_report_violation_order(command, write_doc, capsys, named_algebras):
    """Violations come lexicographically in `at`, then in law order within one `at`,
    on standard output and standard error alike."""
    paths = [write_doc(doc) for doc in _failing_report_docs(command, named_algebras)]
    code, out, err = run_cli(capsys, command, *paths)
    assert code == 1
    got = [(v["law"], v["at"]) for v in out_json(out)["violations"]]
    law_order, expected = FAILING_ORDER[command]
    assert got == sorted(got, key=lambda v: (v[1], law_order.index(v[0])))
    assert got == expected
    assert [line.split(" at ")[0] for line in err.splitlines()] == [law for law, _ in got]


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "input error" in err
    code, _, _ = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_lie_output(write_doc, capsys, named_algebras):
    path = write_doc(docs.encode_algebra(named_algebras["a2"]))
    code, out, _ = run_cli(capsys, "lie", path)
    assert code == 0
    payload = out_json(out)
    assert payload["kind"] == "lie-table"
    assert payload["bracket"][0][1] == ["0", "1"]
    assert payload["bracket"][1][0] == ["0", "-1"]


def test_rep_check_and_semidirect(write_doc, capsys, named_algebras):
    a2 = named_algebras["a2"]
    alg = write_doc(docs.encode_algebra(a2))
    rep = write_doc(docs.encode_representation(regular_representation(a2)))
    code, out, _ = run_cli(capsys, "rep-check", alg, rep)
    assert code == 0
    code, out, _ = run_cli(capsys, "semidirect", alg, rep)
    assert code == 0
    assert out_json(out)["dim"] == 4


def test_dual_round_trip(write_doc, capsys, named_algebras):
    a2 = named_algebras["a2"]
    rep_doc = docs.encode_representation(regular_representation(a2))
    path = write_doc(rep_doc)
    code, out, _ = run_cli(capsys, "dual", path)
    assert code == 0
    dual_path = path + ".dual"
    with open(dual_path, "w") as fh:
        fh.write(out)
    code, out2, _ = run_cli(capsys, "dual", dual_path)
    assert code == 0
    assert out_json(out2) == rep_doc


def test_special_booleans(write_doc, capsys, named_algebras):
    alg = named_algebras["idem2"]
    a = write_doc(docs.encode_algebra(alg))
    r = write_doc(docs.encode_representation(regular_representation(alg)))
    code, out, _ = run_cli(capsys, "special", a, r)
    assert code == 0
    payload = out_json(out)
    assert payload == {"conditions": [False, False, False], "equal": True}


def test_cohomology_fixture(write_doc, capsys, named_algebras):
    a = write_doc(docs.encode_algebra(named_algebras["zero2"]))
    r = write_doc(docs.encode_representation(Representation.zero(QQ, 2, 1)))
    code, out, _ = run_cli(capsys, "cohomology", a, r)
    assert code == 0
    payload = out_json(out)
    assert (payload["Z2"], payload["B2"], payload["H2"]) == (4, 0, 4)


def test_field_mismatch_is_input_error(write_doc, capsys, named_algebras, f3_algebras):
    a = write_doc(docs.encode_algebra(named_algebras["a2"]))
    rep3 = Representation(
        2, 2, f3_algebras["a2@3"].left_matrices, f3_algebras["a2@3"].right_matrices
    )
    r = write_doc(docs.encode_representation(rep3))
    code, _, err = run_cli(capsys, "rep-check", a, r)
    assert code == 2
    assert "field" in err


def test_dendriform_commands(write_doc, capsys, named_algebras):
    a2t = named_algebras["a2"].table
    d = AntiLDendriform(a2t, MultTable.zero(QQ, 2))
    path = write_doc(docs.encode_dendriform(d))
    code, out, _ = run_cli(capsys, "dend-check", path)
    assert code == 0
    code, out, _ = run_cli(capsys, "assoc", path)
    assert code == 0
    assert out_json(out)["mult"] == docs.encode_algebra(named_algebras["a2"])["mult"]


def test_o_operator_commands(write_doc, capsys, named_algebras):
    a2 = named_algebras["a2"]
    alg = write_doc(docs.encode_algebra(a2))
    rep = write_doc(docs.encode_representation(regular_representation(a2)))
    zero_op = write_doc(docs.encode_o_operator(Matrix.zero(QQ, 2, 2)))
    code, _, _ = run_cli(capsys, "o-check", alg, rep, zero_op)
    assert code == 0
    code, out, _ = run_cli(capsys, "o-induce", alg, rep, zero_op)
    assert code == 0
    assert out_json(out)["kind"] == "dendriform"
    ident_op = write_doc(docs.encode_o_operator(Matrix.identity(QQ, 2)))
    code, _, _ = run_cli(capsys, "o-check", alg, rep, ident_op)
    assert code == 1
    code, _, _ = run_cli(capsys, "o-compat", alg, rep, ident_op)
    assert code == 1


def test_from_form_commands(write_doc, capsys, named_algebras):
    comm2 = named_algebras["comm2"]
    alg = write_doc(docs.encode_algebra(comm2))
    good = write_doc(docs.encode_bilinear_form(
        Matrix.from_rows(QQ, [[QQ.parse("-2"), QQ.parse("-2")], [QQ.parse("2"), QQ.parse("0")]])
    ))
    code, out, _ = run_cli(capsys, "from-form", alg, good)
    assert code == 0
    a2 = write_doc(docs.encode_algebra(named_algebras["a2"]))
    ident = write_doc(docs.encode_bilinear_form(Matrix.identity(QQ, 2)))
    code, _, _ = run_cli(capsys, "from-form", a2, ident)
    assert code == 1


def test_deformation_commands(write_doc, capsys, named_algebras):
    a2 = named_algebras["a2"]
    d = TruncatedDeformation.trivial(a2, 2)
    dpath = write_doc(docs.encode_deformation(d))
    code, _, _ = run_cli(capsys, "deform-check", dpath)
    assert code == 0
    code, out, _ = run_cli(capsys, "infinitesimal", dpath)
    assert code == 0
    assert out_json(out)["kind"] == "cochain2"
    phi = Matrix.from_rows(QQ, [[QQ.parse("1"), QQ.parse("0")], [QQ.parse("1"), QQ.parse("1")]])
    iso = TruncatedIsomorphism((phi, Matrix.zero(QQ, 2, 2)))
    ipath = write_doc(docs.encode_isomorphism(iso, QQ))
    code, out, _ = run_cli(capsys, "apply-iso", dpath, ipath)
    assert code == 0
    moved = out_json(out)
    mpath = write_doc(moved)
    code, out, _ = run_cli(capsys, "trivialize", mpath, "1")
    assert code == 0
    assert out_json(out)["trivialized"] is True


def test_trivialize_failure_exit(write_doc, capsys, named_algebras):
    z2 = named_algebras["zero2"]
    a2 = named_algebras["a2"]
    d = TruncatedDeformation(z2, (a2.table,))
    path = write_doc(docs.encode_deformation(d))
    code, out, _ = run_cli(capsys, "trivialize", path, "1")
    assert code == 1
    assert out_json(out)["trivialized"] is False


def test_rigidity_command(write_doc, capsys, named_algebras):
    rigid = write_doc(docs.encode_algebra(named_algebras["rigid2"]))
    code, out, _ = run_cli(capsys, "rigidity", rigid, "--order", "2")
    assert code == 0
    assert out_json(out)["h2_dim"] == 0
    zero = write_doc(docs.encode_algebra(named_algebras["zero2"]))
    code, out, _ = run_cli(capsys, "rigidity", zero, "--order", "2")
    assert code == 1
    assert out_json(out)["h2_dim"] == 8


def test_extension_commands(write_doc, capsys, named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    theta = cohomology_spaces(a2, reg).h2_representatives[0]
    alg = write_doc(docs.encode_algebra(a2))
    rep = write_doc(docs.encode_representation(reg))
    th = write_doc(docs.encode_cochain2(theta))
    code, out, _ = run_cli(capsys, "extend", alg, rep, th)
    assert code == 0
    ext_doc = out_json(out)
    assert ext_doc["kind"] == "extension"
    epath = write_doc(ext_doc)
    code, out, _ = run_cli(capsys, "extract", epath)
    assert code == 0
    extracted = out_json(out)
    assert extracted["theta"]["values"] == docs.encode_cochain2(theta)["values"]
    code, out, _ = run_cli(capsys, "iso", epath, epath)
    assert code == 0
    assert out_json(out)["isomorphic"] is True

    combined = write_doc({
        "algebra": docs.encode_algebra(a2),
        "rep": docs.encode_representation(reg),
        "theta": docs.encode_cochain2(theta),
    })
    code, out, _ = run_cli(capsys, "extend", combined)
    assert code == 0
    assert out_json(out) == ext_doc


def test_iso_negative_exit(write_doc, capsys, named_algebras):
    z2 = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 1)
    from antiprelie.linalg import Tensor3
    t1 = Cochain2(Tensor3.from_entries(QQ, [[[QQ.parse("1")], [QQ.parse("0")]], [[QQ.parse("0")], [QQ.parse("0")]]]))
    t2 = Cochain2(Tensor3.from_entries(QQ, [[[QQ.parse("0")], [QQ.parse("1")]], [[QQ.parse("0")], [QQ.parse("0")]]]))
    e1 = write_doc(docs.encode_extension(build_extension(z2, rep, t1)))
    e2 = write_doc(docs.encode_extension(build_extension(z2, rep, t2)))
    code, out, _ = run_cli(capsys, "iso", e1, e2)
    assert code == 1
    assert out_json(out)["isomorphic"] is False


def test_classify_command(write_doc, capsys, named_algebras):
    alg = write_doc(docs.encode_algebra(named_algebras["zero2"]))
    rep = write_doc(docs.encode_representation(Representation.zero(QQ, 2, 1)))
    code, out, _ = run_cli(capsys, "classify", alg, rep)
    assert code == 0
    payload = out_json(out)
    assert payload["h2_dim"] == 4
    assert len(payload["classes"]) == 4


def test_search_command_and_determinism(capsys):
    code, out1, err = run_cli(capsys, "search", "--kind", "algebra", "--dim", "1", "--prime", "2")
    assert code == 0
    assert "2 candidates" in err
    payload = out_json(out1)
    assert payload["count"] == 2
    code, out2, _ = run_cli(capsys, "search", "--kind", "algebra", "--dim", "1", "--prime", "2")
    assert out1 == out2


def test_search_context_commands(write_doc, capsys, f3_algebras):
    table = f3_algebras["a2@3"]
    ctx = write_doc(docs.encode_algebra(table))
    code, out, _ = run_cli(
        capsys, "search", "--kind", "representation", "--dim", "2", "--prime", "3",
        "--dim-v", "1", "--context", ctx, "--max-results", "4",
    )
    assert code == 0
    assert out_json(out)["count"] == 4
    reg = Representation(2, 2, table.left_matrices, table.right_matrices)
    rep = write_doc(docs.encode_representation(reg))
    code, out, _ = run_cli(
        capsys, "search", "--kind", "o-operator", "--dim", "2", "--prime", "3",
        "--dim-v", "2", "--context", ctx, "--rep", rep,
    )
    assert code == 0
    assert out_json(out)["count"] >= 1
    code, out, _ = run_cli(
        capsys, "search", "--kind", "bilinear-form", "--dim", "2", "--prime", "3",
        "--context", ctx,
    )
    assert code == 0


def test_search_refusal_exit(capsys):
    code, _, err = run_cli(capsys, "search", "--kind", "algebra", "--dim", "3", "--prime", "3")
    assert code == 1
    assert "refused" in err


def test_lie_rejects_unverified_table(write_doc, capsys, abar2_table):
    path = write_doc(docs.encode_algebra(abar2_table))
    code, _, err = run_cli(capsys, "lie", path)
    assert code == 1
    assert "verification failed" in err


def test_extract_with_section_file(write_doc, capsys, named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    theta = cohomology_spaces(a2, reg).h2_representatives[0]
    ext = build_extension(a2, reg, theta)
    epath = write_doc(docs.encode_extension(ext))
    rows = [list(r) for r in ext.section.entries]
    rows[2][0] = QQ.parse("1")
    spath = write_doc({"matrix": [[str(x) for x in r] for r in rows]})
    code, out, _ = run_cli(capsys, "extract", epath, spath)
    assert code == 0
    got = out_json(out)
    assert got["theta"]["values"] != docs.encode_cochain2(theta)["values"]
    assert got["rep"] == docs.encode_representation(reg)


def test_rigidity_with_sample_files(write_doc, capsys, named_algebras):
    rigid = named_algebras["rigid2"]
    apath = write_doc(docs.encode_algebra(rigid))
    phi = Matrix.from_rows(QQ, [[QQ.parse("1"), QQ.parse("2")], [QQ.parse("0"), QQ.parse("1")]])
    from antiprelie.deformation import apply_isomorphism

    moved = apply_isomorphism(
        TruncatedDeformation.trivial(rigid, 2), TruncatedIsomorphism((phi, Matrix.zero(QQ, 2, 2)))
    )
    dpath = write_doc(docs.encode_deformation(moved))
    code, out, _ = run_cli(capsys, "rigidity", apath, dpath, "--order", "2")
    assert code == 0
    payload = out_json(out)
    assert payload["rigid_verified"] is True
    assert len(payload["eliminations"]) == 1
    assert len(payload["eliminations"][0]) == 2


@pytest.mark.parametrize("with_sample", [False, True])
def test_rigidity_negative_order_is_input_error(write_doc, capsys, named_algebras, with_sample):
    rigid = named_algebras["rigid2"]
    paths = [write_doc(docs.encode_algebra(rigid))]
    if with_sample:
        phi = Matrix.from_rows(QQ, [[QQ.parse("1"), QQ.parse("2")], [QQ.parse("0"), QQ.parse("1")]])
        moved = apply_isomorphism(TruncatedDeformation.trivial(rigid, 2), TruncatedIsomorphism((phi,)))
        paths.append(write_doc(docs.encode_deformation(moved)))
    code, out, err = run_cli(capsys, "rigidity", *paths, "--order", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_rigidity_order_above_a_sample_is_input_error(write_doc, capsys, named_algebras):
    """An order-1 sample cannot certify order 6: the run is refused, not
    reported as a rigidity certificate through order 6."""
    rigid = named_algebras["rigid2"]
    phi = Matrix.from_rows(QQ, [[QQ.parse("1"), QQ.parse("2")], [QQ.parse("0"), QQ.parse("1")]])
    moved = apply_isomorphism(TruncatedDeformation.trivial(rigid, 1), TruncatedIsomorphism((phi,)))
    paths = [write_doc(docs.encode_algebra(rigid)), write_doc(docs.encode_deformation(moved))]
    code, out, err = run_cli(capsys, "rigidity", *paths, "--order", "6")
    assert code == 2
    assert out == ""
    assert err == "input error: rigidity order 6 exceeds a sample's order 1\n"
    code, out, _ = run_cli(capsys, "rigidity", *paths, "--order", "1")
    assert code == 0
    assert out_json(out)["order"] == 1 and out_json(out)["rigid_verified"] is True


def test_from_form_strict_skew_flag(write_doc, capsys, named_algebras):
    z2 = write_doc(docs.encode_algebra(named_algebras["zero2"]))
    sym = write_doc(docs.encode_bilinear_form(Matrix.identity(QQ, 2)))
    code, _, _ = run_cli(capsys, "from-form", z2, sym)
    assert code == 0
    code, _, _ = run_cli(capsys, "from-form", z2, sym, "--strict-skew")
    assert code == 1
    skew = write_doc(docs.encode_bilinear_form(
        Matrix.from_rows(QQ, [[QQ.parse("0"), QQ.parse("1")], [QQ.parse("-1"), QQ.parse("0")]])
    ))
    code, _, _ = run_cli(capsys, "from-form", z2, skew, "--strict-skew")
    assert code == 0


def test_cohomology_output_byte_identical(write_doc, capsys, named_algebras):
    a2 = named_algebras["a2"]
    alg = write_doc(docs.encode_algebra(a2))
    rep = write_doc(docs.encode_representation(regular_representation(a2)))
    _, out1, _ = run_cli(capsys, "cohomology", alg, rep)
    _, out2, _ = run_cli(capsys, "cohomology", alg, rep)
    assert out1 == out2


def test_apply_iso_field_mismatch_is_input_error(write_doc, capsys, named_algebras):
    """A QQ deformation pulled back along an F3 isomorphism is refused at the field gate."""
    from antiprelie.fields import PrimeField

    d = write_doc(docs.encode_deformation(TruncatedDeformation.trivial(named_algebras["a2"], 1)))
    f3 = PrimeField(3)
    iso = write_doc(docs.encode_isomorphism(TruncatedIsomorphism((Matrix.identity(f3, 2),)), f3))
    code, _, err = run_cli(capsys, "apply-iso", d, iso)
    assert code == 2
    assert err == "input error: documents live over different fields\n"


def test_search_rep_field_mismatch_is_input_error(write_doc, capsys, named_algebras, f3_algebras):
    ctx = write_doc(docs.encode_algebra(f3_algebras["a2@3"]))
    rep = write_doc(docs.encode_representation(regular_representation(named_algebras["a2"])))
    code, _, err = run_cli(
        capsys, "search", "--kind", "o-operator", "--dim", "2", "--prime", "3",
        "--dim-v", "2", "--context", ctx, "--rep", rep,
    )
    assert code == 2
    assert err == "input error: documents live over different fields\n"


def test_search_rep_dimension_mismatch_is_input_error(write_doc, capsys, f3_algebras):
    from antiprelie.fields import PrimeField

    ctx = write_doc(docs.encode_algebra(f3_algebras["a2@3"]))
    rep = write_doc(docs.encode_representation(Representation.zero(PrimeField(3), 1, 2)))
    code, _, err = run_cli(
        capsys, "search", "--kind", "o-operator", "--dim", "2", "--prime", "3",
        "--dim-v", "2", "--context", ctx, "--rep", rep,
    )
    assert code == 2
    assert err == "input error: representation is over a dim-1 algebra, document has dim 2\n"


def test_rigidity_sample_field_mismatch_is_input_error(write_doc, capsys, named_algebras, f3_algebras):
    """Refused before H2 is computed, so a nonzero H2 no longer hides the bad sample."""
    alg = write_doc(docs.encode_algebra(named_algebras["zero2"]))
    f3_base = AntiPreLieAlgebra.verify(f3_algebras["a2@3"])
    sample = write_doc(docs.encode_deformation(TruncatedDeformation.trivial(f3_base, 1)))
    code, out, err = run_cli(capsys, "rigidity", alg, sample, "--order", "1")
    assert code == 2
    assert out == ""
    assert err == "input error: documents live over different fields\n"


@pytest.mark.parametrize("dim, prime", [(25, "2"), (200, "5")])
def test_search_refuses_oversized_space_quickly(capsys, dim, prime):
    """The refusal comes before p**cells is computed or printed."""
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "search", "--kind", "algebra", "--dim", str(dim),
                             "--prime", prime)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("refused: ")
    assert "Traceback" not in err


def test_readme_lists_every_subcommand():
    """The command-line block of the README names every subcommand the parser has."""
    import re
    from pathlib import Path

    from antiprelie.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    listed = set(re.findall(r"^antiprelie ([a-z-]+)", block, flags=re.M))
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == listed


def test_extend_combined_document_with_non_object_parts(write_doc, capsys):
    path = write_doc({"algebra": "a2", "rep": 1, "theta": []})
    code, out, err = run_cli(capsys, "extend", path)
    assert code == 2
    assert out == ""
    assert err == "input error: combined build document needs algebra, rep and theta\n"


def test_dual_of_dim0_representation(write_doc, capsys):
    """A representation of a dim-0 algebra has no matrices; its document still
    names its field, and `dual` writes it back unchanged."""
    rep_doc = {"kind": "representation", "field": {"type": "rational"},
               "dim_a": 0, "dim_v": 2, "rho": [], "mu": []}
    code, out, err = run_cli(capsys, "dual", write_doc(rep_doc))
    assert (code, err) == (0, "")
    assert out_json(out) == rep_doc


def test_dim0_representation_field_mismatch_is_input_error(write_doc, capsys):
    from antiprelie.fields import PrimeField

    alg = write_doc(docs.encode_algebra(MultTable.zero(QQ, 0)))
    rep = write_doc(docs.encode_representation(Representation.zero(PrimeField(3), 0, 1)))
    code, out, err = run_cli(capsys, "rep-check", alg, rep)
    assert (code, out) == (2, "")
    assert err == "input error: documents live over different fields\n"


@pytest.mark.parametrize("dim, prime", [(25, "2"), (200, "5")])
def test_search_random_refuses_unprintable_space(capsys, dim, prime):
    """A sampled search over a space whose size has more than 4300 digits is
    refused before the size is computed or printed."""
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "search", "--kind", "algebra", "--dim", str(dim),
                             "--prime", prime, "--random", "5")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (f"refused: search space has {prime}**{dim ** 3} candidates; "
                   "a reported size has at most 4300 digits\n")


def _dim8_tower_docs(write_doc, named_algebras):
    """Paths of the dim-8 semidirect tower a2 -> dim 4 -> dim 8 and its regular rep."""
    from antiprelie.representation import semidirect_product

    a2 = named_algebras["a2"]
    a4 = semidirect_product(a2, regular_representation(a2))
    a8 = semidirect_product(a4, regular_representation(a4))
    return (write_doc(docs.encode_algebra(a8)),
            write_doc(docs.encode_representation(regular_representation(a8))))


def test_cohomology_dim8_tower_regular(write_doc, capsys, named_algebras):
    """The dim-8 semidirect tower a2 -> dim 4 -> dim 8 over its regular rep:
    the dimensions and the exact bytes of the output (d2 is 8192 x 512)."""
    import hashlib

    alg, rep = _dim8_tower_docs(write_doc, named_algebras)
    code, out, err = run_cli(capsys, "cohomology", alg, rep)
    assert (code, err) == (0, "")
    payload = out_json(out)
    assert (payload["Z2"], payload["B2"], payload["H2"]) == (116, 56, 60)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "545acd9341827676c1601c5a17e77bea886c9077248581c17956eb01bdd6365f"
    )


def test_classify_dim8_tower_regular(write_doc, capsys, named_algebras):
    """classify on the dim-8 tower over its regular rep: 60 extensions of dim
    16, each built from a cocycle test and re-verified as an anti-pre-Lie
    table.  The digest is the output of the dense law walks (3 min there)."""
    import hashlib

    alg, rep = _dim8_tower_docs(write_doc, named_algebras)
    code, out, err = run_cli(capsys, "classify", alg, rep)
    assert (code, err) == (0, "")
    assert out_json(out)["h2_dim"] == 60
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "ac86552bc2473b140f6de01f0ac174fb5370be0cd3248197a812a843cbe55315"
    )


@pytest.mark.parametrize("field, scalar", [
    ({"type": "rational"}, "1e3"),
    ({"type": "rational"}, "1_0"),
    ({"type": "rational"}, "1.5"),
    ({"type": "rational"}, " 1"),
    ({"type": "rational"}, "1\n"),
    ({"type": "rational"}, "+1"),
    ({"type": "rational"}, "1/0"),
    ({"type": "rational"}, "1/-2"),
    ({"type": "rational"}, "--1"),
    ({"type": "rational"}, "/2"),
    ({"type": "rational"}, ""),
    ({"type": "rational"}, "\u0661"),
    ({"type": "rational"}, 1),
    ({"type": "rational"}, None),
    ({"type": "prime", "p": 3}, "1  mod 3"),
    ({"type": "prime", "p": 3}, "1mod3"),
    ({"type": "prime", "p": 3}, "1 mod 5"),
    ({"type": "prime", "p": 3}, "1/2 mod 3"),
    ({"type": "prime", "p": 3}, "1 mod 3.0"),
    ({"type": "prime", "p": 3}, "+1 mod 3"),
    ({"type": "prime", "p": 3}, 1),
])
def test_non_canonical_scalar_is_input_error(write_doc, capsys, field, scalar):
    """Scalars follow -?digits(/digits)? over Q and -?digits mod p over F_p;
    exponents, underscores, decimals, whitespace, signs other than a leading
    minus, non-ASCII digits and non-strings exit 2."""
    path = write_doc({"kind": "anti-pre-lie", "field": field, "dim": 1, "mult": [[[scalar]]]})
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad scalar in tensor: ")


@pytest.mark.parametrize("field, scalar", [
    ({"type": "rational"}, "-2/4"),
    ({"type": "rational"}, "007"),
    ({"type": "prime", "p": 3}, "-4 mod 3"),
    ({"type": "prime", "p": 2147483647}, "1 mod 2147483647"),
])
def test_canonical_scalar_grammar_accepts(write_doc, capsys, field, scalar):
    path = write_doc({"kind": "anti-pre-lie", "field": field, "dim": 1, "mult": [[[scalar]]]})
    code, _, err = run_cli(capsys, "check", path)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("descriptor", [
    {"type": "prime", "p": 3.7},
    {"type": "prime", "p": "5"},
    {"type": "prime", "p": True},
    {"type": "prime"},
    {"type": "prime", "p": 2**31 + 11},
    {"type": "prime", "p": 10**30 + 57},
])
def test_prime_descriptor_needs_bounded_integer(write_doc, capsys, descriptor):
    """p is a JSON integer (not a bool) at most 2**31 - 1, refused before any
    trial division, so a huge p exits at once."""
    import time

    path = write_doc({"kind": "anti-pre-lie", "field": descriptor, "dim": 1,
                      "mult": [[["0 mod 3"]]]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("input error: a prime must be an integer") or err.startswith(
        "input error: prime exceeds the ceiling 2147483647"
    )


@pytest.mark.parametrize("flag, kind", [("--dim", "algebra"), ("--dim-v", "algebra"),
                                        ("--dim-v", "o-operator"), ("--random", "algebra"),
                                        ("--max-results", "algebra")])
@pytest.mark.parametrize("value", ["-1", "-3"])
def test_search_negative_argument_is_input_error(capsys, flag, kind, value):
    """Rejected before the space is sized or reported, whatever the kind."""
    argv = ["search", "--kind", kind, "--dim", "1", "--prime", "2"]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ")
    assert "search space" not in err


def test_search_max_results_zero_finds_nothing(capsys):
    code, out, err = run_cli(capsys, "search", "--kind", "algebra", "--dim", "1", "--prime", "2",
                             "--max-results", "0")
    assert code == 0
    assert out_json(out)["count"] == 0
    assert out_json(out)["results"] == []


def test_search_huge_random_is_refused_before_drawing():
    """More draws than the exhaustive bound is refused at once; run as a
    subprocess with a timeout so that a search that starts drawing fails
    instead of hanging."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import antiprelie

    src = str(Path(antiprelie.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "antiprelie.cli", "search", "--kind", "algebra", "--dim", "1",
         "--prime", "2", "--random", str(10**12)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "refused: a sampled search draws at most 2000000 candidates\n"


def test_search_algebra_dim2_p5(capsys):
    """Tier-1 pin of the largest exhaustive algebra search the bench does not
    run: 2,305 tables over F_5, with the exact bytes of the output recorded
    from the brute-force scan (about a minute there)."""
    import hashlib

    code, out, err = run_cli(capsys, "search", "--kind", "algebra", "--dim", "2", "--prime", "5")
    assert (code, err) == (0, "search space: 390625 candidates\n")
    assert out_json(out)["count"] == 2305
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "07227a14c768494281288901d36228365b7230bd2e4767f714a34f15f4aef391"
    )


@pytest.mark.parametrize("kind", ["representation", "o-operator"])
def test_search_over_dim0_context(write_doc, capsys, kind):
    """A dim-0 context has one empty candidate, which passes; the found
    representation and the regular representation of the context both carry
    their field into the document."""
    from antiprelie.fields import PrimeField

    table = MultTable.zero(PrimeField(2), 0)
    ctx = write_doc(docs.encode_algebra(table))
    rep = write_doc(docs.encode_representation(regular_representation(table)))
    code, out, err = run_cli(capsys, "search", "--kind", kind, "--dim", "0", "--dim-v", "0",
                             "--prime", "2", "--context", ctx, "--rep", rep)
    assert (code, err) == (0, "search space: 1 candidates\n")
    assert out_json(out)["count"] == 1
