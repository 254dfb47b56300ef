"""Golden output of every subcommand on the small corpus fixtures.

Each case pins the exit code and the SHA-256 of standard output and of
standard error, so any change in what the command line prints, however
small, fails here.  Documents are written under neutral names and no case
prints a file path, so the hashes do not depend on where the test runs.
"""

import hashlib

import pytest

from antiprelie import documents as docs
from antiprelie.algebra import AntiPreLieAlgebra
from antiprelie.cli import main
from antiprelie.cohomology import Cochain2, cohomology_spaces
from antiprelie.deformation import TruncatedDeformation, TruncatedIsomorphism, apply_isomorphism
from antiprelie.dendriform import AntiLDendriform
from antiprelie.extension import build_extension
from antiprelie.fields import QQ
from antiprelie.linalg import Matrix, Tensor3
from antiprelie.representation import Representation, regular_representation

from conftest import bump_matrix, q_table


def _q_matrix(rows):
    return Matrix.from_rows(QQ, [[QQ.parse(x) for x in row] for row in rows])


def _documents(named, abar2, f3):
    """Every document the cases read, by name."""
    a2, zero2, rigid2 = named["a2"], named["zero2"], named["rigid2"]
    reg = regular_representation(a2)
    bad_reg = Representation(2, 2, reg.rho, (bump_matrix(reg.mu[0], 1, 1), reg.mu[1]))
    comm3 = f3["comm2@3"]
    reg3 = Representation(2, 2, comm3.left_matrices, comm3.right_matrices)
    a3 = f3["a2@3"]
    a3_reg = Representation(2, 2, a3.left_matrices, a3.right_matrices)
    theta = cohomology_spaces(a2, reg).h2_representatives[0]
    ext = build_extension(a2, reg, theta)
    one = QQ.parse("1")
    zero = QQ.parse("0")
    c1 = Cochain2(Tensor3.from_entries(QQ, [[[one], [zero]], [[zero], [zero]]]))
    c2 = Cochain2(Tensor3.from_entries(QQ, [[[zero], [one]], [[zero], [zero]]]))
    trivial = TruncatedDeformation.trivial(a2, 2)
    iso = TruncatedIsomorphism((_q_matrix([["1", "0"], ["1", "1"]]), Matrix.zero(QQ, 2, 2)))
    rigid_sample = apply_isomorphism(
        TruncatedDeformation.trivial(rigid2, 2),
        TruncatedIsomorphism((_q_matrix([["1", "2"], ["0", "1"]]), Matrix.zero(QQ, 2, 2))),
    )
    bad_base = AntiPreLieAlgebra.verify(q_table(3, {(0, 1, 1): 1}))
    section = [list(r) for r in ext.section.entries]
    section[2][0] = one
    return {
        "a2": docs.encode_algebra(a2),
        "abar2": docs.encode_algebra(abar2),
        "zero2": docs.encode_algebra(zero2),
        "idem2": docs.encode_algebra(named["idem2"]),
        "comm2": docs.encode_algebra(named["comm2"]),
        "rigid2": docs.encode_algebra(rigid2),
        "reg": docs.encode_representation(reg),
        "bad-reg": docs.encode_representation(bad_reg),
        "idem2-reg": docs.encode_representation(regular_representation(named["idem2"])),
        "zero-rep": docs.encode_representation(Representation.zero(QQ, 2, 1)),
        "reg@3": docs.encode_representation(a3_reg),
        "a2@3": docs.encode_algebra(a3),
        "comm2@3": docs.encode_algebra(comm3),
        "comm2-reg@3": docs.encode_representation(reg3),
        "comm2-op@3": docs.encode_o_operator(
            Matrix.from_rows(comm3.field, [[comm3.field.one(), comm3.field.zero()],
                                           [comm3.field.zero(), -comm3.field.one()]])
        ),
        "zero-op": docs.encode_o_operator(Matrix.zero(QQ, 2, 2)),
        "ident-op": docs.encode_o_operator(Matrix.identity(QQ, 2)),
        "good-form": docs.encode_bilinear_form(_q_matrix([["-2", "-2"], ["2", "0"]])),
        "ident-form": docs.encode_bilinear_form(Matrix.identity(QQ, 2)),
        "dend": docs.encode_dendriform(AntiLDendriform(a2.table, q_table(2, {}))),
        "bad-dend": docs.encode_dendriform(AntiLDendriform(a2.table, q_table(2, {(0, 1, 0): 1}))),
        "deformation": docs.encode_deformation(trivial),
        "bad-deformation": docs.encode_deformation(
            TruncatedDeformation(bad_base, (q_table(3, {(0, 2, 0): 1}),))
        ),
        "moved": docs.encode_deformation(apply_isomorphism(trivial, iso)),
        "flat-fail": docs.encode_deformation(TruncatedDeformation(zero2, (a2.table,))),
        "iso": docs.encode_isomorphism(iso, QQ),
        "rigid-sample": docs.encode_deformation(rigid_sample),
        "theta": docs.encode_cochain2(theta),
        "theta-1": docs.encode_cochain2(c1),
        "not-cocycle": docs.encode_cochain2(Cochain2.from_table(q_table(2, {(1, 0, 0): 1}))),
        "combined": {"algebra": docs.encode_algebra(a2), "rep": docs.encode_representation(reg),
                     "theta": docs.encode_cochain2(theta)},
        "combined-partial": {"algebra": docs.encode_algebra(a2), "rep": docs.encode_representation(reg)},
        "ext": docs.encode_extension(ext),
        "ext-c1": docs.encode_extension(build_extension(zero2, Representation.zero(QQ, 2, 1), c1)),
        "ext-c2": docs.encode_extension(build_extension(zero2, Representation.zero(QQ, 2, 1), c2)),
        "section": {"matrix": [[str(x) for x in r] for r in section]},
        "no-matrix": {"rows": []},
    }


# Case name -> argv; "@name" stands for the path of document `name`.
CASES = {
    "check-pass": ("check", "@a2"),
    "check-fail": ("check", "@abar2"),
    "check-bad-json": ("check", "@not-json"),
    "lie-pass": ("lie", "@a2"),
    "lie-fail": ("lie", "@abar2"),
    "rep-check-pass": ("rep-check", "@a2", "@reg"),
    "rep-check-fail": ("rep-check", "@a2", "@bad-reg"),
    "rep-check-field": ("rep-check", "@a2", "@reg@3"),
    "semidirect-pass": ("semidirect", "@a2", "@reg"),
    "semidirect-fail": ("semidirect", "@a2", "@bad-reg"),
    "dual-pass": ("dual", "@reg"),
    "dual-kind": ("dual", "@a2"),
    "special-pass": ("special", "@idem2", "@idem2-reg"),
    "special-field": ("special", "@a2", "@reg@3"),
    "cohomology-pass": ("cohomology", "@zero2", "@zero-rep"),
    "cohomology-fail": ("cohomology", "@a2", "@bad-reg"),
    "cohomology-unverified": ("cohomology", "@abar2", "@reg"),
    "dend-check-pass": ("dend-check", "@dend"),
    "dend-check-fail": ("dend-check", "@bad-dend"),
    "assoc-pass": ("assoc", "@dend"),
    "assoc-fail": ("assoc", "@bad-dend"),
    "o-check-pass": ("o-check", "@a2", "@reg", "@zero-op"),
    "o-check-fail": ("o-check", "@a2", "@reg", "@ident-op"),
    "o-induce-pass": ("o-induce", "@a2", "@reg", "@zero-op"),
    "o-induce-fail": ("o-induce", "@a2", "@reg", "@ident-op"),
    "o-compat-pass": ("o-compat", "@comm2@3", "@comm2-reg@3", "@comm2-op@3"),
    "o-compat-fail": ("o-compat", "@a2", "@reg", "@ident-op"),
    "from-form-pass": ("from-form", "@comm2", "@good-form"),
    "from-form-fail": ("from-form", "@a2", "@ident-form"),
    "from-form-skew": ("from-form", "@zero2", "@ident-form", "--strict-skew"),
    "deform-check-pass": ("deform-check", "@deformation"),
    "deform-check-fail": ("deform-check", "@bad-deformation"),
    "infinitesimal-pass": ("infinitesimal", "@deformation"),
    "infinitesimal-fail": ("infinitesimal", "@bad-deformation"),
    "apply-iso-pass": ("apply-iso", "@deformation", "@iso"),
    "apply-iso-fail": ("apply-iso", "@bad-deformation", "@iso"),
    "trivialize-pass": ("trivialize", "@moved", "1"),
    "trivialize-fail": ("trivialize", "@flat-fail", "1"),
    "rigidity-pass": ("rigidity", "@rigid2", "@rigid-sample", "--order", "2"),
    "rigidity-fail": ("rigidity", "@zero2", "--order", "2"),
    "extend-pass": ("extend", "@a2", "@reg", "@theta"),
    "extend-combined": ("extend", "@combined"),
    "extend-combined-partial": ("extend", "@combined-partial"),
    "extend-not-cocycle": ("extend", "@a2", "@reg", "@not-cocycle"),
    "extend-theta-dims": ("extend", "@a2", "@reg", "@theta-1"),
    "extract-pass": ("extract", "@ext"),
    "extract-section": ("extract", "@ext", "@section"),
    "extract-no-matrix": ("extract", "@ext", "@no-matrix"),
    "iso-pass": ("iso", "@ext", "@ext"),
    "iso-fail": ("iso", "@ext-c1", "@ext-c2"),
    "classify-pass": ("classify", "@zero2", "@zero-rep"),
    "classify-fail": ("classify", "@a2", "@bad-reg"),
    "search-algebra": ("search", "--kind", "algebra", "--dim", "1", "--prime", "2"),
    "search-representation": ("search", "--kind", "representation", "--dim", "2", "--prime", "3",
                              "--dim-v", "1", "--context", "@a2@3", "--max-results", "4"),
    "search-o-operator": ("search", "--kind", "o-operator", "--dim", "2", "--prime", "3",
                          "--dim-v", "2", "--context", "@a2@3", "--rep", "@reg@3"),
    "search-bilinear-form": ("search", "--kind", "bilinear-form", "--dim", "2", "--prime", "3",
                             "--context", "@a2@3", "--strict-skew"),
    "search-no-context": ("search", "--kind", "representation", "--dim", "2", "--prime", "3",
                          "--dim-v", "1"),
    "search-wrong-prime": ("search", "--kind", "bilinear-form", "--dim", "2", "--prime", "5",
                           "--context", "@a2@3"),
}

# Case name -> (exit code, SHA-256 of stdout, SHA-256 of stderr).
GOLDEN = {
    "check-pass": (
        0,
        "44f05300150cfd2c3fa5747d10fdaed606ce0e18500a2b1a9eefd823fd95b734",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "check-fail": (
        1,
        "4ce3f116d095b1664503a7a3a5b8e10652205e6965ca59fb4c65b628b8fd40c4",
        "939904ab2c85385000bc56ccb5a5d47427b8cd19f2c226215b5de131ff402807",
    ),
    "check-bad-json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ec397e8539ca5aecceb4bad4214f951755ac33c23a8f30d868a33aad5ba8b1da",
    ),
    "lie-pass": (
        0,
        "5ce98d4e1e1fb70cfcca4fb674ebae132081b091046c04faee39f34f749c12bd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "lie-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9514d8e17d674e7a8576a9c61a90cd95b78ed5cae96cf95ed4b7facddfee3322",
    ),
    "rep-check-pass": (
        0,
        "dbda731469023599b196ae6782aa9d97479327dcf002d6f3c211dd769c485bb8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rep-check-fail": (
        1,
        "791e50db4d291cb5920ed68a0b2142581423390972b32806613e8284324a84d0",
        "c3909e7f4bde223bd6a615281bd6c1b1ceb231a994e4058b4e6438645e532733",
    ),
    "rep-check-field": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f1f44977474ae823c9e83608a062f36cba523196bd376895ad641f1c8a3069c1",
    ),
    "semidirect-pass": (
        0,
        "f7b1d20864183c7a31cbbec2c1f399781d45d0780eb168ed484ecdde0064d4a8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "semidirect-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e46d186ee2f6041d6d0e956dc1eff3a08dbeef5bcfd88eb16357740edfa60608",
    ),
    "dual-pass": (
        0,
        "85b6c1c635914ebbc0ae2da117b849a41e770aadba4394f351fb72ba00b7a3ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "dual-kind": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bf2ecde07c4bd1db3bff3d84098fb67a9ccdecca21b4111c463594f45acfdf0c",
    ),
    "special-pass": (
        0,
        "295733c958c47841db4d74b84f068d6fa8b0b06db662e5ad60268bc7d4227b1f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "special-field": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f1f44977474ae823c9e83608a062f36cba523196bd376895ad641f1c8a3069c1",
    ),
    "cohomology-pass": (
        0,
        "8236af0b482ce158add0151f31739e21785cb9ea283f65df8145cff13684468e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "cohomology-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e46d186ee2f6041d6d0e956dc1eff3a08dbeef5bcfd88eb16357740edfa60608",
    ),
    "cohomology-unverified": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9514d8e17d674e7a8576a9c61a90cd95b78ed5cae96cf95ed4b7facddfee3322",
    ),
    "dend-check-pass": (
        0,
        "b12f66c16c7f7dce207ba4250257349ea9e433116f30b6747b86b797dd18007e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "dend-check-fail": (
        1,
        "63db3fde2def7e77e254dbd48ffa016cf16f6384aabffecc3d5f28d0fe55e6c0",
        "203c48373cf76cfad23d068f5c6f0a6a1556bafa5ea504337c924520a6abac7e",
    ),
    "assoc-pass": (
        0,
        "1e64e1639164953abc1e36e44c58a819fc40af0da6e0a1b04afdccfd9d6d5714",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "assoc-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e22ddd8c63f9240f6bdb8da1a67944d92db6d80272b0a6b46fc861918373485e",
    ),
    "o-check-pass": (
        0,
        "683e9c4e875b890e472a4c5625093eb87b5bbfdb4e096b5ef089e69f9bb3010d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "o-check-fail": (
        1,
        "05dcd894144e2c40af23e02f6b7c3ea48a065e2ae807d8be0e6d0576e7d81835",
        "aed86a752e973548ad1cdd9d3c6d7fdb51922d901b4964b6b45574fdfdc88fa2",
    ),
    "o-induce-pass": (
        0,
        "dd846f59b6c02d4a99092092276234ab837fbcf3e08c3b62df929dd93aa6497f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "o-induce-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9cedb249c178d88813b028e82e595a6dabc2c17b2cbe734c63f397b3ddbadfeb",
    ),
    "o-compat-pass": (
        0,
        "e6120967beae6cddde8db6e1fdf5c4811ffd06543065dc8e64cededb107473b0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "o-compat-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9cedb249c178d88813b028e82e595a6dabc2c17b2cbe734c63f397b3ddbadfeb",
    ),
    "from-form-pass": (
        0,
        "c24db0e5399137b65c72e9f0517213ab95f5baba0ddaad483f03178233d258e0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "from-form-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9c6652ea7c5100f93b113a7092900fb5aec2dd2db693f573307f184405c65445",
    ),
    "from-form-skew": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f98df16472654c999bd88ea00d817aa69dde8c5eb9c8d43ff27a3f6f3ca074ad",
    ),
    "deform-check-pass": (
        0,
        "061fee1c392d57dd53367668fc1047fb618ca1e30a918ab363c636ecd71f12f6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "deform-check-fail": (
        1,
        "927679c87142c23c0cf674ecb07e774f3c42b4a4957f2a85a7ad251d6eba1eb9",
        "8010170d573f2e49d96da1424f91c53b932554fe073ccb59e6e24ae94e668d2a",
    ),
    "infinitesimal-pass": (
        0,
        "e1715d789ee4867686577586d34ac7086d09bab79c2ae3d2b8977d07f8fb8a62",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "infinitesimal-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab6327e7e0ce9490bfc2030b34e6c94f71483f1623621a03e226e0ff490e73dd",
    ),
    "apply-iso-pass": (
        0,
        "65c2e3e6df91312a7051e603abf9d1da7da763d46552bca2e3fef30ca77ddc03",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "apply-iso-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab6327e7e0ce9490bfc2030b34e6c94f71483f1623621a03e226e0ff490e73dd",
    ),
    "trivialize-pass": (
        0,
        "f2f9003f89d16d3845848e9f5e6a4ee2b6ef8fd7819b73d13350ea2ad0eaee32",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "trivialize-fail": (
        1,
        "497bf07d1256e793e86083f7981c695b1141c3aa4848b484c3ac9b04f5256e78",
        "1a1a1a0c7bfae0326df87ef6f3702a82a2928be3d306ca0c1eeee3e1cfd95285",
    ),
    "rigidity-pass": (
        0,
        "5c45277539d362ee7aff97af91ba09d5c70c7587658218c064d7857a445926fc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "rigidity-fail": (
        1,
        "97feb556055f74bdaf290125d5f980441d1bf0d41d8c0bbcd4435fd530e83c42",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "extend-pass": (
        0,
        "5609c674ceb029fe1ce4ab4fdeeee1619df3c9ff09b78ebf3fb00642ae3d3e46",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "extend-combined": (
        0,
        "5609c674ceb029fe1ce4ab4fdeeee1619df3c9ff09b78ebf3fb00642ae3d3e46",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "extend-combined-partial": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a79d10e9695f57a80139c78148b6d4dd8f181b3c713483cf365f4e70a2f678fd",
    ),
    "extend-not-cocycle": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6a3b978f146be22210bc501db873f00669a8ee2d05f38822d0cbbc4bcc88567d",
    ),
    "extend-theta-dims": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "13645b85b2c9ffbaf578d1ab02b22f4034a6d0f67552d59347b987d2280b8e8b",
    ),
    "extract-pass": (
        0,
        "c3d90ba740b0eef90ac8f86abc602985abf8d55c519f48441582f0ddfe68fbda",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "extract-section": (
        0,
        "bc093f3d0fd6ff96032a5e0696871a502d567841a39942189afac84595433910",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "extract-no-matrix": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a9bb5756b279a4d75cbce3caa6be80db3c6e69309e2204deb4097afd5c133a30",
    ),
    "iso-pass": (
        0,
        "a24f6cf499caac0e2f934d1fe6d62b0c826639207578b771ec681be8bb285cb6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "iso-fail": (
        1,
        "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7",
        "8b831216b6d55c15efc0ba33a5251fbe9a4694e836925aa38c01e9ad725e940a",
    ),
    "classify-pass": (
        0,
        "66319e497b19a452d071b441f65e3c0baca8d9484b219b5e24b7bb255f8b095e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "classify-fail": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e46d186ee2f6041d6d0e956dc1eff3a08dbeef5bcfd88eb16357740edfa60608",
    ),
    "search-algebra": (
        0,
        "10cecceb7db73772c7fe8d9d251bb75559b415bee845c39140f60386b13ed70a",
        "8eae67386e7c84c4e699e4c0631fc18d91edccc21d4bd81d3f318575ea7c3c14",
    ),
    "search-representation": (
        0,
        "145969a95b28d4f1e2c0bc1c57687e291f5b3f10afd8a87537e2cd8245cc8a19",
        "8b266de34f81c66f199db34efe582d01cf57f79b853bb6d9c62459198c04b80c",
    ),
    "search-o-operator": (
        0,
        "c738d8f29bef47f4e4ae291398640f16bc183ca67e5ab31764425529845b3afe",
        "8b266de34f81c66f199db34efe582d01cf57f79b853bb6d9c62459198c04b80c",
    ),
    "search-bilinear-form": (
        0,
        "12be091f2574bb9dd9cb4d816ddcbf8634b958150e2a4844c40f82141d611c8f",
        "8b266de34f81c66f199db34efe582d01cf57f79b853bb6d9c62459198c04b80c",
    ),
    "search-no-context": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8a68e289806ae4aed12186eb18e5875a2c994b9e2dcf84e704f7a535a714d234",
    ),
    "search-wrong-prime": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7a7e1d79794731adbafa73a290478b21a9c63849be737121436685f917091b80",
    ),
}


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory, named_algebras, abar2_table, f3_algebras):
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, doc in _documents(named_algebras, abar2_table, f3_algebras).items():
        path = directory / f"{name}.json"
        path.write_text(docs.dumps(doc))
        paths[name] = str(path)
    bad = directory / "not-json.json"
    bad.write_text("{not json")
    paths["not-json"] = str(bad)
    return paths


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(case, golden_paths, capsys):
    argv = [golden_paths[a[1:]] if a.startswith("@") else a for a in CASES[case]]
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert (code, _sha(captured.out), _sha(captured.err)) == GOLDEN[case]


def test_golden_covers_every_subcommand():
    from antiprelie.cli import build_parser

    commands = {argv[0] for argv in CASES.values()}
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert commands == set(sub.choices)
