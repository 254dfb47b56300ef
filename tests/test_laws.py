"""Each law family's early-exit boolean agrees with its full report.

For every family the boolean form and the report come from one violation
walk; this pins that they agree on a passing instance and on the same
instance with one entry bumped by one, which must fail.
"""

import pytest

from antiprelie.algebra import MultTable, check_anti_pre_lie, is_anti_pre_lie
from antiprelie.deformation import (
    TruncatedDeformation,
    TruncatedIsomorphism,
    apply_isomorphism,
    check_deformation,
    is_deformation,
)
from antiprelie.dendriform import (
    AntiLDendriform,
    associated_table,
    check_anti_L_dendriform,
    check_O_operator,
    is_anti_L_dendriform,
    is_O_operator,
    left_mult_representation,
)
from antiprelie.fields import QQ
from antiprelie.linalg import Matrix
from antiprelie.representation import (
    Representation,
    check_representation,
    is_representation,
    regular_representation,
)

from conftest import bump_matrix, bump_table


def anti_pre_lie_case(algs, bumped):
    t = algs["a2"].table
    return is_anti_pre_lie, check_anti_pre_lie, (bump_table(t, 1, 0, 0) if bumped else t,)


def representation_case(algs, bumped):
    a2 = algs["a2"]
    reg = regular_representation(a2)
    mu = (bump_matrix(reg.mu[0], 1, 1), reg.mu[1]) if bumped else reg.mu
    return is_representation, check_representation, (a2, Representation(2, 2, reg.rho, mu))


def dendriform_case(algs, bumped):
    left = MultTable.zero(QQ, 2)
    d = AntiLDendriform(algs["a2"].table, bump_table(left, 0, 1, 0) if bumped else left)
    return is_anti_L_dendriform, check_anti_L_dendriform, (d,)


def o_operator_case(algs, bumped):
    d = AntiLDendriform(algs["a2"].table, MultTable.zero(QQ, 2))
    t = Matrix.identity(QQ, 2)
    args = (associated_table(d), left_mult_representation(d), bump_matrix(t, 1, 0) if bumped else t)
    return is_O_operator, check_O_operator, args


def deformation_case(algs, bumped):
    a2 = algs["a2"]
    phi = Matrix.from_rows(QQ, [[1, 2], [0, -1]])
    d = apply_isomorphism(TruncatedDeformation.trivial(a2, 2), TruncatedIsomorphism((phi, phi)))
    if bumped:
        d = TruncatedDeformation(a2, (bump_table(d.terms[0], 0, 1, 0), d.terms[1]))
    return is_deformation, check_deformation, (d,)


CASES = {
    "anti-pre-lie": anti_pre_lie_case,
    "representation": representation_case,
    "anti-L-dendriform": dendriform_case,
    "o-operator": o_operator_case,
    "deformation": deformation_case,
}


@pytest.mark.parametrize("bumped", [False, True], ids=["passing", "bumped"])
@pytest.mark.parametrize("family", list(CASES))
def test_boolean_agrees_with_report(family, bumped, named_algebras):
    is_law, check_law, args = CASES[family](named_algebras, bumped)
    report = check_law(*args)
    assert report.ok is not bumped
    assert is_law(*args) == report.ok
