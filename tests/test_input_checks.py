"""Every input check of the package raises its own exception and message.

Each case builds one bad input and names the exception type and the exact
message (its first argument) that the check raises for it.
"""

import math

import numpy as np
import pytest

from bifree.balgebra import CPMap, as_belement, belement_from_json
from bifree.bnc import BncPartition, ChiWord
from bifree.conjvar import MatrixLift, VectorCandidate, aaf_check, h_closed_form
from bifree.fock import FockModel, FockVector, bisemicircular_from_json, make_bisemicircular
from bifree.moments import chi_of_groups, group_offsets
from bifree.words import BCoeff, GeneratorSymbol, Lb, Monomial, as_monomial

ONE = CPMap.identity(1)


def _pair():
    """A scalar model with one left symbol S1 and one right symbol D1."""
    return make_bisemicircular([ONE], [ONE])


def _lift():
    m = _pair()
    return MatrixLift(m, m.symbol("S1"), m.symbol("D1"))


def _unregistered_lift_symbol():
    _lift().expect(GeneratorSymbol("Z", "l"))


def _lifted_2x2_coefficient():
    lift = _lift()
    lift.expect(Monomial([lift.X, Lb(np.eye(2)), lift.X]))


def _non_scalar_lift():
    m = make_bisemicircular([CPMap.identity(2)], [CPMap.identity(2)])
    MatrixLift(m, m.symbol("S1"), m.symbol("D1"))


def _wrong_sides():
    m = _pair()
    MatrixLift(m, m.symbol("D1"), m.symbol("S1"))


def _unregistered_base_symbol():
    m = _pair()
    MatrixLift(m, GeneratorSymbol("S2", "l"), m.symbol("D1"))


def _aaf(x, y, **kw):
    m = _pair()
    aaf_check(m.functional, m.symbol(x), m.symbol(y), 2, **kw)


def _mixed_combination():
    m = _pair()
    m.combination_symbol("u", [(1.0, m.symbol("S1")), (1.0, m.symbol("D1"))])


def _hand_built_adjoint():
    # The adjoint of u = i S1 is -i S1; registering i S1 under u* would give
    # u* the moments of u.
    m = _pair()
    u = m.combination_symbol("u", [(1j, m.symbol("S1"))])
    m.register_symbol(u.star(), [(1j, ("l", "S1")), (1j, ("l*", "S1"))])


def _misspelt_model():
    spec = _pair().to_json()
    spec["rigth"] = spec.pop("right")
    bisemicircular_from_json(spec)


def _misspelt_map():
    spec = ONE.to_json()
    spec["Kraus"] = spec.pop("kraus")
    CPMap.from_json(spec)


def _apply(f):
    _pair().apply_symbol(f, FockVector.vacuum(1))


CASES = {
    "as_belement not square": (
        lambda: as_belement(np.zeros((2, 3))),
        ValueError, "coefficient must be a square matrix, got shape (2, 3)",
    ),
    "CPMap no Kraus matrix": (
        lambda: CPMap([]), ValueError, "CPMap needs at least one Kraus matrix",
    ),
    "CPMap mixed dimensions": (
        lambda: CPMap([np.eye(1), np.eye(2)]),
        ValueError, "Kraus matrices must share one dimension",
    ),
    "CPMap dim mismatch": (
        lambda: CPMap([np.eye(2)], dim=3), ValueError, "dimension mismatch: expected 3, got 2",
    ),
    "belement_from_json unknown field": (
        lambda: belement_from_json({"dd": 5, "re": [[1.0]], "im": [[0.0]]}),
        ValueError, "unknown field 'dd' in a coefficient; expected d, re, im",
    ),
    "belement_from_json parts of different shapes": (
        lambda: belement_from_json({"re": np.eye(2).tolist(), "im": [[0.5]]}),
        ValueError, "coefficient parts differ in shape: re (2, 2), im (1, 1)",
    ),
    "belement_from_json entry not a number": (
        lambda: belement_from_json({"d": 1, "re": [["2"]], "im": [[0.0]]}),
        ValueError, 'coefficient part "re" must hold JSON numbers, got \'2\'',
    ),
    "BncPartition.from_json unknown field": (
        lambda: BncPartition.from_json({"n": 2, "chi": "lr", "blocks": [[1, 2]], "bogus": 1}),
        ValueError, "unknown field 'bogus' in a partition; expected n, chi, blocks",
    ),
    "BncPartition.from_json n not the word's length": (
        lambda: BncPartition.from_json({"n": 3, "chi": "lr", "blocks": [[1, 2]]}),
        ValueError, 'field "n" must be the length 2 of chi, got 3',
    ),
    "from_choi bad shape": (
        lambda: CPMap.from_choi(np.eye(3)), ValueError, "Choi matrix must be (d*d) x (d*d)",
    ),
    "ChiWord empty": (lambda: ChiWord([]), ValueError, "chi word must have length >= 1"),
    "ChiWord.side out of range": (
        lambda: ChiWord("lr").side(3), IndexError, "position 3 out of range 1..2",
    ),
    "VectorCandidate dimension": (
        lambda: VectorCandidate(GeneratorSymbol("S1", "l"), FockVector(2), _pair()),
        ValueError, "vector dimension does not match the model",
    ),
    "MatrixLift non-scalar base": (
        _non_scalar_lift, ValueError, "base model must be scalar",
    ),
    "MatrixLift unregistered symbol": (
        _unregistered_lift_symbol, KeyError, "symbol <Z:l> not registered with this lift",
    ),
    "MatrixLift 2x2 coefficient": (
        _lifted_2x2_coefficient, ValueError, "2x2 coefficient in the 2x2 lift; it must be 1x1",
    ),
    "MatrixLift wrong sides": (
        _wrong_sides, ValueError, "expected a left generator and a right generator",
    ),
    "MatrixLift unregistered base symbol": (
        _unregistered_base_symbol, ValueError,
        "base symbol <S2:l> is not registered with the model",
    ),
    "aaf_check wrong sides": (
        lambda: _aaf("D1", "S1"), ValueError, "expected a left generator and a right generator",
    ),
    "aaf_check infinite tol": (
        lambda: _aaf("S1", "D1", tol=math.inf), ValueError, "tol must be positive and finite",
    ),
    "h_closed_form bad K": (
        lambda: h_closed_form(0.0, 1.0, 0.0), ValueError, "need K1 >= 0 and K2 > 0",
    ),
    "FockVector sum of dimensions": (
        lambda: FockVector(1) + FockVector(2), ValueError, "dimension mismatch",
    ),
    "FockModel overlapping indices": (
        lambda: FockModel(1, ["a"], ["a"], {"a": ONE}),
        ValueError, "left and right index sets must be disjoint",
    ),
    "combination_symbol mixes sides": (
        _mixed_combination, ValueError, "combination mixes sides",
    ),
    "combination_symbol no terms": (
        lambda: _pair().combination_symbol("u", []), ValueError, "combination has no terms",
    ),
    "register_symbol adjoint by hand": (
        _hand_built_adjoint, ValueError,
        "symbol <u*:l> is already registered with another action",
    ),
    "bisemicircular_from_json unknown field": (
        _misspelt_model, ValueError, "unknown field 'rigth' in a model; expected d, left, right",
    ),
    "CPMap.from_json unknown field": (
        _misspelt_map, ValueError, "unknown field 'Kraus' in a CP map; expected d, kraus",
    ),
    "apply_factor unknown kind": (
        lambda: _pair().apply_factor(("x", "S1"), FockVector.vacuum(1)),
        ValueError, "unknown factor kind 'x'",
    ),
    "apply_symbol unregistered": (
        lambda: _apply(GeneratorSymbol("Q", "l")),
        KeyError, "symbol <Q:l> not registered with this model",
    ),
    "apply_symbol non-factor": (
        lambda: _apply(("l", "S1")), TypeError, "cannot apply ('l', 'S1')",
    ),
    "make_bisemicircular no maps": (
        lambda: make_bisemicircular([], []), ValueError, "need at least one covariance map",
    ),
    "make_bisemicircular mixed dimensions": (
        lambda: make_bisemicircular([ONE], [CPMap.identity(2)]),
        ValueError, "covariance dimension mismatch",
    ),
    "FockModel.symbol unknown": (lambda: _pair().symbol("Z9"), KeyError, "Z9"),
    "group_offsets empty group": (
        lambda: group_offsets([1, 0]), ValueError, "group sizes must be >= 1",
    ),
    "chi_of_groups sizes": (
        lambda: chi_of_groups(ChiWord("ll"), [1]),
        ValueError, "group sizes do not sum to the word length",
    ),
    "GeneratorSymbol side": (
        lambda: GeneratorSymbol("x", "q"), ValueError, "side must be 'l' or 'r'",
    ),
    "BCoeff side": (lambda: BCoeff("q", np.eye(1)), ValueError, "side must be 'l' or 'r'"),
    "Monomial bad factor": (lambda: Monomial([1]), TypeError, "bad factor 1"),
    "as_monomial bad input": (
        lambda: as_monomial(1), TypeError, "cannot build a monomial from 1",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check_raises(case):
    build, exc, message = CASES[case]
    with pytest.raises(exc) as err:
        build()
    assert type(err.value) is exc
    assert err.value.args[0] == message
