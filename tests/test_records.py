"""The record types: immutable, equal by their fields, and validating.

The records are NamedTuples or ``__slots__`` classes, not dataclasses; each
keeps the contract callers relied on when they were frozen dataclasses.
"""

import math
import pickle

import numpy as np
import pytest

from polariton_lab.config import RunConfig
from polariton_lab.lattice import TransferMatrix
from polariton_lab.model import DimensionlessGroups, Grid, PhysicalParams
from polariton_lab.variance import ChannelVariance, Resolution, ScanResult, VarianceBreakdown

_ROW = VarianceBreakdown(1.0, 0.1, 1.3, 0.9, 0.25, Resolution(32, 1e-13, 2e-12, 1e-15))

# class -> field values; two records built from the same values must be equal
RECORDS = {
    PhysicalParams: dict(beta=0.3, epsilon=-0.2, kappa2=0.1, length_L=2.0),
    DimensionlessGroups: dict(kappa_c=1.0, ratio_r=3.0, omega_T=0.5, q_L=0.0,
                              kappa2_L=0.3, Omega_T=0.3),
    Grid: dict(n_time=8, n_space=16),
    RunConfig: dict(mode="symplectic-check", grid=Grid(8, 8)),
    TransferMatrix: dict(matrix=np.eye(12), n_time=2, n_space=4),
    VarianceBreakdown: dict(f_self=1.0, gamma=0.1, v1=1.3, v2=0.9, sql=0.25),
    ChannelVariance: dict(channel="xi1", normalized=1.2, light_part=0.7,
                          spin_part=0.5, sql=0.25),
    Resolution: dict(order=32, f_change=1e-13, gamma_change=2e-12, gamma_floor=1e-15),
    ScanResult: dict(rows=(_ROW,), route="kernel"),
}
_IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned(cls):
    record = cls(**RECORDS[cls])
    name = next(iter(RECORDS[cls]))
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=_IDS)
def test_equal_fields_compare_equal(cls):
    first, second = cls(**RECORDS[cls]), cls(**RECORDS[cls])
    assert first is not second
    assert first == second
    assert not first != second


@pytest.mark.parametrize("cls", [PhysicalParams, DimensionlessGroups, Grid, RunConfig,
                                 VarianceBreakdown, ChannelVariance, Resolution],
                         ids=lambda cls: cls.__name__)
def test_records_of_scalars_hash_and_pickle_by_value(cls):
    record = cls(**RECORDS[cls])
    assert hash(record) == hash(cls(**RECORDS[cls]))
    assert pickle.loads(pickle.dumps(record)) == record


def test_slots_records_repr_by_their_fields():
    assert repr(Grid(8, 16)) == "Grid(n_time=8, n_space=16)"
    assert repr(PhysicalParams(**RECORDS[PhysicalParams])) == (
        "PhysicalParams(beta=0.3, epsilon=-0.2, kappa2=0.1, omega0=0.0, omega2=0.0, "
        "xi3_bar=1.0, jx_bar=1.0, length_L=2.0, time_T=1.0)")


def test_records_of_different_types_or_values_differ():
    assert Grid(8, 16) != Grid(16, 8)
    assert Grid(8, 16) != (8, 16)
    assert PhysicalParams(0.3, 0.2) != PhysicalParams(0.3, -0.2)


# the validation messages are those the dataclasses raised
@pytest.mark.parametrize("build, message", [
    (lambda: PhysicalParams(beta=math.nan, epsilon=0.1), "beta must be finite, got nan"),
    (lambda: PhysicalParams(beta=0.1, epsilon=math.inf), "epsilon must be finite, got inf"),
    (lambda: PhysicalParams(beta=0.1, epsilon=0.1, length_L=0.0),
     "length_L must be positive, got 0.0"),
    (lambda: PhysicalParams(beta=0.1, epsilon=0.1, xi3_bar=-1.0),
     "xi3_bar must be positive, got -1.0"),
    (lambda: Grid(1, 64), "grid must have at least 2 bins per axis, got n_time=1, n_space=64"),
    (lambda: Grid(8, 0), "grid must have at least 2 bins per axis, got n_time=8, n_space=0"),
    (lambda: TransferMatrix(np.eye(5), 1, 1),
     "matrix of shape (5, 5) does not match the layout of n_time = 1, n_space = 1: "
     "expected (4, 4)"),
], ids=["params-nan", "params-inf", "params-length", "params-xi3", "grid-time",
        "grid-space", "matrix"])
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_replace_validates_the_new_record():
    params = PhysicalParams(beta=0.3, epsilon=0.2)
    moved = params._replace(length_L=2.0)
    assert moved == PhysicalParams(beta=0.3, epsilon=0.2, length_L=2.0)
    assert params.length_L == 1.0
    with pytest.raises(ValueError, match="length_L must be positive"):
        params._replace(length_L=-1.0)
    with pytest.raises(ValueError, match="grid must have at least 2 bins"):
        Grid(8, 8)._replace(n_space=1)
    with pytest.raises(TypeError):
        Grid(8, 8)._replace(n_bins=4)
    assert Grid._fields == ("n_time", "n_space")
