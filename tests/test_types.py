"""The value and result types: immutable named tuples, validated where they check inputs."""

import dataclasses
import inspect
import pickle
from functools import lru_cache

import numpy as np
import pytest

import xxring
from xxring import basis, cli, concurrence, hamiltonian, oracle, polarization, spectra, sweeps
from xxring.basis import SectorBasis, enumerate_sector
from xxring.concurrence import PairDensity, concurrence_wootters, pair_density
from xxring.hamiltonian import Coupling, FieldSetting, MomentumBlock, build_momentum_block
from xxring.oracle import (FullSpectrumReport, LevelRow, LevelScan, PipelineAgreement,
                           compare_with_pipeline, eigenvector_concurrence_scan,
                           full_diagonalize)
from xxring.polarization import OrbitReport, OrbitRow, lp_table
from xxring.spectra import GroundManifold, SectorState, Spectrum, eigh, ground_manifold
from xxring.sweeps import LimitFit, SweepRow, extrapolate, sweep

from reference import sector_by_unique

MODULES = (xxring, basis, cli, concurrence, hamiltonian, oracle, polarization, spectra, sweeps)

# every type's fields in order, and the defaults among them
FIELDS = {
    SectorBasis: ("n", "k", "bits", "orbit", "shift", "reps", "period", "mirror",
                  "mirror_shift", "hop_index", "hop_weight"),
    Coupling: ("j",),
    FieldSetting: ("b",),
    MomentumBlock: ("basis", "m", "orbits", "matrix"),
    Spectrum: ("values", "vectors"),
    SectorState: ("basis", "amplitudes", "momentum"),
    GroundManifold: ("energy", "states", "concurrence"),
    PairDensity: ("matrix", "pair"),
    OrbitRow: ("representative", "pattern", "period", "member_probability",
               "orbit_probability", "clustering", "dihedral_class"),
    OrbitReport: ("n", "k", "sector_weight", "rows", "rank_correlation"),
    SweepRow: ("n", "regime", "distance", "concurrence", "degeneracy", "energy", "seconds"),
    LimitFit: ("c_infinity", "a", "b", "residual", "points"),
    FullSpectrumReport: ("n", "ground_energy", "ground_degeneracy", "ground_sectors",
                         "ground_concurrence", "config_probabilities"),
    LevelRow: ("energy", "degeneracy", "concurrence"),
    LevelScan: ("n", "rows", "ground_is_max"),
    PipelineAgreement: ("n", "j", "energy_delta", "oracle_degeneracy", "pipeline_degeneracy",
                        "concurrence_delta", "probability_delta"),
}
DEFAULTS = {FieldSetting: {"b": 0.0}, SectorState: {"momentum": None}}
# the types whose fields are all hashable, so equal values hash equal
HASHABLE = (Coupling, FieldSetting, OrbitRow, OrbitReport, SweepRow, LimitFit, LevelRow,
            LevelScan, PipelineAgreement)
TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def instances() -> dict:
    """One instance of every type, from the library's own computations."""
    ferro = Coupling(-1.0)
    sector = enumerate_sector(6, 3)
    block = build_momentum_block(sector, 0, ferro)
    manifold = ground_manifold(5, ferro)
    rho = pair_density([(1 / manifold.degeneracy, s) for s in manifold.states], (0, 2))
    report = lp_table(6, ferro)
    rows = sweep(4, 8, parity="even")
    scan = eigenvector_concurrence_scan(4, Coupling(1.0))
    found = {
        SectorBasis: sector, Coupling: ferro, FieldSetting: FieldSetting(0.3),
        MomentumBlock: block, Spectrum: eigh(block.matrix), SectorState: manifold.states[0],
        GroundManifold: manifold, PairDensity: rho,
        OrbitRow: report.rows[0], OrbitReport: report, SweepRow: rows[0],
        LimitFit: extrapolate(rows), FullSpectrumReport: full_diagonalize(6, ferro),
        LevelRow: scan.rows[0], LevelScan: scan, PipelineAgreement: compare_with_pipeline(5, ferro),
    }
    assert all(type(value) is cls for cls, value in found.items())
    return found


def same(a, b) -> bool:
    """Field-by-field equality that compares arrays by value, type included."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
    if isinstance(a, tuple):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def test_no_class_in_the_package_is_a_dataclass():
    classes = [value for module in MODULES for value in vars(module).values()
               if inspect.isclass(value)]
    assert set(FIELDS) <= set(classes)
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]


@TYPES
def test_fields_and_defaults(cls):
    assert issubclass(cls, tuple)
    assert cls._fields == FIELDS[cls]
    assert cls._field_defaults == DEFAULTS.get(cls, {})


@TYPES
def test_keyword_construction_keeps_every_field(cls):
    obj = instances()[cls]
    built = cls(**{name: getattr(obj, name) for name in FIELDS[cls]})
    assert type(built) is cls
    for name in FIELDS[cls]:
        assert getattr(built, name) is getattr(obj, name), name
    assert same(built, obj)


def test_defaults_apply():
    assert FieldSetting().b == 0.0
    state = instances()[SectorState]
    assert SectorState(basis=state.basis, amplitudes=state.amplitudes).momentum is None


@TYPES
def test_assignment_raises(cls):
    obj = instances()[cls]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


@TYPES
def test_pickle_round_trip_returns_an_equal_object(cls):
    obj = instances()[cls]
    copy = pickle.loads(pickle.dumps(obj))
    assert same(copy, obj)
    if cls in HASHABLE:
        assert copy == obj and hash(copy) == hash(obj)


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_equal_values_hash_equal(cls):
    obj = instances()[cls]
    twin = cls(**{name: getattr(obj, name) for name in FIELDS[cls]})
    assert twin is not obj and twin == obj and hash(twin) == hash(obj)
    assert len({obj, twin}) == 1


def test_couplings_and_fields_are_value_keys():
    assert Coupling(-1.0) == Coupling(j=-1.0) and hash(Coupling(-1)) == hash(Coupling(-1.0))
    assert Coupling(-1.0) != Coupling(1.0) and FieldSetting() == FieldSetting(b=0.0)
    # ground solves are cached on (n, coupling, field, tol): equal values hit
    assert ground_manifold(5, Coupling(-1.0), FieldSetting()) is ground_manifold(
        5, Coupling(j=-1.0), FieldSetting(b=0.0))


def test_sector_basis_compares_by_identity():
    sector = instances()[SectorBasis]
    twin = sector._replace()
    rebuilt = sector_by_unique(sector.n, sector.k)
    assert same(twin, sector) and same(rebuilt, sector)  # the same values
    assert sector == sector and not sector != sector
    assert twin != sector and rebuilt != sector and not twin == sector  # no array compared
    assert hash(sector) == object.__hash__(sector) and len({sector, twin, rebuilt}) == 3
    assert repr(sector) == "SectorBasis(n=6, k=3)"


def raised(call) -> str:
    with pytest.raises(ValueError) as error:
        call()
    return str(error.value)


@pytest.mark.parametrize("j, message", [
    (float("nan"), "exchange constant j must be finite, got nan"),
    (float("inf"), "exchange constant j must be finite, got inf"),
    (-np.inf, "exchange constant j must be finite, got -inf"),
    (0.0, "exchange constant must be nonzero"),
    (0, "exchange constant must be nonzero"),
    (1e-320, f"exchange constant j is subnormal: |j| must be at least {TINY}, got 1e-320"),
    (-5e-324, f"exchange constant j is subnormal: |j| must be at least {TINY}, got -5e-324"),
])
def test_coupling_refuses_the_same_inputs_on_every_path(j, message):
    good = Coupling(1.0)
    assert raised(lambda: Coupling(j)) == message
    assert raised(lambda: Coupling(j=j)) == message
    assert raised(lambda: good._replace(j=j)) == message
    assert raised(lambda: Coupling._make([j])) == message


@pytest.mark.parametrize("b, message", [
    (float("nan"), "field b must be finite, got nan"),
    (float("inf"), "field b must be finite, got inf"),
    (-np.inf, "field b must be finite, got -inf"),
    (1e-320, f"field b is subnormal: |b| must be 0 or at least {TINY}, got 1e-320"),
    (-TINY / 2, f"field b is subnormal: |b| must be 0 or at least {TINY}, got {-TINY / 2}"),
])
def test_field_refuses_the_same_inputs_on_every_path(b, message):
    good = FieldSetting()
    assert raised(lambda: FieldSetting(b)) == message
    assert raised(lambda: FieldSetting(b=b)) == message
    assert raised(lambda: good._replace(b=b)) == message
    assert raised(lambda: FieldSetting._make([b])) == message


def test_replace_builds_checked_couplings_and_fields():
    assert Coupling(1.0)._replace(j=-2.0) == Coupling(-2.0)
    assert type(Coupling(1.0)._replace(j=-2.0)) is Coupling
    assert FieldSetting()._replace(b=0.5) == FieldSetting(0.5)
    assert Coupling(TINY).j == TINY and FieldSetting(-TINY).b == -TINY  # smallest normal floats
    assert FieldSetting(-0.0).b == 0.0
    with pytest.raises(ValueError, match="unexpected field names"):
        Coupling(1.0)._replace(b=1.0)


@pytest.mark.parametrize("matrix, message", [
    (np.eye(3) / 3, "pair density must be 4x4"),
    (np.eye(4) / 2, "trace 2.0 is not 1 within 1e-12"),
    (np.diag([0.5, 0.5, 0, 0]) + np.triu(np.full((4, 4), 0.1), 1),
     "pair density is not Hermitian within 1e-12"),
    (np.diag([0.6, 0.6, -0.2, 0.0]), "pair density has an eigenvalue below -1e-10"),
    (np.diag([np.nan, 0.5, 0.5, 0.0]), "pair density has a non-finite entry"),
    (np.eye(4) / 4 + np.diag([np.inf, 0.0, 0.0], 1), "pair density has a non-finite entry"),
])
def test_pair_density_refuses_the_same_inputs_on_every_path(matrix, message):
    good = instances()[PairDensity]
    assert raised(lambda: PairDensity(matrix, (0, 1))) == message
    assert raised(lambda: PairDensity(matrix=matrix, pair=(0, 1))) == message
    assert raised(lambda: good._replace(matrix=matrix)) == message
    assert raised(lambda: PairDensity._make([matrix, (0, 1)])) == message
    if matrix.shape == (4, 4):  # the stack check behind the constructor, one bad matrix in three
        stack = np.stack([np.eye(4) / 4, matrix, np.eye(4) / 4])
        assert raised(lambda: concurrence._check_densities(stack)) == message


@pytest.mark.parametrize("pair", [(3, 1), (1, 1), (-1, 2), (0.5, 2), (0, 2.0), "ab", (0, 1, 2),
                                  [0, 1], None])
def test_pair_density_refuses_a_pair_that_is_not_two_ordered_sites(pair):
    good = instances()[PairDensity]
    message = f"pair {pair!r} is not two ordered sites 0 <= p < q"
    assert raised(lambda: PairDensity(good.matrix, pair)) == message
    assert raised(lambda: good._replace(pair=pair)) == message
    assert raised(lambda: PairDensity._make([good.matrix, pair])) == message


def test_pair_density_takes_numpy_integer_sites():
    good = instances()[PairDensity]
    assert good._replace(pair=(np.int64(2), np.int64(5))).pair == (2, 5)
    assert PairDensity(good.matrix, (0, 9)).pair == (0, 9)  # a density knows no ring size


def test_pair_density_replace_checks_the_new_matrix():
    good = instances()[PairDensity]
    other = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    replaced = good._replace(matrix=other)
    assert type(replaced) is PairDensity and replaced.matrix is other
    assert replaced.pair == good.pair
    moved = good._replace(pair=(1, 3))
    assert moved.pair == (1, 3) and moved.matrix is good.matrix
    with pytest.raises(ValueError, match="unexpected field names"):
        good._replace(spectrum=None)
    with pytest.raises(TypeError):
        PairDensity(other, (0, 1), None)


def test_pair_density_holds_only_its_inputs():
    methods = {name for name, value in vars(PairDensity).items()
               if callable(value) or isinstance(value, (classmethod, staticmethod, property))}
    assert methods == {"__new__", "_make"}
    bell = np.zeros((4, 4))
    bell[1:3, 1:3] = 0.5
    value = concurrence_wootters(PairDensity(bell, (0, 1)))
    assert isinstance(value, float) and value == pytest.approx(1.0)  # the concurrence itself
    assert not hasattr(concurrence, "ConcurrenceResult")
    assert not hasattr(GroundManifold, "sectors")
    assert not hasattr(OrbitReport, "member_probabilities")
    assert not hasattr(LimitFit, "predict")


def test_pair_density_repr_leaves_out_the_spectrum():
    rho = PairDensity(np.eye(4) / 4, (0, 1))
    assert repr(rho) == f"PairDensity(matrix={rho.matrix!r}, pair=(0, 1))"
