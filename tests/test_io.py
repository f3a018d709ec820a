import json

import numpy as np
import pytest

from measrep import io, qcore
from measrep.errors import (
    InvalidMeasurement, MalformedFile, MalformedName, ShapeMismatch,
)
from measrep.qcore import Instrument, Povm, Rng
from oracles import nan_povm_file, random_povm


def test_builtin_names():
    assert isinstance(io.load_measurement("trine"), Povm)
    nz = io.load_measurement("noisy-z:0.9,0.8")
    assert np.allclose(nz.elements[0], np.diag([0.9, 0.2]))
    vn = io.load_measurement("vn:4")
    assert vn.dim == 4 and vn.outcomes == 4
    dq = io.load_measurement("degenerate-qutrit")
    assert dq.dim == 3


def test_povm_round_trip(tmp_path):
    povm = random_povm(3, 4, Rng(2))
    path = tmp_path / "povm.json"
    io.save_measurement(povm, path)
    back = io.load_measurement(str(path))
    for a, b in zip(povm.elements, back.elements):
        assert np.array_equal(a, b)


def test_instrument_round_trip(tmp_path):
    inst = qcore.lueders_instrument(qcore.trine_povm())
    path = tmp_path / "inst.json"
    io.save_measurement(inst, path)
    back = io.load_measurement(str(path))
    assert isinstance(back, Instrument)
    for ga, gb in zip(inst.kraus, back.kraus):
        for a, b in zip(ga, gb):
            assert np.array_equal(a, b)


def test_incomplete_povm_rejected(tmp_path):
    povm = qcore.von_neumann_povm(2)
    scaled = Povm(tuple(0.9 * e for e in povm.elements))
    path = tmp_path / "bad.json"
    io.save_measurement(scaled, path)
    with pytest.raises(InvalidMeasurement,
                       match=r"bad\.json: completeness defect 1\.414e-01$"):
        io.load_measurement(str(path))


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedFile):
        io.load_measurement(str(path))


def test_missing_fields(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"kind": "povm", "dim": 2}), encoding="utf-8")
    with pytest.raises(MalformedFile):
        io.load_measurement(str(path))


def test_unknown_kind(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(
        json.dumps({"kind": "other", "dim": 2, "outcomes": 1, "elements": []}),
        encoding="utf-8",
    )
    with pytest.raises(MalformedFile):
        io.load_measurement(str(path))


def test_nonexistent_path():
    with pytest.raises(MalformedName):
        io.load_measurement("/no/such/file.json")


def test_bad_entry_shape(tmp_path):
    path = tmp_path / "entries.json"
    doc = {
        "kind": "povm",
        "dim": 2,
        "outcomes": 1,
        "elements": [[[1.0, 0.0], [0.0, 1.0]]],  # entries not [re, im] pairs
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedFile):
        io.load_measurement(str(path))


def test_nan_entry_rejected(tmp_path):
    with pytest.raises(InvalidMeasurement, match="nan.json: POVM element 0"):
        io.load_measurement(str(nan_povm_file(tmp_path / "nan.json")))


def test_invalid_builtin_rejected_with_report():
    # p = 1.5 puts an eigenvalue -0.5 in the second element
    with pytest.raises(InvalidMeasurement, match=r"^noisy-z:1\.5,0\.2: element 1: "
                       r"negative eigenvalue -5\.000e-01$"):
        io.load_measurement("noisy-z:1.5,0.2")


def test_read_measurement_parses_without_validating(tmp_path):
    assert isinstance(io.read_measurement("noisy-z:1.5,0.2"), Povm)
    inst = qcore.lueders_instrument(qcore.trine_povm())
    scaled = Instrument(tuple(tuple(2 * k for k in g) for g in inst.kraus))
    io.save_measurement(scaled, tmp_path / "scaled.json")
    back = io.read_measurement(str(tmp_path / "scaled.json"))
    assert back.normalization_defect() > qcore.NORMALIZATION_ATOL
    with pytest.raises(InvalidMeasurement, match="Kraus normalisation defect"):
        io.load_measurement(str(tmp_path / "scaled.json"))


def test_malformed_builtin_names():
    for name in ("noisy-z:abc,1", "noisy-z:0.9", "noisy-z:0.9,0.8,0.7",
                 "vn:x", "vn:0"):
        with pytest.raises(MalformedName):
            io.load_measurement(name)


def test_load_povm_induces_instrument(tmp_path):
    inst = qcore.lueders_instrument(qcore.trine_povm())
    path = tmp_path / "inst.json"
    io.save_measurement(inst, path)
    povm = io.load_povm(str(path))
    assert isinstance(povm, Povm)
    for a, b in zip(povm.elements, qcore.induced_povm(inst).elements):
        assert np.array_equal(a, b)
    trine = io.load_povm("trine")
    assert isinstance(trine, Povm) and trine.outcomes == 3


def test_kraus_shape_mismatch_names_the_source(tmp_path):
    doc = {"kind": "instrument", "dim": 2, "outcomes": 2, "elements": [
        [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        [[[[0.0, 0.0], [1.0, 0.0]]]],
    ]}
    path = tmp_path / "shapes.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ShapeMismatch, match="shapes.json: all Kraus"):
        io.load_measurement(str(path))

