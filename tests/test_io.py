import json

import numpy as np
import pytest

from measrep import cli, io, qcore
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


def test_an_outcome_with_no_kraus_operators_round_trips(tmp_path, capsys):
    # saved as [], which read_measurement once refused as "needs Kraus list"
    inst = Instrument(((np.eye(2),), ()))
    path = tmp_path / "inst.json"
    io.save_measurement(inst, path)
    back = io.load_measurement(str(path))
    assert isinstance(back, Instrument)
    assert back.kraus[1] == () and np.array_equal(back.kraus[0][0], np.eye(2))
    for command in ("validate", "postmeas"):
        assert cli.main([command, str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out.splitlines()[-1])["rows"]
        assert rows and all(r["value"] == 0 and r["status"] == "PASS" for r in rows)
    path.write_text(path.read_text(encoding="utf-8").replace("[]", "{}"),
                    encoding="utf-8")
    with pytest.raises(MalformedFile, match="outcome 1 needs Kraus list"):
        io.read_measurement(str(path))


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


def test_saving_what_is_not_a_measurement_is_refused(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(TypeError, match="^cannot serialise ndarray$"):
        io.save_measurement(np.eye(2), path)
    assert not path.exists()


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


@pytest.mark.parametrize("field, value", [
    ("dim", "1e400"), ("dim", "-1e400"), ("outcomes", "1e400"), ("dim", "NaN"),
])
def test_a_header_field_that_is_not_finite_is_malformed(tmp_path, field, value):
    # int() of an infinite header once raised an untyped OverflowError
    header = {"dim": "2", "outcomes": "1", field: value}
    path = tmp_path / "huge.json"
    path.write_text(f'{{"kind": "povm", "dim": {header["dim"]}, '
                    f'"outcomes": {header["outcomes"]}, "elements": []}}',
                    encoding="utf-8")
    with pytest.raises(MalformedFile, match="huge.json: missing or bad header field"):
        io.read_measurement(str(path))


def test_deeply_nested_json_is_malformed(tmp_path):
    # json.loads once ended here in an untyped RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(MalformedFile, match="deep.json: invalid JSON"):
        io.read_measurement(str(path))


def _set_entry(doc, value):
    doc["elements"][0][0][0] = value
    return doc


# each of these once read as a valid trine, but the huge entry, which
# ended in an untyped OverflowError
@pytest.mark.parametrize("change, message", [
    (lambda doc: _set_entry(doc, doc["elements"][0][0][0] + [5]), "entries must be"),
    (lambda doc: _set_entry(doc, [True, False]), "entries must be"),
    (lambda doc: _set_entry(doc, [10**400, 0]), "entries must be"),
    (lambda doc: dict(doc, dim=2.7), "missing or bad header field"),
    (lambda doc: dict(doc, dim=2.0), "missing or bad header field"),
    (lambda doc: dict(doc, dim="2"), "missing or bad header field"),
    (lambda doc: dict(doc, outcomes=3.0), "missing or bad header field"),
    (lambda doc: dict(doc, outcomes=True, elements=doc["elements"][:1]),
     "missing or bad header field"),
], ids=["three-numbers", "booleans", "huge-int", "dim-2.7", "dim-2.0", "dim-string",
        "outcomes-3.0", "outcomes-true"])
def test_a_file_off_the_re_im_schema_is_malformed(tmp_path, capsys, change, message):
    path = tmp_path / "trine.json"
    io.save_measurement(qcore.trine_povm(), path)
    assert isinstance(io.load_measurement(str(path)), Povm)
    doc = change(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedFile, match=message):
        io.read_measurement(str(path))
    assert cli.main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _set_kraus(doc, a, value):
    doc["elements"][a][0] = value
    return doc


# an element that does not parse is named after the file, as every other
# malformed-file error is
@pytest.mark.parametrize("measurement, change, message", [
    (qcore.trine_povm(), lambda doc: _set_entry(doc, [1, 0, 5]),
     "element 0: entries must be [re, im] pairs"),
    (qcore.trine_povm(), lambda doc: _set_entry(doc, [True, False]),
     "element 0: entries must be [re, im] pairs"),
    (qcore.trine_povm(), lambda doc: _set_entry(doc, [10**400, 0]),
     "element 0: entries must be [re, im] pairs"),
    (qcore.trine_povm(), lambda doc: dict(doc, elements=doc["elements"][:2] + [[]]),
     "element 2: expected a matrix"),
    (qcore.lueders_instrument(qcore.trine_povm()),
     lambda doc: _set_kraus(doc, 1, [[[1, 0]], [[0, 0], [1, 0]]]),
     "outcome 1 Kraus 0: entries must be [re, im] pairs"),
    (qcore.lueders_instrument(qcore.trine_povm()), lambda doc: _set_kraus(doc, 2, []),
     "outcome 2 Kraus 0: expected a matrix"),
    (qcore.trine_povm(), lambda doc: {k: v for k, v in doc.items() if k != "kind"},
     "missing 'kind'"),
    (qcore.trine_povm(), lambda doc: dict(doc, dim=3), "element shape != (3, 3)"),
    (qcore.lueders_instrument(qcore.trine_povm()), lambda doc: dict(doc, dim=3),
     "Kraus input dim != 3"),
    (qcore.trine_povm(), lambda doc: dict(doc, kind="other"), "unknown kind 'other'"),
], ids=["three-numbers", "booleans", "huge-int", "no-rows", "ragged-kraus",
        "no-kraus-rows", "no-kind", "element-dim", "kraus-dim", "unknown-kind"])
def test_an_element_that_does_not_parse_is_named_after_the_file(
        tmp_path, capsys, measurement, change, message):
    path = tmp_path / "m.json"
    io.save_measurement(measurement, path)
    doc = change(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedFile) as info:
        io.read_measurement(str(path))
    assert str(info.value) == f"{path}: {message}"
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
