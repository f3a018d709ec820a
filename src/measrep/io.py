"""Measurement serialization.

JSON files hold either a POVM or an instrument. Every matrix entry is a
``[re, im]`` pair of decimal numbers so files stay exact, diffable, and
language-neutral. A handful of built-in measurements are available by
name instead of a path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from . import qcore
from .errors import InvalidMeasurement, MalformedFile, MalformedName, ShapeMismatch
from .qcore import Instrument, Povm


def _matrix_to_json(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _entry(e) -> complex:
    """One ``[re, im]`` pair of JSON numbers; a boolean is not a number."""
    if type(e) is not list or len(e) != 2 or {type(v) for v in e} - {int, float}:
        raise TypeError
    return complex(e[0], e[1])


def _matrix_from_json(rows, what: str) -> np.ndarray:
    try:
        arr = np.array([[_entry(e) for e in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # complex(10**400, 0)
        raise MalformedFile(f"{what}: entries must be [re, im] pairs") from exc
    if arr.ndim != 2:
        raise MalformedFile(f"{what}: expected a matrix")
    # validation squares entries, a Kraus entry twice; NaN and inf fail later
    if 1e50 <= np.abs(arr).max(initial=0.0) < np.inf:
        raise MalformedFile(f"{what}: entries must lie below 1e50 in magnitude")
    return arr


def save_measurement(obj: Union[Povm, Instrument], path) -> None:
    if isinstance(obj, Povm):
        doc = {
            "kind": "povm",
            "dim": obj.dim,
            "outcomes": obj.outcomes,
            "elements": [_matrix_to_json(e) for e in obj.elements],
        }
    elif isinstance(obj, Instrument):
        doc = {
            "kind": "instrument",
            "dim": obj.dim_in,
            "outcomes": obj.outcomes,
            "elements": [[_matrix_to_json(k) for k in g] for g in obj.kraus],
        }
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def _builtin(name: str):
    """The builder of the built-in measurement ``name``, or None when
    ``read_measurement`` reads ``name`` as a path. Only the builder parses
    parameters, so asking never raises and builds no measurement."""
    if name == "trine":
        return qcore.trine_povm
    if name == "degenerate-qutrit":
        return qcore.degenerate_qutrit_povm
    if name.startswith("noisy-z:"):
        return lambda: _noisy_z(name)
    if name.startswith("vn:"):
        return lambda: _von_neumann(name)
    return None


def _noisy_z(name: str) -> Povm:
    try:
        p, q = (float(v) for v in name.split(":", 1)[1].split(","))
    except ValueError:
        raise MalformedName(f"expected noisy-z:p,q with two numbers, "
                            f"got {name!r}") from None
    return qcore.noisy_z_povm(p, q)


def _von_neumann(name: str) -> Povm:
    d = name.split(":", 1)[1].lstrip("0")
    # ASCII only: str.isdigit also admits "²", which int() refuses,
    # and "٣", which it reads as 3
    if not (d.isascii() and d.isdigit()):
        raise MalformedName(f"expected vn:d with an integer d >= 1, got {name!r}")
    try:
        dim = int(d)
    except ValueError:  # past int()'s digit limit: d^3 >= 10^(3 (len - 1))
        qcore._check_bytes("the von Neumann elements", 16, 10, 3 * (len(d) - 1))
        raise
    return qcore.von_neumann_povm(dim)


def _build(cls, parts, source: str):
    """``cls(parts)``, with the source named in a construction error."""
    try:
        return cls(tuple(parts))
    except (InvalidMeasurement, ShapeMismatch) as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def read_measurement(path_or_name: str) -> Union[Povm, Instrument]:
    """Parse a measurement from a JSON file or a built-in name, without
    validating it.

    Built-ins: "trine", "noisy-z:p,q", "vn:d", "degenerate-qutrit". A
    built-in name whose parameters do not parse, or a name that is
    neither a file nor a built-in, raises ``MalformedName``.
    """
    build = _builtin(str(path_or_name))
    if build is not None:
        return build()
    p = Path(path_or_name)
    if not p.exists():
        raise MalformedName(f"no such file or built-in: {path_or_name!r}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedFile(f"{path_or_name}: invalid JSON ({exc})") from exc
    except OSError as exc:  # a directory, or no permission to read
        raise MalformedFile(f"{path_or_name}: cannot be read ({exc.strerror})") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MalformedFile(f"{path_or_name}: missing 'kind'")
    kind = doc["kind"]
    dim, outcomes, elements = (doc.get(f) for f in ("dim", "outcomes", "elements"))
    if type(dim) is not int or type(outcomes) is not int:  # not 2.7, "2" or true
        raise MalformedFile(f"{path_or_name}: missing or bad header field")
    if not isinstance(elements, list) or len(elements) != outcomes:
        raise MalformedFile(f"{path_or_name}: 'elements' must list each outcome")

    if kind == "povm":
        mats = [_matrix_from_json(e, f"{path_or_name}: element {a}")
                for a, e in enumerate(elements)]
        if any(m.shape != (dim, dim) for m in mats):
            raise MalformedFile(f"{path_or_name}: element shape != ({dim}, {dim})")
        return _build(Povm, mats, path_or_name)
    if kind == "instrument":
        groups = []
        for a, group in enumerate(elements):
            if not isinstance(group, list):  # an outcome may have no Kraus operators
                raise MalformedFile(f"{path_or_name}: outcome {a} needs Kraus list")
            groups.append(
                tuple(
                    _matrix_from_json(k, f"{path_or_name}: outcome {a} Kraus {j}")
                    for j, k in enumerate(group)
                )
            )
        inst = _build(Instrument, groups, path_or_name)
        if inst.dim_in != dim:
            raise MalformedFile(f"{path_or_name}: Kraus input dim != {dim}")
        return inst
    raise MalformedFile(f"{path_or_name}: unknown kind {kind!r}")


def load_measurement(path_or_name: str) -> Union[Povm, Instrument]:
    """``read_measurement``, then validated: a POVM by ``validate_povm``,
    an instrument by its Kraus normalisation. A failing one raises
    ``InvalidMeasurement`` naming its violations."""
    obj = read_measurement(path_or_name)
    if isinstance(obj, Instrument):
        defect = obj.normalization_defect()
        if defect > qcore.NORMALIZATION_ATOL:
            raise InvalidMeasurement(
                f"{path_or_name}: Kraus normalisation defect {defect:.3e}")
        return obj
    report = qcore.validate_povm(obj)
    if not report.ok:
        raise InvalidMeasurement(f"{path_or_name}: " + "; ".join(report.violations))
    return obj


def load_povm(path_or_name: str) -> Povm:
    """``load_measurement``, with an instrument replaced by its induced POVM."""
    obj = load_measurement(path_or_name)
    return qcore.induced_povm(obj) if isinstance(obj, Instrument) else obj
