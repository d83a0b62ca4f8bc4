"""JSON file formats: .hpx for duality complexes, .smf for triangulations.

Numbers are stored as bare floats when real and as ``[re, im]`` pairs
otherwise.  A matrix whose entries are all bare numbers loads as float64, and
one with any pair loads as complex128.  Matrices are row lists; their shapes
are implied by the stored dimension vector, so empty blocks round-trip exactly.  A complex with
boundary is an .hpx document with the extra ``boundary_split`` key.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

import numpy as np

from .bordism import ComplexWithBoundary
from .complexes import ChainComplex, DualityOperator, HilbertPoincareComplex
from .errors import ParseError
from .groups import FiniteGroup, GroupAction
from .simplicial import OrientedSimplicialManifold, SimplicialAction

__all__ = ["read_hpx", "read_smf", "write_hpx", "write_smf"]


def _encode_number(z: complex) -> Any:
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _encode_matrix(m: np.ndarray) -> list:
    return [[_encode_number(v) for v in row] for row in np.asarray(m)]


def _decode_number(x: Any, where: str) -> float | complex:
    """A plain number decodes to a float, an ``[re, im]`` pair to a complex."""
    if isinstance(x, bool):
        raise ParseError(f"{where}: expected a number, got a boolean")
    if isinstance(x, (int, float)):
        return float(x)
    if (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
    ):
        return complex(x[0], x[1])
    raise ParseError(f"{where}: expected a number or an [re, im] pair, got {x!r}")


def _decode_matrix(x: Any, rows: int, cols: int, where: str) -> np.ndarray:
    """float64 when every entry is a plain number, complex128 when any entry is
    an ``[re, im]`` pair."""
    if not isinstance(x, list):
        raise ParseError(f"{where}: expected a list of rows")
    if len(x) != rows:
        raise ParseError(f"{where}: expected {rows} rows, got {len(x)}")
    values = []
    for i, row in enumerate(x):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}, row {i}: expected {cols} entries")
        values.append(
            [_decode_number(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
        )
    # numpy infers float64 from Python floats and complex128 once one is complex.
    return np.array(values).reshape((rows, cols))


def _need(doc: dict, key: str, kind, where: str) -> Any:
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseError(f"{where}: key {key!r} has the wrong type")
    return value


def _int_list(x: Any, where: str) -> list[int]:
    if not isinstance(x, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in x
    ):
        raise ParseError(f"{where}: expected a list of integers")
    return list(x)


def _int_lists(lists: list, width: int | None = None) -> bool:
    """:func:`_int_list` of every item of ``lists`` at once, each ``width``
    long when given, as a verdict only."""
    return (
        set(map(type, lists)) <= {list}
        and set(map(type, itertools.chain.from_iterable(lists))) <= {int}
        and (width is None or set(map(len, lists)) <= {width})
    )


def _read_group(raw: dict, where: str) -> FiniteGroup:
    """The group of an .hpx ``group`` or .smf ``action`` block ``raw``, its
    ``elements`` and ``table``; errors name ``where``, the path and the key."""
    elements = _need(raw, "elements", list, where)
    if not all(isinstance(e, str) for e in elements):
        raise ParseError(f"{where} elements must be strings")
    table = tuple(tuple(_int_list(row, f"{where} table row")) for row in _need(raw, "table", list, where))
    return FiniteGroup(tuple(elements), table)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def write_hpx(
    obj: HilbertPoincareComplex | ComplexWithBoundary, path: str
) -> None:
    """Write a duality complex (or a complex with boundary) as .hpx JSON."""
    if isinstance(obj, ComplexWithBoundary):
        chain, duality, split, action = obj.chain, obj.duality, obj.split, None
    else:
        chain, duality, split, action = obj.chain, obj.duality, None, obj.action
    n = chain.n
    doc: dict[str, Any] = {
        "format": "hpx",
        "n": n,
        "dims": list(chain.dims),
        "b": [_encode_matrix(chain.boundary(k)) for k in range(1, n + 1)],
        "S": [_encode_matrix(duality.block(k)) for k in range(n + 1)],
    }
    if action is not None:
        doc["group"] = {
            "elements": list(action.group.elements),
            "table": [list(row) for row in action.group.table],
            "action": [
                [_encode_matrix(action.degree(g, k)) for k in range(n + 1)]
                for g in range(action.group.order)
            ],
        }
    if split is not None:
        doc["boundary_split"] = [list(ix) for ix in split]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_hpx(path: str) -> HilbertPoincareComplex | ComplexWithBoundary:
    """Read an .hpx file; the ``boundary_split`` key selects the boundary kind.

    Structural problems with the file raise ParseError; the constructed
    objects still run their own validation (an action that is not a unitary
    representation, say, fails with the corresponding error).
    """
    doc = _load_json(path)
    if doc.get("format") != "hpx":
        raise ParseError(f"{path}: format key must be 'hpx'")
    n = _need(doc, "n", int, path)
    if isinstance(n, bool) or n < 0:
        raise ParseError(f"{path}: n must be a nonnegative integer")
    dims = _int_list(_need(doc, "dims", list, path), f"{path}: dims")
    if len(dims) != n + 1 or any(d < 0 for d in dims):
        raise ParseError(f"{path}: dims must hold {n + 1} nonnegative integers")
    braw = _need(doc, "b", list, path)
    if len(braw) != n:
        raise ParseError(f"{path}: b must hold {n} matrices")
    bnds = tuple(
        _decode_matrix(braw[k - 1], dims[k - 1], dims[k], f"{path}: b[{k - 1}]")
        for k in range(1, n + 1)
    )
    sraw = _need(doc, "S", list, path)
    if len(sraw) != n + 1:
        raise ParseError(f"{path}: S must hold {n + 1} matrices")
    sblocks = tuple(
        _decode_matrix(sraw[k], dims[k], dims[n - k], f"{path}: S[{k}]")
        for k in range(n + 1)
    )
    chain = ChainComplex(tuple(dims), bnds)
    duality = DualityOperator(sblocks)

    action = None
    if "group" in doc:
        graw = _need(doc, "group", dict, path)
        group = _read_group(graw, f"{path}: group")
        araw = _need(graw, "action", list, f"{path}: group")
        if len(araw) != group.order:
            raise ParseError(
                f"{path}: group action must hold {group.order} matrix families"
            )
        fams = []
        for g, fam in enumerate(araw):
            if not isinstance(fam, list) or len(fam) != n + 1:
                raise ParseError(
                    f"{path}: group action[{g}] must hold {n + 1} matrices"
                )
            fams.append(
                tuple(
                    _decode_matrix(
                        fam[k], dims[k], dims[k], f"{path}: group action[{g}][{k}]"
                    )
                    for k in range(n + 1)
                )
            )
        action = GroupAction(group, tuple(fams))

    if "boundary_split" in doc:
        if action is not None:
            raise ParseError(
                f"{path}: a complex with boundary cannot carry a group action"
            )
        sraw2 = _need(doc, "boundary_split", list, path)
        if len(sraw2) != n + 1:
            raise ParseError(
                f"{path}: boundary_split must hold {n + 1} index lists"
            )
        split = tuple(
            tuple(_int_list(ix, f"{path}: boundary_split[{m}]"))
            for m, ix in enumerate(sraw2)
        )
        return ComplexWithBoundary(chain, duality, split)
    return HilbertPoincareComplex(chain, duality, action)


def write_smf(
    manifold: OrientedSimplicialManifold,
    path: str,
    action: SimplicialAction | None = None,
) -> None:
    """Write a triangulation (and optional vertex action) as .smf JSON."""
    doc: dict[str, Any] = {
        "format": "smf",
        "dim": manifold.dim,
        "facets": [
            {"verts": f, "sign": s}
            for f, s in zip(manifold._facets.tolist(), manifold.chains.signs.tolist())
        ],
    }
    if action is not None:
        doc["action"] = {
            "elements": list(action.group.elements),
            "table": [list(row) for row in action.group.table],
            "vertex_maps": [
                [[int(v), int(img)] for v, img in sorted(vm.items())]
                for vm in action.vertex_maps
            ],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_smf(
    path: str,
) -> tuple[OrientedSimplicialManifold, SimplicialAction | None]:
    """Read an .smf triangulation file."""
    doc = _load_json(path)
    if doc.get("format") != "smf":
        raise ParseError(f"{path}: format key must be 'smf'")
    fraw = _need(doc, "facets", list, path)
    try:  # every facet at once; the loop below names the first bad one
        facets, signs = [entry["verts"] for entry in fraw], [entry["sign"] for entry in fraw]
        valid = _int_lists(facets) and set(map(type, signs)) <= {int}
    except (KeyError, TypeError):
        valid = False
    if not valid:
        facets, signs = [], []
        for i, entry in enumerate(fraw):
            if not isinstance(entry, dict):
                raise ParseError(f"{path}: facets[{i}] must be an object")
            facets.append(_int_list(_need(entry, "verts", list, f"{path}: facets[{i}]"),
                                    f"{path}: facets[{i}].verts"))
            signs.append(_need(entry, "sign", int, f"{path}: facets[{i}]"))
            if isinstance(signs[-1], bool):
                raise ParseError(f"{path}: facets[{i}]: key 'sign' has the wrong type")
    manifold = OrientedSimplicialManifold(facets, signs)
    if "dim" in doc and doc["dim"] != manifold.dim:
        raise ParseError(
            f"{path}: dim key says {doc['dim']} but facets have dimension "
            f"{manifold.dim}"
        )
    action = None
    if "action" in doc:
        araw = _need(doc, "action", dict, path)
        group = _read_group(araw, f"{path}: action")
        vraw = _need(araw, "vertex_maps", list, f"{path}: action")
        if len(vraw) != group.order:
            raise ParseError(f"{path}: vertex_maps must hold {group.order} maps")
        # every pair at once; the loop names the first bad map or pair
        if not (set(map(type, vraw)) <= {list} and _int_lists([*itertools.chain(*vraw)], 2)):
            for g, pairs in enumerate(vraw):
                if not isinstance(pairs, list):
                    raise ParseError(f"{path}: vertex_maps[{g}] must be a list of pairs")
                for pair in pairs:
                    if len(_int_list(pair, f"{path}: vertex_maps[{g}] entry")) != 2:
                        raise ParseError(
                            f"{path}: vertex_maps[{g}] entries must be [vertex, image]"
                        )
        action = SimplicialAction(group, tuple(dict(pairs) for pairs in vraw))
    return manifold, action
