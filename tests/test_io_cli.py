"""Round-trip tests for the file formats and end-to-end CLI tests."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hpsig import (
    ChainComplex,
    ComplexWithBoundary,
    DualityOperator,
    FiniteGroup,
    HilbertPoincareComplex,
    SimplicialAction,
    barycentric_subdivide,
    check_coincidence,
    generate_with_boundary,
    generate_with_signature,
    read_hpx,
    read_smf,
    reduced_signature,
    to_hp_complex,
    verify_duality,
    verify_equivariance,
    verify_with_boundary,
    write_hpx,
    write_smf,
)
from hpsig.cli import main
from hpsig.errors import ParseError
from hpsig.fixtures import (
    model_projective_plane,
    octahedron,
    octahedron_rotation,
    simplex_disk,
    simplex_sphere,
)


def _zero_duality_complex() -> HilbertPoincareComplex:
    dims = (1, 0, 1)
    blocks = (
        np.zeros((1, 1), dtype=np.complex128),
        np.zeros((0, 0), dtype=np.complex128),
        np.zeros((1, 1), dtype=np.complex128),
    )
    bnds = (
        np.zeros((1, 0), dtype=np.complex128),
        np.zeros((0, 1), dtype=np.complex128),
    )
    return HilbertPoincareComplex(ChainComplex(dims, bnds), DualityOperator(blocks))


def test_hpx_roundtrip_plain(tmp_path):
    hp, expected = generate_with_signature(0, "n2-d6")
    path = str(tmp_path / "c.hpx")
    write_hpx(hp, path)
    back = read_hpx(path)
    assert isinstance(back, HilbertPoincareComplex)
    assert back.dims == hp.dims
    for m in range(1, hp.n + 1):
        assert np.array_equal(back.chain.boundary(m), hp.chain.boundary(m))
    for k in range(hp.n + 1):
        assert np.array_equal(back.duality.block(k), hp.duality.block(k))
    a = reduced_signature(hp).k0
    b = reduced_signature(back).k0
    assert a.values == b.values


def test_hpx_real_entries_load_as_real(tmp_path):
    path = str(tmp_path / "r.hpx")
    write_hpx(model_projective_plane(), path)
    back = read_hpx(path)
    assert {s.dtype for s in back.duality.blocks + back.chain.boundaries} == {
        np.dtype(np.float64)
    }
    hp, _ = generate_with_signature(0, "n2-d6")
    write_hpx(hp, path)
    assert read_hpx(path).total_duality().dtype == np.complex128


def test_hpx_roundtrip_with_action(tmp_path):
    hp, _ = generate_with_signature(1, "n2-z3")
    path = str(tmp_path / "c.hpx")
    write_hpx(hp, path)
    back = read_hpx(path)
    assert back.action is not None
    assert back.action.group.table == hp.action.group.table
    for g in range(3):
        for k in range(hp.n + 1):
            assert np.array_equal(back.action.degree(g, k), hp.action.degree(g, k))


def test_hpx_roundtrip_with_boundary(tmp_path):
    cwb = generate_with_boundary(2, "n2-d6")
    path = str(tmp_path / "b.hpx")
    write_hpx(cwb, path)
    back = read_hpx(path)
    assert isinstance(back, ComplexWithBoundary)
    assert back.split == cwb.split
    assert verify_with_boundary(back).passed


def test_smf_roundtrip_with_action(tmp_path):
    m = octahedron()
    act = octahedron_rotation()
    path = str(tmp_path / "m.smf")
    write_smf(m, path, act)
    m2, act2 = read_smf(path)
    assert m2.facets == m.facets
    assert m2.signs == m.signs
    assert act2 is not None
    assert act2.vertex_maps == act.vertex_maps
    assert act2.group.table == act.group.table


def test_read_hpx_rejects_malformed(tmp_path):
    path = tmp_path / "bad.hpx"

    path.write_text("not json")
    with pytest.raises(ParseError):
        read_hpx(str(path))

    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        read_hpx(str(path))

    path.write_text(json.dumps({"format": "smf"}))
    with pytest.raises(ParseError):
        read_hpx(str(path))

    path.write_text(json.dumps({"format": "hpx", "n": -1, "dims": [], "b": [], "S": []}))
    with pytest.raises(ParseError):
        read_hpx(str(path))

    # wrong number of boundary matrices
    path.write_text(
        json.dumps({"format": "hpx", "n": 1, "dims": [1, 1], "b": [], "S": [[[1]], [[1]]]})
    )
    with pytest.raises(ParseError):
        read_hpx(str(path))

    # boolean is not a number
    path.write_text(
        json.dumps(
            {"format": "hpx", "n": 0, "dims": [1], "b": [], "S": [[[True]]]}
        )
    )
    with pytest.raises(ParseError):
        read_hpx(str(path))

    # a complex with boundary cannot carry an action
    doc = {
        "format": "hpx",
        "n": 0,
        "dims": [1],
        "b": [],
        "S": [[[1]]],
        "group": {
            "elements": ["e"],
            "table": [[0]],
            "action": [[[[1]]]],
        },
        "boundary_split": [[]],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_hpx(str(path))


def test_read_smf_rejects_malformed(tmp_path):
    path = tmp_path / "bad.smf"
    path.write_text(json.dumps({"format": "hpx"}))
    with pytest.raises(ParseError):
        read_smf(str(path))
    path.write_text(json.dumps({"format": "smf", "facets": [[0, 1]]}))
    with pytest.raises(ParseError):
        read_smf(str(path))
    path.write_text(
        json.dumps(
            {
                "format": "smf",
                "dim": 3,
                "facets": [{"verts": [0, 1, 2], "sign": 1}],
            }
        )
    )
    with pytest.raises(ParseError):
        read_smf(str(path))


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


# (where the bad value goes, the value, the message); a second bad entry
# further on must not be the one named
_NOT_INTEGERS = "facets[1].verts: expected a list of integers"
_BAD_SMF = {
    "verts-bool": (("facets", 1, "verts", 2), True, _NOT_INTEGERS),
    "verts-float": (("facets", 1, "verts", 0), 1.0, _NOT_INTEGERS),
    "verts-string": (("facets", 1, "verts", 1), "3", _NOT_INTEGERS),
    "verts-not-list": (("facets", 1, "verts"), "0 1 2",
                       "facets[1]: key 'verts' has the wrong type"),
    "facet-not-object": (("facets", 1), [0, 1, 2], "facets[1] must be an object"),
    "sign-float": (("facets", 1, "sign"), 1.0, "facets[1]: key 'sign' has the wrong type"),
    "sign-bool": (("facets", 1, "sign"), True, "facets[1]: key 'sign' has the wrong type"),
    "pair-bool": (("action", "vertex_maps", 1, 2, 1), False,
                  "vertex_maps[1] entry: expected a list of integers"),
    "pair-float": (("action", "vertex_maps", 1, 2, 0), 2.0,
                   "vertex_maps[1] entry: expected a list of integers"),
    "pair-string": (("action", "vertex_maps", 1, 0), "0 1",
                    "vertex_maps[1] entry: expected a list of integers"),
    "pair-length": (("action", "vertex_maps", 1, 3), [3, 4, 5],
                    "vertex_maps[1] entries must be [vertex, image]"),
    "map-not-list": (("action", "vertex_maps", 1), {"0": 1},
                     "vertex_maps[1] must be a list of pairs"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_SMF))
def test_read_smf_names_the_first_bad_entry(kind, tmp_path):
    path = str(tmp_path / "bad.smf")
    write_smf(octahedron(), path, octahedron_rotation())
    with open(path) as f:
        doc = json.load(f)
    keys, value, message = _BAD_SMF[kind]
    if keys[0] == "facets":
        _set(doc, ("facets", 3, "verts", 0), 0.5)
    else:
        _set(doc, ("action", "vertex_maps", 2, 0), [0])
    _set(doc, keys, value)
    with open(path, "w") as f:
        json.dump(doc, f)
    with pytest.raises(ParseError) as exc:
        read_smf(path)
    assert str(exc.value) == f"{path}: {message}"


# (the group block's key, its bad value or None to drop it, the message
# after the block's name)
_BAD_GROUP = {
    "elements-not-list": ("elements", "e", ": key 'elements' has the wrong type"),
    "element-not-string": ("elements", ["e", 1], " elements must be strings"),
    "table-missing": ("table", None, ": missing key 'table'"),
    "table-row": ("table", [[0, 1], [1, 0.0]], " table row: expected a list of integers"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_GROUP))
def test_hpx_and_smf_read_their_group_blocks_alike(kind, tmp_path):
    key, value, message = _BAD_GROUP[kind]
    hp, _ = generate_with_signature(0, "n2-z2")
    m, act = octahedron(), octahedron_rotation()
    for path, write, read, block in (
        (str(tmp_path / "c.hpx"), lambda p: write_hpx(hp, p), read_hpx, "group"),
        (str(tmp_path / "m.smf"), lambda p: write_smf(m, p, act), read_smf, "action"),
    ):
        write(path)
        with open(path) as f:
            doc = json.load(f)
        if value is None:
            del doc[block][key]
        else:
            doc[block][key] = value
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {block}{message}"


def test_cli_verify_pass_and_json(tmp_path, capsys):
    hp, _ = generate_with_signature(0, "n2-z2")
    path = str(tmp_path / "c.hpx")
    write_hpx(hp, path)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert main(["verify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["kind"] == "closed"
    assert doc["residuals"]["chain_condition"] <= 1e-9


def test_cli_verify_degenerate_exit_code(tmp_path, capsys):
    path = str(tmp_path / "z.hpx")
    write_hpx(_zero_duality_complex(), path)
    assert main(["verify", path]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def _moved(duality: DualityOperator, eps: float = 1e-3) -> DualityOperator:
    """``duality`` plus ``eps`` times a seeded family that is not self-adjoint."""
    rng = np.random.default_rng(7)
    return DualityOperator(tuple(b + eps * rng.standard_normal(b.shape) for b in duality.blocks))


def test_cli_verify_with_boundary_quotient_cone_only_is_degenerate(tmp_path, capsys):
    hp = _zero_duality_complex()
    cwb = ComplexWithBoundary(hp.chain, hp.duality, ((), (), ()))
    rep = verify_with_boundary(cwb)
    # every structural identity holds and the quotient cone is the one failed gate
    assert not rep.cone_invertible and len(rep.failures) == 1
    assert rep.failures[0] not in rep.residuals
    assert not any("cone" in name for name in rep.residuals)
    path = str(tmp_path / "zb.hpx")
    write_hpx(cwb, path)
    assert main(["verify", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "cone min singular value    0.000e+00  FAIL" in captured.out
    assert "verify: FAIL" in captured.out
    assert main(["verify", path, "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "with-boundary"
    assert doc["failures"] == list(rep.failures)


def test_cli_verify_with_boundary_structural_failure_exit_code(tmp_path, capsys):
    cwb = generate_with_boundary(3, "n2-d6")
    moved = ComplexWithBoundary(cwb.chain, _moved(cwb.duality), cwb.split)
    rep = verify_with_boundary(moved)
    assert "duality-selfadjoint" in rep.failures
    path = str(tmp_path / "mb.hpx")
    write_hpx(moved, path)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert [line.split()[-1] for line in out.splitlines() if "duality-selfadjoint" in line] == [
        "FAIL"
    ]
    assert "verify: FAIL" in out


def test_cli_verify_closed_nonselfadjoint_exit_code(tmp_path, capsys):
    hp, _ = generate_with_signature(5, "n2-d6")
    path = str(tmp_path / "m.hpx")
    write_hpx(HilbertPoincareComplex(hp.chain, _moved(hp.duality)), path)
    assert main(["verify", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line[2:26].strip(): line.split()[-1] for line in lines if line.startswith("  ")}
    assert verdicts["duality self-adjoint"] == "FAIL"
    assert verdicts["boundary squared"] == "ok"
    assert lines[-1] == "verify: FAIL (tol 1e-09)"


def test_cli_bordism_check_failure_exit_code(tmp_path, capsys):
    cwb = generate_with_boundary(3, "n2-d6")
    path = str(tmp_path / "mb.hpx")
    write_hpx(ComplexWithBoundary(cwb.chain, _moved(cwb.duality), cwb.split), path)
    assert main(["bordism-check", path]) == 1
    assert capsys.readouterr().err.startswith("failure:")


def test_cli_bordism_check_reports_a_structural_failure(tmp_path, capsys):
    # a duality that is not self-adjoint fails structural gates, so no
    # boundary object exists; the structure and attaching reports still print
    cwb = generate_with_boundary(3, "n2-d6")
    path = str(tmp_path / "mb.hpx")
    write_hpx(ComplexWithBoundary(cwb.chain, _moved(cwb.duality), cwb.split), path)
    assert main(["bordism-check", path]) == 1
    out = capsys.readouterr().out
    assert "duality-selfadjoint" in out and "FAIL" in out
    assert "attaching cone squares" in out
    assert "not computed: chain identities failed" in out
    assert out.rstrip().endswith("bordism-check: FAIL (tol 1e-09)")
    assert main(["bordism-check", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert "duality-selfadjoint" in doc["structure"]["failures"]
    assert not doc["attaching"]["hyperbolic_valid"]
    assert doc["boundary_class_zero"] is None
    assert doc["boundary_class_error"].startswith("chain identities failed")
    assert doc["passed"] is False


def test_cli_bordism_check_prints_checks_that_did_not_run(tmp_path, capsys, verdict_sweep):
    # the byte sweep's b-n2-d6-3-nsa.hpx: its quotient data is not hyperbolic
    # input, so the coupling chain map and the boundary formula are not checked
    cwb = verdict_sweep.perturbed_with_boundary(
        generate_with_boundary(3, "n2-d6"), "b-n2-d6-3", "nsa", 1e-3
    )
    path = str(tmp_path / "b-n2-d6-3-nsa.hpx")
    write_hpx(cwb, path)
    assert main(["bordism-check", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  hyperbolic quotient valid:   False" in lines
    for label in ("coupling chain map", "boundary duality formula"):
        assert f"  {label:<24s}     not run" in lines
    assert not any("nan" in line for line in lines)
    assert main(["bordism-check", path, "--json"]) == 1
    text = capsys.readouterr().out
    assert "NaN" not in text
    attaching = json.loads(text)["attaching"]
    assert attaching["hyperbolic_valid"] is False
    assert attaching["chain_map_residual"] is None
    assert attaching["boundary_formula_residual"] is None


# the byte sweep's with-boundary files whose boundary class raises: the stderr
# line and the exit code of the error, which the report does not change
_UNCOMPUTED_CLASSES = {
    "b-zero-quotient": ("failure: signature constructions need even top degree, got 1\n", 1),
    "b-n2-0-sa": (
        "degenerate: boundary duality cone is singular (smallest singular value 0.000e+00)\n",
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(_UNCOMPUTED_CLASSES))
def test_cli_bordism_check_reports_a_boundary_class_that_raises(tmp_path, capsys, name,
                                                                verdict_sweep):
    if name == "b-zero-quotient":
        chain, zero = verdict_sweep._zero_duality_chain()
        cwb = ComplexWithBoundary(chain, zero, ((), (), ()))
    else:
        cwb = verdict_sweep.perturbed_with_boundary(
            generate_with_boundary(0, "n2"), "b-n2-0", "sa", 1e-9
        )
    path = str(tmp_path / f"{name}.hpx")
    write_hpx(cwb, path)
    err, code = _UNCOMPUTED_CLASSES[name]
    why = err.split(": ", 1)[1].rstrip("\n")
    assert main(["bordism-check", path]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    lines = captured.out.splitlines()
    assert lines[:1] == ["structure:"] and "attaching construction:" in lines
    assert any(line.startswith("  attaching cone squares") for line in lines)
    assert lines[-3:] == ["boundary class:", f"  not computed: {why}",
                          "bordism-check: FAIL (tol 1e-09)"]
    assert main(["bordism-check", path, "--json"]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    doc = json.loads(captured.out)
    assert {"structure", "attaching"} <= doc.keys()
    assert doc["boundary_class_zero"] is None
    assert doc["boundary_class_error"] == why
    assert doc["passed"] is False


def test_cli_signature(tmp_path, capsys):
    hp, expected = generate_with_signature(5, "n2-d6")
    path = str(tmp_path / "c.hpx")
    write_hpx(hp, path)
    assert main(["signature", path]) == 0
    out = capsys.readouterr().out
    assert "coincidence: PASS" in out
    assert main(["signature", path, "--method", "mishchenko", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "mishchenko"
    got = complex(*doc["class"]["classes"][0]["value"])
    assert abs(got - expected.values[0]) < 1e-6


def test_cli_signature_rejects_boundary_file(tmp_path, capsys):
    cwb = generate_with_boundary(0, "n2")
    path = str(tmp_path / "b.hpx")
    write_hpx(cwb, path)
    assert main(["signature", path]) == 1
    assert "bordism-check" in capsys.readouterr().err


def test_cli_boundary_extracts_file(tmp_path, capsys):
    cwb = generate_with_boundary(1, "n2-d6")
    src = str(tmp_path / "b.hpx")
    dst = str(tmp_path / "edge.hpx")
    write_hpx(cwb, src)
    assert main(["boundary", src, "-o", dst]) == 0
    out = capsys.readouterr().out
    assert "written to" in out
    hp = read_hpx(dst)
    assert isinstance(hp, HilbertPoincareComplex)
    assert main(["verify", dst]) == 0


def test_cli_cone(tmp_path, capsys):
    hp, _ = generate_with_signature(4, "n2")
    good = str(tmp_path / "c.hpx")
    write_hpx(hp, good)
    assert main(["cone", good]) == 0
    assert "cone: PASS" in capsys.readouterr().out
    bad = str(tmp_path / "z.hpx")
    write_hpx(_zero_duality_complex(), bad)
    assert main(["cone", bad]) == 3
    assert "DEGENERATE" in capsys.readouterr().out


def test_cli_bordism_check(tmp_path, capsys):
    cwb = generate_with_boundary(3, "n2-d6")
    path = str(tmp_path / "b.hpx")
    write_hpx(cwb, path)
    assert main(["bordism-check", path]) == 0
    out = capsys.readouterr().out
    assert "bordism-check: PASS" in out
    assert "boundary class vanishes: True" in out


def test_cli_manifold_closed_with_action(tmp_path, capsys):
    path = str(tmp_path / "oct.smf")
    write_smf(octahedron(), path, octahedron_rotation())
    assert main(["manifold", path, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "max isotropy order 4" in out
    assert "PASS" in out


def test_cli_manifold_reports_the_equivariance_residuals(tmp_path, capsys):
    path = str(tmp_path / "oct.smf")
    write_smf(octahedron(), path, octahedron_rotation())
    assert main(["manifold", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    eq = verify_equivariance(octahedron(), octahedron_rotation())
    assert payload["equivariance"] == {
        "boundary_residual": eq.boundary_residual,
        "duality_residual": eq.duality_residual,
        "passed": True,
    }
    assert payload["passed"] is True


def test_cli_manifold_with_boundary(tmp_path, capsys):
    path = str(tmp_path / "disk.smf")
    write_smf(simplex_disk(3), path)
    assert main(["manifold", path]) == 0
    out = capsys.readouterr().out
    assert "boundary class vanishes:  True" in out


def test_cli_stats(tmp_path, capsys):
    path = str(tmp_path / "oct.smf")
    write_smf(octahedron(), path)
    assert main(["stats", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["simplex_counts"] == [6, 12, 8]
    assert doc["with_boundary"] is False


def test_cli_generate_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.hpx")
    b = str(tmp_path / "b.hpx")
    assert main(["generate", "--seed", "9", "--profile", "n2-z2-d6", "-o", a]) == 0
    assert main(["generate", "--seed", "9", "--profile", "n2-z2-d6", "-o", b]) == 0
    capsys.readouterr()
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()
    assert main(["verify", a]) == 0
    capsys.readouterr()


def test_cli_generate_with_boundary(tmp_path, capsys):
    path = str(tmp_path / "gb.hpx")
    code = main(
        ["generate", "--seed", "2", "--profile", "n2", "--with-boundary", "-o", path]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["bordism-check", path]) == 0
    capsys.readouterr()


def test_cli_generate_refuses_a_negative_seed(capsys):
    for extra in ([], ["--with-boundary"]):
        assert main(["generate", "--seed", "-1", "--profile", "n2", *extra]) == 2
        assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n")


def test_cli_subdivide(tmp_path, capsys):
    src = str(tmp_path / "oct.smf")
    dst = str(tmp_path / "oct2.smf")
    write_smf(octahedron(), src, octahedron_rotation())
    assert main(["subdivide", src, "-o", dst]) == 0
    capsys.readouterr()
    m2, act2 = read_smf(dst)
    assert len(m2.facets) == 48
    assert act2 is not None
    assert main(["manifold", dst]) == 0
    capsys.readouterr()


def test_cli_refuses_a_vertex_map_that_leaves_out_a_vertex(tmp_path, capsys):
    path = str(tmp_path / "missing-vertex.smf")
    maps = ({v: v for v in range(6)}, {v: v for v in range(5)})
    write_smf(octahedron(), path, SimplicialAction(FiniteGroup.cyclic(2), maps))
    for argv in (
        ["manifold", path],
        ["manifold", path, "--stats"],
        ["stats", path],
        ["subdivide", path, "-o", str(tmp_path / "sd.smf")],
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "failure: element g does not permute the vertex set\n")


def test_cli_reads_a_vertex_image_outside_int64_as_a_non_vertex(tmp_path, capsys):
    # the same verdicts as for an image label that fits but is not a vertex
    outs = []
    for label in (7, 2**70):
        path = str(tmp_path / f"image-{label}.smf")
        maps = ({v: v for v in range(4)}, {0: 1, 1: 0, 2: 2, 3: label})
        write_smf(simplex_sphere(2), path, SimplicialAction(FiniteGroup.cyclic(2), maps))
        assert main(["manifold", path]) == 1
        assert capsys.readouterr() == ("", "failure: element g does not permute the vertex set\n")
        assert main(["stats", path]) == 0
        outs.append(capsys.readouterr().out)
        assert main(["subdivide", path, "-o", str(tmp_path / "sd.smf")]) == 1
        assert capsys.readouterr() == (
            "", f"failure: element g maps simplex (3,) to ({label},), which is not a simplex\n"
        )
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "verts, message",
    [
        ([0, 1, 2**70], f"vertex label {2**70} is outside the 64-bit integer range"),
        ([], "facet () has no vertex"),
    ],
)
def test_cli_refuses_a_facet_it_cannot_read_as_vertex_numbers(verts, message, tmp_path, capsys):
    path = tmp_path / "bad.smf"
    path.write_text(json.dumps({"format": "smf", "facets": [{"verts": verts, "sign": 1}]}))
    assert main(["manifold", str(path)]) == 1
    assert capsys.readouterr() == ("", f"failure: {message}\n")


def test_hpx_round_trip_of_a_triangulation_reads_a_dense_action(tmp_path):
    hp = to_hp_complex(*barycentric_subdivide(octahedron(), octahedron_rotation()))
    path = str(tmp_path / "octahedron-sd-z4.hpx")
    write_hpx(hp, path)
    back = read_hpx(path)
    assert hp.action.is_signed_permutation and not back.action.is_signed_permutation
    assert verify_duality(back).failures == verify_duality(hp).failures == ()
    want, got = check_coincidence(hp), check_coincidence(back)
    assert got.passed and want.passed
    for a, b in zip(want.results, got.results):
        assert a.method == b.method and a.k0.multiplicities == b.k0.multiplicities


def test_cli_parse_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.hpx")
    assert main(["verify", missing]) == 2
    bad = tmp_path / "bad.hpx"
    bad.write_text("{broken")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_tol_flag_and_env(tmp_path, capsys, monkeypatch):
    hp, _ = generate_with_signature(0, "n2")
    path = str(tmp_path / "c.hpx")
    write_hpx(hp, path)
    assert main(["verify", path, "--tol", "-1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("HPSIG_TOL", "banana")
    assert main(["verify", path]) == 2
    capsys.readouterr()
    monkeypatch.setenv("HPSIG_TOL", "1e-3")
    assert main(["verify", path]) == 0
    assert "tol 0.001" in capsys.readouterr().out


def test_cli_refuses_an_infinite_tolerance(tmp_path, capsys, monkeypatch):
    # this complex passes at the default tolerance; at an infinite one every
    # residual gate would pass and the cone would read as degenerate
    hp, _ = generate_with_signature(3, "n2-z2")
    path = str(tmp_path / "c.hpx")
    write_hpx(hp, path)
    assert main(["verify", path]) == 0
    capsys.readouterr()
    refused = {"-1": "positive, got -1.0", "0": "positive, got 0.0", "nan": "positive, got nan",
               "inf": "finite, got inf"}
    for tol, why in refused.items():
        assert main(["verify", path, "--tol", tol]) == 2
        assert capsys.readouterr().err == f"error: --tol must be {why}\n"
    monkeypatch.setenv("HPSIG_TOL", "inf")
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err == "error: HPSIG_TOL must be finite, got 'inf'\n"


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hpsig.cli", "generate", "--seed", "1", "--profile", "n2"],
        capture_output=True,
        text=True,
    )
    # module execution works the same as the installed script's entry point
    assert proc.returncode == 0
    assert "expected signature class" in proc.stdout
    proc2 = subprocess.run(
        [sys.executable, "-m", "hpsig", "generate", "--seed", "1", "--profile", "n2"],
        capture_output=True,
        text=True,
    )
    assert proc2.returncode == 0
    assert "expected signature class" in proc2.stdout
