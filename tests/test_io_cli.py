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
    HilbertPoincareComplex,
    generate_with_boundary,
    generate_with_signature,
    read_hpx,
    read_smf,
    reduced_signature,
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
