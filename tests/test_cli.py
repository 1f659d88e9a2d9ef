import csv
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from mkfree import ca, demos
from mkfree.cli import _parse_range, main
from mkfree.errors import ValidationError
from mkfree.model import (BoundaryConditions, Modification, model_to_dict,
                          modification_to_dict)
from mkfree.pipeline import (full_analysis, prepare_modified, run_ca,
                             run_full_modified)
from mkfree.recovery import error_metrics

from conftest import loaded_edge_cut


@pytest.fixture
def small_files(tmp_path):
    """A small solvable model plus an empty modification on disk."""
    cloud, grid, mat, bc = demos.patch(nx=4, ny=4, refine=1)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_dict(cloud, grid, mat, bc)))
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"add": [], "remove": []}))
    return model, mod


def _read_csv(path, expected_name):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# mkfree-csv {expected_name} v1"
    return list(csv.reader(lines[1:]))


class TestSolve:
    def test_writes_versioned_csvs(self, small_files, tmp_path, capsys):
        model, _ = small_files
        out = tmp_path / "out"
        assert main(["solve", str(model), "-o", str(out)]) == 0
        disp = _read_csv(out / "displacements.csv", "displacements")
        assert disp[0] == ["node_id", "axis", "value"]
        assert len(disp) == 1 + 2 * 16      # header + 2 axes per node
        fields = _read_csv(out / "fields.csv", "fields")
        assert fields[0] == ["node_id", "eps_xx", "eps_yy", "gamma_xy",
                             "sig_xx", "sig_yy", "tau_xy",
                             "vm_strain", "vm_stress"]
        assert len(fields) == 1 + 16
        assert "residual norm" in capsys.readouterr().out

    def test_missing_model_is_io_error(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "nope.json"),
                   "-o", str(tmp_path / "out")])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_bad_json_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad), "-o", str(tmp_path / "out")]) == 4

    def test_invalid_model_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 5, "nodes": []}))
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err

    def test_node_outside_the_grid_is_validation_error(self, tmp_path,
                                                       capsys):
        cloud, grid, mat, bc, _ = demos.notch_fill()
        data = model_to_dict(cloud, grid, mat, bc)
        data["nodes"].append({"id": 10 ** 6, "x": [5.0, 12.3]})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "node 1000000 at [5.0, 12.3] lies outside the grid" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("grid", "origin"),
                                              ("material", "E")])
    def test_missing_key_is_validation_error(self, small_files, tmp_path,
                                             capsys, section, key):
        model, _ = small_files
        data = json.loads(model.read_text())
        del data[section][key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert f"missing '{key}'" in capsys.readouterr().err


def _edited(model, tmp_path, path, value):
    """Copy of the model file with the entry at ``path`` set to ``value``
    (written with json's NaN/Infinity literals, which it parses back)."""
    data = json.loads(model.read_text())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(data))
    return bad


class TestInvalidNumbers:
    @pytest.mark.parametrize("key, value", [
        ("origin", [0, 0, 0]), ("cell_size", [0.125]),
    ], ids=["3d-origin", "one-cell-size"])
    def test_grid_entry_per_count(self, small_files, tmp_path, capsys, key,
                                  value):
        model, _ = small_files
        bad = _edited(model, tmp_path, ("grid", key), value)
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "one entry per cell count" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("nodes", 15, "id"), 15.5),
        (("bc", "fixed", 0, 1), 0.5),
        (("dim",), 2.0),
        (("grid", "counts", 0), 3.5),
    ], ids=["node-id", "fixed-axis", "dim", "grid-count"])
    def test_non_integer_is_validation_error(self, small_files, tmp_path,
                                             capsys, path, value):
        model, _ = small_files
        bad = _edited(model, tmp_path, path, value)
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("bc", "point_loads"), [[5, 1, float("nan")]]),
        (("material", "E"), float("inf")),
        (("grid", "origin", 0), float("nan")),
        (("bc", "tractions", 0, "q", 0), float("inf")),
    ], ids=["point-load", "modulus", "grid-origin", "traction-q"])
    def test_non_finite_is_validation_error(self, small_files, tmp_path,
                                            capsys, path, value):
        model, _ = small_files
        bad = _edited(model, tmp_path, path, value)
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("from", [7, 0, 0]), ("q", [1, 0, 5]), ("to", [7]), ("q", [1]),
    ], ids=["long-from", "long-q", "short-to", "short-q"])
    def test_traction_of_wrong_length_is_validation_error(
            self, small_files, tmp_path, capsys, key, value):
        model, _ = small_files
        bad = _edited(model, tmp_path, ("bc", "tractions", 0, key), value)
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "traction 0" in capsys.readouterr().err

    def test_overflowing_number_is_validation_error(self, small_files,
                                                    tmp_path, capsys):
        model, _ = small_files
        bad = _edited(model, tmp_path, ("material", "E"), 10 ** 400)
        rc = main(["solve", str(bad), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("remove", ["55", [5, 6.9]],
                             ids=["string", "fraction"])
    def test_removed_id_not_integer_is_validation_error(
            self, small_files, tmp_path, capsys, remove):
        model, _ = small_files
        mod = tmp_path / "bad_mod.json"
        mod.write_text(json.dumps({"remove": remove}))
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "removed node id must be an integer" in capsys.readouterr().err


class TestReanalyze:
    def test_empty_mod_matches_baseline(self, small_files, tmp_path, capsys):
        model, mod = small_files
        base_dir = tmp_path / "base"
        re_dir = tmp_path / "re"
        assert main(["solve", str(model), "-o", str(base_dir)]) == 0
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "--compare", "-o", str(re_dir)])
        assert rc == 0
        base = _read_csv(base_dir / "displacements.csv", "displacements")
        re = _read_csv(re_dir / "displacements.csv", "displacements")
        for (_, _, a), (_, _, b) in zip(base[1:], re[1:]):
            assert float(a) == pytest.approx(float(b), abs=1e-12)
        out = capsys.readouterr().out
        assert "short_circuit = True" in out
        assert "E_u" in out

    def test_ca_method_runs(self, small_files, tmp_path, capsys):
        model, mod = small_files
        rc = main(["reanalyze", str(model), str(mod), "--method", "ca",
                   "--basis", "3", "-o", str(tmp_path / "ca_out")])
        assert rc == 0
        assert (tmp_path / "ca_out" / "fields.csv").exists()
        import re
        res = re.search(r"^residual = (\S+)$", capsys.readouterr().out, re.M)
        assert res and np.isfinite(float(res.group(1)))

    def test_large_ca_basis_converges(self, tmp_path, capsys):
        cloud, grid, mat, bc, mod = demos.l_frame_3d()
        model = tmp_path / "l_frame_3d.json"
        model.write_text(json.dumps(model_to_dict(cloud, grid, mat, bc)))
        mod_file = tmp_path / "l_frame_3d.mod.json"
        mod_file.write_text(json.dumps(modification_to_dict(mod)))
        rc = main(["reanalyze", str(model), str(mod_file), "--method", "ca",
                   "--basis", "100", "--compare", "-o", str(tmp_path / "ca")])
        assert rc == 0
        import re
        err = re.search(r"E_u\s*=\s*(\S+)", capsys.readouterr().out)
        assert err and float(err.group(1)) <= 1e-8

    def test_material_without_modulus_is_validation_error(
            self, small_files, tmp_path, capsys):
        model, _ = small_files
        mod = tmp_path / "bad_mod.json"
        mod.write_text(json.dumps({"material": {"nu": 0.3}}))
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "missing 'E'" in capsys.readouterr().err

    def test_material_of_another_dimension_is_validation_error(
            self, small_files, tmp_path, capsys):
        model, _ = small_files
        mod = tmp_path / "solid_mod.json"
        mod.write_text(json.dumps(
            {"material": {"E": 100.0, "nu": 0.3, "mode": "solid_3d"}}))
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "material mode does not match" in capsys.readouterr().err

    def test_material_change_is_reanalyzed(self, small_files, tmp_path,
                                           capsys):
        """A modification that changes the material, alone and with a
        node removal, reanalyzes through the local update; the run prints
        no update path, and IFU matches the full re-solve."""
        model, _ = small_files
        cloud, *_ = demos.patch(nx=4, ny=4, refine=1)
        from mkfree.model import MaterialModel
        new = MaterialModel(50.0, 0.2)
        for change in (modification_to_dict(_remove_one(cloud)), {}):
            change["material"] = {"E": new.young_modulus,
                                  "nu": new.poisson_ratio}
            mod = tmp_path / "material_mod.json"
            mod.write_text(json.dumps(change))
            rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                       "--compare", "-o", str(tmp_path / "out")])
            assert rc == 0
            out = capsys.readouterr().out
            assert "update path" not in out
            import re
            vals = [float(v) for v in
                    re.findall(r"E_\w+ = ([0-9.e+-]+) %", out)]
            assert len(vals) == 3 and all(v < 1e-6 for v in vals)

    def test_real_modification(self, small_files, tmp_path, capsys):
        model, _ = small_files
        cloud, *_ = demos.patch(nx=4, ny=4, refine=1)
        change = modification_to_dict(_remove_one(cloud))
        mod = tmp_path / "real_mod.json"
        mod.write_text(json.dumps(change))
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "--compare", "-o", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        # IFU is exact: compared errors are at solver roundoff
        import re
        vals = [float(v) for v in
                re.findall(r"E_\w+ = ([0-9.e+-]+) %", out)]
        assert len(vals) == 3
        assert all(v < 1e-6 for v in vals)
        n_d = int(re.search(r"^n_d = (\d+)$", out, re.M).group(1))
        n_coupled = int(re.search(r"^n_coupled = (\d+)$", out, re.M).group(1))
        cond = float(re.search(r"^capacitance_cond = (\S+)$", out,
                               re.M).group(1))
        assert n_d > 0 and n_coupled >= 0
        assert cond >= 1.0


    def test_traction_on_removed_material_is_validation_error(
            self, tmp_path, capsys):
        cloud, grid, mat, bc, change = loaded_edge_cut()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_dict(cloud, grid, mat, bc)))
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(modification_to_dict(change)))
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "acts off the material" in capsys.readouterr().err

    def test_zero_load_ifu_is_exact(self, tmp_path, capsys):
        """An edit that keeps the supports and drops every load has the
        exact answer U = 0, which IFU returns through its answer gate."""
        cloud, grid, mat, bc, _ = demos.notch_fill()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_dict(cloud, grid, mat, bc)))
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(modification_to_dict(Modification(
            bc_change=BoundaryConditions(fixed_dofs=bc.fixed_dofs)))))
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "-o", str(tmp_path / "out")])
        assert rc == 0
        rows = _read_csv(tmp_path / "out" / "displacements.csv",
                         "displacements")
        assert {float(v) for *_, v in rows[1:]} == {0.0}
        assert "short_circuit = True" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["ifu", "ca"])
    def test_zero_load_compare_reports_zero_errors(self, tmp_path, capsys,
                                                   method):
        """Against the full re-solve's U = 0, either method's exact U = 0
        has zero errors, and --compare says so."""
        model, mod = _zero_load_files(tmp_path)
        rc = main(["reanalyze", str(model), str(mod), "--method", method,
                   "--compare", "-o", str(tmp_path / "out")])
        assert rc == 0
        assert ("E_u = 0.000e+00 %  E_eps = 0.000e+00 %  "
                "E_sigma = 0.000e+00 %") in capsys.readouterr().out


def _zero_load_files(tmp_path):
    """notch_fill and an edit whose BCs keep its supports and drop every
    load, on disk."""
    cloud, grid, mat, bc, _ = demos.notch_fill()
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_dict(cloud, grid, mat, bc)))
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(modification_to_dict(Modification(
        bc_change=BoundaryConditions(fixed_dofs=bc.fixed_dofs)))))
    return model, mod


def _remove_one(cloud):
    # drop an interior node: keeps the problem solvable
    centroid = cloud.coords.mean(axis=0)
    nid = cloud.ids[np.argmin(np.linalg.norm(cloud.coords - centroid, axis=1))]
    return Modification(removed_ids=frozenset({int(nid)}))


class TestSweep:
    def test_single_point_range(self, small_files, tmp_path):
        model, _ = small_files
        cloud, *_ = demos.patch(nx=4, ny=4, refine=1)
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(modification_to_dict(_remove_one(cloud))))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", str(model), str(mod), "--basis-range", "2..4",
                   "-o", str(out)])
        assert rc == 0
        rows = _read_csv(out, "sweep")
        assert rows[0] == ["s", "E_u", "E_eps", "E_sigma"]
        assert [r[0] for r in rows[1:]] == ["2", "3", "4"]

    def test_range_builds_one_basis_and_writes_run_ca_rows(
            self, tmp_path, monkeypatch):
        """A sweep over s = 1..12 builds one CA basis, and each row holds
        the errors of run_ca(case, s) against the full re-solve, to the
        last digit."""
        cloud, grid, mat, bc = demos.patch(nx=6, ny=6, refine=1)
        model, mod = tmp_path / "model.json", tmp_path / "mod.json"
        model.write_text(json.dumps(model_to_dict(cloud, grid, mat, bc)))
        mod.write_text(json.dumps(modification_to_dict(_remove_one(cloud))))
        case = prepare_modified(full_analysis(cloud, grid, mat, bc),
                                _remove_one(cloud))
        _, ref, _ = run_full_modified(case)
        expected = [[str(s)] + [repr(e) for e in error_metrics(
            run_ca(case, s)[1], ref)] for s in range(1, 13)]
        build_basis, built = ca.build_basis, []

        def counted(*args, **kwargs):
            built.append(args[3])
            return build_basis(*args, **kwargs)

        monkeypatch.setattr(ca, "build_basis", counted)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(model), str(mod), "--basis-range", "1..12",
                     "-o", str(out)]) == 0
        assert built == [12]
        assert _read_csv(out, "sweep")[1:] == expected

    def test_zero_load_rows_are_zero(self, tmp_path):
        """Under a zero load every CA iterate and the reference are U = 0,
        so each row's errors are 0."""
        model, mod = _zero_load_files(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(model), str(mod), "--basis-range", "1..3",
                     "-o", str(out)]) == 0
        assert _read_csv(out, "sweep")[1:] == [
            [str(s), "0.0", "0.0", "0.0"] for s in (1, 2, 3)]

    def test_bad_range_is_validation_error(self, small_files, tmp_path):
        model, mod = small_files
        rc = main(["sweep", str(model), str(mod), "--basis-range", "5..2",
                   "-o", str(tmp_path / "s.csv")])
        assert rc == 2


class TestParseRange:
    def test_ok(self):
        assert _parse_range("3..8") == (3, 8)
        assert _parse_range("1..1") == (1, 1)

    def test_bad(self):
        for text in ("abc", "0..3", "4..", "2..1"):
            with pytest.raises(ValidationError):
                _parse_range(text)


class TestBench:
    def test_tiny_family(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"cases": [
            {"name": "tiny", "nx": 9, "ny": 7,
             "mod": {"kind": "hole", "half": 1}, "basis": 4},
        ]}))
        out = tmp_path / "bench.csv"
        rc = main(["bench", str(family), "--repeats", "1", "-o", str(out)])
        assert rc == 0
        rows = _read_csv(out, "bench")
        assert rows[0] == ["dofs", "method", "phase", "seconds", "E_u"]
        phases = {(r[1], r[2]) for r in rows[1:]}
        assert phases == {("full", "assemble"), ("full", "factorize"),
                          ("full", "solve"), ("update", "local"),
                          ("update", "global"), ("ca", "reanalyze"),
                          ("ifu", "reanalyze")}
        ifu_err = [float(r[4]) for r in rows[1:] if r[1] == "ifu"]
        assert ifu_err and ifu_err[0] < 1e-7

    def test_empty_family_is_validation_error(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"cases": []}))
        rc = main(["bench", str(family), "-o", str(tmp_path / "b.csv")])
        assert rc == 2

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_nonpositive_repeats_is_validation_error(self, tmp_path, capsys,
                                                     repeats):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"cases": [
            {"name": "tiny", "nx": 9, "ny": 7, "mod": {"kind": "hole"}}]}))
        rc = main(["bench", str(family), "--repeats", repeats,
                   "-o", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("family_json", [
        [],
        {"cases": [3]},
        {"cases": [{"nx": "wide", "ny": 7, "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "pitch": "x",
                    "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "mod": {"kind": "hole"},
                    "basis": "many"}]},
        {"cases": [{"nx": float("inf"), "ny": 7, "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "mod": {"kind": "hole"},
                    "basis": float("inf")}]},
        {"cases": [{"nx": 9.7, "ny": 7, "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "mod": {"kind": "hole", "half": 1.6}}]},
        {"cases": [{"nx": 9, "ny": 7, "mod": {"kind": "hole"},
                    "basis": 6.5}]},
        {"cases": [{"nx": 9, "ny": 7, "pitch": 0, "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "pitch": float("nan"),
                    "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "mod": {"kind": "hole", "half": -1}}]},
        {"cases": [{"nx": 9, "ny": 7,
                    "mod": {"kind": "ellipse", "a": 0, "b": 2}}]},
        {"cases": [{"nx": 9, "ny": 7,
                    "mod": {"kind": "ellipse", "a": -3, "b": 2}}]},
    ], ids=["list", "non-object-case", "non-numeric-nx", "non-numeric-pitch",
            "non-numeric-basis", "infinite-nx", "infinite-basis",
            "fractional-nx", "fractional-half", "fractional-basis",
            "zero-pitch", "nan-pitch", "negative-half", "zero-axis",
            "negative-axis"])
    def test_malformed_family_is_validation_error(self, tmp_path, capsys,
                                                  family_json):
        family = tmp_path / "family.json"
        family.write_text(json.dumps(family_json))
        rc = main(["bench", str(family), "-o", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err


class TestDemoScript:
    def test_written_demos_run_through_the_cli(self, tmp_path, monkeypatch):
        script = Path(__file__).resolve().parents[1] / "scripts" \
            / "make_demos.py"
        out = tmp_path / "demos"
        monkeypatch.setattr(sys, "argv", [str(script), str(out)])
        runpy.run_path(str(script), run_name="__main__")
        assert main(["solve", str(out / "cantilever.json"),
                     "-o", str(tmp_path / "solve")]) == 0
        assert main(["reanalyze", str(out / "notch_fill.json"),
                     str(out / "notch_fill.mod.json"), "--method", "ifu",
                     "--compare", "-o", str(tmp_path / "re")]) == 0


def test_code_line_count_skips_blank_comment_and_docstring_lines():
    """scripts/code_lines.py counts a line when it holds code: a string
    that is its own statement is a docstring, any other string is code."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
    code_lines = runpy.run_path(str(script))["code_lines"]
    source = ('"""Module\ndoc."""\n\nimport os  # why\n\n# note\n'
              'def f(a,\n      b):\n    """Doc."""\n'
              '    s = """not\n    a doc"""\n    return a\n')
    assert code_lines(source) == 6
