import csv
import json

import numpy as np
import pytest

from mkfree import demos
from mkfree.cli import _parse_range, main
from mkfree.errors import ValidationError
from mkfree.model import model_to_dict, modification_to_dict


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

    def test_ca_method_runs(self, small_files, tmp_path):
        model, mod = small_files
        rc = main(["reanalyze", str(model), str(mod), "--method", "ca",
                   "--basis", "3", "-o", str(tmp_path / "ca_out")])
        assert rc == 0
        assert (tmp_path / "ca_out" / "fields.csv").exists()

    def test_material_without_modulus_is_validation_error(
            self, small_files, tmp_path, capsys):
        model, _ = small_files
        mod = tmp_path / "bad_mod.json"
        mod.write_text(json.dumps({"material": {"nu": 0.3}}))
        rc = main(["reanalyze", str(model), str(mod), "--method", "ifu",
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "missing 'E'" in capsys.readouterr().err

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


def _remove_one(cloud):
    from mkfree.model import Modification
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

    @pytest.mark.parametrize("family_json", [
        [],
        {"cases": [3]},
        {"cases": [{"nx": "wide", "ny": 7, "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "pitch": "x",
                    "mod": {"kind": "hole"}}]},
        {"cases": [{"nx": 9, "ny": 7, "mod": {"kind": "hole"},
                    "basis": "many"}]},
    ], ids=["list", "non-object-case", "non-numeric-nx", "non-numeric-pitch",
            "non-numeric-basis"])
    def test_malformed_family_is_validation_error(self, tmp_path, capsys,
                                                  family_json):
        family = tmp_path / "family.json"
        family.write_text(json.dumps(family_json))
        rc = main(["bench", str(family), "-o", str(tmp_path / "b.csv")])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err
