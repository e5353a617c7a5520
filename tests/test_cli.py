"""End-to-end CLI behavior: commands, exit codes, files, determinism."""

import importlib.util
import json
import math

import pytest

from permball.cli import main
from permball.tables import (
    data_section,
    parse_gap_wide_csv,
    parse_sweep_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_count_and_backend(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "exact", "--n", "4", "--r", "2", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert out.strip() == "14"
        assert "backend:" in err

    def test_factorial_boundary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "exact", "--n", "6", "--r", "5", "--cache-dir", str(tmp_path)
        )
        assert code == 0 and out.strip() == "720"

    def test_non_integral_rho_exits_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "exact", "--n", "6", "--rho", "0.5", "--cache-dir", str(tmp_path)
        )
        assert code == 1
        assert "not integral" in err

    def test_capacity_exit_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "exact", "--n", "100", "--r", "40", "--cache-dir", str(tmp_path)
        )
        assert code == 2
        assert "capacity" in err.lower()

    def test_rho_path_and_verify(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "exact", "--n", "5", "--rho", "1/2", "--verify",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0 and out.strip() == "31"

    def test_requires_exactly_one_radius_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "exact", "--n", "5", "--cache-dir", str(tmp_path))
        assert code == 1 and "exactly one" in err


class TestSweep:
    def test_rows_cache_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cache = tmp_path / "cache"
        code, _, _ = run(
            capsys, "sweep", "--n", "4..6", "--out", str(out1),
            "--cache-dir", str(cache), "--jobs", "1",
        )
        assert code == 0
        assert (cache / "n4_r2.json").exists()
        code, _, _ = run(
            capsys, "sweep", "--n", "4..6", "--out", str(out2),
            "--cache-dir", str(cache), "--jobs", "1",
        )
        assert code == 0
        a, b = out1.read_text(), out2.read_text()
        assert data_section(a) == data_section(b)
        rows = parse_sweep_csv(a)
        # 3 values of n, all radii, 5 families per (n, r) cell
        assert len(rows) == 5 * (4 + 5 + 6)
        specs = [(row["spec"].n, row["spec"].r, row["family"]) for row in rows]
        assert specs == sorted(specs)
        for row in rows:
            if not (row["valid"] and row["exact_count"]):
                continue
            exact_bits = math.log2(row["exact_count"])
            if row["direction"] == "lower":
                assert row["bits"] <= exact_bits + 1e-9
            else:
                assert row["bits"] >= exact_bits - 1e-9

    def test_rho_selector_keeps_only_integral_specs(self, capsys, tmp_path):
        out = tmp_path / "rho.csv"
        code, _, _ = run(
            capsys, "sweep", "--n", "101", "--rho", "0.25,0.5,0.75",
            "--families", "phi1", "--out", str(out),
            "--cache-dir", str(tmp_path / "c"), "--jobs", "1",
        )
        assert code == 0
        rows = parse_sweep_csv(out.read_text())
        assert [(r["spec"].n, r["spec"].r) for r in rows] == [
            (101, 25), (101, 50), (101, 75),
        ]

    def test_non_integral_rho_fails_validation(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--n", "10", "--rho", "0.25",
            "--out", str(tmp_path / "x.csv"), "--cache-dir", str(tmp_path / "c"),
        )
        assert code == 1 and "not integral" in err

    @pytest.mark.parametrize("argv", [("--n", "abc"), ("--n", "4", "--r", "1..x")])
    def test_malformed_integer_list_exits_one(self, capsys, tmp_path, argv):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sweep", *argv,
            "--out", str(out), "--cache-dir", str(tmp_path / "c"),
        )
        assert code == 1 and "cannot parse integer list" in err
        assert not out.exists()

    def test_r_and_rho_together_exit_one(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sweep", "--n", "5", "--r", "1", "--rho", "1/2",
            "--out", str(out), "--cache-dir", str(tmp_path / "c"),
        )
        assert code == 1 and "at most one of --r and --rho" in err
        assert not out.exists()

    def test_generic_families(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "sweep", "--n", "6", "--r", "4",
            "--families", "vdw_generic,bethe_generic,phi3",
            "--out", str(out), "--cache-dir", str(tmp_path / "c"), "--jobs", "1",
        )
        assert code == 0
        rows = parse_sweep_csv(out.read_text())
        by_family = {row["family"]: row for row in rows}
        exact_bits = math.log2(by_family["phi3"]["exact_count"])
        assert by_family["vdw_generic"]["bits"] <= exact_bits
        assert by_family["bethe_generic"]["bits"] <= exact_bits
        # The balanced matrix maximizes the entropy functional.
        assert by_family["vdw_generic"]["bits"] >= by_family["phi3"]["bits"] - 1e-6

    def test_generic_families_share_one_balancing(self, monkeypatch):
        from permball import cli
        from permball.core import BallSpec
        from permball.errors import ConvergenceError

        calls = []

        def no_convergence(band, **kwargs):
            calls.append(band.spec)
            raise ConvergenceError("did not converge", residual=1.0)

        monkeypatch.setattr(cli, "sinkhorn_balance", no_convergence)
        families = ("bethe_generic", "phi3", "vdw_generic")
        reasons = {}
        for n, r in ((6, 2), (501, 1)):
            cell = cli._sweep_cell(families, None, False, None, n, r)
            by_family = {bv.family: bv for bv, _ in cell}
            assert by_family["phi3"].valid
            for family in ("bethe_generic", "vdw_generic"):
                assert not by_family[family].valid
                reasons[n, family] = by_family[family].reason
        assert calls == [BallSpec(6, 2)]
        assert reasons[6, "vdw_generic"] == "did not converge"
        assert reasons[6, "bethe_generic"] == "did not converge"
        assert reasons[501, "vdw_generic"] == "generic families capped at n=500"

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, _ = run(
            capsys, "sweep", "--n", "4", "--r", "2", "--families", "phi1",
            "--format", "json", "--out", str(out),
            "--cache-dir", str(tmp_path / "c"), "--jobs", "1",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["exact_count"] == "14"
        assert payload["rows"][0]["family"] == "phi1"

    def test_backend_restriction(self, capsys, tmp_path):
        out = tmp_path / "b.csv"
        code, _, _ = run(
            capsys, "sweep", "--n", "5", "--r", "2", "--families", "phi1",
            "--backends", "enumerate", "--out", str(out),
            "--cache-dir", str(tmp_path / "c"), "--jobs", "1",
        )
        assert code == 0
        assert parse_sweep_csv(out.read_text())[0]["exact_count"] == 31

    def test_exit_three_when_no_row_succeeds(self, capsys, tmp_path):
        # phi3 has no branch at odd n with 2r = n-1, and no exact backend
        # reaches n=101 at that radius.
        code, _, _ = run(
            capsys, "sweep", "--n", "101", "--r", "50", "--families", "phi3",
            "--out", str(tmp_path / "e.csv"), "--cache-dir", str(tmp_path / "c"),
            "--jobs", "1",
        )
        assert code == 3

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        run(
            capsys, "sweep", "--n", "4..7", "--families", "phi1,Phi1",
            "--out", str(serial), "--cache-dir", str(tmp_path / "c1"), "--jobs", "1",
        )
        run(
            capsys, "sweep", "--n", "4..7", "--families", "phi1,Phi1",
            "--out", str(parallel), "--cache-dir", str(tmp_path / "c2"), "--jobs", "3",
        )
        assert data_section(serial.read_text()) == data_section(parallel.read_text())


class TestFigures:
    def test_fig1_phi3_constant_and_png(self, capsys, caplog, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _, err = run(capsys, "figures", "fig1", "--out", str(out))
        assert code == 0
        points = parse_gap_wide_csv(
            out.read_text(), ("phi1", "phi1_prime", "phi2", "phi3")
        )
        phi3 = [p.gap_bits for p in points if p.pair == "phi3" and p.rho <= 0.5]
        assert phi3 and all(abs(v - 0.0285386) <= 1e-6 for v in phi3)
        # The PNG is promised only when matplotlib (the [plot] extra) is
        # importable; without it the command warns and still succeeds.
        png = tmp_path / "fig1.png"
        if importlib.util.find_spec("matplotlib") is not None:
            assert png.exists()
            assert f"wrote {png}" in err
        else:
            assert not png.exists()
            assert "matplotlib unavailable" in caplog.text

    @pytest.mark.parametrize(
        "which,step", [("fig2", "0"), ("fig1", "-0.5"), ("fig3", "2")]
    )
    def test_grid_step_outside_accepted_range_exits_one(
        self, capsys, tmp_path, which, step
    ):
        out = tmp_path / "f.csv"
        code, _, err = run(
            capsys, "figures", which, "--grid-step", step, "--out", str(out),
            "--no-plot",
        )
        assert code == 1 and "grid step" in err and "outside" in err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0.28", "0.35"])
    def test_fig2_step_not_dividing_one_caps_delta_at_one(self, capsys, tmp_path, step):
        out = tmp_path / "fig2.csv"
        code, _, err = run(
            capsys, "figures", "fig2", "--grid-step", step, "--out", str(out),
            "--no-plot",
        )
        assert code == 0, err
        lines = data_section(out.read_text()).splitlines()[1:]
        deltas = [float(line.split(",")[0]) for line in lines]
        assert len(deltas) == round(1 / float(step)) - 1
        assert deltas[-1] == 1.0 and all(0 < d <= 1 for d in deltas)

    def test_fig1_no_plot(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(capsys, "figures", "fig1", "--out", str(out), "--no-plot")
        assert code == 0
        assert not (tmp_path / "f.png").exists()

    def test_long_formats_match_documented_schemas(self, capsys, tmp_path):
        from permball.tables import parse_gap_long_csv, parse_rate_csv

        g = tmp_path / "g.csv"
        run(capsys, "figures", "fig1", "--format", "long", "--out", str(g),
            "--no-plot")
        points = parse_gap_long_csv(g.read_text())
        assert {p.pair for p in points} == {"phi1", "phi1_prime", "phi2", "phi3"}
        r = tmp_path / "r.csv"
        run(capsys, "figures", "fig3", "--format", "long", "--out", str(r),
            "--no-plot")
        rates = parse_rate_csv(r.read_text())
        assert {p.kind for p in rates} == {"cover_old", "cover_new"}
        assert all(p.mode == "asymptotic" and p.n is None for p in rates)

    def test_fig2_reserves_anticode_column(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "figures", "fig2", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "anticode" in text.splitlines()[3]
        assert "unavailable" in text
        header = data_section(text).splitlines()[0].split(",")
        row = data_section(text).splitlines()[1].split(",")
        assert row[header.index("anticode")] == ""
        assert float(row[header.index("ecc_new")]) <= float(
            row[header.index("ecc_old")]
        )

    def test_fig3_improvement_peaks_at_half(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "figures", "fig3", "--out", str(out))
        assert code == 0
        lines = data_section(out.read_text()).splitlines()
        header = lines[0].split(",")
        xi = header.index("rho")
        old_i = header.index("cover_old")
        new_i = header.index("cover_new")
        gains = {}
        for line in lines[1:]:
            cells = line.split(",")
            gains[float(cells[xi])] = float(cells[old_i]) - float(cells[new_i])
        best = max(gains, key=gains.get)
        assert best == pytest.approx(0.5, abs=1e-12)


class TestQmatrixCommand:
    def test_dense_exact(self, capsys):
        code, out, _ = run(capsys, "qmatrix", "--n", "5", "--r", "1")
        assert code == 0
        assert "2/3" in out

    def test_triplets_balanced(self, capsys):
        code, out, _ = run(
            capsys, "qmatrix", "--n", "4", "--r", "2",
            "--family", "balanced", "--format", "triplets",
        )
        assert code == 0
        body = data_section(out).splitlines()
        assert body[0] == "i,j,value"
        assert len(body) == 1 + 14


class TestVerifyCommand:
    def test_quick_passes_within_budget(self, capsys, tmp_path):
        import time

        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "--level", "quick",
                           "--cache-dir", str(tmp_path / "cache"))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_tampered_cache_exits_four(self, capsys, tmp_path):
        # A wrong count is served by exact and caught by the audit; a count
        # with non-ASCII digits is refused by both.
        for count, exact_code, message in (
            ("99", 0, "mismatch"),
            ("7\u00b2", 1, "non-decimal"),
        ):
            cache = tmp_path / f"cache-{exact_code}"
            run(capsys, "exact", "--n", "4", "--r", "2", "--cache-dir", str(cache))
            record = cache / "n4_r2.json"
            data = json.loads(record.read_text())
            data["exact_count"] = count
            record.write_text(json.dumps(data))
            code, _, _ = run(
                capsys, "exact", "--n", "4", "--r", "2", "--cache-dir", str(cache)
            )
            assert code == exact_code
            code, _, err = run(
                capsys, "verify", "--level", "quick", "--cache-dir", str(cache)
            )
            assert code == 4
            assert message in err


class TestEnvironment:
    def test_env_var_sets_cache_dir(self, tmp_path, monkeypatch):
        from permball.cache import default_cache_dir

        monkeypatch.setenv("PERMBALL_CACHE", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
