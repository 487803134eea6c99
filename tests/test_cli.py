"""End-to-end CLI tests through click's test runner: output schemas, layered
parameter merging, exit codes, and the oracle validation command."""

import hashlib
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sqzmzi import cli, oracle, photostats
from sqzmzi.cli import CSV_HEADER, _config_keys, main
from sqzmzi.model import InterferometerParams, Strategy, db_to_squeeze_factor
from sqzmzi.sensitivity import phase_uncertainty


@pytest.fixture()
def runner():
    return CliRunner()


GOLDEN = Path(__file__).parent / "golden"
PRESET_NAMES = ("fig2-solid", "fig2-dashed", "fig2-dotted")
ALL_STRATEGIES = ["--strategy", "single", "--strategy", "differential", "--strategy", "optimal",
                  "--strategy", "suboptimal", "--phi-apr", "0.7"]
GOLDEN_RUNS = {
    **{f"sweep-{p}.csv": ["sweep", "--preset", p, "--points", "73", *ALL_STRATEGIES]
       for p in PRESET_NAMES},
    **{f"sweep-{p}.json": ["sweep", "--preset", p, "--points", "13", "--format", "json",
                           *ALL_STRATEGIES] for p in PRESET_NAMES},
    **{f"report-{p}.txt": ["report", "--preset", p] for p in PRESET_NAMES},
    **{f"report-{p}.json": ["report", "--preset", p, "--format", "json",
                            "--implied-gain-db", "3"] for p in PRESET_NAMES},
    # preset < config < flag, with siblings displaced in both directions
    "layered.json": ["sweep", "--preset", "fig2-dashed", "--config", str(GOLDEN / "layered.conf"),
                     "--A", "3", "--r1-db", "8", "--phi-end", "3.0"],
}


# sha256 of full-size sweeps (721 points, all four strategies, CSV and JSON)
# for every preset and one lossy, amplified flag set, keyed by name, each with
# the command line that produced it
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())

# sha256 and exit code of oracle validations (5 points over [0, 2 pi]) for the
# same four parameter sets, in both detection modes, at 4, 5, 7 and 2000
# samples per point; the first three are usage errors, below 32 batches of 2
VALIDATE_DIGESTS = json.loads((GOLDEN / "validate-digests.json").read_text())


def _rows(output: str) -> list[list[str]]:
    lines = output.strip().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden(runner, name):
    result = runner.invoke(main, GOLDEN_RUNS[name])
    assert result.exit_code == 0, result.output
    assert result.output == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_golden_digest(runner, name):
    result = runner.invoke(main, shlex.split(DIGESTS[name]["command"])[1:])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == DIGESTS[name]["sha256"]


@pytest.mark.parametrize("name", sorted(VALIDATE_DIGESTS))
def test_validate_matches_golden_digest(runner, name):
    golden = VALIDATE_DIGESTS[name]
    result = runner.invoke(main, shlex.split(golden["command"])[1:])
    assert result.exit_code == golden["exit_code"], result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == golden["sha256"]


@pytest.mark.parametrize(
    "param_args",
    [*(["--preset", p] for p in PRESET_NAMES),
     ["--r1-db", "8", "--r2", "0.8", "--mu", "0.93", "--eta", "0.7", "--n-photons", "3e6", "--A", "4"]],
    ids=[*PRESET_NAMES, "lossy"],
)
def test_validate_passes_at_the_minimum_sample_count(runner, param_args):
    # 64 samples are still 32 batches of 2, so each z-score rests on 32
    # batch means and a correct linearized model passes
    result = runner.invoke(
        main,
        ["validate", *param_args, "--points", "12", "--oracle-samples", "64", "--mode", "linearized"],
    )
    assert result.exit_code == 0, result.output


def test_sweep_csv_values_round_trip(runner):
    result = runner.invoke(
        main,
        ["sweep", "--preset", "fig2-solid", "--points", "5",
         "--phi-start", "0.5", "--phi-end", "2.5"],
    )
    assert result.exit_code == 0
    rows = _rows(result.output)
    assert len(rows) == 5 * 3
    params = InterferometerParams(r1=db_to_squeeze_factor(10.0), n_photons=1e6)
    strategies = {
        "single": Strategy.single(),
        "differential": Strategy.differential(),
        "optimal": Strategy.optimal(),
    }
    for phi_s, name, dphi_s, norm_s, k_opt_s in rows:
        phi = float(phi_s)
        res = phase_uncertainty(strategies[name], params, phi)
        assert math.isclose(float(dphi_s), res.dphi, rel_tol=1e-9)
        assert math.isclose(float(norm_s), res.normalized, rel_tol=1e-9)
        if name == "optimal":
            assert math.isclose(float(k_opt_s), math.cos(phi), rel_tol=1e-9)
        else:
            assert k_opt_s == ""


def test_sweep_marks_divergent_points(runner):
    # grid {0, pi, 2 pi}: the single read-out diverges at pi, the differential
    # at all three; the optimal one stays finite everywhere
    result = runner.invoke(main, ["sweep", "--preset", "fig2-solid", "--points", "3"])
    assert result.exit_code == 0
    by = {(r[0], r[1]): r for r in _rows(result.output)}
    assert len(by) == 9
    for (phi_s, name), row in by.items():
        expect_inf = (name == "differential") or (name == "single" and row[0].startswith("3.14"))
        assert (row[2] == "inf") == expect_inf, row
    finite = [row for (_, name), row in by.items() if name == "optimal"]
    assert all(row[2] != "inf" for row in finite)


def test_sweep_takes_each_phase_function_once(monkeypatch):
    # one Phase serves all four strategies: sin, cos, sin_half, cos_half and
    # tan_half over the grid, plus the suboptimal penalty's squaring
    grid_calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("sqzmzi") and hasattr(module, "_per_phase"):
            def counted(fn, phi, per_phase=module._per_phase):
                grid_calls.append(np.size(phi) == 721)
                return per_phase(fn, phi)

            monkeypatch.setattr(module, "_per_phase", counted)
    strategies = (Strategy.single(), Strategy.differential(), Strategy.optimal(),
                  Strategy.suboptimal(0.7))
    cli.sweep(InterferometerParams(r1=1.0), cli._grid(0.0, 2.0 * math.pi, 721), strategies)
    assert 0 < sum(grid_calls) <= 6


def test_sweep_propagates_the_detector_state_once(monkeypatch):
    # every strategy reads its observable from one photocount evaluation, so
    # the detector state behind its checks is built once per sweep
    calls = []
    original = photostats.detector_field_stats

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(photostats, "detector_field_stats", counting)
    strategies = (Strategy.single(), Strategy.differential(), Strategy.optimal(),
                  Strategy.suboptimal(0.7))
    cli.sweep(InterferometerParams(r1=1.0), cli._grid(0.0, 2.0 * math.pi, 721), strategies)
    assert len(calls) == 1


def test_sweep_json_format(runner):
    result = runner.invoke(
        main, ["sweep", "--preset", "fig2-solid", "--points", "3", "--format", "json"]
    )
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert len(rows) == 9
    divergent = [r for r in rows if r["dphi"] == "inf"]
    assert divergent and all(r["dphi_normalized"] == "inf" for r in divergent)
    for row in rows:
        if row["strategy"] == "optimal":
            assert isinstance(row["k_opt"], float)
        else:
            assert row["k_opt"] is None


def test_sweep_suboptimal_strategy(runner):
    result = runner.invoke(
        main,
        ["sweep", "--preset", "fig2-solid", "--strategy", "suboptimal",
         "--phi-apr", "1.2", "--points", "3", "--phi-start", "1.0", "--phi-end", "2.0"],
    )
    assert result.exit_code == 0
    rows = _rows(result.output)
    assert [r[1] for r in rows] == ["suboptimal"] * 3
    for row in rows:
        assert math.isclose(float(row[4]), math.cos(1.2), rel_tol=1e-9)


# the message of a usage error that no other test reads
USAGE_MESSAGES = {
    ("sweep", "--points", "1"): "the phase grid needs at least 2 points, got 1",
    ("validate", "--points", "1"): "the phase grid needs at least 2 points, got 1",
    ("sweep", "--phi-start", "-1e308", "--phi-end", "1e308"): "phi_end - phi_start overflows",
    ("validate", "--phi-start", "-1e308", "--phi-end", "1e308"): "phi_end - phi_start overflows",
    ("sweep", "--phi-start", "nan"): "must be finite",
    ("sweep", "--r1", "360", "--points", "3"): "r1 = 360.0 is too large",
    ("sweep", "--r2", "360", "--points", "3"): "r2 = 360.0",
    ("report", "--mu", "1e-200", "--eta", "1e-200"): "mu = 1e-200 and eta = 1e-200 are too small",
    ("report", "--mu", "1e-300", "--eta", "1e-10"): "eps^2 overflows",
    ("report", "--r1", "174", "--n-photons", "1e211"): "dphi_min^2",
    ("report", "--implied-gain-db", "-10000"): "gain_db = -10000.0 is too small",
    ("validate", "--r2", "160", "--points", "2", "--oracle-samples", "64"): "32 floor^2 = inf",
    ("validate", "--oracle-samples", "63"): "n_samples must be an integer >= 64",
    ("validate", "--oracle-samples", str(10**21)): "n_samples must be at most 2^53",
    ("validate", "--oracle-samples", str(2**53 + 1)): "n_samples must be at most 2^53",
    ("validate", "--points", "2", "--oracle-samples", str(2**53)): "n_samples = 9007199254740992 is too large",
    ("report", "--r1-db", "1e308"): "its squeeze factor overflows",
    ("report", "--r2-db", "-1e308"): "its squeeze factor overflows",
    ("validate", "--r1", "1e308", "--points", "2", "--oracle-samples", "64"): "r1 = 1e+308 is too large",
    ("report", "--A", "3", "--n-photons", "1e-310"): "n_photons = 1e-310 is too small for A = 3.0",
}


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--points", "1"],
        ["sweep", "--phi-start", "1.0", "--phi-end", "0.5"],
        ["sweep", "--g2", "1.0", "--A", "1.0"],
        ["sweep", "--r1", "0.1", "--r1-db", "10"],
        ["sweep", "--strategy", "suboptimal"],
        ["sweep", "--mu", "0.0"],
        ["sweep", "--preset", "no-such-preset"],
        ["validate", "--oracle-samples", "1"],
        ["validate", "--oracle-samples", "3"],
        ["validate", "--z-threshold", "0", "--points", "2", "--oracle-samples", "64"],
        ["report", "--r1-db", "7.2", "--implied-gain-db", "20"],
        ["sweep", "--phi-start", "nan"],
        # parameter sets whose evaluation leaves the float range
        ["sweep", "--r1", "360", "--points", "3"],
        ["sweep", "--r2", "360", "--points", "3"],
        ["report", "--mu", "1e-200", "--eta", "1e-200"],
        ["report", "--mu", "1e-300", "--eta", "1e-10"],
        ["report", "--r1", "174", "--n-photons", "1e211"],
        ["report", "--implied-gain-db", "-10000"],
        ["validate", "--r2", "160", "--points", "2", "--oracle-samples", "64"],
        ["report", "--r1-db", "1e308"],
        ["report", "--r2-db", "-1e308"],
        ["validate", "--r1", "1e308", "--points", "2", "--oracle-samples", "64"],
        ["report", "--A", "3", "--n-photons", "1e-310"],
        # refused before the oracle allocates anything
        ["validate", "--oracle-samples", str(10**21)],
        ["validate", "--oracle-samples", str(2**53 + 1)],
        # accepted, but its sample buffers exceed any address space
        ["validate", "--points", "2", "--oracle-samples", str(2**53)],
        # fewer samples than 32 batches of 2
        ["validate", "--oracle-samples", "63"],
        ["validate", "--points", "1"],
        # both ends finite, but not the span between them
        ["sweep", "--phi-start", "-1e308", "--phi-end", "1e308"],
        ["validate", "--phi-start", "-1e308", "--phi-end", "1e308"],
    ],
)
def test_usage_errors_exit_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert USAGE_MESSAGES.get(tuple(args), "") in result.output


def test_config_file_layering(runner, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# comment line\n"
        "r1-db = 10.0   # dB, variance convention\n"
        "eta = 0.5\n"
        "points = 3\n"
    )
    result = runner.invoke(
        main, ["report", "--config", str(config), "--eta", "0.8", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    quantities = json.loads(result.output)
    # the flag beats the config file; the config's other keys survive
    assert quantities["eta"] == 0.8
    assert math.isclose(quantities["r1"], db_to_squeeze_factor(10.0), rel_tol=1e-12)


def test_flag_replaces_preset_sibling(runner):
    # --r1 must displace the preset's r1_db, not conflict with it
    result = runner.invoke(
        main, ["report", "--preset", "fig2-solid", "--r1", "0.3", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["r1"] == 0.3


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("sweep", "squeeze = 10\n", "unknown key 'squeeze'"),
        ("validate", "mode = bogus\n", "Invalid value for '--mode'"),
        ("report", "format = csv\n", "Invalid value for '--format'"),
        ("sweep", "points = 2.5\n", "Invalid value for '--points'"),
        ("sweep", "strategy = bogus\n", "Invalid value for '--strategy'"),
        # keys of another command are checked by that command's option
        ("report", "points = 2.5\n", "Invalid value for '--points'"),
        ("report", "mode = bogus\n", "Invalid value for '--mode'"),
        ("sweep", "seed = x\n", "Invalid value for '--seed'"),
        ("validate", "format = bogus\n", "Invalid value for '--format'"),
        ("sweep", "r1 0.5\n", "expected 'key = value'"),
        ("sweep", "strategy =\n", "at least one strategy is required"),
    ],
    ids=["unknown-key", "mode", "format", "points", "strategy",
         "other-command-points", "other-command-mode", "other-command-seed",
         "other-command-format", "no-equals", "empty-strategy"],
)
def test_config_rejects_bad_entry(runner, tmp_path, command, content, message):
    # config values pass the same checks as the flags of the same name
    config = tmp_path / "bad.conf"
    config.write_text(content)
    result = runner.invoke(main, [command, "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_config_keys_are_the_option_names():
    assert set(_config_keys()) == {
        "r1", "r1_db", "r2", "r2_db", "mu", "eta", "n_photons", "g2", "a_factor", "a",
        "phi_start", "phi_end", "points", "strategy", "phi_apr", "format",
        "oracle_samples", "seed", "z_threshold", "mode",
    }


def test_config_strategy_list_and_layer_order(runner, tmp_path):
    # 'strategy' takes a comma list; a preset sits under the config file
    # whichever comes first on the command line
    config = tmp_path / "run.conf"
    config.write_text("strategy = optimal, single\nr1-db = 6\npoints = 3\n")
    outputs = [
        runner.invoke(main, ["sweep", *order]).output
        for order in (["--preset", "fig2-solid", "--config", str(config)],
                      ["--config", str(config), "--preset", "fig2-solid"])
    ]
    assert outputs[0] == outputs[1]
    rows = _rows(outputs[0])
    assert [r[1] for r in rows] == ["optimal", "single"] * 3
    assert rows[0][3] == "0.501187233627"  # the config's 6 dB, not the preset's 10
    # one file serves every command: the commands without --strategy check
    # the comma list with sweep's option instead of rejecting it
    for args in (["report"], ["validate", "--oracle-samples", "2000"]):
        result = runner.invoke(main, [*args, "--config", str(config)])
        assert result.exit_code == 0, result.output


def test_output_dir_env_var(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SQZMZI_OUTPUT_DIR", str(tmp_path))
    result = runner.invoke(
        main, ["sweep", "--preset", "fig2-solid", "--points", "2",
               "--phi-start", "0.4", "--phi-end", "0.6", "-o", "runs/out.csv"],
    )
    assert result.exit_code == 0
    written = tmp_path / "runs" / "out.csv"
    assert written.exists()
    assert written.read_text().splitlines()[0] == CSV_HEADER


def test_failed_sweep_writes_no_file(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SQZMZI_OUTPUT_DIR", str(tmp_path))
    result = runner.invoke(main, ["sweep", "--points", "1", "-o", "out.csv"])
    assert result.exit_code == 2
    assert not (tmp_path / "out.csv").exists()


def test_report_refuses_an_underflowing_tolerance(runner):
    # the a-priori tolerance, and with it both widths, underflows to 0.0 here
    result = runner.invoke(main, ["report", "--r1", "340", "--n-photons", "1e3", "--g2", "1e100"])
    assert result.exit_code == 2, result.output
    assert "r1 = 340.0" in result.output and "out of the normal float range" in result.output


def test_report_text_output(runner):
    result = runner.invoke(main, ["report", "--preset", "fig2-solid"])
    assert result.exit_code == 0
    out = result.output
    # both dB conventions appear, each labeled
    assert "variance convention" in out
    assert "amplitude convention" in out
    assert "10.000 dB" in out
    assert "0.316228" in out
    assert "1.225109" in out


def test_report_implied_inefficiency(runner):
    result = runner.invoke(
        main,
        ["report", "--r1-db", "7.2", "--format", "json", "--implied-gain-db", "3.2"],
    )
    assert result.exit_code == 0
    quantities = json.loads(result.output)
    assert math.isclose(quantities["implied_eps2"], 0.2880840205263135, rel_tol=1e-10)
    result = runner.invoke(main, ["report", "--r1-db", "7.2", "--implied-gain-db", "3.2"])
    assert result.exit_code == 0
    assert "implied eps^2             0.288084  (from a measured gain of 3.2 dB)" in result.output


def test_validate_passes_in_linearized_mode(runner):
    result = runner.invoke(
        main,
        ["validate", "--preset", "fig2-solid", "--points", "4",
         "--oracle-samples", "20000", "--seed", "3"],
    )
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert "per-moment max |z|" in result.output


def test_validate_fails_for_dim_light_in_exact_mode(runner):
    # at alpha^2 = 100 the quadratic detection terms bias the variances by
    # roughly 14 percent, far beyond sampling noise at 20k samples
    result = runner.invoke(
        main,
        ["validate", "--r1-db", "10", "--n-photons", "100", "--mode", "exact",
         "--points", "3", "--phi-start", "0.5", "--phi-end", "2.5",
         "--oracle-samples", "20000"],
    )
    assert result.exit_code == 1, result.output
    assert "FAIL" in result.output


def test_validate_fails_on_nan_z(runner, monkeypatch):
    # a nan z-score (e.g. from overflowing moments) is a failure, printed as
    # such, not a moment silently left out of the table
    real_run = oracle.run

    def run_with_nan(params, phi, config):
        reports = real_run(params, phi, config)
        for report in reports:
            report.z_scores["cov_n1n2"] = math.nan
        return reports

    monkeypatch.setattr(oracle, "run", run_with_nan)
    result = runner.invoke(
        main, ["validate", "--preset", "fig2-solid", "--points", "2", "--oracle-samples", "2000"]
    )
    assert result.exit_code == 1, result.output
    assert "FAIL" in result.output
    assert "  cov_n1n2            nan" in result.output
    assert all(line.endswith("cov_n1n2") for line in result.output.splitlines()[2:4])


def test_validate_lists_every_moment(runner):
    # on a grid at phi = 0 and the next float, linearized N1 has no
    # fluctuation, so var_n1, mean_n1 and cov_n1n2 read |z| = 0 at both
    # points; the per-moment table lists them too
    result = runner.invoke(
        main,
        ["validate", "--preset", "fig2-solid", "--phi-start", "0", "--phi-end", "5e-324",
         "--points", "2", "--oracle-samples", "1000"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    table = lines[lines.index("per-moment max |z| over the grid:") + 1 : -1]
    assert [line.split()[0] for line in table] == sorted(photostats.MOMENT_FIELDS)
    for name in ("mean_n1", "var_n1", "cov_n1n2"):
        assert f"  {name:12s}      0.000" in table
