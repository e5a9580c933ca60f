"""Command line entry points, exit codes and artifact files."""

import json

import numpy as np
import pytest

import ofdma_underlay.cli as cli
from ofdma_underlay.cli import main
from ofdma_underlay.config import load_config
from ofdma_underlay.errors import ConvergenceError, InfeasibleError

SMALL_SCENARIO = """
# compact scenario used by the CLI tests
num_users = 2
num_primaries = 1
num_subcarriers = 8
total_power_w = 8.0
interference_limit_w = 2.0
ber_target = 1e-3
bandwidth_hz = 1e6
noise_psd_dbm_hz = -90.0
primary_interference_w = 0.0
cross_mean_re = 0.3
cross_var = 0.2
csi_mode = perfect
constraint_mode = deterministic
rng_seed = 5
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SMALL_SCENARIO)
    return str(path)


def test_validate_preset(capsys):
    assert main(["validate", "--preset", "deterministic"]) == 0
    out = capsys.readouterr().out
    assert "num_subcarriers = 64" in out
    assert "total_power_w = 30" in out
    assert "fingerprint = " in out


def test_validate_overrides_and_seed(config_file, capsys):
    rc = main(["validate", "--config", config_file, "--seed", "99",
               "--set", "total_power_w=12", "--rate", "discrete"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rng_seed = 99" in out
    assert "total_power_w = 12" in out
    assert "rate_mode = discrete" in out


def _validate_output(capsys, *args) -> str:
    assert main(["validate", *args]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("source", ["preset", "explicit-matrix"])
def test_validate_output_reloads_as_the_same_scenario(source, tmp_path, capsys):
    if source == "preset":
        args = ["--preset", "deterministic"]
    else:
        path = tmp_path / "explicit.cfg"
        gains = ",".join("%.15g" % (0.1 + i / 7.0) for i in range(16))
        path.write_text(SMALL_SCENARIO + "direct_gain_means = %s\n" % gains)
        args = ["--config", str(path)]
    first = _validate_output(capsys, *args)
    dumped = tmp_path / "dumped.cfg"
    dumped.write_text(first)
    second = _validate_output(capsys, "--config", str(dumped))
    assert second == first
    fingerprint = first.splitlines()[-1]
    assert fingerprint.startswith("# fingerprint = ")
    assert load_config(str(dumped)).fingerprint() == fingerprint.split()[-1]
    if source == "explicit-matrix":
        line = [ln for ln in first.splitlines() if ln.startswith("direct_gain_means")]
        assert len(line[0].split("=", 1)[1].split(",")) == 16


def test_non_finite_config_value_exits_two(capsys):
    rc = main(["run", "--preset", "deterministic", "--set", "cross_var=nan",
               "--states", "20"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:") and "cross_var" in err


@pytest.mark.parametrize("override, field", [
    ("cross_var=1e300", "cross_var"),               # the variance of the sum overflows
    ("noise_psd_dbm_hz=4000", "noise_psd_dbm_hz"),  # 10 ** 400 W/Hz
])
def test_overflowing_config_value_exits_two(override, field, capsys):
    rc = main(["run", "--preset", "deterministic", "--set", override, "--states", "20"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:") and field in err


def test_config_and_preset_are_exclusive(config_file, capsys):
    rc = main(["validate", "--config", config_file, "--preset", "deterministic"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert "not both" in err


def test_unknown_preset_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--preset", "nonsense"])
    assert excinfo.value.code == 2


def test_missing_config_file(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")


def test_ber_target_bound_names_limit(config_file, capsys):
    rc = main(["run", "--config", config_file, "--set", "ber_target=0.5",
               "--states", "20"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert "0.3" in err


def test_probabilistic_mode_needs_imperfect_csi(config_file, capsys):
    rc = main(["validate", "--config", config_file, "--mode", "probabilistic"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR 2:")


@pytest.mark.parametrize("args, key", [
    (["validate", "--preset", "deterministic", "--seed", "-1"], "rng_seed"),
    (["validate", "--preset", "deterministic", "--set", "direct_gain_seed=-1"],
     "direct_gain_seed"),
    (["validate", "--preset", "imperfect", "--set", "correlation=1"], "correlation"),
], ids=["seed", "direct-gain-seed", "correlation"])
def test_invalid_scenario_exits_two_naming_the_key(args, key, tmp_path, capsys):
    assert main(args) == 2
    assert main([args[0].replace("validate", "run"), *args[1:], "--states", "4",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("ERROR 2: " + key) for line in err)


def test_run_writes_report_and_trace(config_file, tmp_path, capsys):
    out = tmp_path / "artifacts"
    rc = main(["run", "--config", config_file, "--states", "60",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "ase " in stdout and "converged True" in stdout

    report = json.loads((out / "report.json").read_text())
    assert report["report"]["num_states"] == 60
    assert report["report"]["converged"] is True
    assert report["config"]["num_subcarriers"] == 8
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iter,mu,primal_ase,dual_value,power_gap"
    assert len(trace_lines) >= 2


def test_run_iterations_writes_one_trace_row_each(tmp_path, capsys):
    out = tmp_path / "forced"
    assert main(["run", "--preset", "deterministic", "--states", "60",
                 "--iterations", "5", "--out", str(out)]) == 0
    assert "  iterations 5  " in capsys.readouterr().out
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in trace_lines[1:]] == ["1", "2", "3", "4", "5"]


@pytest.mark.parametrize("power", ["30", "0"])
def test_run_rejects_iterations_below_one(power, capsys):
    assert main(["run", "--preset", "deterministic", "--set",
                 "total_power_w=" + power, "--states", "20", "--iterations", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:") and "iterations" in err


def test_all_iterations_flag_is_gone():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--preset", "deterministic", "--all-iterations"])
    assert excinfo.value.code == 2


def test_run_artifacts_byte_identical(config_file, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["run", "--config", config_file, "--states", "40",
                     "--out", str(out)]) == 0
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


def test_sweep_writes_csv_and_sidecar(config_file, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", config_file, "--axis", "ith",
               "--values", "0.5,1,2", "--states", "50", "--threads", "1",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis_value,ase,ase_stderr,power_used,max_interf,collision,epsilon"
    assert len(lines) == 4
    ases = [float(line.split(",")[1]) for line in lines[1:]]
    assert ases == sorted(ases)
    sidecar = json.loads((out / "sweep.json").read_text())
    assert sidecar["axis"] == "ith"
    assert sidecar["values"] == [0.5, 1.0, 2.0]
    assert len(sidecar["rows"]) == 3


def test_sweep_rejects_unsorted_values(config_file, tmp_path, capsys):
    rc = main(["sweep", "--config", config_file, "--axis", "ith",
               "--values", "2,1", "--states", "20",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:") and "sorted" in err


def test_bad_audit_arguments_exit_two(tmp_path, capsys):
    assert main(["run", "--preset", "imperfect", "--states", "20",
                 "--audit-samples", "0"]) == 2
    assert main(["sweep", "--preset", "imperfect", "--axis", "epsilon",
                 "--values", "0.1", "--states", "20", "--audit-states", "-1",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("ERROR 2:") for line in err)


def test_sweep_rejects_bad_value_text(config_file, tmp_path, capsys):
    rc = main(["sweep", "--config", config_file, "--axis", "ith",
               "--values", "1,zap", "--states", "20",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "comma-separated" in capsys.readouterr().err


def test_sweep_rejects_non_integral_subcarrier_count(tmp_path, capsys):
    rc = main(["sweep", "--preset", "deterministic", "--axis", "k",
               "--values", "8,8.5,16", "--states", "20",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:") and "num_subcarriers" in err
    assert not (tmp_path / "x").exists()


def test_deterministic_epsilon_sweep_exits_two(tmp_path, capsys):
    rc = main(["sweep", "--preset", "deterministic", "--axis", "epsilon",
               "--values", "0.05,0.1", "--states", "20",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:") and "'epsilon'" in err and "deterministic mode" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_rejects_threads_below_one(threads, config_file, tmp_path, capsys):
    rc = main(["sweep", "--config", config_file, "--axis", "ith",
               "--values", "1,2", "--states", "20", "--threads", threads,
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == "ERROR 2: --threads must be >= 1\n"
    assert not (tmp_path / "x").exists()


def test_dist_table_stdout_columns(config_file, capsys):
    rc = main(["dist-table", "--config", config_file, "--points", "50"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gamma,cdf_closed,pdf_closed"
    assert len(lines) == 51
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert table[0, 0] == 0.0
    assert np.all(np.diff(table[:, 1]) >= -1e-12)     # cdf nondecreasing
    assert np.all(table[:, 2] >= 0.0)                 # pdf nonnegative
    assert table[-1, 1] > 0.9                         # grid reaches the tail


def test_dist_table_mc_column_tracks_cdf(config_file, tmp_path):
    out = tmp_path / "table"
    rc = main(["dist-table", "--config", config_file, "--points", "80",
               "--mc-samples", "20000", "--out", str(out)])
    assert rc == 0
    lines = (out / "dist_table.csv").read_text().splitlines()
    assert lines[0] == "gamma,cdf_closed,pdf_closed,cdf_mc"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.max(np.abs(table[:, 1] - table[:, 3])) <= 0.05


def test_dist_table_reruns_byte_identical(config_file, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["dist-table", "--config", config_file, "--points", "40",
                     "--mc-samples", "5000", "--out", str(out)]) == 0
    assert (first / "dist_table.csv").read_bytes() == \
        (second / "dist_table.csv").read_bytes()


def test_dist_table_validation(config_file, capsys):
    assert main(["dist-table", "--config", config_file, "--points", "1"]) == 2
    assert main(["dist-table", "--config", config_file,
                 "--gamma-max", "-1"]) == 2
    for bad in (["--gamma-max", "nan"], ["--gamma-max", "inf"],
                ["--mc-samples", "-5"]):
        assert main(["dist-table", "--config", config_file, *bad]) == 2
    err = capsys.readouterr().err
    assert err.count("ERROR 2:") == 5


@pytest.mark.parametrize("flag, value, message", [
    ("--user", "9", "user 9 outside 0..2"),
    ("--user", "-1", "user -1 outside 0..2"),
    ("--subcarrier", "64", "subcarrier 64 outside 0..63"),
    ("--primary", "1", "primary 1 outside 0..0"),
])
def test_dist_table_index_error_names_index_and_range(flag, value, message, capsys):
    assert main(["dist-table", "--preset", "deterministic", flag, value]) == 2
    assert capsys.readouterr().err == "ERROR 2: %s\n" % message


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_exit_code_three_on_convergence_error(config_file, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ConvergenceError("power multiplier unsettled after 150 trials")
    monkeypatch.setattr(cli, "run_experiment", explode)
    rc = main(["run", "--config", config_file, "--states", "20"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERROR 3:")


def test_exit_code_four_on_infeasibility(config_file, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise InfeasibleError("budget cannot be met")
    monkeypatch.setattr(cli, "run_experiment", explode)
    rc = main(["run", "--config", config_file, "--states", "20"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("ERROR 4:")


def test_run_seed_override_changes_fingerprint(config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config_file, "--states", "30",
                 "--out", str(out_a)]) == 0
    assert main(["run", "--config", config_file, "--states", "30",
                 "--seed", "77", "--out", str(out_b)]) == 0
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert rep_a["report"]["fingerprint"] != rep_b["report"]["fingerprint"]
    assert rep_a["report"]["ase"] != rep_b["report"]["ase"]
