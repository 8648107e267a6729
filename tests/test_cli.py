import dataclasses
import json

import numpy as np
import pytest

import nlpflow.cli
from nlpflow import parse_problem
from nlpflow.cli import main
from test_problemfile import chain_text

HARD_START = "--theta0=-4.8578,3.8180,-2.7364"


def run_example1(tmp_path, extra=()):
    return main(["run", "--problem", "example1", HARD_START,
                 "--pts", "1,2,3;4,5", "--t-end", "300", "--fixed-horizon",
                 "--out", str(tmp_path), "--seed", "7", *extra])


def test_list_plain(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "example2", "ec-quadratic"):
        assert name in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    by_name = {e["name"]: e for e in entries}
    assert by_name["example1"]["n"] == 3
    assert by_name["example2"]["r"] == 200
    assert by_name["ec-quadratic"]["known_optimum"] == [1.0, 1.0]


def test_run_writes_csv_and_summary(tmp_path, capsys):
    assert run_example1(tmp_path) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("example1: horizon-reached at tau=300 (")
    assert out[1].startswith("  error vs known optimum: ") and len(out) == 2
    csv = (tmp_path / "trajectory.csv").read_text().splitlines()
    header = csv[0].split(",")
    assert header[:4] == ["tau", "theta_1", "theta_2", "theta_3"]
    assert header[4:6] == ["pi_e_1", "pi_e_2"]
    assert header[6:11] == [f"pi_i_{i}" for i in range(1, 6)]
    assert header[11:] == ["kkt_stationarity", "ec_violation",
                           "iec_violation", "lyapunov"]
    assert len(csv) > 10

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "horizon-reached"
    assert summary["error_to_known_optimum"] <= 1e-6
    assert np.allclose(summary["pi_e_final"], [0.35, 0.70], atol=0.01)
    assert summary["seed"] == 7
    assert summary["config"]["theta0"] == [-4.8578, 3.8180, -2.7364]
    assert summary["schema_version"] == 6
    assert "initial_lp_gamma" not in summary
    assert summary["rejected_count"] > 0
    assert summary["trial_rejections"] == 0
    assert (summary["endgame_steps"], summary["endgame_fallbacks"]) == (0, 0)


def test_run_replay_is_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_example1(a_dir)
    run_example1(b_dir)
    assert (a_dir / "trajectory.csv").read_bytes() == (b_dir / "trajectory.csv").read_bytes()


def test_run_sampled_start_respects_seed(tmp_path):
    args = ["run", "--problem", "ec-quadratic", "--theta0", "sample:-2,2",
            "--k-theta", "1", "--k-h", "1", "--t-end", "30",
            "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = json.loads((tmp_path / "a" / "summary.json").read_text())
    b = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert a["config"]["theta0"] == b["config"]["theta0"]


def test_run_problem_file(tmp_path):
    src = tmp_path / "toy.nlp"
    src.write_text("var 2\nmin 0.5 * (x1^2 + x2^2)\neq x1 + x2 - 2\n")
    out = tmp_path / "out"
    assert main(["run", "--problem", str(src), "--theta0", "0,0",
                 "--k-theta", "1", "--k-h", "1", "--t-end", "30",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert np.allclose(summary["theta_final"], [1.0, 1.0], atol=1e-4)


def test_run_theta0_dimension_mismatch(tmp_path, capsys):
    assert main(["run", "--problem", "example1", "--theta0", "1,2",
                 "--out", str(tmp_path)]) == 2
    assert "components" in capsys.readouterr().err


@pytest.mark.parametrize("options, token", [
    (["--theta0", "x,1,1"], "'x'"),
    (["--theta0", "sample:1"], "sample:1"),
    (["--theta0", "sample:0,y"], "'y'"),
    (["--theta0", "1,1,1", "--fix", "a=1"], "'a'"),
    (["--theta0", "1,1,1", "--fix", "1=b"], "'b'"),
    (["--theta0", "1,1,1", "--fix", "0=1"], "component 0"),
    (["--theta0", "1,1,1", "--fix", "4=1"], "component 4"),
    (["--theta0", "1,1,1", "--pts", "a"], "'a'"),
    (["--theta0", "1,1,1", "--pts", "0"], "row 0 outside 1..5"),
    (["--theta0", "1,1,1", "--pts", "1,2;6"], "row 6 outside 1..5"),
    (["--theta0", "nan,1,1"], "'nan'"),
    (["--theta0", "sample:0,inf"], "'inf'"),
    (["--theta0", "sample:-1e308,1e308"], "range too wide"),
    (["--theta0", "1,1,1", "--fix", "1=-inf"], "'-inf'"),
    (["--problem", "{tmp}/missing.nlp", "--theta0", "1"], "--problem {tmp}/missing.nlp"),
    (["--problem", "{tmp}", "--theta0", "1"], "--problem {tmp}"),
    (["--theta0", "1,1,1", "--k-g-file", "{tmp}/missing.txt"], "--k-g-file {tmp}/missing.txt"),
    (["--theta0", "1,1,1", "--k-theta-file", "{tmp}/bad.txt"], "--k-theta-file {tmp}/bad.txt"),
    (["--theta0", "1,1,1", "--k-theta", "inf"], "k_theta must be finite"),
    (["--theta0", "1,1,1", "--k-g", "nan"], "k_g must be finite"),
    (["--theta0", "1,1,1", "--rel-tol", "nan"], "rel_tol"),
    (["--theta0", "1,1,1", "--t-end", "inf"], "t_end"),
    (["--theta0", "1,1,1", "--abs-tol", "0"], "abs_tol"),
    (["--theta0", "1,1,1", "--pts", "1,2;2,3"], "disjoint"),
    # a size that would not apply, and would still be echoed in summary.json
    (["--problem", "{tmp}/bad.txt", "--theta0", "1", "--size", "7"], "--size applies"),
])
def test_malformed_option_value_exits_2(tmp_path, capsys, options, token):
    (tmp_path / "bad.txt").write_text("1 x\n0 1\n")
    options = [o.format(tmp=tmp_path) for o in options]
    assert main(["run", "--problem", "example1", *options, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and token.format(tmp=tmp_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gain", ["theta", "h", "g"])
def test_scalar_gain_and_its_file_exclude_each_other(tmp_path, capsys, gain):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--problem", "example1", "--theta0", "1,1,1", f"--k-{gain}", "1",
              f"--k-{gain}-file", str(tmp_path / "k.txt"), "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_multistart_count_below_one_exits_2(tmp_path, capsys, count):
    assert main(["multistart", "--problem", "example1", "--theta0", "sample:-1,1",
                 "--count", count, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --count") and "Traceback" not in err


def test_unknown_problem_exits_2(tmp_path, capsys):
    assert main(["run", "--problem", "nope", "--theta0", "0",
                 "--out", str(tmp_path)]) == 2
    assert "unknown problem" in capsys.readouterr().err


def test_multistart_outputs(tmp_path, capsys):
    code = main(["multistart", "--problem", "example1",
                 "--theta0", "sample:-10,10", "--count", "3",
                 "--pts", "1,2,3;4,5", "--t-end", "300", "--fixed-horizon",
                 "--out", str(tmp_path), "--seed", "0"])
    assert code == 0
    agg = json.loads((tmp_path / "multistart.json").read_text())
    assert agg["count"] == 3
    assert agg["error"]["maximum"] <= 1e-6
    for k in range(3):
        assert (tmp_path / f"run_{k:02d}_trajectory.csv").exists()
        assert (tmp_path / f"run_{k:02d}_summary.json").exists()
    table = capsys.readouterr().out
    assert "verdict" in table and "horizon-reached" in table


def test_multistart_fix_pins_component(tmp_path):
    code = main(["multistart", "--problem", "ec-quadratic",
                 "--theta0", "sample:-1,1", "--fix", "1=5.0", "--count", "2",
                 "--k-theta", "1", "--k-h", "1", "--t-end", "5",
                 "--out", str(tmp_path), "--seed", "3"])
    assert code == 0
    for k in range(2):
        summary = json.loads((tmp_path / f"run_{k:02d}_summary.json").read_text())
        assert summary["config"]["theta0"][0] == 5.0


def test_gain_matrix_from_file(tmp_path):
    ktheta = tmp_path / "ktheta.txt"
    np.savetxt(ktheta, np.eye(2))
    out = tmp_path / "out"
    assert main(["run", "--problem", "ec-quadratic", "--theta0", "0,0",
                 "--k-theta-file", str(ktheta), "--k-h", "1",
                 "--t-end", "30", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert np.allclose(summary["theta_final"], [1.0, 1.0], atol=1e-4)
    # the echo names the file that ran, so a replay uses the same gains
    config = summary["config"]
    assert (config["k_theta"], config["k_theta_file"]) == (None, str(ktheta))
    assert (config["k_h"], config["k_h_file"]) == (1.0, None)
    assert (config["k_g"], config["k_g_file"]) == (0.1, None)


def test_config_echo_replays_the_integrator_config(tmp_path, monkeypatch):
    ran = []
    solve = nlpflow.cli.solve

    def recorded(*args, integrator, **kwargs):
        ran.append(integrator)
        return solve(*args, integrator=integrator, **kwargs)

    monkeypatch.setattr(nlpflow.cli, "solve", recorded)
    assert main(["run", "--problem", "ec-quadratic", "--theta0", "0,0", "--k-h", "1",
                 "--method", "stiff", "--rel-tol", "1e-4", "--abs-tol", "1e-8",
                 "--t-end", "30", "--fixed-horizon", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "summary.json").read_text())["config"]
    fields = dataclasses.fields(nlpflow.IntegratorConfig)
    assert nlpflow.IntegratorConfig(**{f.name: config[f.name] for f in fields}) == ran[0]
    assert ran[0] == nlpflow.IntegratorConfig("stiff", 1e-4, 1e-8, 30.0, True)
    assert list(config) == ["problem", "size", "k_theta", "k_h", "k_g", "k_theta_file",
                            "k_h_file", "k_g_file", "method", "rel_tol", "abs_tol", "t_end",
                            "fixed_horizon", "pts", "theta0"]


def test_stiff_run_reports_jacobian_count(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--problem", "ec-quadratic", "--theta0", "0,0", "--method", "stiff",
                 "--k-theta", "1", "--k-h", "1", "--t-end", "30", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["jacobian_count"] == summary["step_count"] > 0


def test_stiff_problem_file_run_uses_the_curvature_oracle(tmp_path, monkeypatch):
    # each derivative call is a flow-point evaluation; no Jacobian differences
    # the derivative oracle, as curvature_at's fallback would, n calls each
    calls = [0]

    def parse_counted(text, name="problem"):
        problem = parse_problem(text, name=name)

        def derivatives(theta):
            calls[0] += 1
            return problem.derivatives(theta)

        return dataclasses.replace(problem, derivatives=derivatives)

    monkeypatch.setattr(nlpflow.cli, "parse_problem", parse_counted)
    src, out = tmp_path / "chain.nlp", tmp_path / "out"
    src.write_text(chain_text(5))
    assert main(["run", "--problem", str(src), "--theta0=2,1.7,1.4,1.1,0.8", "--method", "stiff",
                 "--k-h", "1", "--k-g", "1", "--t-end", "100", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["jacobian_count"] > 0
    assert calls[0] == summary["rhs_eval_count"]


def test_wrong_size_gain_file_exits_2(tmp_path, capsys):
    k_g = tmp_path / "k_g.txt"
    np.savetxt(k_g, np.ones(4))      # example1 has 5 inequality rows
    code = main(["run", "--problem", "example1", HARD_START, "--k-g-file", str(k_g),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "k_g" in err and "Traceback" not in err


def counted_parse(monkeypatch):
    """Count the derivative-oracle calls of the problem `nlpflow run` parses."""
    calls = [0]
    parse = nlpflow.cli.parse_problem

    def counted(*args, **kwargs):
        problem = parse(*args, **kwargs)

        def derivatives(theta):
            calls[0] += 1
            return problem.derivatives(theta)

        return dataclasses.replace(problem, derivatives=derivatives)

    monkeypatch.setattr(nlpflow.cli, "parse_problem", counted)
    return calls


def test_run_domain_error_exits_1(tmp_path, capsys, monkeypatch):
    # log is undefined at the start point
    src = tmp_path / "log_edge.nlp"
    src.write_text("var 1\nmin log(x1)\nineq 0.05 - x1\n")
    calls = counted_parse(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--problem", str(src), "--theta0=-1", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "error:EvaluationError"
    assert "math domain error" in summary["error_detail"]
    assert summary["step_count"] == 0
    assert "theta_final" not in summary
    assert calls[0] == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1


def test_run_trial_stage_domain_error_is_a_rejected_step(tmp_path, monkeypatch):
    # a trial stage of the default rk45 stepper leaves the domain of log;
    # the attempt is rejected and the run reaches the constrained minimum
    src = tmp_path / "log_edge.nlp"
    src.write_text("var 1\nmin log(x1)\nineq 0.05 - x1\n")
    calls = counted_parse(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--problem", str(src), "--theta0=1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "converged"
    assert abs(summary["theta_final"][0] - 0.05) <= 1e-6
    assert abs(summary["pi_i_final"][0] - 20.0) <= 1e-4
    assert summary["trial_rejections"] > 0
    assert summary["endgame_steps"] > 0
    assert calls[0] < summary["rhs_eval_count"]   # a failed evaluation calls no derivatives
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + summary["step_count"] + 1


def test_run_log_with_shifted_domain_converges(tmp_path):
    # the domain x1 > 2: loading the file evaluates nothing, so it runs from theta0
    src = tmp_path / "log_shift.nlp"
    src.write_text("var 1\nmin (x1 - 3)^2 - log(x1 - 2)\n")
    out = tmp_path / "out"
    assert main(["run", "--problem", str(src), "--theta0", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "converged"
    assert abs(summary["theta_final"][0] - (5 + np.sqrt(3)) / 2) <= 1e-6
