import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secretary_lab
from secretary_lab import Policy, load_family
from secretary_lab.cli import main, run_command


def gen_family(tmp_path, name="family.json", eps="1/10", s="5", k="4"):
    path = tmp_path / name
    code = run_command(
        ["gen", "--eps", eps, "--s", s, "--k", k, "-o", str(path)]
    )
    assert code == 0
    return path


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        run_command([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_command(["solve", "--no-such-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "4"])  # no -o
    assert err.value.code == 2


def test_zero_denominator_is_a_domain_error(capsys):
    assert run_command(["bounds", "--eps", "1/0", "--s", "5", "--k", "4"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


def test_gen_writes_loadable_family(tmp_path, capsys):
    path = gen_family(tmp_path)
    family = load_family(path)
    assert len(family.scenarios) == 7
    assert family.prediction_id == 1
    first = path.read_bytes()
    gen_family(tmp_path)
    assert path.read_bytes() == first
    assert capsys.readouterr().out == ""


def test_gen_render_markdown(tmp_path, capsys):
    path = tmp_path / "family.json"
    code = run_command(
        ["gen", "--eps", "1/10", "--s", "5", "--k", "4", "-o", str(path), "--render", "md"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "| row | X_1 | X_2 | X_3 | probability |" in out
    assert "| 1 | s | 1 | 1 | 1/10 |" in out


def test_gen_bad_params_exit_one(tmp_path, capsys):
    path = tmp_path / "family.json"
    assert run_command(["gen", "--eps", "2", "--s", "5", "--k", "4", "-o", str(path)]) == 1
    assert run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "5", "-o", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not path.exists()


def test_solve_eval_round_trip(tmp_path, capsys):
    family_path = gen_family(tmp_path)
    report_path = tmp_path / "report.json"
    policy_path = tmp_path / "policy.json"
    code = run_command(
        [
            "solve",
            "--family",
            str(family_path),
            "-o",
            str(report_path),
            "--policy-out",
            str(policy_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["optimum"]["exact"] == "1703/3125"
    assert report["constrained"] is True
    # --policy-out and Policy.dump write the same bytes.
    dumped_path = tmp_path / "dumped.json"
    Policy.load(policy_path).dump(dumped_path)
    assert dumped_path.read_bytes() == policy_path.read_bytes()

    code = run_command(
        [
            "eval",
            "--family",
            str(family_path),
            "--alg",
            f"policy:{policy_path}",
        ]
    )
    assert code == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert evaluated["mode"] == "exact"
    assert evaluated["report"]["optimum"]["exact"] == "1703/3125"


def _row(**fields) -> dict:
    return {"id": 1, "values": ["2", "1"], "probability": "1", **fields}


def _one_row_family(**fields) -> dict:
    return {"n": 2, "scenarios": [_row(**fields)], "prediction_id": 1}


# Well-formed JSON that validate_family rejects: row 2 holds 3 of n = 6
# values, or the probabilities sum to 117/20.
SHORT_ROW_FAMILY = {
    "n": 6,
    "scenarios": [
        {"id": 1, "values": ["2", "1", "1", "1", "1", "1"], "probability": "1/2"},
        {"id": 2, "values": ["1", "2", "1"], "probability": "1/2"},
    ],
    "prediction_id": 1,
}
MASS_117_20_FAMILY = _one_row_family(probability="117/20")

# Accepts the first arrival of the two-candidate family.
ACCEPT_FIRST_POLICY = {"|current=(1:2)": "accept", "|current=(2:1)": "accept"}


MALFORMED_INPUTS = {
    "power-form-on-zero-base": (
        "family", {**_one_row_family(values=["s^-1", "1"]), "base_s": "0"}
    ),
    "values-not-a-list": ("family", _one_row_family(values=5)),
    "values-as-one-string": ("family", _one_row_family(values="21")),
    "scenarios-not-a-list": (
        "family", {"n": 2, "scenarios": _row(), "prediction_id": 1}
    ),
    "float-probability": ("family", _one_row_family(probability=1.0)),
    "family-is-a-list": ("family", [_one_row_family()]),
    "policy-is-a-list": ("policy", ["|current=(1:5)"]),
    "short-row-under-mc": ("mc", SHORT_ROW_FAMILY),
    "mass-117-over-20-under-mc": ("mc", MASS_117_20_FAMILY),
    "mass-117-over-20-under-policy": ("eval-policy", MASS_117_20_FAMILY),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_is_one_error_line(tmp_path, capsys, name):
    kind, payload = MALFORMED_INPUTS[name]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    if kind == "family":
        argv = ["solve", "--family", str(path)]
    elif kind == "mc":
        argv = ["eval", "--family", str(path), "--alg", "dynkin", "--mc", "--trials", "50"]
    elif kind == "eval-policy":
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(ACCEPT_FIRST_POLICY), encoding="utf-8")
        argv = ["eval", "--family", str(path), "--alg", f"policy:{policy_path}"]
    else:
        argv = ["eval", "--family", str(gen_family(tmp_path)), "--alg", f"policy:{path}"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


def test_solve_unconstrained(tmp_path, capsys):
    family_path = gen_family(tmp_path)
    assert run_command(["solve", "--family", str(family_path), "--unconstrained"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["optimum"]["exact"] == "11/15"
    assert report["constrained"] is False


def test_solve_requires_one_source(tmp_path, capsys):
    family_path = gen_family(tmp_path)
    assert run_command(["solve"]) == 1
    assert (
        run_command(
            ["solve", "--family", str(family_path), "--eps", "1/10", "--s", "5", "--k", "4"]
        )
        == 1
    )
    assert "error:" in capsys.readouterr().err


def test_eval_exact_dynkin(tmp_path, capsys):
    family_path = gen_family(tmp_path)
    assert run_command(["eval", "--family", str(family_path), "--alg", "dynkin"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "dynkin"
    assert payload["report"]["optimum"]["exact"]


def test_eval_unknown_algorithm(tmp_path, capsys):
    family_path = gen_family(tmp_path)
    assert run_command(["eval", "--family", str(family_path), "--alg", "oracle"]) == 1
    assert "unknown algorithm" in capsys.readouterr().err


def test_eval_exact_and_mc_conflict(tmp_path, capsys):
    family_path = gen_family(tmp_path)
    capsys.readouterr()
    # the success metric is only estimated, so it needs --mc as well
    for flags in (["--exact", "--mc"], ["--metric", "success"]):
        with pytest.raises(SystemExit) as err:
            run_command(["eval", "--family", str(family_path), "--alg", "dynkin", *flags])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--mc" in errors[0]


def test_eval_mc_reruns_identically(tmp_path):
    family_path = gen_family(tmp_path)
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run_command(
            [
                "eval",
                "--family",
                str(family_path),
                "--alg",
                "pred-argmax",
                "--mc",
                "--trials",
                "500",
                "--seed",
                "3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["estimate"]["trials"] == 500


def test_bounds_payload(capsys):
    assert run_command(["bounds", "--eps", "1/10", "--s", "5", "--k", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"]["exact"] == "18/25"
    assert payload["ub_display"]["exact"] == "3/5"
    assert payload["oracle_optimum"]["exact"] == "1703/3125"
    assert payload["beta_enclosure"]["lower"]["decimal"].startswith("0.0518191")


def test_bounds_threshold_null_when_budget_spent(capsys):
    assert run_command(["bounds", "--eps", "1/10", "--s", "76", "--k", "78"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] is None


def test_verify_preset(tmp_path):
    out = tmp_path / "verify.json"
    assert run_command(["verify", "--preset", "corrected-76-78", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["preset_inequality_holds"] is True
    assert payload["verdict_vs_inv_e"] == "less"


def test_verify_flags_divergent_preset(capsys):
    assert run_command(["verify", "--preset", "paper-19-20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["preset_inequality_holds"] is False
    assert payload["verdict_vs_inv_e"] == "greater"


def test_verify_rejects_mixed_sources(capsys):
    assert (
        run_command(
            ["verify", "--preset", "paper-19-20", "--eps", "1/10", "--s", "5", "--k", "4"]
        )
        == 1
    )
    assert run_command(["verify", "--preset", "no-such-preset"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep",
        "--eps",
        "1/100,1/10",
        "--s",
        "5,19",
        "--k",
        "4",
        "-o",
        str(out),
    ]
    assert run_command(argv) == 0
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0].startswith("eps,s,k,row_count,alpha_exact")
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.rsplit(",", 1)[1] in ("less", "greater")
    assert run_command(argv) == 0
    assert out.read_bytes() == first


def test_sweep_field_subset(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_command(
        [
            "sweep",
            "--eps",
            "1/10",
            "--s",
            "5",
            "--k",
            "4",
            "--fields",
            "eps,dp_optimum_exact,vs_inv_e",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,dp_optimum_exact,vs_inv_e"
    assert lines[1] == "1/10,1703/3125,greater"


def test_sweep_guards(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    base = ["sweep", "--eps", "1/10,1/100", "--s", "5,19", "--k", "4", "-o", str(out)]
    assert run_command(base + ["--max-points", "2"]) == 1
    assert run_command(
        ["sweep", "--eps", "1/10", "--s", "5", "--k", "4", "--fields", "bogus", "-o", str(out)]
    ) == 1
    err = capsys.readouterr().err
    assert "cap" in err and "bogus" in err
    assert not out.exists()


def test_no_temp_files_left_behind(tmp_path):
    gen_family(tmp_path)
    run_command(
        ["sweep", "--eps", "1/10", "--s", "5", "--k", "4", "-o", str(tmp_path / "s.csv")]
    )
    assert list(tmp_path.glob("*.tmp")) == []


def test_write_failure_exits_one(tmp_path, capsys):
    missing_dir = tmp_path / "absent" / "family.json"
    assert (
        run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "4", "-o", str(missing_dir)])
        == 1
    )
    assert "error:" in capsys.readouterr().err


def test_main_entry(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv", ["secretary-lab", "bounds", "--eps", "1/10", "--s", "5", "--k", "4"]
    )
    with pytest.raises(SystemExit) as err:
        main()
    assert err.value.code == 0
    assert json.loads(capsys.readouterr().out)["alpha"]["exact"] == "18/25"


def run_package(args, tmp_path, optimize=False):
    """Run ``python [-O] args`` in ``tmp_path`` with the package importable."""
    package_root = str(Path(secretary_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    env.pop("PYTHONOPTIMIZE", None)
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    result = run_package(["-m", "secretary_lab", "--help"], tmp_path)
    assert result.returncode == 0
    assert "usage: secretary-lab" in result.stdout


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_eval_mc_refuses_a_seed_out_of_range(tmp_path, capsys, seed):
    family_path = gen_family(tmp_path)
    argv = ["eval", "--family", str(family_path), "--alg", "dynkin", "--mc", "--seed", seed]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: seed must be in [0, 2^128), got {seed}"]


def test_cli_prints_the_same_bytes_under_python_dash_o(tmp_path):
    # Every cross-check raises rather than asserts, so -O changes nothing.
    commands = (
        ["verify", "--preset", "paper-19-20"],
        ["solve", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "4",
         "--policy-out", "policy.json"],
    )
    for command in commands:
        runs = []
        for optimize in (False, True):
            result = run_package(["-m", "secretary_lab", *command], tmp_path, optimize)
            assert result.returncode == 0, result.stderr
            policy = tmp_path / "policy.json"
            runs.append((result.stdout, policy.read_bytes() if policy.exists() else None))
            policy.unlink(missing_ok=True)
        assert runs[0] == runs[1]
        assert runs[0][0]
        assert (runs[0][1] is not None) == ("--policy-out" in command)


SKEWED_SELF_CHECK = """
import sys
from fractions import Fraction
import secretary_lab.policy as policy
from secretary_lab import ConstructionParams, build_hard_family

assert False, "asserts must be stripped"
evaluate = policy.evaluate_policy

def skewed(table, family):
    report = evaluate(table, family)
    report.optimum += Fraction(1, 10**9)
    return report

policy.evaluate_policy = skewed
family = build_hard_family(ConstructionParams(Fraction(1, 10), Fraction(5), 4))
try:
    policy.solve_optimal(family, constrained=True)
except RuntimeError as err:
    print(err)
    sys.exit(0)
sys.exit(3)
"""


def test_solver_self_check_raises_under_python_dash_o(tmp_path):
    result = run_package(["-c", SKEWED_SELF_CHECK], tmp_path, optimize=True)
    assert result.returncode == 0, result.stderr
    assert "disagree" in result.stdout
