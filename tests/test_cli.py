import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import secretary_lab
from secretary_lab import Policy, load_family
from secretary_lab.bounds import oracle_optimum
from secretary_lab.cli import main, run_command
from secretary_lab.exact import format_value


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


# SHA-256 of `--help` stdout at 80 columns, top level and per command,
# recorded while every call built every command's flags.
HELP_DIGESTS = {
    (): "f9e6eab481d28ce490ee21b5c0173901830605249b2f082609ee16cf0e5c0330",
    ("gen",): "6eb59a55ffae0610afb109f132464b113299393174febed367817b39bf62ef15",
    ("solve",): "5e637f272d77056fc196aefba6b0bf067ee8257c6fffad5c4dbc0f9d8fd67ec9",
    ("eval",): "15b66e1ccc132c3cab467455f41e0224c5cda48c8aece79c8beec5db8bb1ab51",
    ("bounds",): "a000fdaf94564714ec2498a77939ed57d5c865d6d7390b36d2626da431b1c40c",
    ("verify",): "41458780d019910718af974e86b88631a4191e6e3dc2c2410bbde46d4a0098a2",
    ("sweep",): "e7d15792550f822fbe4a6067c4ae032f106c903c3b18a3bbba729e4b8e4b20d3",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS), ids=lambda c: " ".join(c) or "top")
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        run_command([*command, "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


# One usage error per command at 80 columns: its usage line and message,
# recorded while every call built every command's flags.
USAGE_ERRORS = {
    (): (
        "usage: secretary-lab [-h] {gen,solve,eval,bounds,verify,sweep} ...\n"
        "secretary-lab: error: the following arguments are required: command\n"
    ),
    ("gen", "--eps", "1/10", "--s", "5", "--k", "4"): (
        "usage: secretary-lab gen [-h] [--eps EPS] [--s S] [--k K] [--n N] -o OUTPUT\n"
        "                         [--render {md,csv}]\n"
        "secretary-lab gen: error: the following arguments are required: -o/--output\n"
    ),
    ("solve", "--digits", "x"): (
        "usage: secretary-lab solve [-h] [--family FAMILY] [--eps EPS] [--s S] [--k K]\n"
        "                           [--n N] [--unconstrained] [-o OUTPUT]\n"
        "                           [--policy-out POLICY_OUT] [--digits DIGITS]\n"
        "secretary-lab solve: error: argument --digits: not an integer: 'x'\n"
    ),
    ("eval", "--family", "f.json", "--alg", "dynkin", "--exact", "--mc"): (
        "usage: secretary-lab eval [-h] --family FAMILY --alg ALG [--exact | --mc]\n"
        "                          [--trials TRIALS] [--seed SEED]\n"
        "                          [--metric {ratio,success}] [-o OUTPUT]\n"
        "                          [--digits DIGITS]\n"
        "secretary-lab eval: error: argument --mc: not allowed with argument --exact\n"
    ),
    ("bounds", "--k", "four"): (
        "usage: secretary-lab bounds [-h] [--eps EPS] [--s S] [--k K] [-o OUTPUT]\n"
        "                            [--digits DIGITS]\n"
        "secretary-lab bounds: error: argument --k: not an integer: 'four'\n"
    ),
    ("verify", "--digits", "4301"): (
        "usage: secretary-lab verify [-h] [--preset PRESET] [--eps EPS] [--s S] [--k K]\n"
        "                            [--n N] [-o OUTPUT] [--digits DIGITS]\n"
        "secretary-lab verify: error: argument --digits: must be in 0..4300, got 4301\n"
    ),
    ("sweep", "--eps", "1/10"): (
        "usage: secretary-lab sweep [-h] --eps EPS --s S --k K [--n N] -o OUTPUT\n"
        "                           [--fields FIELDS] [--max-points MAX_POINTS]\n"
        "                           [--digits DIGITS]\n"
        "secretary-lab sweep: error: the following arguments are required: "
        "--s, --k, -o/--output\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(USAGE_ERRORS), ids=lambda a: a[0] if a else "top")
def test_usage_error_bytes_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        run_command(list(argv))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", USAGE_ERRORS[argv])


HARD_FLAGS = ["--eps", "1/10", "--s", "5", "--k", "4"]
# An empty path names the working directory to the OS; each path flag
# refuses it by name.
EMPTY_PATHS = {
    "eval-alg-policy": (["eval", "--family", "f.json", "--alg", "policy:"],
                        "argument --alg: the path after policy: is empty"),
    "eval-family": (["eval", "--family", "", "--alg", "dynkin"],
                    "argument --family: the path is empty"),
    "eval-o": (["eval", "--family", "f.json", "--alg", "dynkin", "-o", ""],
               "argument -o/--output: the path is empty"),
    "solve-family": (["solve", "--family", ""], "argument --family: the path is empty"),
    "solve-o": (["solve", *HARD_FLAGS, "-o", ""], "argument -o/--output: the path is empty"),
    "solve-policy-out": (["solve", *HARD_FLAGS, "--policy-out", ""],
                         "argument --policy-out: the path is empty"),
    "gen-o": (["gen", *HARD_FLAGS, "-o", ""], "argument -o/--output: the path is empty"),
    "bounds-o": (["bounds", *HARD_FLAGS, "-o", ""], "argument -o/--output: the path is empty"),
    "verify-o": (["verify", "--preset", "paper-19-20", "-o", ""],
                 "argument -o/--output: the path is empty"),
    "sweep-o": (["sweep", *HARD_FLAGS, "-o", ""], "argument -o/--output: the path is empty"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_PATHS))
def test_empty_path_is_a_usage_error_naming_the_flag(tmp_path, capsys, monkeypatch, name):
    import secretary_lab.bounds
    import secretary_lab.cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for module, attr in ((secretary_lab.cli, "load_family"), (secretary_lab.cli, "Policy"),
                         (secretary_lab.cli, "build_hard_family"),
                         (secretary_lab.cli, "solve_optimal"),
                         (secretary_lab.bounds, "verify_theorem")):
        monkeypatch.setattr(module, attr, refuse)
    monkeypatch.chdir(tmp_path)
    argv, message = EMPTY_PATHS[name]
    with pytest.raises(SystemExit) as err:
        run_command(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"secretary-lab {argv[0]}: error: {message}"
    assert list(tmp_path.iterdir()) == []


DIGITS_COMMANDS = (
    ["solve", "--eps", "1/10", "--s", "5", "--k", "4"],
    ["eval", "--family", "missing.json", "--alg", "dynkin"],
    ["bounds", "--eps", "1/10", "--s", "5", "--k", "4"],
    ["verify", "--preset", "paper-19-20"],
    ["sweep", "--eps", "1/10", "--s", "5", "--k", "4", "-o", "out.csv"],
)


@pytest.mark.parametrize("digits", ("-1", "4301"))
@pytest.mark.parametrize("command", DIGITS_COMMANDS, ids=lambda command: command[0])
def test_out_of_range_digits_is_refused_before_any_work(
    monkeypatch, tmp_path, capsys, command, digits
):
    import secretary_lab.bounds
    import secretary_lab.cli

    def refuse(*args, **kwargs):
        raise AssertionError("solve_optimal ran")

    monkeypatch.setattr(secretary_lab.cli, "solve_optimal", refuse)
    monkeypatch.setattr(secretary_lab.bounds, "solve_optimal", refuse)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_command([*command, "--digits", digits])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --digits: must be in 0..4300, got {digits}" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_digits_up_to_the_int_to_str_limit_render(capsys):
    argv = ["bounds", "--eps", "1/10", "--s", "5", "--k", "4", "--digits", "4300"]
    assert run_command(argv) == 0
    alpha = json.loads(capsys.readouterr().out)["alpha"]
    assert alpha["exact"] == "18/25"
    assert alpha["decimal"] == "0." + "72" + "0" * 4298


def test_digits_beyond_a_lowered_int_to_str_limit_render(tmp_path, monkeypatch):
    # The interpreter's int-to-str limit bounds only the integers the
    # program parses: --digits keeps its range 0..4300 under a lower limit.
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
    argv = ["-m", "secretary_lab", "verify", "--preset", "paper-19-20", "--digits"]
    rendered = run_package([*argv, "1000"], tmp_path)
    assert rendered.returncode == 0, rendered.stderr
    integer_part, decimals = json.loads(rendered.stdout)["alpha"]["decimal"].split(".")
    assert integer_part == "0"
    assert len(decimals) == 1000
    refused = run_package([*argv, "4301"], tmp_path)
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert "argument --digits: must be in 0..4300, got 4301" in refused.stderr


def test_verify_bytes_hold_under_a_lowered_int_to_str_limit(tmp_path, monkeypatch):
    # one-third-plus reports exact values of more than 640 digits
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
    argv = ("--preset", "one-third-plus")
    result = run_package(["-m", "secretary_lab", "verify", *argv], tmp_path)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == VERIFY_DIGESTS[argv]


def test_exact_values_beyond_the_int_to_str_limit_render(capsys):
    assert run_command(["bounds", "--eps", "1/100", "--s", "400", "--k", "2000"]) == 0
    rendered = json.loads(capsys.readouterr().out)["oracle_optimum"]["exact"]
    expected = format_value(oracle_optimum(Fraction(1, 100), Fraction(400), 2000))
    assert rendered == expected
    assert max(map(len, expected.split("/"))) > 4300


def test_long_mass_is_reported_under_a_lowered_int_to_str_limit(tmp_path, monkeypatch):
    # Each probability has 400 digits; their sum has more than 640.
    probabilities = [Fraction(1, 10**399 + 1), Fraction(1, 10**399 + 3)]
    family = {
        "n": 2,
        "scenarios": [
            {"id": i, "values": ["2", "1"], "probability": format_value(p)}
            for i, p in enumerate(probabilities, 1)
        ],
        "prediction_id": 1,
    }
    (tmp_path / "family.json").write_text(json.dumps(family), encoding="utf-8")
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
    result = run_package(["-m", "secretary_lab", "solve", "--family", "family.json"], tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: invalid prior family: mass != 1 (probabilities sum to "
        f"{format_value(sum(probabilities))})"
    ]


def test_value_beyond_a_lowered_int_to_str_limit_names_the_limit(tmp_path, monkeypatch):
    # A value whose integers have more digits than the interpreter's limit
    # is refused in one short line that names the limit, not as a value
    # outside the grammar quoting all of its text.
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
    eps = "3" * 2149 + "/" + "7" * 2150
    result = run_package(
        ["-m", "secretary_lab", "verify", "--eps", eps, "--s", "76", "--k", "78"], tmp_path
    )
    assert result.returncode in (1, 2)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --eps: '3333")
    assert "(4300 characters)" in lines[0]
    assert "2150 digits" in lines[0]
    assert "int-to-str limit of 640" in lines[0]
    assert len(lines[0]) < 200


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


# SHA-256 of the family file and of stdout, recorded before each power
# of s was built once and shared across rows.
GEN_DIGESTS = {
    ("--eps", "1/10", "--s", "5", "--k", "4", "--n", "5", "--render", "md"): (
        "dbf40cfdc93f54c32025118e1360d0b2e50dbe0485aa65d98994b6b0968cba90",
        "f45c497608befa55b8fa369015d2c13510a290d346b33f2e147eb30cbcdf43a7",
    ),
    ("--eps", "1/10", "--s", "5", "--k", "4", "--n", "5", "--render", "csv"): (
        "dbf40cfdc93f54c32025118e1360d0b2e50dbe0485aa65d98994b6b0968cba90",
        "39bec9c786e66cfd7a5f3cf8842a42fc471e6e442f0883bac577e43ee4b3b179",
    ),
    ("--eps", "1/100", "--s", "400", "--k", "400"): (
        "e244e0dc475be52e84ef13a348d2ab99c24d1c640a6b646fe1a76072fb806592",
        hashlib.sha256(b"").hexdigest(),
    ),
    ("--eps", "1/10", "--s", "7/2", "--k", "6", "--n", "5"): (
        "cff838acc1cf0b09b14d71ee3cb12ab2b5c43a54b8fc22475cbfa1a4203af898",
        hashlib.sha256(b"").hexdigest(),
    ),
}


@pytest.mark.parametrize("argv", sorted(GEN_DIGESTS), ids=" ".join)
def test_gen_bytes_are_pinned(tmp_path, capsys, argv):
    path = tmp_path / "family.json"
    assert run_command(["gen", *argv, "-o", str(path)]) == 0
    out = capsys.readouterr().out
    digests = (hashlib.sha256(path.read_bytes()).hexdigest(),
               hashlib.sha256(out.encode()).hexdigest())
    assert digests == GEN_DIGESTS[argv]


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
    # --policy-out writes the bytes of Policy.to_json.
    assert Policy.load(policy_path).to_json() == policy_path.read_text(encoding="utf-8")

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


# Well-formed JSON that the PriorFamily constructor refuses: row 2 holds
# 3 of n = 6 values, or the probabilities sum to 117/20.
SHORT_ROW_FAMILY = {
    "n": 6,
    "scenarios": [
        {"id": 1, "values": ["2", "1", "1", "1", "1", "1"], "probability": "1/2"},
        {"id": 2, "values": ["1", "2", "1"], "probability": "1/2"},
    ],
    "prediction_id": 1,
}
MASS_117_20_FAMILY = _one_row_family(probability="117/20")
# A valid family that no rule can be scored on: row 2 has mass 1/2 and
# only zero values, so its competitive ratio is undefined.
ALL_ZERO_ROW_FAMILY = {
    "n": 2,
    "scenarios": [
        {"id": 1, "values": ["2", "1"], "probability": "1/2"},
        {"id": 2, "values": ["0", "0"], "probability": "1/2"},
    ],
    "prediction_id": 1,
}

# Accepts the first arrival of the two-candidate family.
ACCEPT_FIRST_POLICY = {"|current=(1:2)": "accept", "|current=(2:1)": "accept"}
# Its prediction_id names no row.
NO_PREDICTION_ROW_FAMILY = {**_one_row_family(), "prediction_id": 7}


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
    "all-zero-row-under-mc": ("mc", ALL_ZERO_ROW_FAMILY),
    "mass-117-over-20-under-policy": ("eval-policy", MASS_117_20_FAMILY),
    "policy-arrival-unclosed": ("policy", {"|current=(1:5": "accept"}),
    "policy-duplicate-index": ("policy", {"(1:5)|current=(1:5)": "accept"}),
    "policy-duplicate-observed-index": ("policy", {"(1:2),(1:2)|current=(2:1)": "accept"}),
    "policy-index-zero": ("policy", {"|current=(0:5)": "accept"}),
    "policy-index-negative": ("policy", {"|current=(-1:5)": "accept"}),
    "policy-action-a-list": ("policy", {"|current=(1:2)": ["accept"]}),
    "policy-action-an-object": ("policy", {"|current=(1:2)": {"a": "accept"}}),
    "policy-action-null": ("policy", {"|current=(1:2)": None}),
    "prediction-row-missing": ("family", NO_PREDICTION_ROW_FAMILY),
    "prediction-row-missing-under-pred-argmax": ("pred-argmax", NO_PREDICTION_ROW_FAMILY),
    # Raw text: json.loads alone keeps the last copy of a repeated key.
    "policy-repeated-state": (
        "policy",
        '{"|current=(1:2)": "accept", "|current=(2:1)": "accept", '
        '"(1:2)|current=(2:1)": "accept", "|current=(1:2)": "reject"}',
    ),
    "family-repeated-probability": (
        "family",
        '{"n": 2, "scenarios": [{"id": 1, "values": ["2", "1"], '
        '"probability": "1/2", "probability": "1"}], "prediction_id": 1}',
    ),
    # 5,000 nested arrays: deeper than json.loads goes on Python 3.10 to 3.12
    "family-nested-too-deeply": ("family", "[" * 5000 + "]" * 5000),
    "policy-nested-too-deeply": ("policy", "[" * 5000 + "]" * 5000),
}
# The whole error line, where it is pinned.
MALFORMED_MESSAGES = {
    "all-zero-row-under-mc":
        "error: scenario 2 has positive probability but no positive value",
    "policy-arrival-unclosed":
        "error: not an arrival: '(1:5' (write (i:v), v in lowest terms)",
    "policy-duplicate-index": "error: duplicate candidate indices in state: [1, 1]",
    "policy-duplicate-observed-index":
        "error: duplicate candidate indices in state: [1, 1, 2]",
    # a key with index 0 or below names no state of the family: it loads,
    # and scoring then misses the family's first state
    "policy-index-zero": "error: policy has no action for reachable state '|current=(1:2)'",
    "policy-index-negative":
        "error: policy has no action for reachable state '|current=(1:2)'",
    "policy-action-a-list": "error: ['accept'] is not a valid Action",
    "policy-action-an-object": "error: {'a': 'accept'} is not a valid Action",
    "policy-action-null": "error: None is not a valid Action",
    "prediction-row-missing":
        "error: invalid prior family: prediction_id 7 refers to no scenario",
    "prediction-row-missing-under-pred-argmax":
        "error: invalid prior family: prediction_id 7 refers to no scenario",
    "policy-repeated-state": "error: repeated key '|current=(1:2)' in a JSON object",
    "family-repeated-probability": "error: repeated key 'probability' in a JSON object",
    "family-nested-too-deeply": "error: the JSON nests too deeply",
    "policy-nested-too-deeply": "error: the JSON nests too deeply",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_is_one_error_line(tmp_path, capsys, monkeypatch, name):
    import secretary_lab.baselines

    def refuse(*args):
        raise AssertionError("a trial was drawn")

    # Monte Carlo refuses a malformed input before its first draw.
    monkeypatch.setattr(secretary_lab.baselines, "_draw_trials", refuse)
    kind, payload = MALFORMED_INPUTS[name]
    path = tmp_path / f"{kind}.json"
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    if kind == "family":
        argv = ["solve", "--family", str(path)]
    elif kind == "mc":
        argv = ["eval", "--family", str(path), "--alg", "dynkin", "--mc", "--trials", "50"]
    elif kind == "eval-policy":
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(ACCEPT_FIRST_POLICY), encoding="utf-8")
        argv = ["eval", "--family", str(path), "--alg", f"policy:{policy_path}"]
    elif kind == "pred-argmax":
        argv = ["eval", "--family", str(path), "--alg", "pred-argmax"]
    else:
        family_path = tmp_path / "one-row.json"
        family_path.write_text(json.dumps(_one_row_family()), encoding="utf-8")
        argv = ["eval", "--family", str(family_path), "--alg", f"policy:{path}"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert lines[0] == MALFORMED_MESSAGES.get(name, lines[0])


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
    # the family file fixes n too
    assert run_command(["solve", "--family", str(family_path), "--n", "7"]) == 1
    assert capsys.readouterr().err == (
        "error: give either --family or --eps/--s/--k/--n, not both\n"
    )


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


def test_eval_mc_bytes_are_pinned(tmp_path, capsys):
    # SHA-256 of the stdout, recorded before the draws were made cheaper.
    family_path = tmp_path / "family20.json"
    assert run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "20",
                        "-o", str(family_path)]) == 0
    small_path = tmp_path / "family4.json"
    policy_path = tmp_path / "policy4.json"
    assert run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "4",
                        "-o", str(small_path)]) == 0
    assert run_command(["solve", "--family", str(small_path),
                        "--policy-out", str(policy_path)]) == 0
    capsys.readouterr()
    runs = (
        (["--family", str(family_path), "--alg", "dynkin", "--seed", "0"],
         "6c5902a38b8efdfc9310d8e6816c2abd0beea371ed110af5919c180487c33f1e"),
        (["--family", str(small_path), "--alg", f"policy:{policy_path}", "--seed", "3"],
         "9b1193461c24490f440bc04d0ce8615db894fc4d8c7df0a83d65123b9c7019bb"),
    )
    for argv, digest in runs:
        assert run_command(["eval", *argv, "--mc", "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of eval stdout for the solved policy file of the k = 4 hard
# family at n = 6, by Monte Carlo in the benchmark's eval-policy-mc shape
# and exactly, recorded while the table was keyed on InformationState and
# Monte Carlo tallied every trial's order.
EVAL_POLICY_DIGESTS = {
    ("--mc", "--trials", "20000", "--seed", "0"):
        "5634aa9c1016419bcd459bd3c1bebef329228546b644d8e75b39d06ca5460899",
    (): "60c35ff490baf1447995a390f30f7b97106be5050275dc0ae430416df297a39e",
}


def test_eval_policy_bytes_are_pinned(tmp_path, capsys):
    family_path = tmp_path / "family.json"
    policy_path = tmp_path / "policy.json"
    assert run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "6",
                        "-o", str(family_path)]) == 0
    assert run_command(["solve", "--family", str(family_path),
                        "--policy-out", str(policy_path)]) == 0
    capsys.readouterr()
    for argv, digest in EVAL_POLICY_DIGESTS.items():
        command = ["eval", "--family", str(family_path), "--alg", f"policy:{policy_path}"]
        assert run_command([*command, *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of exact eval stdout on the k = 4 hard family, recorded while
# eval still scored a rule by tabulating it over every reachable state
# (n = 7 and 8: while it still tallied every arrival order).
EVAL_EXACT_DIGESTS = {
    ("dynkin", 3): "597ff1de614a0387bee71b5dbb7e25f868df0c062daa8064009723f3fb99dd89",
    ("pred-argmax", 3): "f89f0d1197920d678015a840e824984faf8c7edf378c2f6d3fab6be0b7925c81",
    ("dynkin", 4): "e9ee2395deec329913e6a5fe6ceb578d789be3fa7b9003fa61245a05bf4fa3cf",
    ("pred-argmax", 4): "793d116f4347ea7a39d265193e6e92181baad49f1436357f3983fdd213bbbca9",
    ("dynkin", 5): "d7a5f020795d8e6035b59e7538bb4f7d771f32d88a626689319eae50c058d42b",
    ("pred-argmax", 5): "fc183f2f3fe5c00bd4b3f7dce928811108773784b72f1ecc2d6d5d55e880529c",
    ("dynkin", 6): "fefa1f7381e4478c2132f1a639fd7547376fdf7dcd50f626ec266fe9d107903b",
    ("pred-argmax", 6): "fa92c50f09d84ddf2df6f83ca16a08cb672c22233667fd1fe01d5c86aebc83cb",
    ("dynkin", 7): "b28049142ce123c7cd181cfd999439fe7b47aee59453883b7674edca5a141931",
    ("pred-argmax", 7): "6281690e06994fda923641f9873b63ccc81cfa7635c39f999fa1dbfd117d055c",
    ("dynkin", 8): "a626f0014205f9e6fedc6ffa5f4a1869e0f88d8334bfbf834f74a5fb059cca71",
    ("pred-argmax", 8): "5aae253de4c8057c9905965676c4f02af29e7ba47c2f6b8d59ce9f1a15d02df2",
}


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_eval_exact_bytes_are_pinned(tmp_path, capsys, n):
    family_path = tmp_path / "family.json"
    assert run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "4", "--n", str(n),
                        "-o", str(family_path)]) == 0
    for alg in ("dynkin", "pred-argmax"):
        assert run_command(["eval", "--family", str(family_path), "--alg", alg]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == EVAL_EXACT_DIGESTS[alg, n]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--eps", "1/10", "--s", "5/x", "--k", "4"],
         "error: --s: not a value: '5/x' (use p, p/q or s^e)"),
        (["bounds", "--eps", "1.5", "--s", "5", "--k", "4"],
         "error: --eps: not a value: '1.5' (use p, p/q or s^e)"),
        (["sweep", "--eps", "1/10", "--s", "5", "--k", "4,,6"],
         "error: --k: not an integer: ''"),
        (["sweep", "--eps", "1/10", "--s", "5,s^2", "--k", "4"],
         "error: --s: power form 's^2' needs a family base"),
    ],
    ids=["bounds-s", "bounds-eps", "sweep-k", "sweep-s"],
)
def test_bad_value_is_one_error_naming_flag_and_item(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep.csv"
    if argv[0] == "sweep":
        argv = argv + ["-o", str(out)]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert not out.exists()


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


# SHA-256 of verify stdout, recorded while the budget verdict was still
# decided by refining the threshold enclosure against 1/s + 1/(k-1).
VERIFY_DIGESTS = {
    ("--preset", "paper-19-20"):
        "efa8feb69bfe3f24dc7977959f9daad0d808120f94e73a7f46dfcdd48ccc9662",
    ("--preset", "corrected-76-78"):
        "0ba81a1d452fdc5b0f8c87e19e7db92bc4bb595afe056bbb11882503becfe993",
    ("--preset", "one-third-plus"):
        "f9d5682c93c289749f69a4040c6de3ad545057e5b2661c4f484408115dfb1bff",
    # no budget left: threshold is null
    ("--eps", "1/2", "--s", "5", "--k", "4"):
        "3687e6929a4bf498e0680e82891fd4f5389b946ea09d34be3bd0d89df442d7f5",
    ("--eps", "1/10", "--s", "5", "--k", "4", "--n", "5"):
        "72b1900f8c3028eb3a168d54414eee80e21dab7f89e1f693d34c415f04ae7816",
    ("--eps", "1/1000", "--s", "400", "--k", "400"):
        "f744c81bda49b1e6b5b608cd646c423a2445454f10637c00ad6852d11898e699",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS), ids=" ".join)
def test_verify_bytes_are_pinned(capsys, argv):
    assert run_command(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv]


def test_verify_at_the_edge_point_is_pinned(capsys, edge_eps):
    # its probabilities run to about 4,300 digits, numerator and
    # denominator together
    eps = format_value(edge_eps)
    assert len(eps) > 4000
    assert run_command(["verify", "--eps", eps, "--s", "76", "--k", "78"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "051bfa7d99647ffcf28d86a8c91e1966930dd967f6d51c8a42f3ed5db24648d2"
    )


# SHA-256 of solve stdout (no --policy-out) on the eps = 1/10, s = 5 hard
# family, recorded while every solve still wrote and scored its table.
SOLVE_DIGESTS = {
    ("--k", "4", "--n", "3"):
        "905f4107bd12e4a5ad85f1c98f36f5c330dd8230175e862448616d0d39e167a3",
    ("--k", "4", "--n", "4"):
        "7dbb164a4d83f95b6087ea7c90d1419c3cf4bd0e350f4706b9c6b929c470ea88",
    ("--k", "4", "--n", "5"):
        "3b2ec4e4b72ec4d4dfebb68f353a461484b5d92606ebf3650e6f895cf8068efd",
    ("--k", "4", "--n", "6"):
        "42a2ddcc984bd94ab084da316a60ab5f384a6e454f17c52a49859fb49b33e88b",
    ("--k", "4", "--n", "7"):
        "cdf850df7d006b028486eaa25357c237519319e5d877a1c7fede609d4fd5e561",
    ("--k", "4", "--n", "5", "--unconstrained"):
        "6f5119b1289b21e4e1a40e38008479928113de72ee57efbf0d25bc19653b080c",
    ("--k", "400", "--n", "3"):
        "ce62a7eaec20efb34e756571ab93ea51fdbbb1900c1be5d9c15bc6c40867a5e3",
}


@pytest.mark.parametrize("argv", sorted(SOLVE_DIGESTS), ids=" ".join)
def test_solve_bytes_are_pinned(capsys, argv):
    assert run_command(["solve", "--eps", "1/10", "--s", "5", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_DIGESTS[argv]


# SHA-256 of the --policy-out file on the eps = 1/10, s = 5, k = 4 hard
# family, recorded while the file was written from the rendered table;
# the n = 7 digest is the benchmark's reference for its deep-solve file.
POLICY_FILE_DIGESTS = {
    ("--n", "7"): "ad9f488a5744843b509904d09c96fdc489340f31f5d030752912c45ee937b5b8",
    ("--n", "6"): "cff4b4a53f8fff2c083c89b2918565259293c0123b21a4e90a33d31ce16ddbc3",
    ("--n", "5", "--unconstrained"):
        "82b325b65b7a48ddb5f3ea40cf30274c180a9b79627955992ff6617ed134aff3",
}


@pytest.mark.parametrize("argv", sorted(POLICY_FILE_DIGESTS), ids=" ".join)
def test_solve_policy_file_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "policy.json"
    command = ["solve", "--eps", "1/10", "--s", "5", "--k", "4", *argv]
    assert run_command([*command, "--policy-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POLICY_FILE_DIGESTS[argv]


def test_solve_policy_out_builds_no_table(tmp_path, capsys, monkeypatch):
    # The file is written from the solver's memo: neither the table nor
    # any information state is built, and the bytes are those of a run
    # free to build them.
    from secretary_lab import InformationState
    from secretary_lab.policy import _SetRule

    command = ["solve", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "5", "--policy-out"]
    assert run_command([*command, str(tmp_path / "free.json")]) == 0

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built a table")

    monkeypatch.setattr(_SetRule, "table", refuse)
    monkeypatch.setattr(InformationState, "__init__", refuse)
    assert run_command([*command, str(tmp_path / "memo.json")]) == 0, capsys.readouterr().err
    assert (tmp_path / "memo.json").read_bytes() == (tmp_path / "free.json").read_bytes()


def test_policy_stream_failing_midway_leaves_the_old_file(tmp_path, capsys, monkeypatch):
    # The n = 6 file takes more than one write and the disk fills after
    # the first: the temp file is removed and the old file keeps its bytes.
    from secretary_lab.policy import _SetRule

    target = tmp_path / "policy.json"
    target.write_bytes(b"{}\n")
    stream = _SetRule.write_json
    writes = []

    def filling(self, write):
        def limited(text):
            if writes:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            writes.append(text)
            write(text)

        stream(self, limited)

    monkeypatch.setattr(_SetRule, "write_json", filling)
    command = ["solve", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "6"]
    assert run_command([*command, "--policy-out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.strerror(errno.ENOSPC) in err and str(target) in err
    assert len(writes) == 1
    assert target.read_bytes() == b"{}\n"
    assert list(tmp_path.glob(".policy.json.*.tmp")) == []
    assert [path.name for path in tmp_path.iterdir()] == ["policy.json"]


def test_policy_stream_reaches_the_file_in_few_writes(tmp_path, capsys, monkeypatch):
    # The n = 7 policy file is streamed in 2,026 writes of up to about
    # 4.1 KB; the output file's buffer gathers them, so that few writes
    # reach the file itself (487 through an 8 KiB buffer).
    import io

    raw_writes = []

    class CountingFile(io.FileIO):
        def write(self, data):
            raw_writes.append(len(data))
            return super().write(data)

    def fdopen(fd, mode, buffering=-1, **kwargs):
        # the file stack that open() builds on a descriptor, with the
        # buffer size that open() picks when none is given
        if buffering < 0:
            buffering = os.fstat(fd).st_blksize
        raw = CountingFile(fd, mode)
        return io.TextIOWrapper(io.BufferedWriter(raw, buffering), **kwargs)

    monkeypatch.setattr(os, "fdopen", fdopen)
    target = tmp_path / "policy.json"
    command = ["solve", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "7"]
    assert run_command([*command, "--policy-out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == POLICY_FILE_DIGESTS["--n", "7"]
    assert sum(raw_writes) == target.stat().st_size
    assert len(raw_writes) <= 20


def test_sweep_csv_bytes_are_pinned(tmp_path):
    # The README grid, recorded while every solve still wrote its table.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--eps", "1/100,1/10", "--s", "50,400", "--k", "50,400", "-o", str(out)]
    assert run_command(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "eaa7927947aa31f8f39a4c04a196b8c1cbde6f9620d9d5abeac344b508a3fa25"
    )


# Three eps at each of four (s, k) pairs at n = 4, recorded while sweep
# still solved every point.
REUSE_GRID = ["--eps", "1/1000,1/100,1/10", "--s", "5,19", "--k", "4,20", "--n", "4"]
REUSE_CSV_DIGEST = "7a86cce1916a17f5f75b5b2f82f7eb41461e35d9bace3f5e9048ecda900bd802"


def test_sweep_solves_each_s_k_once(tmp_path, monkeypatch):
    # Each later eps is eps + (1 - eps) T from the first solve of its
    # (s, k): it builds no family and solves nothing, and its bytes are
    # those of a direct solve.
    import secretary_lab.cli as cli

    calls = {"solve_optimal": 0, "build_hard_family": 0}

    def counted(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    out = tmp_path / "sweep.csv"
    assert run_command(["sweep", *REUSE_GRID, "-o", str(out)]) == 0
    assert calls == {"solve_optimal": 4, "build_hard_family": 4}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REUSE_CSV_DIGEST


def test_sweep_checks_every_point_against_the_closed_form(tmp_path, monkeypatch):
    # A closed form off by 1/10^6 at one eps must stop the sweep, whether
    # that eps is solved (the first) or derived (the last).
    import secretary_lab.cli as cli

    def off_at(bad_eps):
        def closed_form(eps, s, k):
            return oracle_optimum(eps, s, k) + (Fraction(1, 10**6) if eps == bad_eps else 0)

        return closed_form

    out = tmp_path / "sweep.csv"
    for bad_eps in (Fraction(1, 1000), Fraction(1, 10)):
        monkeypatch.setattr(cli, "oracle_optimum", off_at(bad_eps))
        with pytest.raises(RuntimeError, match="sweep optimum and closed form disagree"):
            run_command(["sweep", *REUSE_GRID, "-o", str(out)])
    assert not out.exists()


def test_verify_and_sweep_build_no_table(tmp_path, capsys, monkeypatch):
    # Neither command reads a policy table, so neither may build one or
    # any information state.
    from secretary_lab import InformationState, verify_theorem

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(Policy, "__init__", refuse)
    monkeypatch.setattr(InformationState, "__post_init__", refuse)
    report = verify_theorem(preset="one-third-plus")
    assert report.dp_optimum == report.oracle_optimum
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--eps", "1/10", "--s", "5,19", "--k", "4,6", "--n", "4", "-o", str(out)]
    assert run_command(argv) == 0, capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 5


def test_verify_rejects_mixed_sources(capsys):
    assert (
        run_command(
            ["verify", "--preset", "paper-19-20", "--eps", "1/10", "--s", "5", "--k", "4"]
        )
        == 1
    )
    assert run_command(["verify", "--preset", "no-such-preset"]) == 1
    assert "error:" in capsys.readouterr().err
    # the preset fixes n too
    assert run_command(["verify", "--preset", "paper-19-20", "--n", "6"]) == 1
    assert capsys.readouterr().err == (
        "error: give either --preset or --eps/--s/--k/--n, not both\n"
    )


def _refuse(*args, **kwargs):
    raise AssertionError("called after a check should have refused")


def test_oversized_n_is_refused_before_the_family_is_built(tmp_path, capsys, monkeypatch):
    import secretary_lab.bounds as bounds
    import secretary_lab.cli as cli

    monkeypatch.setattr(cli, "build_hard_family", _refuse)
    monkeypatch.setattr(bounds, "build_hard_family", _refuse)
    params = ["--eps", "1/10", "--s", "5", "--k", "4", "--n", "9"]
    out = tmp_path / "sweep.csv"
    for argv in (["solve", *params], ["verify", *params], ["sweep", *params, "-o", str(out)]):
        assert run_command(argv) == 1
        assert capsys.readouterr().err == (
            "error: n = 9 too large for exact enumeration (max 8); "
            "use monte_carlo_estimate beyond that\n"
        )
    assert not out.exists()


def test_sweep_checks_every_point_before_the_first_solve(tmp_path, capsys, monkeypatch):
    import secretary_lab.cli as cli

    monkeypatch.setattr(cli, "solve_optimal", _refuse)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--eps", "1/10", "--s", "5", "--k", "50,5", "-o", str(out)]
    assert run_command(argv) == 1
    assert capsys.readouterr().err == "error: k must be even, got 5\n"
    assert not out.exists()


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


@pytest.mark.parametrize("points", ("0", "-1"))
def test_sweep_max_points_below_one_is_a_usage_error(tmp_path, capsys, points):
    # refused by argparse, as --digits is, not as a grid above its cap
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as err:
        run_command(
            ["sweep", *HARD_FLAGS, "-o", str(out), "--max-points", points]
        )
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"secretary-lab sweep: error: argument --max-points: must be >= 1, got {points}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag", ("--k", "--n", "--trials", "--seed"))
def test_integer_flags_read_alike(tmp_path, capsys, flag):
    argv = (["eval", "--family", str(gen_family(tmp_path)), "--alg", "dynkin", "--mc"]
            if flag in ("--trials", "--seed") else ["solve", *HARD_FLAGS])
    with pytest.raises(SystemExit) as err:
        run_command([*argv, flag, "four"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: not an integer: 'four'\n")


@pytest.mark.parametrize("trials", ("0", "-1"))
def test_eval_trials_below_one_is_a_usage_error(tmp_path, capsys, trials):
    # the check --max-points makes, not the estimator's exit 1
    family = gen_family(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_command(["eval", "--family", str(family), "--alg", "dynkin", "--mc",
                     "--trials", trials])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"secretary-lab eval: error: argument --trials: must be >= 1, got {trials}\n"
    )


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
    # The error names the -o path, not the temp file written first.
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(missing_dir)!r}\n"
    )


@pytest.mark.parametrize("to_file", (False, True), ids=("stdout", "-o"))
def test_bad_policy_out_fails_before_the_report(tmp_path, capsys, to_file):
    # The policy file is written first, so a bad --policy-out leaves
    # neither a report on stdout nor a report file, only one error line.
    report = tmp_path / "rep.json"
    missing = tmp_path / "nodir" / "p.json"
    argv = ["solve", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "4",
            "--policy-out", str(missing)]
    assert run_command(argv + (["-o", str(report)] if to_file else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    assert list(tmp_path.iterdir()) == []


BOUNDS_ARGV = ["bounds", "--eps", "1/10", "--s", "5", "--k", "4"]


def _bounds_text(capsys) -> str:
    assert run_command(BOUNDS_ARGV) == 0
    return capsys.readouterr().out


def test_output_through_a_symlink_replaces_its_target(tmp_path, capsys):
    expected = _bounds_text(capsys)
    target = tmp_path / "target.json"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run_command(BOUNDS_ARGV + ["-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == expected
    assert target.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.glob(".*.tmp")) == []


def test_new_output_file_gets_the_umask_mode(tmp_path):
    out = tmp_path / "bounds.json"
    assert run_command(BOUNDS_ARGV + ["-o", str(out)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    expected = _bounds_text(capsys)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    assert run_command(BOUNDS_ARGV + ["-o", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [expected]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.glob(".*.tmp")) == []


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


DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
# SHA-256 of each demo's stdout.
DEMO_DIGESTS = {
    "01_hard_family_table.py":
        "cd31b5a54af2aad26ae056d94f7ec62bf168bb01504a9b150592fbfa536930fe",
    "02_solve_and_inspect.py":
        "fbf9493d20afe30a42dac36ab7fe58b0c7922a349924967bdda4ecc53f546fd3",
    "03_certified_bounds.py":
        "d408033cefbc224cf1b7f150f92826a74a0264842a54f95e23ae43035c20f5f5",
    "04_verify_presets.py":
        "a132914cef50f5a5848d2a61152724449f2088fae5403b6ea9219b1041a4ee7c",
    "05_baselines_and_monte_carlo.py":
        "8263187e09e37386d19478211592877543033489f236a90b8fad306e851a31c7",
    "06_sweep_toward_one_third.py":
        "4f1cf8a108bef8771d83ab46d83ac821a5f92a9f755d165d32b89d9dbea24998",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMO_DIR.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_prints_what_it_printed(tmp_path, name):
    result = run_package([str(DEMO_DIR / name)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DEMO_DIGESTS[name]


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


@pytest.mark.parametrize("n, trials", [
    # 10^15 trials would run for years in flat memory
    (3, 10**15),
    # trials * max(n, 100) just above the cap
    (3, 10**8 + 1),
    (100, 10**8 + 1),
], ids=["n3-1e15", "n3-cap", "n100-cap"])
def test_eval_mc_refuses_too_many_trials_before_any_draw(
    tmp_path, capsys, monkeypatch, n, trials
):
    import secretary_lab.baselines

    assert secretary_lab.baselines.MAX_TRIAL_ELEMENTS == 10**10
    family_path = tmp_path / "family.json"
    assert run_command(["gen", "--eps", "1/10", "--s", "5", "--k", "4", "--n", str(n),
                        "-o", str(family_path)]) == 0

    def refuse(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(secretary_lab.baselines, "_draw_trials", refuse)
    argv = ["eval", "--family", str(family_path), "--alg", "dynkin", "--mc",
            "--trials", str(trials)]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: trials * max(n, 100) must be at most 10000000000, got {trials} * 100"
    ]


K_COMMANDS = (
    ["gen", "-o", "family.json"],
    ["solve"],
    ["bounds"],
    ["verify"],
    ["sweep", "-o", "out.csv"],
)


@pytest.mark.parametrize("k, shown", [("20000", "k = 20000"), ("1" + "0" * 400, "k > 5e+07")],
                         ids=["20000", "1e400"])
@pytest.mark.parametrize("command", K_COMMANDS, ids=lambda command: command[0])
def test_too_large_k_is_refused_before_any_value_is_built(
    monkeypatch, tmp_path, capsys, command, k, shown
):
    # k = 20000 at s = 5 holds about 5.6e8 digits of values over 39,999
    # rows; bounds alone ran for seconds there.
    import secretary_lab.bounds
    import secretary_lab.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a value was built")

    for module in (secretary_lab.cli, secretary_lab.bounds):
        monkeypatch.setattr(module, "build_hard_family", refuse)
    monkeypatch.setattr(secretary_lab.cli, "bound_chain", refuse)
    monkeypatch.chdir(tmp_path)
    assert run_command([*command, "--eps", "1/10", "--s", "5", "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {shown} is too large for s")
    assert len(lines[0]) < 200
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, refused", [(28_571, False), (28_572, True)])
def test_gen_refuses_more_than_max_values_before_any_value_is_built(
    monkeypatch, tmp_path, capsys, n, refused
):
    # (2k - 1) * n values at k = 4: 199,997 pass the check, 200,004 do not.
    import secretary_lab.cli

    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    monkeypatch.setattr(secretary_lab.cli, "build_hard_family", built)
    argv = ["gen", "--eps", "1/10", "--s", "5", "--k", "4", "--n", str(n),
            "-o", str(tmp_path / "family.json")]
    if not refused:
        with pytest.raises(Built):
            run_command(argv)
        return
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: n = 28572 is too large for k: the family would hold "
        "(2k - 1) * n = 200004 values, more than 200000"
    ]
    assert list(tmp_path.iterdir()) == []


def test_cli_prints_the_same_bytes_under_python_dash_o(tmp_path):
    # Every cross-check raises rather than asserts, so -O changes nothing.
    # Each command writes to stdout or to out.csv, and some to policy.json.
    family = gen_family(tmp_path)
    assert run_command(["solve", "--family", str(family), "--policy-out",
                        str(tmp_path / "solved.json")]) == 0
    commands = (
        ["verify", "--preset", "paper-19-20"],
        # k = 400: the self-check on thousand-digit values
        ["verify", "--preset", "one-third-plus"],
        ["solve", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "4",
         "--policy-out", "policy.json"],
        ["solve", "--eps", "1/10", "--s", "5", "--k", "4", "--n", "5"],
        ["sweep", "--eps", "1/10", "--s", "5,19", "--k", "4,6", "-o", "out.csv"],
        ["eval", "--family", "family.json", "--alg", "dynkin"],
        ["eval", "--family", "family.json", "--alg", "policy:solved.json"],
        ["bounds", "--eps", "1/10", "--s", "5", "--k", "4"],
    )
    files = (tmp_path / "policy.json", tmp_path / "out.csv")
    for command in commands:
        runs = []
        for optimize in (False, True):
            result = run_package(["-m", "secretary_lab", *command], tmp_path, optimize)
            assert result.returncode == 0, result.stderr
            runs.append((result.stdout, *(f.read_bytes() if f.exists() else None for f in files)))
            for f in files:
                f.unlink(missing_ok=True)
        assert runs[0] == runs[1]
        stdout, policy, csv_bytes = runs[0]
        assert (policy is not None) == ("--policy-out" in command)
        assert bool(stdout) == (csv_bytes is None) == (command[0] != "sweep")


SKEWED_SELF_CHECK = """
import sys
from fractions import Fraction
import secretary_lab.policy as policy
from secretary_lab import ConstructionParams, build_hard_family

assert False, "asserts must be stripped"
forward = policy._forward_ratios

def skewed(*args):
    mixture, per_row = forward(*args)
    return mixture + Fraction(1, 10**9), per_row

policy._forward_ratios = skewed
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
