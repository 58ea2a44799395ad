"""End-to-end tests for the command-line front end.

All invocations go through ``fedsim.cli.main`` in-process so exit codes,
stdout, and stderr can be asserted without spawning subprocesses. One test
checks the ``fedsim`` console-script contract without an install: the
``[project.scripts]`` declaration in ``pyproject.toml`` resolves to
``fedsim.cli.entry``, and the command pip's wrapper script runs, started in
a subprocess on this source tree, exits 1 with no arguments and 0 for
``--help``. It runs an installed ``fedsim`` script too, when one is on
``PATH``.
"""

import argparse
import gzip
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim import cli, harness

SUBCOMMANDS = ("check-data", "run", "sweep", "instability", "norm-bounds",
               "verify")

SMALL_CONFIG = """\
# tiny synthetic problem, fast enough for end-to-end tests
dataset = synthetic
synthetic_n = 60
synthetic_dim = 10
synthetic_seed = 5
synthetic_nnz = 4
lam = 1e-2
algorithms = fedavg
T = 8
K = 2
M = 2
etas = 0.1
seeds = 0
eval_every = 4
"""


def write_config(tmp_path, text=SMALL_CONFIG, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage and help


def test_no_arguments_prints_usage_and_exits_1(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err.lower()
    assert "error: usage:" in err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert "error: usage:" in err


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    for name in SUBCOMMANDS:
        assert name in out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_0(name, capsys):
    code, out, _ = run_cli([name, "--help"], capsys)
    assert code == 0
    assert "usage" in out.lower()


def test_help_lists_exactly_the_accepted_flags():
    # round trip: every flag in the help text parses, every parseable flag
    # is listed in the help text
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMANDS)
    for name, subparser in sub.choices.items():
        declared = {flag for action in subparser._actions
                    for flag in action.option_strings if flag.startswith("--")}
        listed = set(re.findall(r"--[A-Za-z][A-Za-z-]*", subparser.format_help()))
        assert listed == declared, name


# ---------------------------------------------------------------------------
# override flags and the config schema

# the override flags of run and sweep, each with the config key it sets
RUN_OVERRIDES = {"--algorithm": "algorithms", "--M": "M", "--K": "K",
                 "--eta": "etas", "--seed": "seeds", "--T": "T",
                 "--eval-every": "eval_every", "--lam": "lam",
                 "--dataset": "dataset", "--dim": "dim"}
SWEEP_OVERRIDES = {"--algorithms": "algorithms", "--M": "M", "--K": "K",
                   "--etas": "etas", "--seeds": "seeds", "--T": "T",
                   "--eval-every": "eval_every", "--lam": "lam",
                   "--dataset": "dataset", "--dim": "dim"}
# a value for each overridable key that differs from SMALL_CONFIG's: one
# value per list key for run, comma lists for sweep
RUN_VALUES = {"algorithms": "mb_sgd", "M": "3", "K": "4", "etas": "0.3",
              "seeds": "7", "T": "16", "eval_every": "8", "lam": "0.5",
              "dataset": "data.svm", "dim": "12"}
SWEEP_VALUES = dict(RUN_VALUES, algorithms="fedac1, fedavg", M="4,1",
                    K="4,2", etas="0.2,0.1", seeds="1,0")


def subparser(name):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def flags_of(name):
    return {flag for action in subparser(name)._actions
            for flag in action.option_strings}


def test_run_and_sweep_accept_exactly_their_flags():
    common = {"-h", "--help", "--deterministic-output", "--config", "--out"}
    assert flags_of("run") == common | set(RUN_OVERRIDES)
    assert flags_of("sweep") == common | {"--threads"} | set(SWEEP_OVERRIDES)
    assert set(RUN_OVERRIDES.values()) == set(cli.OVERRIDES)
    assert set(SWEEP_OVERRIDES.values()) == set(cli.OVERRIDES)


@pytest.mark.parametrize("command, flag, metavar", [
    ("run", "--algorithm", "ALGORITHM"), ("run", "--eta", "ETA"),
    ("run", "--seed", "SEED"), ("sweep", "--algorithms", "ALGORITHMS"),
    ("sweep", "--etas", "ETAS"), ("sweep", "--eval-every", "EVAL_EVERY"),
    ("run", "--M", "M")])
def test_override_flags_show_their_own_metavar(command, flag, metavar):
    usage = subparser(command).format_usage()
    assert re.search(rf"\[{flag} {metavar}\]", usage), usage


def config_built(argv, monkeypatch):
    """The ExperimentConfig that ``argv`` builds; stops before any solve."""

    class Built(Exception):
        pass

    def stop(cfg):
        raise Built(cfg)

    monkeypatch.setattr(cli, "build_objective", stop)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(Built) as caught:
        args.handler(args)
    return caught.value.args[0]


@pytest.mark.parametrize("command, flags, values", [
    ("run", RUN_OVERRIDES, RUN_VALUES),
    ("sweep", SWEEP_OVERRIDES, SWEEP_VALUES)])
def test_each_override_flag_equals_its_config_line(command, flags, values,
                                                   tmp_path, monkeypatch):
    start = ["--out", str(tmp_path / "out")]
    for flag, key in flags.items():
        value = values[key]
        # only a dataset file reads dim; the synthetic dataset refuses it
        text = SMALL_CONFIG.replace("dataset = synthetic", "dataset = file.svm") \
            if key == "dim" else SMALL_CONFIG
        base = write_config(tmp_path, text, name="base.txt")
        default = config_built([command, "--config", base, *start], monkeypatch)
        by_flag = config_built([command, "--config", base, *start,
                                flag, value], monkeypatch)
        line = write_config(tmp_path, text + f"{key} = {value}\n",
                            name=f"{key}.txt")
        by_line = config_built([command, "--config", line, *start],
                               monkeypatch)
        assert by_flag == by_line != default, flag


@pytest.mark.parametrize("key", ["algorithms", "M", "K", "etas", "seeds"])
def test_run_names_the_list_key_with_more_than_one_value(key, tmp_path,
                                                         capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG + f"{key} = {SWEEP_VALUES[key]}\n")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["run", "--config", cfg, "--out", str(out_dir)],
                             capsys)
    assert (code, out) == (1, "")
    assert err == f"error: usage: run needs exactly one value for {key}, got 2\n"
    assert not out_dir.exists()


def test_readme_config_table_names_exactly_the_schema_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
    keys = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert keys == set(harness.CONFIG_KEYS)


def test_readme_python_examples_run():
    """README's Python API blocks run in order in one namespace, and each
    ``print(...)  # expected`` prints a line that is the expected text, or
    starts with it when it ends in ``...``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 4
    printed, expected = [], []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        expected += [line.partition("#")[2].strip() for line in block.splitlines()
                     if line.startswith("print(")]
    assert len(printed) == len(expected)
    checked = [(out, want) for out, want in zip(printed, expected) if want]
    assert [want for _, want in checked] == \
        ["(2, 5) [None, None]", "(5, 2, 2) 0.9179...", "200 []"]
    for out, want in checked:
        if want.endswith("..."):
            assert out.startswith(want[:-3]), (out, want)
        else:
            assert out == want


# ---------------------------------------------------------------------------
# check-data


def test_check_data_prints_stats(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("1 1:1.0 3:1.0\n-1 2:2.0\n")
    code, out, err = run_cli(["check-data", str(path)], capsys)
    assert code == 0
    assert err == ""
    assert out.startswith("n=2 dim=3 ")
    assert "max_row_norm_sq=4" in out
    assert "mean_row_norm_sq=3" in out


def test_check_data_declared_dim_pads(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("1 1:1.0\n")
    code, out, _ = run_cli(["check-data", str(path), "--dim", "7"], capsys)
    assert code == 0
    assert out.startswith("n=1 dim=7 ")


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_check_data_rejects_a_nonpositive_dim(dim, tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("1 1:1.0\n")
    code, out, err = run_cli(["check-data", str(path), "--dim", dim], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: usage: --dim must be >= 1, got {dim}")


def test_check_data_reads_gzip(tmp_path, capsys):
    path = tmp_path / "tiny.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1 1:1.0 3:1.0\n-1 2:2.0\n")
    code, out, _ = run_cli(["check-data", str(path)], capsys)
    assert code == 0
    assert out.startswith("n=2 dim=3 ")


def test_check_data_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["check-data", str(tmp_path / "nope.txt")], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: data:")


def test_check_data_malformed_file_exits_2_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 1:1.0\nspam\n")
    code, _, err = run_cli(["check-data", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: data:")
    assert "line 2" in err


@pytest.mark.parametrize("content", [b"+1 1:1\n-1 2:\xff\n",
                                     b"+1 1:1\n-1 3000000000:1\n"],
                         ids=["invalid-utf8", "index-beyond-int32"])
def test_check_data_bad_content_exits_2_with_line_number(content, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    code, out, err = run_cli(["check-data", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: data: line 2: ")


def test_check_data_truncated_gzip_exits_2(tmp_path, capsys):
    text = "".join(f"+1 {i % 100 + 1}:1\n" for i in range(2000)).encode()
    blob = gzip.compress(text, mtime=0)
    path = tmp_path / "cut.txt.gz"
    path.write_bytes(blob[:len(blob) // 2])
    code, out, err = run_cli(["check-data", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: data: ")
    assert "gzip" in err


# ---------------------------------------------------------------------------
# run


def test_run_writes_records_and_exits_0(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["run", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    assert err == ""
    assert "final suboptimality" in out
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "records.json").exists()
    header = (out_dir / "records.csv").read_text().splitlines()[0]
    assert header == "algorithm,M,K,eta,seed,t,suboptimality"


def test_run_with_truncated_optimum_cache_exits_0(tmp_path, capsys):
    cfg = write_config(tmp_path)
    fresh = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "fresh"),
                     "--deterministic-output"], capsys)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "optimum_cache.json").write_text('{"abc|lam=0.01|tol=None": {"w_')
    code, out, err = run_cli(["run", "--config", cfg, "--out", str(out_dir),
                              "--deterministic-output"], capsys)
    assert (code, err) == (0, "")
    assert out == fresh[1].replace(str(tmp_path / "fresh"), str(out_dir))
    json.loads((out_dir / "optimum_cache.json").read_text())


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("spoil", [
    lambda entry: {k: v for k, v in entry.items() if k != "iterations"},
    lambda entry: "entry",
    lambda entry: dict(entry, f_star=str(entry["f_star"])),
], ids=["no-iterations", "string-entry", "string-f_star"])
def test_bad_optimum_cache_entry_is_recomputed(tmp_path, capsys, command,
                                               spoil):
    """A cache entry under the run's own key that was not written as it is
    counts as a miss: the command exits 0 with the output of a cold run and
    writes the entry again."""
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out_dir),
            "--deterministic-output"]
    cold = run_cli(argv, capsys)
    assert cold[0] == 0
    cache = out_dir / "optimum_cache.json"
    written = cache.read_text()
    (key, entry), = json.loads(written).items()
    cache.write_text(json.dumps({key: spoil(entry)}))
    assert run_cli(argv, capsys) == cold
    assert cache.read_text() == written


def test_run_flag_overrides_config_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(
        ["run", "--config", cfg, "--out", str(tmp_path / "out"),
         "--eta", "0.2", "--algorithm", "mb_sgd"], capsys)
    assert code == 0
    assert "mb_sgd" in out
    assert "eta=0.2" in out


def test_run_requires_singleton_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG.replace("etas = 0.1",
                                                      "etas = 0.1, 0.2"))
    code, _, err = run_cli(
        ["run", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "exactly one value" in err


def test_run_without_config_flag_exits_1(capsys):
    code, _, err = run_cli(["run"], capsys)
    assert code == 1
    assert "error: usage:" in err


def test_run_missing_config_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "--config", str(tmp_path / "nope.cfg")], capsys)
    assert code == 1
    assert "error: usage:" in err
    assert "not found" in err


def test_run_config_syntax_error_reports_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "T = 8\nwibble = 3\n")
    code, _, err = run_cli(
        ["run", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "line 2" in err
    assert "wibble" in err


def test_run_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    """Bytes that are not UTF-8 make a usage error naming the file and the
    byte, not a numerical failure (``UnicodeDecodeError`` is a ValueError)."""
    cfg = tmp_path / "config.txt"
    cfg.write_bytes(b"T = 8\xff\n")
    code, out, err = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: usage: {cfg}: not UTF-8: byte 0xff at offset 5\n"


def test_run_config_that_cannot_be_read_exits_1(tmp_path, capsys):
    """A config path that exists but cannot be read is a config error that
    names the path, not a data error."""
    cfg = tmp_path / "config.d"
    cfg.mkdir()
    code, out, err = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: usage: {cfg}: cannot read: ")


def test_run_divergent_cell_exits_3_but_writes_records(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["run", "--config", cfg, "--out", str(out_dir),
         "--eta", "1e300"], capsys)
    assert code == 3
    assert err.startswith("error: numerical:")
    body = (out_dir / "records.csv").read_text()
    assert "inf" in body


def test_run_out_dir_precedence(tmp_path, capsys, monkeypatch):
    # env var beats the config default; the --out flag beats the env var
    cfg = write_config(tmp_path)
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("FEDSIM_OUT", str(env_dir))
    code, _, _ = run_cli(["run", "--config", cfg], capsys)
    assert code == 0
    assert (env_dir / "records.csv").exists()

    flag_dir = tmp_path / "flag_out"
    code, _, _ = run_cli(
        ["run", "--config", cfg, "--out", str(flag_dir)], capsys)
    assert code == 0
    assert (flag_dir / "records.csv").exists()


@pytest.mark.parametrize("cmd", ["run", "sweep"])
def test_unwritable_out_dir_exits_1_naming_it(cmd, tmp_path, capsys):
    """An out dir under a regular file cannot be made: an output error that
    names the path and exits 1, not a data error."""
    cfg = write_config(tmp_path)
    (tmp_path / "afile").write_text("")
    out_dir = tmp_path / "afile" / "sub"
    code, out, err = run_cli([cmd, "--config", cfg, "--out", str(out_dir)],
                             capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: output: ") and err.count("\n") == 1
    assert str(out_dir) in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_artifacts_and_table(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        SMALL_CONFIG.replace("algorithms = fedavg",
                             "algorithms = fedavg, mb_sgd")
        .replace("etas = 0.1", "etas = 0.05, 0.1")
        .replace("seeds = 0", "seeds = 0, 1"))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["sweep", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    assert err == ""
    for name in ("records.csv", "records.json", "sweep.csv", "sweep.json"):
        assert (out_dir / name).exists(), name
    lines = out.splitlines()
    assert lines[0].split() == ["algorithm", "M", "K", "best_eta",
                                "best_subopt"]
    assert lines[1].split()[0] == "fedavg"
    assert lines[2].split()[0] == "mb_sgd"
    sweep_lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "algorithm,M,K,best_eta,best_suboptimality"
    assert len(sweep_lines) == 3


def test_sweep_stdout_and_artifacts_thread_invariant(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        SMALL_CONFIG.replace("algorithms = fedavg",
                             "algorithms = fedavg, fedac1")
        .replace("etas = 0.1", "etas = 0.05, 0.1"))
    out_dir = tmp_path / "out"
    outputs, artifacts = [], []
    for threads in ("1", "2"):
        code, out, _ = run_cli(
            ["sweep", "--config", cfg, "--out", str(out_dir),
             "--threads", threads, "--deterministic-output"], capsys)
        assert code == 0
        outputs.append(out)
        artifacts.append((out_dir / "records.csv").read_bytes()
                         + (out_dir / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_thread(threads, tmp_path, capsys):
    code, out, err = run_cli(
        ["sweep", "--config", write_config(tmp_path), "--out",
         str(tmp_path / "out"), "--threads", threads], capsys)
    assert (code, out) == (1, "")
    assert err == "error: usage: --threads must be >= 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("etas", ["0.1,nan", "inf", "0.1,-inf"])
@pytest.mark.parametrize("algorithm", ["fedavg", "fedac1"])
def test_sweep_rejects_a_non_finite_eta(etas, algorithm, tmp_path, capsys):
    code, out, err = run_cli(
        ["sweep", "--config", write_config(tmp_path), "--out",
         str(tmp_path / "out"), "--etas", etas, "--algorithms", algorithm],
        capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: usage: eta grid must be nonempty, positive "
                          "and finite")


def test_sweep_rejects_a_repeated_k(tmp_path, capsys):
    code, out, err = run_cli(
        ["sweep", "--config", write_config(tmp_path), "--out",
         str(tmp_path / "out"), "--K", "4,4"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: usage: K lists a value twice")


@pytest.mark.parametrize("flag, ascending, descending", [
    ("--K", "1,2", "2,1"), ("--M", "1,2", "2,1"), ("--seeds", "0,1", "1,0")])
def test_sweep_artifacts_ignore_list_order(flag, ascending, descending,
                                           tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG.replace(
        "algorithms = fedavg", "algorithms = fedavg, fedac1"))
    artifacts = []
    for values in (ascending, descending):
        out_dir = tmp_path / values
        code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out_dir),
                              flag, values, "--deterministic-output"], capsys)
        assert code == 0
        artifacts.append([(out_dir / name).read_bytes()
                          for name in ("records.csv", "sweep.csv")])
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_run_rejects_a_bad_opt_tol(tol, tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG + f"opt_tol = {tol}\n")
    code, out, err = run_cli(
        ["run", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: usage: opt_tol must be positive and finite")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("dataset", ["synthetic", "file"])
@pytest.mark.parametrize("dim", ["0", "-3"])
def test_run_and_sweep_reject_a_nonpositive_dim(command, dataset, dim, tmp_path,
                                                capsys):
    """A nonpositive --dim is a usage error (exit 1) whatever the dataset:
    not a data error on a file, and not ignored on the synthetic set."""
    text = SMALL_CONFIG
    if dataset == "file":
        data = tmp_path / "tiny.txt"
        data.write_text("1 1:1.0 3:1.0\n-1 2:2.0\n")
        text = text.replace("dataset = synthetic", f"dataset = {data}")
    code, out, err = run_cli(
        [command, "--config", write_config(tmp_path, text), "--dim", dim,
         "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: usage: dim must be >= 1, got {dim}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_run_and_sweep_reject_dim_on_the_synthetic_dataset(command, where,
                                                           tmp_path, capsys):
    """``dim`` declares a dataset file's feature dimension.  The synthetic
    dataset takes ``synthetic_dim`` and would ignore it, so a ``dim`` there
    is a usage error (exit 1), from the flag or the config file."""
    text, flags = SMALL_CONFIG, ["--dim", "5"]
    if where == "config":
        text, flags = SMALL_CONFIG + "dim = 5\n", []
    code, out, err = run_cli(
        [command, "--config", write_config(tmp_path, text), *flags,
         "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: usage: dim is a dataset file's feature "
                          "dimension; the synthetic dataset takes synthetic_dim")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_take_dim_on_a_dataset_file(command, tmp_path, capsys):
    """On a dataset file ``dim`` stays what it declares."""
    data = tmp_path / "tiny.txt"
    data.write_text("1 1:1.0 3:1.0\n-1 2:2.0\n")
    text = SMALL_CONFIG.replace("dataset = synthetic", f"dataset = {data}")
    code, _, _ = run_cli(
        [command, "--config", write_config(tmp_path, text), "--dim", "5",
         "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize("lam", ["-1", "0", "nan", "inf"])
def test_run_rejects_a_bad_lam(lam, tmp_path, capsys):
    """An infinite lam is a usage error (exit 1), not a numerical failure
    of the optimum solver (exit 3)."""
    cfg = write_config(tmp_path, SMALL_CONFIG.replace("lam = 1e-2", f"lam = {lam}"))
    code, out, err = run_cli(
        ["run", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: usage: lam must be positive and finite")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("lines,where", [
    ("+1 1:nan 2:1\n", "sample 1, feature 1: value nan"),
    ("+1 1:1 2:1\n-1 2:1\n-1 1:1 3:-inf\n", "sample 3, feature 3: value -inf"),
], ids=["nan-first-row", "inf-third-row"])
def test_run_and_sweep_reject_a_non_finite_feature(command, lines, where,
                                                    tmp_path, capsys):
    """The grammar reads ``nan`` and ``inf`` values, and ``check-data``
    prints their stats; an objective over them is a data error (exit 2)
    naming the first such sample and feature, not a failure of the optimum."""
    data = tmp_path / "data.txt"
    data.write_text(lines)
    assert run_cli(["check-data", str(data)], capsys)[0] == 0
    text = SMALL_CONFIG.replace("dataset = synthetic", f"dataset = {data}")
    code, out, err = run_cli(
        [command, "--config", write_config(tmp_path, text),
         "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: data: {where} is not finite\n"


def test_sweep_whole_grid_infeasible_exits_3(tmp_path, capsys):
    # lam is the strong-convexity estimate; gamma * mu >= 1 makes the
    # fedac2 coupling weight infeasible at every eta on the grid
    cfg = write_config(
        tmp_path,
        SMALL_CONFIG.replace("lam = 1e-2", "lam = 0.5")
        .replace("algorithms = fedavg", "algorithms = fedac2")
        .replace("etas = 0.1", "etas = 10, 50")
        .replace("K = 2", "K = 1"))
    code, out, err = run_cli(
        ["sweep", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 3
    assert err.startswith("error: numerical:")
    assert "nan" in out or "inf" in out


def test_sweep_whose_worker_died_exits_5(tmp_path, capsys, monkeypatch):
    """A sweep worker process that dies (``BrokenProcessPool``) is its own
    failure: exit 5 and one ``error: worker:`` line, no traceback."""
    from concurrent.futures.process import BrokenProcessPool

    def tune_and_sweep(*args, **kwargs):
        raise BrokenProcessPool("a worker process was terminated abruptly")

    monkeypatch.setattr(cli, "tune_and_sweep", tune_and_sweep)
    code, out, err = run_cli(["sweep", "--config", write_config(tmp_path),
                              "--out", str(tmp_path / "out"),
                              "--threads", "2"], capsys)
    assert code == 5
    assert err == "error: worker: a worker process was terminated abruptly\n"


@pytest.mark.parametrize("detail,shown", [
    ("", "out of memory"),
    ("Unable to allocate 8.0 TiB", "Unable to allocate 8.0 TiB"),
], ids=["no-detail", "numpy-detail"])
def test_run_out_of_memory_exits_5(detail, shown, tmp_path, capsys, monkeypatch):
    """A ``MemoryError`` is one ``error: memory:`` line and exit 5, the code
    of a sweep worker killed for memory, not a traceback."""
    def run_cell(*args, **kwargs):
        raise MemoryError(detail)

    monkeypatch.setattr(cli, "run_cell", run_cell)
    code, out, err = run_cli(["run", "--config", write_config(tmp_path),
                              "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (5, "")
    assert err == f"error: memory: {shown}\n"


def test_sweep_survives_an_overflowing_worker_mean(tmp_path, capsys, monkeypatch):
    """A cell whose worker mean overflows records +inf; the sweep goes on,
    writes its artifacts and exits 0 on the rows that stay finite."""
    from fedsim.harness import OptimumResult
    from fedsim.objectives import Quadratic

    obj = Quadratic([1.0], shift=[0.89e308])
    monkeypatch.setattr(cli, "build_objective", lambda cfg: (obj, None))
    monkeypatch.setattr(cli, "cached_optimum", lambda *args: OptimumResult(
        obj.shift.copy(), 0.0, 0, 0.0))
    cfg = write_config(tmp_path, SMALL_CONFIG.replace("etas = 0.1",
                                                      "etas = 1.5, 1.0")
                       .replace("T = 8", "T = 4")
                       .replace("eval_every = 4", "eval_every = 1"))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["sweep", "--config", cfg, "--out", str(out_dir),
                              "--deterministic-output"], capsys)
    assert (code, err) == (0, "")
    rows = (out_dir / "records.csv").read_text().splitlines()[1:]
    assert {"fedavg,2,2,1.5,0,1,inf", "fedavg,2,2,1.0,0,1,0.0"} <= set(rows)
    assert (out_dir / "sweep.csv").read_text().splitlines()[1] == \
        "fedavg,2,2,1.0,0.0"


# ---------------------------------------------------------------------------
# instability


def parse_ratio_table(out):
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.split()[:1] == ["block"])
    rows = []
    for line in lines[start + 1:]:
        parts = line.split()
        if len(parts) != 4 or not parts[0].isdigit():
            break
        rows.append([float(p) for p in parts])
    return rows


def test_instability_table_matches_closed_form_amplification(capsys):
    code, out, err = run_cli(
        ["instability", "--kappa", "25", "--K", "4", "--eps", "1e-9"], capsys)
    assert code == 0
    assert err == ""
    assert "1.024000" in out
    rows = parse_ratio_table(out)
    assert len(rows) == 4
    ratios = [row[3] for row in rows]
    np.testing.assert_allclose(ratios, 1.024, atol=1e-3)
    # gap magnitudes grow monotonically across blocks (signs alternate)
    gaps = [abs(row[2]) for row in rows]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_instability_zero_blocks_exits_0(capsys):
    code, out, _ = run_cli(["instability", "--K", "0"], capsys)
    assert code == 0
    assert parse_ratio_table(out) == []


def test_instability_oversized_offset_exits_3(capsys):
    code, _, err = run_cli(
        ["instability", "--kappa", "25", "--K", "4", "--eps", "0.1"], capsys)
    assert code == 3
    assert err.startswith("error: numerical:")


def test_instability_small_kappa_exits_3(capsys):
    code, _, err = run_cli(["instability", "--kappa", "10"], capsys)
    assert code == 3
    assert err.startswith("error: numerical:")


@pytest.mark.parametrize("argv", [
    ["instability", "--K", "-1"],
    ["instability", "--eps", "-1e-9"],
    ["instability", "--eps", "nan"],
    ["instability", "--eps", "inf"],
    ["instability", "--kappa", "inf"],
])
def test_instability_rejects_negative_arguments(argv, capsys):
    # -1, nan and inf parse as values and are rejected by the handler;
    # -1e-9 looks like a flag to the parser, which rejects it even earlier
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "error: usage:" in err


# ---------------------------------------------------------------------------
# norm-bounds


def test_norm_bounds_reports_zero_violations(capsys):
    code, out, err = run_cli(
        ["norm-bounds", "--samples", "50", "--seed", "3"], capsys)
    assert code == 0
    assert err == ""
    assert "fedac1: 50 points" in out
    assert "fedac2: 50 points" in out
    assert "violations: 0" in out


def test_norm_bounds_rejects_bad_curvature_range(capsys):
    code, _, err = run_cli(["norm-bounds", "--mu", "2", "--L", "1"], capsys)
    assert code == 1
    assert err.startswith("error: usage:")


def test_norm_bounds_rejects_zero_samples(capsys):
    code, _, err = run_cli(["norm-bounds", "--samples", "0"], capsys)
    assert code == 1
    assert err.startswith("error: usage:")


@pytest.mark.parametrize("argv", [["--L", "inf"], ["--mu", "nan"],
                                  ["--L", "1e400"], ["--L", "nan"]])
def test_norm_bounds_rejects_non_finite_arguments(argv, capsys):
    code, out, err = run_cli(["norm-bounds"] + argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: usage: need 0 < mu <= L < inf\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_with_deterministic_output(capsys):
    code, out, err = run_cli(["verify", "--deterministic-output"], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1].endswith("checks passed")
    checks = lines[:-1]
    assert checks and all(line.startswith("PASS") for line in checks)
    assert not re.search(r"\[\d+\.\d+s\]", out)


# ---------------------------------------------------------------------------
# determinism across repeated invocations


def test_repeated_invocations_print_identical_bytes(tmp_path, capsys):
    data = tmp_path / "tiny.txt"
    data.write_text("1 1:1.0 3:1.0\n-1 2:2.0\n")
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "out"
    invocations = [
        ["check-data", str(data)],
        ["instability", "--kappa", "25", "--K", "3", "--eps", "1e-9"],
        ["norm-bounds", "--samples", "20", "--seed", "7"],
        ["run", "--config", cfg, "--out", str(out_dir),
         "--deterministic-output"],
    ]
    for argv in invocations:
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second, argv
        assert first[0] == 0, argv


# ---------------------------------------------------------------------------
# console script


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts():
    """The ``[project.scripts]`` table of ``pyproject.toml``, name -> target.

    Read line by line because ``tomllib`` needs Python 3.11 and the package
    supports 3.10.
    """
    scripts, in_table = {}, False
    for line in PYPROJECT.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = (part.strip().strip("\"'")
                            for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def test_console_script_entry_point():
    target = declared_scripts()["fedsim"]
    assert target == "fedsim.cli:entry"
    entry_point = importlib.metadata.EntryPoint(
        name="fedsim", value=target, group="console_scripts")
    assert entry_point.load() is cli.entry

    # the body of the wrapper script pip generates for the declaration, run
    # on the same source tree as the in-process tests
    module, attr = entry_point.module, entry_point.attr
    wrapper = [sys.executable, "-c",
               f"import sys; from {module} import {attr}; sys.exit({attr}())"]
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = [(wrapper, dict(os.environ, PYTHONPATH=pythonpath))]
    installed = shutil.which("fedsim")
    if installed is not None:
        runs.append(([installed], None))

    for command, env in runs:
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 1, command
        assert "error: usage:" in proc.stderr, command
        proc = subprocess.run(command + ["--help"], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, command
        for name in SUBCOMMANDS:
            assert name in proc.stdout, (command, name)
