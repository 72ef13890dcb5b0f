import hashlib
import importlib.resources
import importlib.util
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from flmgof import cli, forking, simlab
from flmgof import gen_process, uniform_grid
from flmgof.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    InputError,
    main,
    read_functional_sample,
    write_table,
)
from flmgof.rptest import DegenerateProjectionError
from oracles import fdr_null_rejection_rate

REPO = Path(__file__).resolve().parents[1]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = importlib.resources.files("flmgof").joinpath("report_schema.json").read_text()
    return json.loads(text)


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.Generator(np.random.Philox(2024))
    grid = uniform_grid(21)
    sample = gen_process("bm", 30, grid, rng)
    weights = grid.weights * np.sin(np.pi * grid.points)
    y = sample.data @ weights + 0.05 * rng.standard_normal(30)
    data_path = tmp_path / "curves.csv"
    resp_path = tmp_path / "response.csv"
    np.savetxt(data_path, sample.data, delimiter=",", fmt="%.17g")
    np.savetxt(resp_path, y, fmt="%.17g")
    return data_path, resp_path


def base_args(dataset, *extra):
    data_path, resp_path = dataset
    return [
        "test",
        "--data",
        str(data_path),
        "--response",
        str(resp_path),
        "--bootstrap",
        "200",
        "--projections",
        "3",
        *extra,
    ]


# ----------------------------------------------------------------- test command


def test_report_validates_against_schema(dataset, capsys):
    schema = load_schema()
    code, out, err = run_cli(base_args(dataset), capsys)
    assert code == EXIT_OK
    assert err == ""
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["settings"]["rank"] >= 1
    assert len(report["per_projection"]) == 3

    code, out, _ = run_cli(base_args(dataset, "--null", "simple"), capsys)
    assert code == EXIT_OK
    simple_report = json.loads(out)
    jsonschema.validate(simple_report, schema)
    assert simple_report["settings"]["rank"] is None


@pytest.mark.parametrize("sampler", ["i", "ii", "iii"])
def test_every_sampler_report_validates_against_schema(dataset, sampler, capsys):
    for null in ("flm", "simple"):
        args = base_args(dataset, "--sampler", sampler, "--null", null)
        code, out, err = run_cli(args + ["--variance-threshold", "1"], capsys)
        assert code == EXIT_OK
        assert err == ""
        report = json.loads(out)
        jsonschema.validate(report, load_schema())
        assert report["settings"]["sampler"] == sampler
        assert report["settings"]["r"] == 1.0


@pytest.mark.parametrize("sampler", ["i", "ii", "iii"])
@pytest.mark.parametrize("r", ["5", "0", "-1", "nan"])
def test_variance_threshold_outside_unit_interval_exits_2(dataset, sampler, r, capsys):
    # sampler iii ignores r, but a report with it would fail the schema
    for null in ("flm", "simple"):
        args = base_args(dataset, "--sampler", sampler, "--null", null)
        code, out, err = run_cli(args + ["--variance-threshold", r], capsys)
        assert code == EXIT_USAGE
        assert "variance threshold r" in err
        assert out == ""
    code, out, err = run_cli(
        ["simulate", "--scenario", "S1", "--n", "20", "--M", "2", "--bootstrap",
         "20", "--sampler", sampler, "--variance-threshold", r],
        capsys,
    )
    assert code == EXIT_USAGE
    assert "variance threshold r" in err
    assert out == ""


def test_repeated_runs_are_byte_identical(dataset, capsys):
    args = base_args(dataset, "--stat", "ks", "--seed", "3")
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_parser_is_built_once_per_process(dataset, capsys):
    assert cli._build_parser() is cli._build_parser()
    args = base_args(dataset, "--seed", "5")
    usage = ["test", "--data", "x", "--response", "y", "--wat"]
    first, bad, again, bad_again = (run_cli(argv, capsys) for argv in (args, usage) * 2)
    assert first == again and first[0] == EXIT_OK
    assert bad == bad_again and bad[0] == EXIT_USAGE and "--wat" in bad[2]


@pytest.mark.parametrize("header_grid", [False, True])
def test_the_sample_holds_the_parsed_rows(dataset, header_grid, tmp_path, monkeypatch):
    data_path, _ = dataset
    if header_grid:
        rows = np.loadtxt(data_path, delimiter=",")
        data_path = tmp_path / "header.csv"
        np.savetxt(data_path, np.vstack([uniform_grid(21).points, rows]), delimiter=",")
    parsed, loadtxt = [], forking.loadtxt

    def recording_loadtxt(*args, **kwargs):
        parsed.append(loadtxt(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(forking, "loadtxt", recording_loadtxt)
    sample = read_functional_sample(data_path, header_grid=header_grid)
    # no copy: the sample freezes the rows the parse made
    assert np.shares_memory(sample.data, parsed[0]) and not sample.data.flags.writeable


def test_simple_null_rejects_a_real_signal(dataset, capsys):
    code, out, _ = run_cli(base_args(dataset, "--null", "simple"), capsys)
    assert code == EXIT_OK
    assert json.loads(out)["p_fdr"] < 0.05


def test_csv_output_matches_json_report(dataset, capsys):
    _, json_out, _ = run_cli(base_args(dataset, "--seed", "3"), capsys)
    code, csv_out, _ = run_cli(
        base_args(dataset, "--seed", "3", "--output", "csv"), capsys
    )
    assert code == EXIT_OK
    lines = csv_out.strip().split("\n")
    assert lines[0] == "index,statistic,p,p_fdr"
    report = json.loads(json_out)
    assert len(lines) == 1 + len(report["per_projection"])
    for line, rec in zip(lines[1:], report["per_projection"]):
        index, statistic, p, p_fdr = line.split(",")
        assert int(index) == rec["index"]
        assert float(statistic) == rec["statistic"]
        assert float(p) == rec["p"]
        assert float(p_fdr) == report["p_fdr"]


def test_rank_flag(dataset, capsys):
    code, out, _ = run_cli(base_args(dataset, "--rank", "3"), capsys)
    assert code == EXIT_OK
    assert json.loads(out)["settings"]["rank"] == 3
    code, _, err = run_cli(base_args(dataset, "--rank", "soup"), capsys)
    assert code == EXIT_USAGE
    assert "rank" in err
    code, _, _ = run_cli(base_args(dataset, "--rank", "0"), capsys)
    assert code == EXIT_USAGE
    # a rank beyond the retained spectrum is an input error, not a crash
    code, _, err = run_cli(base_args(dataset, "--rank", "99"), capsys)
    assert code == EXIT_USAGE
    assert "rank" in err


def test_input_errors(dataset, tmp_path, capsys):
    data_path, resp_path = dataset
    code, _, err = run_cli(
        ["test", "--data", str(tmp_path / "nope.csv"), "--response", str(resp_path)],
        capsys,
    )
    assert code == EXIT_USAGE
    assert "cannot read" in err

    short = tmp_path / "short.csv"
    short.write_text("\n".join(["1.0"] * 29) + "\n")
    code, _, err = run_cli(
        ["test", "--data", str(data_path), "--response", str(short)], capsys
    )
    assert code == EXIT_USAGE
    assert "shapes must agree" in err

    missing_dir = tmp_path / "missing" / "dump.csv"
    code, out, err = run_cli(base_args(dataset, "--dump", str(missing_dir)), capsys)
    assert code == EXIT_USAGE
    assert "cannot write dump file" in err
    assert out == ""

    # the simple null estimates nothing, so a rank would be dropped unread
    code, out, err = run_cli(
        base_args(dataset, "--null", "simple", "--rank", "3"), capsys
    )
    assert code == EXIT_USAGE
    assert "--rank" in err
    assert out == ""


@pytest.mark.parametrize("null", ["flm", "simple"])
def test_marks_that_could_overflow_exit_2(dataset, tmp_path, null, capsys):
    data_path, resp_path = dataset
    huge = tmp_path / "huge.csv"
    np.savetxt(huge, 1e200 * np.loadtxt(resp_path), fmt="%.17g")
    # the composite null's SICc refuses the response before any marks exist;
    # at a fixed rank its residuals reach the marks check
    cases = {"simple": [((), "marks must be finite")],
             "flm": [((), "SICc is not finite"), (("--rank", "2"), "marks must be finite")]}
    for extra, refusal in cases[null]:
        code, out, err = run_cli(base_args((data_path, huge), "--null", null, *extra),
                                 capsys)
        assert code == EXIT_USAGE
        assert refusal in err
        assert out == ""


@pytest.mark.filterwarnings("error")  # a warning would escape `main` and fail the test
def test_curves_that_overflow_exit_2(dataset, tmp_path, capsys):
    data_path, resp_path = dataset
    curves, y = np.loadtxt(data_path, delimiter=","), np.loadtxt(resp_path)
    # 30 curves on 21 points take the kernel path, 15 the Gram path
    for n in (30, 15):
        huge, response = tmp_path / f"huge{n}.csv", tmp_path / f"y{n}.csv"
        np.savetxt(huge, 1e160 * curves[:n], delimiter=",", fmt="%.17g")
        np.savetxt(response, y[:n], fmt="%.17g")
        for null in ("flm", "simple"):
            code, out, err = run_cli(base_args((huge, response), "--null", null), capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == ("error: the curves' squared norms overflow: the sample "
                           "covariance is not finite\n")


def test_every_value_error_exits_2(dataset, monkeypatch, capsys):
    # a rank outside the basis is refused by the library, in its own words
    code, out, err = run_cli(base_args(dataset, "--rank", "0"), capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: rank must be an integer in [1, ") and "got 0" in err
    # as is a ValueError raised where the commands catch nothing

    def refuse(rows, output):
        raise ValueError("no table today")

    monkeypatch.setattr(cli, "write_table", refuse)
    for argv in (base_args(dataset, "--output", "csv"), SIMULATE_CELL, BENCH_CALL):
        assert run_cli(argv, capsys) == (EXIT_USAGE, "", "error: no table today\n")


def test_usage_errors(capsys):
    assert main(["test"]) == EXIT_USAGE  # missing required flags
    capsys.readouterr()
    assert main([]) == EXIT_USAGE  # missing subcommand
    capsys.readouterr()
    assert main(["test", "--data", "x", "--response", "y", "--wat"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    # one grid source: with --header-grid the grid file would go unread
    argv = ["test", "--data", "x", "--response", "y", "--header-grid",
            "--grid-file", "/nonexistent/grid.txt"]
    assert main(argv) == EXIT_USAGE
    assert "not both" in capsys.readouterr().err


def test_threads_flag_only_on_simulate(dataset, capsys):
    # `test` and `bench` run in one process, so they take no --threads
    code, _, _ = run_cli(base_args(dataset, "--threads", "2"), capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["bench", "--n-list", "8", "--threads", "2"], capsys)
    assert code == EXIT_USAGE


def test_dump_round_trip(dataset, tmp_path, capsys):
    first_dump = tmp_path / "dump1.csv"
    second_dump = tmp_path / "dump2.csv"
    args = base_args(dataset, "--dump", str(first_dump))
    _, first_report, _ = run_cli(args, capsys)

    data_path, resp_path = dataset
    code, second_report, _ = run_cli(
        [
            "test",
            "--data",
            str(first_dump),
            "--header-grid",
            "--response",
            str(resp_path),
            "--bootstrap",
            "200",
            "--projections",
            "3",
            "--dump",
            str(second_dump),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert first_dump.read_bytes() == second_dump.read_bytes()
    assert first_report == second_report


@pytest.mark.filterwarnings("ignore:.*no data")  # np.loadtxt warns on an empty file
@pytest.mark.parametrize("grid_source", ["default", "grid-file", "header-grid"])
def test_a_data_file_of_comments_alone_exits_2(grid_source, dataset, tmp_path, capsys):
    _, resp_path = dataset
    data_path = tmp_path / "comments.csv"
    data_path.write_text("# no curves\n# at all\n")
    grid_path = tmp_path / "grid.txt"
    grid_path.write_text("0\n0.5\n1\n")
    extra = {
        "default": [],
        "grid-file": ["--grid-file", str(grid_path)],
        "header-grid": ["--header-grid"],
    }[grid_source]
    code, out, err = run_cli(
        ["test", "--data", str(data_path), "--response", str(resp_path), *extra], capsys
    )
    assert code == EXIT_USAGE and out == ""
    assert f"data file {data_path} holds no curves" in err


def test_grid_file_and_comments(tmp_path, capsys):
    points = np.sqrt(np.linspace(0.0, 1.0, 15))
    rng = np.random.default_rng(5)
    data = rng.standard_normal((12, 15)).cumsum(axis=1)
    y = data[:, -1] + 0.1 * rng.standard_normal(12)

    grid_path = tmp_path / "grid.txt"
    grid_path.write_text(
        "# abscissae\n" + "\n".join(f"{p:.17g}" for p in points) + "\n"
    )
    data_path = tmp_path / "curves.csv"
    rows = "\n".join(",".join(f"{v:.17g}" for v in row) for row in data)
    data_path.write_text("# one curve per row\n" + rows + "\n")
    resp_path = tmp_path / "resp.txt"
    resp_path.write_text("# responses\n" + "\n".join(f"{v:.17g}" for v in y) + "\n")

    parsed = read_functional_sample(data_path, grid_file=grid_path)
    assert np.array_equal(parsed.grid.points, points)
    assert np.array_equal(parsed.data, data)
    # a header row as well would leave the grid file unread
    with pytest.raises(InputError, match="not both"):
        read_functional_sample(data_path, grid_file=grid_path, header_grid=True)

    code, out, _ = run_cli(
        [
            "test",
            "--data",
            str(data_path),
            "--grid-file",
            str(grid_path),
            "--response",
            str(resp_path),
            "--bootstrap",
            "100",
            "--projections",
            "2",
        ],
        capsys,
    )
    assert code == EXIT_OK
    jsonschema.validate(json.loads(out), load_schema())


def test_degenerate_directions_exit_code(dataset, monkeypatch, capsys):
    def zero_direction(basis, r=0.95, rng=None, variant="i"):
        return np.zeros(basis.grid.size)

    monkeypatch.setattr(
        "flmgof.rptest.sample_direction_datadriven", zero_direction
    )
    code, _, err = run_cli(base_args(dataset), capsys)
    assert code == EXIT_NUMERICAL
    assert "degenerate" in err


# sha256 of stdout for fixed inputs, recorded before the CLI tables went
# through one writer; the bench digest covers its header and p_fdr column only,
# since its seconds vary. The `--null flm` digests moved when the scores and
# projections came from X * sqrt(w), and again when a test came to keep only
# the score columns its fit reads, each one matrix-vector product: the
# statistics changed in their last digits, the p-values did not. The
# `simulate` digests moved when a study trial came to be keyed by (seed,
# scenario, n, trial), without the deviation level
GOLDEN_DIGESTS = {
    ("test", "flm", "json"): "ace0c1bcb8dff044ccb0c54cd0dd0998e77cf46eabde627e90bf94caec51e9e9",
    ("test", "flm", "csv"): "9151244cec6d3268969cd73a3f445ab5b43d611bb6a2d2930b79e2b55903a3b5",
    ("test", "simple", "json"): "8a9581dbec6c333e93e8a836dddee4106fca504733c5ff6b5d61bb5f16bb3b7c",
    ("test", "simple", "csv"): "c1fef357f937f8fae40e22fd75bae6029220e4d4322fb03815a1bf4628a0ee40",
    ("simulate", "json"): "5eaa699332bba5268b79ce052ef15a605211a026ce9cda971d1be1ff82787c73",
    ("simulate", "csv"): "da59caa6ef1908b96c00ca46bcdcee1fc592463cebd34dd695e792ad6fd67c50",
    ("bench", "csv"): "e3f46ac7c54e540af7753517b2fd2888820a940caa64fc44cc81141b8d927712",
}
SIMULATE_CELL = [
    "simulate", "--scenario", "S1", "--d", "1", "--n", "20", "--M", "3",
    "--bootstrap", "40", "--projections", "2",
]
BENCH_CALL = [
    "bench", "--n-list", "8,16", "--trials", "1", "--bootstrap", "30",
    "--projections", "2", "--output", "csv",
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_cli_output(dataset, capsys):
    outputs = {}
    for null in ("flm", "simple"):
        for output in ("json", "csv"):
            args = base_args(dataset, "--null", null, "--output", output)
            outputs["test", null, output] = run_cli(args, capsys)
    for output in ("json", "csv"):
        outputs["simulate", output] = run_cli(SIMULATE_CELL + ["--output", output], capsys)
    code, out, err = run_cli(BENCH_CALL, capsys)
    header, *rows = out.splitlines()
    column = header.split(",").index("p_fdr")
    p_fdr = [row.split(",")[column] for row in rows]
    outputs["bench", "csv"] = code, "\n".join([header, *p_fdr]) + "\n", err
    for key, (code, out, err) in outputs.items():
        assert (code, err) == (EXIT_OK, ""), key
        assert sha256(out) == GOLDEN_DIGESTS[key], key
        # under numpy 2 the repr of a numpy float reads np.float64(...)
        assert "np.float64(" not in out


def test_write_table_formats_numpy_scalars(capsys):
    rows = [{"a": np.float64(0.1), "b": np.int64(3), "c": "S1"}, {"a": 2.0, "b": 4, "c": "x"}]
    write_table(rows, "csv")
    assert capsys.readouterr().out == "a,b,c\n0.1,3,S1\n2.0,4,x\n"


# ------------------------------------------------------------ simulate command


def test_simulate_small_study_csv(capsys):
    args = [
        "simulate",
        "--scenario",
        "S1",
        "--d",
        "0",
        "--n",
        "20",
        "--M",
        "3",
        "--bootstrap",
        "40",
        "--projections",
        "2",
        "--output",
        "csv",
    ]
    code, first, err = run_cli(args, capsys)
    assert code == EXIT_OK and err == ""
    lines = first.strip().split("\n")
    assert lines[0] == (
        "scenario,d,n,K,B,stat,M,reject_at_0.01,reject_at_0.05,"
        "reject_at_0.1,mean_rank,sd_rank"
    )
    assert len(lines) == 2
    assert lines[1].startswith("S1,0,20,2,40,cvm,3,")
    _, second, _ = run_cli(args, capsys)
    assert first == second

    code, timed, _ = run_cli(args + ["--timings"], capsys)
    assert code == EXIT_OK
    assert timed.splitlines()[0].endswith(",wall_time_s")


def test_simulate_list_call_prints_single_cells_in_nesting_order(capsys):
    common = ["--n", "15", "--M", "2", "--bootstrap", "30", "--projections", "2"]
    listed = ["simulate", "--scenario", "S1,S7", "--d", "0,1", *common]
    for output in ("csv", "json"):
        code, out, err = run_cli(listed + ["--output", output], capsys)
        assert (code, err) == (EXIT_OK, "")
        singles = []
        for scenario in ("S1", "S7"):
            for d in ("0", "1"):
                single = ["simulate", "--scenario", scenario, "--d", d, *common]
                _, single_out, _ = run_cli(single + ["--output", output], capsys)
                singles.append(single_out)
        if output == "csv":
            header = singles[0].splitlines()[0]
            rows = [text.splitlines()[1] for text in singles]
            assert out.splitlines() == [header, *rows]
        else:
            assert json.loads(out) == [json.loads(text)[0] for text in singles]


def test_simulate_small_study_json(capsys):
    args = [
        "simulate", "--scenario", "s2", "--n", "15", "--M", "2",
        "--bootstrap", "30", "--projections", "2",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["scenario"] == "S2"
    assert set(row["rejection_rates"]) == {"0.01", "0.05", "0.1"}
    assert "wall_time_s" not in row


def load_script(name):
    """Import a file of scripts/ as a module."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in (REPO / "scripts").glob("[!_]*.py"))
)
def test_every_script_prints_its_help(name, capsys):
    # a script that no longer imports, or whose parser breaks, fails here
    # rather than on its next run; _-prefixed files are helpers, not scripts
    with pytest.raises(SystemExit) as exit_info:
        load_script(name).main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


TINY_BENCH = """\
import sys

sys.path.insert(0, {scripts!r})
import _harness


def measure(src, *args):
    return {{"src": src, "args": list(args)}}


if __name__ == "__main__":
    sys.exit(_harness.main(__file__, "Tiny bench.", measure, None))
"""


def test_bench_harness_runs_the_trees_in_turn(tmp_path, monkeypatch, capsys):
    harness = load_script("_harness")
    script = tmp_path / "bench_tiny.py"
    script.write_text(TINY_BENCH.format(scripts=str(REPO / "scripts")))

    def measure(src, *args):  # the tiny script's own
        return {"src": src, "args": list(args)}

    # a worker prints what its measure returns for the tree and the arguments
    argv = ["--worker", "old", "curves.csv", "200", "sweep"]
    assert harness.main(str(script), "Tiny bench.", measure, None, argv) == 0
    assert json.loads(capsys.readouterr().out) == measure("old", "curves.csv", "200", "sweep")

    # the lead runs a fresh worker per tree and round, the trees taking turns
    # in --src order in even rounds and in reverse order in odd ones
    monkeypatch.chdir(tmp_path)
    trees = {"before": str(tmp_path / "old"), "after": str(tmp_path / "src")}
    started = []

    def report(sources, run):
        def recording_run(src, *args):
            started.append(src)
            return run(src, *args)

        return {"settings": {}, "results": harness.rounds(sources, recording_run, 2)}

    argv = ["--src", f"before={trees['before']}", "--src", "after=src"]
    assert harness.main(str(script), "Tiny bench.", None, report, argv) == 0
    output = json.loads(capsys.readouterr().out)
    assert list(output) == ["settings", "machine", "results"]
    assert list(output["results"]) == ["before", "after"]
    assert started == [trees["before"], trees["after"], trees["after"], trees["before"]]
    for label, tree in trees.items():
        assert output["results"][label] == [measure(tree)] * 2


def test_fdr_floor_curves_script(capsys):
    script = load_script("fdr_floor_curves")
    args = ["--K", "5", "--B", "100", "--alphas", "0.01,0.05,0.1"]
    assert script.main(args) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "K,B,alpha,rate,rate_positive_correction,zero_rate"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(row[2]) for row in rows] == [0.01, 0.05, 0.10]
    assert all(row[:2] == ["5", "100"] for row in rows)
    assert [float(row[3]) for row in rows] == [
        fdr_null_rejection_rate(5, 100, alpha) for alpha in (0.01, 0.05, 0.1)
    ]
    assert all(float(row[5]) == 1.0 - (100 / 101.0) ** 5 for row in rows)
    assert script.main(args) == 0
    assert capsys.readouterr().out == out
    # the rates are exact: the Monte Carlo options are gone
    for extra in (["--M", "2000"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exit_info:
            script.main(args + extra)
        assert exit_info.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag, value",
    [("--K", ","), ("--K", "0"), ("--K", "-3"), ("--K", "2.5"), ("--K", "x"),
     ("--B", ""), ("--B", "0"), ("--alphas", ""), ("--alphas", "0"),
     ("--alphas", "1.5"), ("--alphas", "nan"), ("--alphas", "0.05,x")],
)
def test_fdr_floor_curves_rejects_bad_lists(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script("fdr_floor_curves").main([flag, value])
    assert exit_info.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and flag in err


def test_simulate_maps_a_child_trial_failure_to_exit_3(monkeypatch, capsys):
    trial = simlab._study_trial

    def degenerate(payload):
        if payload[-1] == 1:  # at two workers, trial 1 runs in the child
            raise DegenerateProjectionError("degenerate directions in trial 1")
        return trial(payload)

    monkeypatch.setattr(simlab, "_study_trial", degenerate)
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    args = ["simulate", "--scenario", "S1", "--n", "20", "--M", "4",
            "--projections", "2", "--bootstrap", "30"]
    serial = run_cli(args + ["--threads", "1"], capsys)
    assert serial == (EXIT_NUMERICAL, "", "numerical failure: degenerate directions in trial 1\n")
    assert run_cli(args + ["--threads", "2"], capsys) == serial


@pytest.mark.parametrize("scenario", ["SS1", "S 3", "S+2", "S", "S١"])
def test_scenario_id_is_one_s_then_digits(scenario, capsys):
    code, out, err = run_cli(["simulate", "--scenario", scenario, "--M", "2"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "scenario id must look like S1..S9" in err


def test_simulate_usage_errors(capsys):
    code, _, err = run_cli(["simulate", "--M", "3"], capsys)
    assert code == EXIT_USAGE
    assert "--scenario" in err
    code, _, _ = run_cli(["simulate", "--scenario", "S11", "--M", "2"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["simulate", "--scenario", "wat", "--M", "2"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(
        ["simulate", "--scenario", "S1", "--d", "5", "--M", "2"], capsys
    )
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["simulate", "--scenario", "S1", "--M", "0"], capsys)
    assert code == EXIT_USAGE
    code, _, err = run_cli(
        ["simulate", "--scenario", "S1", "--M", "2", "--threads", "0"], capsys
    )
    assert code == EXIT_USAGE
    assert "threads" in err
    code, out, err = run_cli(
        ["simulate", "--scenario", "S1", "--M", "2", "--seed", "-1"], capsys
    )
    assert code == EXIT_USAGE and out == "" and "seed" in err
    for extra in (["--d", "0,5"], ["--n", "20,x"], ["--n", "20,3"],
                  ["--scenario", "S1,S11"], ["--scenario", ","]):
        code, out, _ = run_cli(["simulate", "--scenario", "S1", "--M", "2", *extra], capsys)
        assert code == EXIT_USAGE and out == ""
    # flags that the study never reads are not accepted
    for extra in (["--positive-correction"], ["--experiment", "fdr-discretization"]):
        code, out, _ = run_cli(["simulate", "--scenario", "S1", "--M", "2", *extra], capsys)
        assert code == EXIT_USAGE and out == ""


# --------------------------------------------------------------- bench command


def test_bench_reports_deterministic_pvalues(capsys):
    args = [
        "bench", "--n-list", "8,16", "--trials", "1",
        "--bootstrap", "30", "--projections", "2",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [8, 16]
    assert all(row["seconds"] > 0 for row in rows)
    _, again, _ = run_cli(args, capsys)
    repeat = json.loads(again)
    assert [row["p_fdr"] for row in rows] == [row["p_fdr"] for row in repeat]

    code, out_csv, _ = run_cli(args + ["--output", "csv"], capsys)
    assert code == EXIT_OK
    assert out_csv.splitlines()[0] == "n,seconds,p_fdr"


def test_bench_usage_errors(capsys):
    code, _, _ = run_cli(["bench", "--n-list", "2,8"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["bench", "--n-list", "eight"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["bench", "--n-list", "8", "--trials", "0"], capsys)
    assert code == EXIT_USAGE
    for flag in ("--bootstrap", "--projections"):
        code, out, err = run_cli(["bench", "--n-list", "8", flag, "0"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "must be a positive integer" in err
        assert out == ""
    # the benchmark runs the default sampler without correction; it takes no
    # flags that would be ignored
    for extra in (["--sampler", "iii"], ["--variance-threshold", "0.5"],
                  ["--positive-correction"]):
        code, out, _ = run_cli(["bench", "--n-list", "8", *extra], capsys)
        assert code == EXIT_USAGE and out == ""


def test_bench_names_a_negative_seed(monkeypatch, capsys):
    # refused before any trial, as `test` and `simulate` refuse it
    trials = []
    monkeypatch.setattr(cli, "_trial_data", lambda *args: trials.append(args))
    code, out, err = run_cli(["bench", "--n-list", "8", "--seed", "-1"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: seed must be an integer >= 0, got -1\n"
    assert trials == []
