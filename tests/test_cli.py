import importlib.resources
import json

import jsonschema
import numpy as np
import pytest

from flmgof import gen_process, uniform_grid
from flmgof.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_functional_sample,
)
from flmgof.rptest import Direction


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


def test_usage_errors(capsys):
    assert main(["test"]) == EXIT_USAGE  # missing required flags
    capsys.readouterr()
    assert main([]) == EXIT_USAGE  # missing subcommand
    capsys.readouterr()
    assert main(["test", "--data", "x", "--response", "y", "--wat"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


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
    def zero_direction(basis, r=0.95, rng=None, variant="i", draw=0):
        return Direction(
            values=np.zeros(basis.grid.size), sampler=variant, draw=draw
        )

    monkeypatch.setattr(
        "flmgof.rptest.sample_direction_datadriven", zero_direction
    )
    code, _, err = run_cli(base_args(dataset), capsys)
    assert code == EXIT_NUMERICAL
    assert "degenerate" in err


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


def test_simulate_fdr_experiment(capsys):
    args = [
        "simulate", "--experiment", "fdr-discretization",
        "--projections", "5", "--bootstrap", "100", "--M", "2000",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [row["alpha"] for row in rows] == [0.01, 0.05, 0.10]
    assert all(row["K"] == 5 and row["B"] == 100 for row in rows)

    code, out_csv, _ = run_cli(args + ["--output", "csv"], capsys)
    assert code == EXIT_OK
    lines = out_csv.strip().split("\n")
    assert lines[0] == "K,B,M,alpha,rate,rate_positive_correction,zero_rate"
    assert len(lines) == 4
    _, again, _ = run_cli(args + ["--output", "csv"], capsys)
    assert out_csv == again


def test_simulate_usage_errors(capsys):
    code, _, err = run_cli(["simulate", "--M", "3"], capsys)
    assert code == EXIT_USAGE
    assert "--scenario or --experiment" in err
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
