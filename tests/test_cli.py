import errno
import os
import re
import signal
import xml.etree.ElementTree as ET
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from trendnet import cli, correlate, kernels
from trendnet.cli import main
from trendnet.errors import TrendnetError
from trendnet.ingest import parse_stitched

from helpers import (
    SPAN_END,
    SPAN_START,
    daily_csv,
    flat_latent_series,
    write_export_tree,
)

KW3 = ("cough", "fever", "flu")
REGISTRY3 = (
    "keyword,category\n"
    "cough,SymptomsEnglish\nfever,SymptomsEnglish\nflu,SymptomsEnglish\n"
)


@pytest.fixture()
def export_tree(tmp_path):
    rng = np.random.default_rng(19)
    write_export_tree(tmp_path, flat_latent_series(rng, KW3))
    registry = tmp_path / "registry.csv"
    registry.write_text(REGISTRY3, "utf-8")
    return tmp_path


def run_stitch(tree, out, extra=()):
    return main(
        [
            "stitch",
            "--daily-dir", str(tree / "daily"),
            "--weekly-dir", str(tree / "weekly"),
            "--registry", str(tree / "registry.csv"),
            "--out", str(out),
            *extra,
        ]
    )


def test_stitch_writes_one_file_per_keyword(export_tree, tmp_path):
    out = tmp_path / "stitched"
    assert run_stitch(export_tree, out) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["cough.csv", "fever.csv", "flu.csv"]
    series = parse_stitched((out / "cough.csv").read_text())
    assert series.start_date == SPAN_START
    assert series.end_date == SPAN_END


def test_stitch_gap_exits_2_naming_keyword_and_date(export_tree, tmp_path, capsys):
    second = export_tree / "daily" / "fever" / "2.csv"
    lines = second.read_text().strip().split("\n")
    second.write_text("\n".join(lines[:10] + lines[11:]) + "\n", "utf-8")
    code = run_stitch(export_tree, tmp_path / "stitched")
    err = capsys.readouterr().err
    assert code == 2
    assert "fever" in err and "2.csv" in err and "2020-04-2" in err


def test_stitch_missing_weekly_exits_3(export_tree, tmp_path, capsys):
    (export_tree / "weekly" / "flu.csv").unlink()
    code = run_stitch(export_tree, tmp_path / "stitched")
    err = capsys.readouterr().err
    assert code == 3
    assert "flu.csv" in err
    # flu is the last keyword: the ones before it must not have been written
    assert not list((tmp_path / "stitched").glob("*.csv"))


def test_stitch_bad_weekly_row_names_weekly_file(export_tree, tmp_path, capsys):
    weekly = export_tree / "weekly" / "cough.csv"
    lines = weekly.read_text().split("\n")
    when = lines[5].split(",")[0]
    lines[5] = f"{when},250"
    weekly.write_text("\n".join(lines), "utf-8")
    out = tmp_path / "stitched"
    assert run_stitch(export_tree, out) == 2
    assert f"error: {weekly}: {when}: value 250 outside [0,100.0]\n" == capsys.readouterr().err
    assert not out.exists()


def test_stitch_missing_daily_dir_exits_3(tmp_path, capsys):
    code = main(
        [
            "stitch",
            "--daily-dir", str(tmp_path / "nope"),
            "--weekly-dir", str(tmp_path),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "nope" in capsys.readouterr().err


def test_stitch_uncovered_span_exits_2(export_tree, tmp_path, capsys):
    code = run_stitch(
        export_tree, tmp_path / "stitched", extra=["--span-end", "2021-06-30"]
    )
    assert code == 2
    assert "does not cover" in capsys.readouterr().err


def test_stitch_inverted_span_exits_2_writing_nothing(export_tree, tmp_path, capsys):
    out = tmp_path / "stitched"
    code = run_stitch(export_tree, out, extra=["--span-start", "2021-03-15",
                                               "--span-end", "2020-03-16"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--span-start 2021-03-15 is after --span-end 2020-03-16" in err
    assert not out.exists()


def test_stitch_segment_peak_warning_names_file(export_tree, tmp_path):
    seg = export_tree / "daily" / "cough" / "1.csv"
    seg.write_text(re.sub(r",100$", ",60", seg.read_text(), flags=re.M), "utf-8")
    with pytest.warns(UserWarning, match=f"^{re.escape(f'{seg}: segment starting 2020-03-16 ')}"):
        assert run_stitch(export_tree, tmp_path / "stitched") == 0


@pytest.fixture()
def stitched_dir(export_tree, tmp_path):
    out = tmp_path / "stitched"
    assert run_stitch(export_tree, out) == 0
    return out


def test_analyze_default_parameters(stitched_dir, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--out", str(out)]) == 0
    metric_files = sorted(p.name for p in out.glob("metrics_*.csv"))
    assert len(metric_files) == 8  # 2 windows x 4 thresholds
    assert "metrics_w15_t0.4.csv" in metric_files
    assert "metrics_w30_t0.8.csv" in metric_files
    assert (out / "correlations_w15.csv").is_file()
    assert (out / "persistence_pairs_w15.csv").is_file()
    assert (out / "persistence_triads_w30.csv").is_file()


def test_analyze_quarterly_periods(stitched_dir, tmp_path):
    out = tmp_path / "analysis"
    main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
          "--thresholds", "0.5", "--out", str(out)])
    text = (out / "persistence_pairs_w15.csv").read_text()
    periods = {tuple(line.split(",")[:2]) for line in text.strip().split("\n")[1:]}
    assert periods == {
        ("2020-04-01", "2020-06-30"),
        ("2020-07-01", "2020-09-30"),
        ("2020-10-01", "2020-12-31"),
        ("2021-01-01", "2021-03-31"),
    }


def test_analyze_window_exceeding_data_exits_4(stitched_dir, tmp_path, capsys):
    code = main(["analyze", "--stitched", str(stitched_dir),
                 "--windows", "400", "--out", str(tmp_path / "a")])
    assert code == 4
    assert "400" in capsys.readouterr().err


def test_analyze_failing_window_writes_nothing(stitched_dir, tmp_path, capsys):
    out = tmp_path / "a"
    code = main(["analyze", "--stitched", str(stitched_dir),
                 "--windows", "15,400", "--out", str(out)])
    assert code == 4
    assert "400" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_analyze_bad_threshold_exits_2(stitched_dir, tmp_path, capsys):
    code = main(["analyze", "--stitched", str(stitched_dir),
                 "--thresholds", "1.5", "--out", str(tmp_path / "a")])
    assert code == 2
    assert "1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, raw",
    [
        ("--thresholds", "0.5,0.5"),
        ("--thresholds", "0.5,0.5000001"),  # both are labelled t0.5
        ("--windows", "15,15"),
        ("--windows", "15,015"),
    ],
)
def test_analyze_colliding_labels_exit_2(stitched_dir, tmp_path, capsys, flag, raw):
    out = tmp_path / "a"
    code = main(["analyze", "--stitched", str(stitched_dir), flag, raw, "--out", str(out)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_analyze_missing_dir_exits_3(tmp_path):
    assert main(["analyze", "--stitched", str(tmp_path / "void"),
                 "--out", str(tmp_path / "a")]) == 3


def test_analyze_single_keyword_exits_2(stitched_dir, tmp_path, capsys, monkeypatch):
    for name in ("fever.csv", "flu.csv"):
        (stitched_dir / name).unlink()
    calls, real_dcor = [], kernels.rolling_dcor
    monkeypatch.setattr(kernels, "rolling_dcor",
                        lambda *args: calls.append(args) or real_dcor(*args))
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {stitched_dir}: 1 keyword (cough), analyze needs at least 2\n"
    assert not calls and not out.exists()


def test_registry_header_after_a_keyword_row_exits_2_naming_line(export_tree, tmp_path, capsys):
    registry = export_tree / "registry.csv"
    registry.write_text("cough,SymptomsEnglish\nkeyword,category\nfever,SymptomsEnglish\n", "utf-8")
    out = tmp_path / "stitched"
    assert run_stitch(export_tree, out) == 2
    assert capsys.readouterr().err == (f"error: {registry}: line 2: unknown keyword category"
                                       f" 'category' for 'keyword'; expected one of "
                                       "SymptomsEnglish, SymptomsFilipino, FaceWearing,"
                                       " Quarantine, NewNormal\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["stitch", "analyze"])
def test_empty_registry_exits_2_naming_file(stitched_dir, export_tree, tmp_path, capsys,
                                            command):
    registry = export_tree / "registry.csv"
    registry.write_text("keyword,category\n", "utf-8")
    out = tmp_path / "out"
    if command == "stitch":
        code = run_stitch(export_tree, out)
    else:
        code = main(["analyze", "--stitched", str(stitched_dir), "--registry", str(registry),
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {registry}: no keyword rows\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, code", [
    ("thresholds", "1.5", 2),
    ("registry", "missing.csv", 3),
    ("windows", "400", 4),
], ids=["invalid", "io", "too-little-data"])
def test_exit_code_is_the_error_code(stitched_dir, tmp_path, capsys, key, value, code):
    if key == "registry":
        value = str(tmp_path / value)
    out = str(tmp_path / "a")
    argv = ["analyze", "--stitched", str(stitched_dir), f"--{key}", value, "--out", out]
    with pytest.raises(TrendnetError) as raised:
        cli.cmd_analyze(cli._settings(cli.build_parser().parse_args(argv)))
    assert raised.value.code == code
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def test_analyze_custom_period(stitched_dir, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--period", "2020-05-01:2020-05-31",
                 "--out", str(out)]) == 0
    text = (out / "persistence_pairs_w15.csv").read_text()
    rows = text.strip().split("\n")[1:]
    assert rows and all(r.startswith("2020-05-01,2020-05-31,") for r in rows)


def test_analyze_overlapping_periods_count_as_each_alone(stitched_dir, tmp_path):
    second = "2020-05-01:2020-07-31"
    runs = {"both": ["--period", "2020-04-01:2020-06-30", "--period", second],
            "alone": ["--period", second]}
    for name, periods in runs.items():
        assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                     "--thresholds", "0.4,0.6", *periods, "--out", str(tmp_path / name)]) == 0
    prefix = second.replace(":", ",") + ","
    for kind in ("pairs", "triads"):
        rows = {name: [line for line in (tmp_path / name / f"persistence_{kind}_w15.csv")
                       .read_text().splitlines() if line.startswith(prefix)]
                for name in runs}
        assert rows["both"] == rows["alone"] and rows["alone"]


def test_analyze_period_without_frames_exits_2(stitched_dir, tmp_path, capsys):
    out = tmp_path / "analysis"
    code = main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--period", "2020-05-01:2020-05-31",
                 "--period", "2019-01-01:2019-02-01", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--period 2019-01-01:2019-02-01 selects no frame of window 15" in err
    assert not out.exists()


def test_analyze_skips_default_quarter_without_frames(stitched_dir, tmp_path):
    # A 110-day window labels its first frame 2020-07-04, after the Apr-Jun quarter.
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "110",
                 "--thresholds", "0.5", "--out", str(out)]) == 0
    text = (out / "persistence_pairs_w110.csv").read_text()
    periods = {tuple(line.split(",")[:2]) for line in text.strip().split("\n")[1:]}
    assert periods == {
        ("2020-07-01", "2020-09-30"),
        ("2020-10-01", "2020-12-31"),
        ("2021-01-01", "2021-03-31"),
    }


def show_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def force_dcor_workers(monkeypatch, n):
    """Show `analyze` n CPUs and let a single frame pay for a dCor worker."""
    show_cpus(monkeypatch, n)
    monkeypatch.setattr(kernels, "MIN_WORKER_WORK", 1)


def test_analyze_outputs_do_not_depend_on_dcor_workers(stitched_dir, tmp_path, monkeypatch):
    """The windows split over 1, 2 and 3 CPUs, and the first group's frames
    split again, write the same bytes as one process."""
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    args = ["analyze", "--stitched", str(stitched_dir), "--windows", "15,30,45"]
    outputs = {}
    for cpus in (1, 2, 3):
        force_dcor_workers(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main([*args, "--out", str(out)]) == 0
        outputs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}, len(forks)
        forks.clear()
    # The parent forks a worker per later window group and per later frame range of its own group.
    assert [n for _, n in outputs.values()] == [0, 1 + 1, 2 + 2]
    assert outputs[1][0] == outputs[2][0] == outputs[3][0]
    assert len(outputs[1][0]) == 3 * (1 + 4 + 2)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_analyze_earliest_failing_window_decides_on_any_cpus(
    stitched_dir, tmp_path, capsys, monkeypatch, cpus
):
    show_cpus(monkeypatch, cpus)
    out = tmp_path / "a"
    code = main(["analyze", "--stitched", str(stitched_dir), "--windows", "15,400,500",
                 "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "error: window of 400 days exceeds 365 days of data\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_analyze_period_without_frames_of_a_later_window_exits_2(
    stitched_dir, tmp_path, capsys, monkeypatch, cpus
):
    # On 2 CPUs window 110 is the forked group; its first frame is labeled 2020-07-04.
    show_cpus(monkeypatch, cpus)
    out = tmp_path / "a"
    code = main(["analyze", "--stitched", str(stitched_dir), "--windows", "15,110",
                 "--period", "2020-05-01:2020-05-31", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --period 2020-05-01:2020-05-31 selects no frame of window 110,"
        " labeled 2020-07-04..2021-03-16\n")
    assert not out.exists()


@pytest.mark.parametrize("failing, message", [
    ("signal", "analyze worker for windows 30 died by signal 9"),
    ("raise", "analyze worker for windows 30 exited with status 1: RuntimeError: window failed"),
])
def test_analyze_failed_window_worker_exits_3_leaving_nothing(
    stitched_dir, tmp_path, capsys, monkeypatch, failing, message
):
    show_cpus(monkeypatch, 2)
    parent, real_correlation = os.getpid(), correlate.rolling_correlation

    def rolling_correlation(series, window):
        if window == 30:
            assert os.getpid() != parent, "window 30 ran in the parent"
            if failing == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("window failed")
        return real_correlation(series, window)

    monkeypatch.setattr(correlate, "rolling_correlation", rolling_correlation)
    out = tmp_path / "analysis"
    code = main(["analyze", "--stitched", str(stitched_dir), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every worker was waited for
        os.waitpid(-1, os.WNOHANG)


BOM = "\ufeff"


def drop_first_line(path):
    path.write_text(path.read_text("utf-8").split("\n", 1)[1], "utf-8")


@pytest.mark.parametrize("name, headerless", [
    ("daily/cough/11.csv", None),  # segments carry no header
    ("weekly/cough.csv", drop_first_line),
    ("registry.csv", None),  # the BOM comes before its header
])
def test_byte_order_mark_is_dropped(export_tree, tmp_path, name, headerless):
    """An input that starts with a UTF-8 byte-order mark parses as without it."""
    path = export_tree / name
    if headerless:
        headerless(path)
    assert run_stitch(export_tree, tmp_path / "plain") == 0
    path.write_text(BOM + path.read_text("utf-8"), "utf-8")
    assert run_stitch(export_tree, tmp_path / "bom") == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}
    assert plain == {p.name: p.read_bytes() for p in (tmp_path / "bom").iterdir()}


@pytest.mark.parametrize("failing, message", [
    ("child", r"dCor worker for frames 117\.\.233 of 351 exited with status 1:"
              r" RuntimeError: worker failed\n$"),
    ("signal", r"dCor worker for frames 117\.\.233 of 351 died by signal 9"),
    ("parent", r"Cannot allocate memory"),
])
def test_analyze_failed_dcor_worker_exits_3_leaving_nothing(
    stitched_dir, tmp_path, capsys, monkeypatch, failing, message
):
    force_dcor_workers(monkeypatch, 3)
    real_frames = kernels._dcor_frames

    def dcor_frames(series, n, out, first):
        if failing == "parent" and first == 0:
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        if failing == "child" and first > 0:
            raise RuntimeError("worker failed")
        if failing == "signal" and first > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        real_frames(series, n, out, first)

    monkeypatch.setattr(kernels, "_dcor_frames", dcor_frames)
    out = tmp_path / "analysis"
    code = main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(message, err)
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every worker was waited for
        os.waitpid(-1, os.WNOHANG)


def test_report_writes_svg_and_json_per_window(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    main(["analyze", "--stitched", str(stitched_dir), "--out", str(analysis)])
    out = tmp_path / "reports" / "density.svg"
    assert main(["report", "--metrics", str(analysis), "--out", str(out)]) == 0
    for window in (15, 30):
        svg_path = tmp_path / "reports" / f"density_w{window}.svg"
        assert svg_path.is_file()
        root = ET.fromstring(svg_path.read_text())
        series = [el for el in root.iter("{http://www.w3.org/2000/svg}polyline")
                  if el.get("class") == "series"]
        assert len(series) == 4
        assert (tmp_path / "reports" / f"density_w{window}.json").is_file()


def test_report_clustering_variant(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    main(["analyze", "--stitched", str(stitched_dir), "--windows", "15", "--out", str(analysis)])
    out = tmp_path / "cluster.svg"
    assert main(["report", "--metrics", str(analysis), "--metric", "clustering",
                 "--out", str(out)]) == 0
    assert "clustering coefficient" in (tmp_path / "cluster_w15.svg").read_text()


def test_analyze_more_thresholds_than_colours_exits_2(stitched_dir, tmp_path, capsys):
    out = tmp_path / "analysis"
    thresholds = ",".join(f"0.{i:02d}" for i in range(5, 60, 5))  # 11 thresholds
    code = main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", thresholds, "--out", str(out)])
    assert code == 2
    assert "--thresholds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw", ["1", "15,1", "0"])
def test_analyze_window_shorter_than_two_days_exits_2(stitched_dir, tmp_path, capsys, raw):
    out = tmp_path / "analysis"
    code = main(["analyze", "--stitched", str(stitched_dir), "--windows", raw,
                 "--out", str(out)])
    assert code == 2
    assert "--windows" in capsys.readouterr().err
    assert not out.exists()


def test_report_more_thresholds_than_colours_exits_2(stitched_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    thresholds = ",".join(f"0.{i:02d}" for i in range(5, 55, 5))  # 10 thresholds
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", thresholds, "--out", str(analysis)]) == 0
    # analyze refuses an 11th threshold, so write its metrics file by hand.
    text = (analysis / "metrics_w15_t0.5.csv").read_text()
    (analysis / "metrics_w15_t0.55.csv").write_text(text.replace(",15,0.5,", ",15,0.55,"))
    out = tmp_path / "r.svg"
    code = main(["report", "--metrics", str(analysis), "--out", str(out)])
    assert code == 2
    assert "11 thresholds" in capsys.readouterr().err
    assert not (tmp_path / "r_w15.svg").exists()


def test_report_failing_window_writes_nothing(stitched_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15,30",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    # w15 renders; w30 gets 11 thresholds, one more than a chart has colours.
    text = (analysis / "metrics_w30_t0.5.csv").read_text()
    for i in range(1, 11):
        (analysis / f"metrics_w30_t0.{i:02d}.csv").write_text(
            text.replace(",30,0.5,", f",30,0.{i:02d},"))
    reports = tmp_path / "reports"
    code = main(["report", "--metrics", str(analysis), "--out", str(reports / "r.svg")])
    assert code == 2
    assert "11 thresholds" in capsys.readouterr().err
    assert not reports.exists()


def set_field(row, index, value):
    fields = row.split(",")
    fields[index] = value
    return ",".join(fields)


@pytest.mark.parametrize("edit, message", [
    (lambda rows: [rows[0], set_field(rows[1], 3, "xx")],
     "line 2: edge_count 'xx' does not parse"),
    (lambda rows: [rows[0], rows[1], rows[2].rsplit(",", 1)[0]], "line 3: 6 fields, expected 7"),
    (lambda rows: rows[:1], "no data rows"),
    (lambda rows: [rows[0], rows[1], set_field(rows[2], 4, "nan")],
     "line 3: density 'nan' is not finite"),
    (lambda rows: [rows[0], set_field(rows[1], 5, "-inf")],
     "line 2: clustering_global '-inf' is not finite"),
], ids=["unparseable", "truncated", "header-only", "nan", "inf"])
def test_report_malformed_metrics_exits_2_naming_file(stitched_dir, tmp_path, capsys,
                                                      edit, message):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    path = analysis / "metrics_w15_t0.5.csv"
    path.write_text("\n".join(edit(path.read_text().split("\n"))) + "\n")
    reports = tmp_path / "reports"
    code = main(["report", "--metrics", str(analysis), "--out", str(reports / "r.svg")])
    assert code == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not reports.exists()


def test_report_short_event_row_exits_2_naming_file(stitched_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    events = tmp_path / "events.csv"
    events.write_text("2020-04-01,only-two\n", "utf-8")
    reports = tmp_path / "reports"
    code = main(["report", "--metrics", str(analysis), "--events", str(events),
                 "--out", str(reports / "r.svg")])
    assert code == 2
    assert f"{events}: line 1: row needs date,label,category" in capsys.readouterr().err
    assert not reports.exists()


def test_report_missing_metrics_dir_exits_3(tmp_path, capsys):
    code = main(["report", "--metrics", str(tmp_path / "void"), "--out", str(tmp_path / "r.svg")])
    assert code == 3
    assert "void" in capsys.readouterr().err


def test_config_file_supplies_defaults_cli_overrides(stitched_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"stitched = {stitched_dir}\nwindows = 15\nthresholds = 0.5,0.9\n"
        f"out = {tmp_path / 'from_config'}\n",
        "utf-8",
    )
    assert main(["analyze", "--config", str(config), "--thresholds", "0.6"]) == 0
    files = sorted(p.name for p in (tmp_path / "from_config").glob("metrics_*.csv"))
    assert files == ["metrics_w15_t0.6.csv"]  # CLI flag beat the config value


@pytest.mark.parametrize("line, key", [("treshold = 0.5", "treshold"), ("scale = raw", "scale")])
def test_config_unknown_key_exits_2(stitched_dir, tmp_path, capsys, line, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"{line}\nstitched = {stitched_dir}\n", "utf-8")
    out = tmp_path / "a"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 2
    assert f"run.cfg: config line 1: unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_config_repeated_period_applies_each(stitched_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"stitched = {stitched_dir}\nwindows = 15\nthresholds = 0.5\n"
        "period = 2020-07-01:2020-07-31\nperiod = 2020-05-01:2020-05-31\n",
        "utf-8",
    )
    out = tmp_path / "a"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "persistence_pairs_w15.csv").read_text().strip().split("\n")[1:]
    periods = [tuple(row.split(",")[:2]) for row in rows]
    # In file order, as repeated --period flags give.
    assert list(dict.fromkeys(periods)) == [
        ("2020-07-01", "2020-07-31"), ("2020-05-01", "2020-05-31"),
    ]
    flags = tmp_path / "b"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--period", "2020-07-01:2020-07-31",
                 "--period", "2020-05-01:2020-05-31", "--out", str(flags)]) == 0
    for name in ("persistence_pairs_w15.csv", "persistence_triads_w15.csv"):
        assert (out / name).read_bytes() == (flags / name).read_bytes()


def test_config_repeated_key_exits_2(stitched_dir, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"windows = 15\nstitched = {stitched_dir}\n# comment\nwindows = 30\n", "utf-8"
    )
    out = tmp_path / "a"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 2
    assert "run.cfg: config line 4: key 'windows' repeats line 1" in capsys.readouterr().err
    assert not out.exists()


def test_events_flag_and_custom_events(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    main(["analyze", "--stitched", str(stitched_dir), "--windows", "15", "--out", str(analysis)])
    events = tmp_path / "events.csv"
    events.write_text("2020-06-15,custom marker,Policy\n", "utf-8")
    out = tmp_path / "r.svg"
    assert main(["report", "--metrics", str(analysis), "--events", str(events),
                 "--out", str(out)]) == 0
    root = ET.fromstring((tmp_path / "r_w15.svg").read_text())
    markers = [el for el in root.iter("{http://www.w3.org/2000/svg}line")
               if el.get("class") == "event"]
    assert len(markers) == 1
    assert markers[0].get("stroke") == "orange"


def test_malformed_value_names_file_and_date(export_tree, tmp_path, capsys):
    seg = export_tree / "daily" / "cough" / "1.csv"
    seg.write_text(daily_csv(date(2020, 3, 16), [10, "oops", 30]), "utf-8")
    code = run_stitch(export_tree, tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert "1.csv" in err and "2020-03-17" in err


@pytest.mark.parametrize("flag, raw, message", [
    ("--windows", "1_5,3_0", "--windows must be integers, got '1_5,3_0'"),
    ("--thresholds", "0.4_5", "--thresholds must be numbers, got '0.4_5'"),
], ids=["windows", "thresholds"])
def test_underscored_number_flag_exits_2_naming_flag(stitched_dir, tmp_path, capsys,
                                                     flag, raw, message):
    # int() and float() read 1_5 as 15 and 0.4_5 as 0.45.
    out = tmp_path / "a"
    assert main(["analyze", "--stitched", str(stitched_dir), flag, raw, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_underscored_export_value_exits_2_naming_file_and_date(export_tree, tmp_path, capsys):
    seg = export_tree / "daily" / "cough" / "1.csv"
    seg.write_text(daily_csv(date(2020, 3, 16), [100, "5_0", 30]), "utf-8")
    assert run_stitch(export_tree, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {seg}: 2020-03-17: unparseable value '5_0'\n"


def fail_third_write(monkeypatch):
    """Make the third `Path.write_text` write half its text, then raise ENOSPC."""
    real_write = Path.write_text
    calls = []

    def write_text(path, text, *args, **kwargs):
        calls.append(path)
        if len(calls) == 3:
            real_write(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)


def test_analyze_write_failure_leaves_no_output(stitched_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "analysis"
    fail_third_write(monkeypatch)
    code = main(["analyze", "--stitched", str(stitched_dir), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "No space left on device" in err and str(out) in err
    assert not out.exists() or not any(out.iterdir())


def test_stitch_write_failure_keeps_earlier_output(export_tree, tmp_path, capsys, monkeypatch):
    out = tmp_path / "stitched"
    out.mkdir()
    (out / "cough.csv").write_text("earlier run\n", "utf-8")
    fail_third_write(monkeypatch)
    assert run_stitch(export_tree, out) == 3
    assert "flu.csv: No space left on device" in capsys.readouterr().err
    # Neither a new file nor a part is left, and the earlier file is untouched.
    assert [p.name for p in out.iterdir()] == ["cough.csv"]
    assert (out / "cough.csv").read_text() == "earlier run\n"


def test_analyze_failed_move_restores_earlier_run(stitched_dir, tmp_path, capsys):
    out = tmp_path / "analysis"
    registry = tmp_path / "two.csv"
    registry.write_text("keyword,category\ncough,SymptomsEnglish\nfever,SymptomsEnglish\n")
    assert main(["analyze", "--stitched", str(stitched_dir), "--registry", str(registry),
                 "--windows", "15", "--thresholds", "0.5", "--out", str(out)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    # The second run's correlations file moves into place before this target fails.
    (out / "metrics_w15_t0.4.csv").mkdir()
    code = main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.4,0.5", "--out", str(out)])
    assert code == 3
    assert "metrics_w15_t0.4.csv" in capsys.readouterr().err
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert files == earlier  # first run's bytes, no .part or .prev left


def test_cmd_analyze_returns_texts_and_writes_nothing(stitched_dir, tmp_path):
    out = tmp_path / "analysis"
    settings = cli._settings(cli.build_parser().parse_args([
        "analyze", "--stitched", str(stitched_dir), "--out", str(out),
        "--windows", "15", "--thresholds", "0.5"]))
    texts, summary = cli.cmd_analyze(settings)
    assert sorted(path.name for path in texts) == [
        "correlations_w15.csv", "metrics_w15_t0.5.csv",
        "persistence_pairs_w15.csv", "persistence_triads_w15.csv",
    ]
    assert all(path.parent == out for path in texts)
    assert texts[out / "correlations_w15.csv"].startswith("label_date,keyword_a,keyword_b,dcor\n")
    assert str(out) in summary
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli.SETTINGS))
def test_settings_table_lists_every_flag(command):
    args = cli.build_parser().parse_args([command])
    assert set(vars(args)) - {"command", "config"} == set(cli.SETTINGS[command])


@pytest.mark.parametrize("command, first_key, message", [
    ("stitch", "daily-dir", "stitch requires --daily-dir, --weekly-dir and --out"),
    ("analyze", "stitched", "analyze requires --stitched and --out"),
    ("report", "metrics", "report requires --metrics and --out"),
])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_missing_required_settings_exit_2(tmp_path, capsys, command, first_key, message, source):
    argv = [command]
    if source == "config":
        # The config sets one required key; the others are still missing.
        config = tmp_path / "run.cfg"
        config.write_text(f"{first_key} = {tmp_path}\n", "utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_config_bogus_metric_exits_2(stitched_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text(f"metrics = {analysis}\nmetric = bogus\n", "utf-8")
    reports = tmp_path / "reports"
    assert main(["report", "--config", str(config), "--out", str(reports / "r.svg")]) == 2
    assert "metric must be density or clustering, got 'bogus'" in capsys.readouterr().err
    assert not reports.exists()


def test_config_metric_clustering_is_charted(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text(f"metrics = {analysis}\nmetric = clustering\n", "utf-8")
    assert main(["report", "--config", str(config), "--out", str(tmp_path / "r.svg")]) == 0
    assert "clustering coefficient" in (tmp_path / "r_w15.svg").read_text()


def test_config_span_start_is_honoured_by_stitch(export_tree, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("span-start = 2020-04-01\n", "utf-8")
    out = tmp_path / "stitched"
    assert run_stitch(export_tree, out, extra=["--config", str(config)]) == 0
    series = parse_stitched((out / "cough.csv").read_text())
    assert series.start_date == date(2020, 4, 1)
    assert series.end_date == SPAN_END


def test_report_mistyped_event_date_exits_2_naming_file(stitched_dir, tmp_path, capsys):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    events = tmp_path / "events.csv"
    events.write_text("2020-04-01,ok,Policy\n2020-13-01,typo month,Policy\n"
                      "2020-04-31,typo day,Vaccine\n", "utf-8")
    reports = tmp_path / "reports"
    code = main(["report", "--metrics", str(analysis), "--events", str(events),
                 "--out", str(reports / "r.svg")])
    assert code == 2
    assert f"{events}: line 2: event date '2020-13-01' does not parse" in capsys.readouterr().err
    assert not reports.exists()


@pytest.mark.parametrize("command, lines, message", [
    ("analyze", "windows = 15,abc", "config line 2: windows must be integers, got '15,abc'"),
    ("analyze", "thresholds = 0.5,1.5",
     "config line 2: thresholds must lie in (0,1), got '0.5,1.5'"),
    ("analyze", "windows = 1_5,3_0", "config line 2: windows must be integers, got '1_5,3_0'"),
    ("analyze", "thresholds = 0.4_5", "config line 2: thresholds must be numbers, got '0.4_5'"),
    ("analyze", "period = 2020-05-01:2020-05-31\nperiod = 2020-01-01",
     "config line 3: period must be start:end ISO dates, got '2020-01-01'"),
    ("stitch", "span-start = 2020-13-01",
     "config line 2: span-start must be an ISO date, got '2020-13-01'"),
    ("report", "metric = bogus", "config line 2: metric must be density or clustering, got 'bogus'"),
], ids=["windows", "thresholds", "underscored-windows", "underscored-thresholds",
        "second-period", "span-start", "metric"])
def test_bad_config_value_exits_2_naming_file_and_line(tmp_path, capsys, command, lines, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"# run settings\n{lines}\n", "utf-8")
    inputs = {"stitch": ["--daily-dir", str(tmp_path), "--weekly-dir", str(tmp_path)],
              "analyze": ["--stitched", str(tmp_path)], "report": ["--metrics", str(tmp_path)]}
    out = tmp_path / "out"
    assert main([command, *inputs[command], "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not out.exists()


def test_bogus_metric_flag_exits_2_naming_flag(tmp_path, capsys):
    out = tmp_path / "r.svg"
    assert main(["report", "--metrics", str(tmp_path), "--metric", "bogus",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --metric must be density or clustering, got 'bogus'\n"


@pytest.mark.parametrize("command, line, flags, source", [
    ("report", "out =", [], "run.cfg: config line 1: out"),
    ("report", "events =", ["--out", "r.svg"], "run.cfg: config line 1: events"),
    ("stitch", "", ["--registry", "", "--out", "stitched"], "--registry"),
], ids=["out", "events", "registry"])
def test_empty_setting_exits_2_naming_source(stitched_dir, export_tree, tmp_path, capsys,
                                             monkeypatch, command, line, flags, source):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    capsys.readouterr()
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "run.cfg").write_text(f"{line}\n", "utf-8")
    inputs = {"stitch": ["--daily-dir", str(export_tree / "daily"),
                         "--weekly-dir", str(export_tree / "weekly")],
              "report": ["--metrics", str(analysis)]}
    assert main([command, *inputs[command], "--config", "run.cfg", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {source} is empty\n")
    assert [p.name for p in work.iterdir()] == ["run.cfg"]


def test_mistyped_stitched_date_exits_2_naming_file_and_line(stitched_dir, tmp_path, capsys):
    path = stitched_dir / "fever.csv"
    lines = path.read_text().split("\n")
    lines[40] = lines[40].replace("2020-04-", "2020-04-O", 1)
    path.write_text("\n".join(lines))
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--out", str(out)]) == 2
    bad = lines[40].split(",")[0]
    assert capsys.readouterr().err == f"error: {path}: line 41: date '{bad}' does not parse\n"
    assert not out.exists()


def _plant_date(path, lineno, bad):
    """Replace the date opening line `lineno` (1-based) of a CSV file with `bad`."""
    lines = path.read_text().split("\n")
    lines[lineno - 1] = bad + lines[lineno - 1][len("2020-01-01"):]
    path.write_text("\n".join(lines), "utf-8")


def _analysis(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--out", str(analysis)]) == 0
    return analysis


def _in_segment(bad, tmp_path, fixture):
    tree = fixture("export_tree")
    seg = tree / "daily" / "cough" / "2.csv"
    _plant_date(seg, 5, bad)
    return (["stitch", "--daily-dir", str(tree / "daily"), "--weekly-dir", str(tree / "weekly")],
            f"{seg}: line 5: date '{bad}' does not parse")


def _in_segment_first_row(bad, tmp_path, fixture):
    """A first row that starts with a digit is data, never preamble."""
    tree = fixture("export_tree")
    seg = tree / "daily" / "cough" / "2.csv"
    _plant_date(seg, 1, bad)
    return (["stitch", "--daily-dir", str(tree / "daily"), "--weekly-dir", str(tree / "weekly")],
            f"{seg}: line 1: date '{bad}' does not parse")


def _in_weekly(bad, tmp_path, fixture):
    tree = fixture("export_tree")
    weekly = tree / "weekly" / "cough.csv"
    _plant_date(weekly, 6, bad)
    return (["stitch", "--daily-dir", str(tree / "daily"), "--weekly-dir", str(tree / "weekly")],
            f"{weekly}: line 6: date '{bad}' does not parse")


def _in_stitched(bad, tmp_path, fixture):
    stitched = fixture("stitched_dir")
    _plant_date(stitched / "fever.csv", 41, bad)
    return (["analyze", "--stitched", str(stitched)],
            f"{stitched / 'fever.csv'}: line 41: date '{bad}' does not parse")


def _in_events(bad, tmp_path, fixture):
    events = tmp_path / "events.csv"
    events.write_text(f"date,label,category\n2020-04-01,ok,Policy\n{bad},x,Policy\n", "utf-8")
    return (["report", "--metrics", str(_analysis(fixture("stitched_dir"), tmp_path)),
             "--events", str(events)], f"{events}: line 3: event date '{bad}' does not parse")


def _in_metrics(bad, tmp_path, fixture):
    analysis = _analysis(fixture("stitched_dir"), tmp_path)
    _plant_date(analysis / "metrics_w15_t0.5.csv", 3, bad)
    return (["report", "--metrics", str(analysis)],
            f"{analysis / 'metrics_w15_t0.5.csv'}: line 3: label_date '{bad}' does not parse")


def _in_span_start_flag(bad, tmp_path, fixture):
    tree = fixture("export_tree")
    return (["stitch", "--daily-dir", str(tree / "daily"), "--weekly-dir", str(tree / "weekly"),
             "--span-start", bad], f"--span-start must be an ISO date, got '{bad}'")


def _in_period_flag(bad, tmp_path, fixture):
    return (["analyze", "--stitched", str(fixture("stitched_dir")),
             "--period", f"{bad}:2020-06-30"],
            f"--period must be start:end ISO dates, got '{bad}:2020-06-30'")


def _in_span_start_config_line(bad, tmp_path, fixture):
    tree = fixture("export_tree")
    config = tmp_path / "run.cfg"
    config.write_text(f"span-start = {bad}\n", "utf-8")
    return (["stitch", "--daily-dir", str(tree / "daily"), "--weekly-dir", str(tree / "weekly"),
             "--config", str(config)],
            f"{config}: config line 1: span-start must be an ISO date, got '{bad}'")


@pytest.mark.parametrize("plant", [
    _in_segment, _in_segment_first_row, _in_weekly, _in_stitched, _in_events, _in_metrics,
    _in_span_start_flag, _in_period_flag, _in_span_start_config_line,
], ids=lambda plant: plant.__name__[4:])
@pytest.mark.parametrize("bad", ["20200401", "2020-W14-5", "2020W141"])
def test_date_not_written_yyyy_mm_dd_exits_2_naming_source(request, tmp_path, capsys,
                                                           plant, bad):
    """Python 3.11+ `date.fromisoformat` reads these basic and ISO-week forms;
    3.10 and trendnet read only YYYY-MM-DD."""
    argv, message = plant(bad, tmp_path, request.getfixturevalue)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out / "r.svg" if argv[0] == "report" else out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("lines, flags, message", [
    ("span-start = 2021-03-15\nspan-end = 2020-03-16", [],
     "{config}: config line 1: span-start 2021-03-15 is after"
     " {config}: config line 2: span-end 2020-03-16"),
    ("span-end = 2020-03-16", ["--span-start", "2021-03-15"],
     "--span-start 2021-03-15 is after {config}: config line 1: span-end 2020-03-16"),
], ids=["config", "flag-and-config"])
def test_inverted_span_names_each_value_source(export_tree, tmp_path, capsys,
                                               lines, flags, message):
    config = tmp_path / "s.cfg"
    config.write_text(f"{lines}\n", "utf-8")
    out = tmp_path / "stitched"
    assert run_stitch(export_tree, out, extra=["--config", str(config), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
    assert not out.exists()


def test_config_period_without_frames_names_config_line(stitched_dir, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("windows = 15\nperiod = 2020-05-01:2020-05-31\n"
                      "period = 2019-01-01:2019-02-01\n", "utf-8")
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--config", str(config),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: config line 3: period 2019-01-01:2019-02-01 selects no frame"
        " of window 15, labeled 2020-03-31..2021-03-16\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flags", "config"])
def test_repeated_period_exits_2_naming_both_sources(stitched_dir, tmp_path, capsys, source):
    periods = ["2020-04-01:2020-06-30", "2020-05-01:2020-05-31", "2020-04-01 : 2020-06-30"]
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"period = {p}\n" for p in periods), "utf-8")
    flags = ([arg for p in periods for arg in ("--period", p)] if source == "flags"
             else ["--config", str(config)])
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), *flags, "--out", str(out)]) == 2
    first, third = ((f"--period {periods[0]}", f"--period {periods[2]}") if source == "flags"
                    else (f"{config}: config line 1: period {periods[0]}",
                          f"{config}: config line 3: period {periods[2]}"))
    assert capsys.readouterr().err == f"error: {third} repeats {first}\n"
    assert not out.exists()
