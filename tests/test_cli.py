import re
import xml.etree.ElementTree as ET
from datetime import date

import numpy as np
import pytest

from trendnet.cli import main
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
    series = parse_stitched((out / "cough.csv").read_text(), "cough")
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


def test_stitch_segment_peak_warning_names_file(export_tree, tmp_path):
    seg = export_tree / "daily" / "cough" / "1.csv"
    seg.write_text(re.sub(r",100$", ",60", seg.read_text(), flags=re.M), "utf-8")
    with pytest.warns(UserWarning, match=re.escape(f"{seg}: cough: segment starting")):
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


def test_analyze_custom_period(stitched_dir, tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "--stitched", str(stitched_dir), "--windows", "15",
                 "--thresholds", "0.5", "--period", "2020-05-01:2020-05-31",
                 "--out", str(out)]) == 0
    text = (out / "persistence_pairs_w15.csv").read_text()
    rows = text.strip().split("\n")[1:]
    assert rows and all(r.startswith("2020-05-01,2020-05-31,") for r in rows)


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
