import csv
import errno
import os
import re
import signal
import sys
import xml.etree.ElementTree as ET
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from trendnet import cli, correlate, kernels, stitch
from trendnet.cli import main
from trendnet.errors import TrendnetError
from trendnet.ingest import parse_stitched

from helpers import (SPAN_END, SPAN_START, assert_fails, assert_raises, assert_reaped, by_test_id,
                     flat_latent_series, mkdir, plant, remove, rename_files, run_reference,
                     show_cpus, show_dcor_workers, tree_bytes, write, write_export_tree)

KW3 = ("cough", "fever", "flu")
REGISTRY3 = (
    "keyword,category\n"
    "cough,SymptomsEnglish\nfever,SymptomsEnglish\nflu,SymptomsEnglish\n"
)
METRICS = "analysis/metrics_w15_t0.5.csv"  # the one metrics file of the `analysis` fixture


def stitch_argv(tree, *flags):
    """`stitch` of the export tree at `tree` into `tree/out`; a flag in `flags` wins."""
    return ["stitch", "--daily-dir", str(tree / "daily"), "--weekly-dir", str(tree / "weekly"),
            "--registry", str(tree / "registry.csv"), "--out", str(tree / "out"), *flags]


def analyze_argv(stitched, *flags):
    return ["analyze", "--stitched", str(stitched), "--out", str(stitched.parent / "out"), *flags]


def report_argv(metrics, *flags):
    return ["report", "--metrics", str(metrics), "--out", str(metrics.parent / "out" / "r.svg"),
            *flags]


@pytest.fixture()
def export_tree(tmp_path):
    rng = np.random.default_rng(19)
    write_export_tree(tmp_path, flat_latent_series(rng, KW3))
    write(tmp_path / "registry.csv", REGISTRY3)
    return tmp_path


@pytest.fixture()
def stitched_dir(export_tree):
    out = export_tree / "stitched"
    assert main(stitch_argv(export_tree, "--out", str(out))) == 0
    return out


@pytest.fixture()
def analysis(stitched_dir):
    out = stitched_dir.parent / "analysis"
    assert main(analyze_argv(stitched_dir, "--windows", "15", "--thresholds", "0.5",
                             "--out", str(out))) == 0
    return out


def test_stitch_writes_one_file_per_keyword(stitched_dir):
    assert sorted(p.name for p in stitched_dir.iterdir()) == ["cough.csv", "fever.csv", "flu.csv"]
    series = parse_stitched((stitched_dir / "cough.csv").read_text())
    assert series.start_date == SPAN_START
    assert series.end_date == SPAN_END


def test_stitch_segment_peak_warning_names_file(export_tree):
    seg = export_tree / "daily" / "cough" / "1.csv"
    seg.write_text(re.sub(r",100$", ",60", seg.read_text(), flags=re.M), "utf-8")
    with pytest.warns(UserWarning, match=f"^{re.escape(f'{seg}: segment starting 2020-03-16 ')}"):
        assert main(stitch_argv(export_tree)) == 0


def test_analyze_default_parameters(stitched_dir, tmp_path):
    out = tmp_path / "out"
    assert main(analyze_argv(stitched_dir)) == 0
    metric_files = sorted(p.name for p in out.glob("metrics_*.csv"))
    assert len(metric_files) == 8  # 2 windows x 4 thresholds
    assert "metrics_w15_t0.4.csv" in metric_files
    assert "metrics_w30_t0.8.csv" in metric_files
    assert (out / "correlations_w15.csv").is_file()
    assert (out / "persistence_pairs_w15.csv").is_file()
    assert (out / "persistence_triads_w30.csv").is_file()


def test_analyze_sorts_stitched_keywords_by_keyword_not_file_name(stitched_dir, tmp_path):
    """`a b.csv` sorts before `a.csv`, as ' ' < '.', but keyword `a` before `a b`."""
    two = mkdir(tmp_path / "two")
    for name, source in (("a.csv", "cough.csv"), ("a b.csv", "fever.csv")):
        write(two / name, (stitched_dir / source).read_text())
    assert main(analyze_argv(two, "--windows", "15", "--thresholds", "0.5")) == 0
    rows = (tmp_path / "out" / "correlations_w15.csv").read_text().splitlines()[1:]
    assert rows and {tuple(row.split(",")[1:3]) for row in rows} == {("a", "a b")}


def test_threshold_label_is_the_same_in_every_output(stitched_dir, tmp_path):
    """The label of 1e-05 names its metrics file, both `threshold` columns and the legend."""
    out = tmp_path / "out"
    assert main(analyze_argv(stitched_dir, "--windows", "15", "--thresholds", "0.4,1e-05")) == 0
    assert main(report_argv(out, "--out", str(tmp_path / "reports" / "r.svg"))) == 0
    metrics = (out / "metrics_w15_t1e-05.csv").read_text().splitlines()[1:]
    assert metrics and {row.split(",")[2] for row in metrics} == {"1e-05"}
    persistence = (out / "persistence_pairs_w15.csv").read_text().splitlines()[1:]
    assert {row.split(",")[2] for row in persistence} == {"1e-05", "0.4"}
    root = ET.fromstring((tmp_path / "reports" / "r_w15.svg").read_text())
    assert [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
            if el.text and el.text.startswith("threshold ")] == ["threshold 1e-05",
                                                                 "threshold 0.4"]


def pair_periods(stitched_dir, *flags):
    """The (start, end) periods of `analyze --thresholds 0.5 <flags>`'s pair persistence rows."""
    out = stitched_dir.parent / "out"
    assert main(analyze_argv(stitched_dir, "--thresholds", "0.5", *flags)) == 0
    window = flags[flags.index("--windows") + 1]
    rows = (out / f"persistence_pairs_w{window}.csv").read_text().strip().split("\n")[1:]
    return [tuple(row.split(",")[:2]) for row in rows]


def test_analyze_quarterly_periods(stitched_dir):
    assert set(pair_periods(stitched_dir, "--windows", "15")) == {
        ("2020-04-01", "2020-06-30"),
        ("2020-07-01", "2020-09-30"),
        ("2020-10-01", "2020-12-31"),
        ("2021-01-01", "2021-03-31"),
    }


def test_analyze_custom_period(stitched_dir):
    periods = pair_periods(stitched_dir, "--windows", "15", "--period", "2020-05-01:2020-05-31")
    assert periods and set(periods) == {("2020-05-01", "2020-05-31")}


def test_analyze_skips_default_quarter_without_frames(stitched_dir):
    # A 110-day window labels its first frame 2020-07-04, after the Apr-Jun quarter.
    assert set(pair_periods(stitched_dir, "--windows", "110")) == {
        ("2020-07-01", "2020-09-30"),
        ("2020-10-01", "2020-12-31"),
        ("2021-01-01", "2021-03-31"),
    }


def test_analyze_overlapping_periods_count_as_each_alone(stitched_dir, tmp_path):
    second = "2020-05-01:2020-07-31"
    runs = {"both": ["--period", "2020-04-01:2020-06-30", "--period", second],
            "alone": ["--period", second]}
    for name, periods in runs.items():
        assert main(analyze_argv(stitched_dir, "--windows", "15", "--thresholds", "0.4,0.6",
                                 *periods, "--out", str(tmp_path / name))) == 0
    prefix = second.replace(":", ",") + ","
    for kind in ("pairs", "triads"):
        rows = {name: [line for line in (tmp_path / name / f"persistence_{kind}_w15.csv")
                       .read_text().splitlines() if line.startswith(prefix)]
                for name in runs}
        assert rows["both"] == rows["alone"] and rows["alone"]


def test_analyze_outputs_do_not_depend_on_dcor_workers(stitched_dir, tmp_path, monkeypatch):
    """The windows split over 1, 2 and 3 CPUs, and the first group's frames
    split again, write the same bytes as one process."""
    outputs = {}
    for cpus in (1, 2, 3):
        forks = show_dcor_workers(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(analyze_argv(stitched_dir, "--windows", "15,30,45", "--out", str(out))) == 0
        outputs[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}, len(forks)
    # The parent forks a worker per later window group and per later frame range of its own group.
    assert [n for _, n in outputs.values()] == [0, 1 + 1, 2 + 2]
    assert outputs[1][0] == outputs[2][0] == outputs[3][0]
    assert len(outputs[1][0]) == 3 * (1 + 4 + 2)


@pytest.mark.parametrize("name, headerless", [
    ("daily/cough/11.csv", None),  # segments carry no header
    ("weekly/cough.csv", "drop_first_line"),
    ("registry.csv", None),  # the BOM comes before its header
])
def test_byte_order_mark_is_dropped(export_tree, tmp_path, name, headerless):
    """An input that starts with a UTF-8 byte-order mark parses as without it."""
    path = export_tree / name
    if headerless:
        plant(path, 1)
    assert main(stitch_argv(export_tree, "--out", str(tmp_path / "plain"))) == 0
    write(path, "\ufeff" + path.read_text("utf-8"))
    assert main(stitch_argv(export_tree, "--out", str(tmp_path / "bom"))) == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}
    assert plain == {p.name: p.read_bytes() for p in (tmp_path / "bom").iterdir()}


def test_report_writes_svg_and_json_per_window(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    main(analyze_argv(stitched_dir, "--out", str(analysis)))
    # Each file is named by the --out stem, which keeps a leading dot.
    for i, (name, stem) in enumerate([("density.svg", "density"), ("density", "density"),
                                      (".density", ".density")]):
        reports = tmp_path / f"reports{i}"
        assert main(report_argv(analysis, "--out", str(reports / name))) == 0
        assert sorted(p.name for p in reports.iterdir()) == [
            f"{stem}_w{window}.{ext}" for window in (15, 30) for ext in ("json", "svg")]
        for window in (15, 30):
            root = ET.fromstring((reports / f"{stem}_w{window}.svg").read_text())
            series = [el for el in root.iter("{http://www.w3.org/2000/svg}polyline")
                      if el.get("class") == "series"]
            assert len(series) == 4


def test_report_clustering_variant(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    main(analyze_argv(stitched_dir, "--windows", "15", "--out", str(analysis)))
    out = tmp_path / "cluster.svg"
    assert main(report_argv(analysis, "--metric", "clustering", "--out", str(out))) == 0
    assert "clustering coefficient" in (tmp_path / "cluster_w15.svg").read_text()


def test_config_file_supplies_defaults_cli_overrides(stitched_dir, tmp_path):
    config = write(tmp_path / "run.cfg", f"stitched = {stitched_dir}\nwindows = 15\n"
                   f"thresholds = 0.5,0.9\nout = {tmp_path / 'from_config'}\n")
    assert main(["analyze", "--config", str(config), "--thresholds", "0.6"]) == 0
    files = sorted(p.name for p in (tmp_path / "from_config").glob("metrics_*.csv"))
    assert files == ["metrics_w15_t0.6.csv"]  # CLI flag beat the config value


def test_config_repeated_period_applies_each(stitched_dir, tmp_path):
    config = write(tmp_path / "run.cfg", "windows = 15\nthresholds = 0.5\n"
                   "period = 2020-07-01:2020-07-31\nperiod = 2020-05-01:2020-05-31\n")
    out, flags = tmp_path / "a", tmp_path / "b"
    assert main(analyze_argv(stitched_dir, "--config", str(config), "--out", str(out))) == 0
    rows = (out / "persistence_pairs_w15.csv").read_text().strip().split("\n")[1:]
    periods = [tuple(row.split(",")[:2]) for row in rows]
    # In file order, as repeated --period flags give.
    assert list(dict.fromkeys(periods)) == [
        ("2020-07-01", "2020-07-31"), ("2020-05-01", "2020-05-31"),
    ]
    assert main(analyze_argv(stitched_dir, "--windows", "15", "--thresholds", "0.5",
                             "--period", "2020-07-01:2020-07-31",
                             "--period", "2020-05-01:2020-05-31", "--out", str(flags))) == 0
    for name in ("persistence_pairs_w15.csv", "persistence_triads_w15.csv"):
        assert (out / name).read_bytes() == (flags / name).read_bytes()


def test_config_comment_holding_a_line_separator_is_skipped(stitched_dir, tmp_path):
    """Config lines end at `\\n` only, so a U+2028 inside a comment stays in the comment."""
    config = write(tmp_path / "run.cfg", "windows = 15\n# note\u2028more\nthresholds = 0.5\n")
    assert main(analyze_argv(stitched_dir, "--config", str(config))) == 0
    assert [p.name for p in (tmp_path / "out").glob("metrics_*.csv")] == ["metrics_w15_t0.5.csv"]


def test_events_flag_and_custom_events(stitched_dir, tmp_path):
    analysis = tmp_path / "analysis"
    main(analyze_argv(stitched_dir, "--windows", "15", "--out", str(analysis)))
    events = write(tmp_path / "events.csv", "2020-06-15,custom marker,Policy\n")
    out = tmp_path / "r.svg"
    assert main(report_argv(analysis, "--events", str(events), "--out", str(out))) == 0
    root = ET.fromstring((tmp_path / "r_w15.svg").read_text())
    markers = [el for el in root.iter("{http://www.w3.org/2000/svg}line")
               if el.get("class") == "event"]
    assert len(markers) == 1
    assert markers[0].get("stroke") == "orange"


def test_cmd_analyze_places_its_outputs(stitched_dir, tmp_path):
    out = tmp_path / "out"
    settings = cli._settings(cli.build_parser().parse_args(
        analyze_argv(stitched_dir, "--windows", "15", "--thresholds", "0.5")))
    summary = cli.cmd_analyze(settings)
    # Exactly the four outputs, with no `.part` or `.prev` beside them.
    assert sorted(out.iterdir()) == [out / name for name in [
        "correlations_w15.csv", "metrics_w15_t0.5.csv",
        "persistence_pairs_w15.csv", "persistence_triads_w15.csv"]]
    assert (out / "correlations_w15.csv").read_text().startswith(
        "label_date,keyword_a,keyword_b,dcor\n")
    assert str(out) in summary


@pytest.mark.parametrize("command", sorted(cli.SETTINGS))
def test_settings_table_lists_every_flag(command):
    args = cli.build_parser().parse_args([command])
    assert set(vars(args)) - {"command", "config"} == set(cli.SETTINGS[command])


def test_config_metric_clustering_is_charted(analysis, tmp_path):
    config = write(tmp_path / "run.cfg", f"metrics = {analysis}\nmetric = clustering\n")
    assert main(["report", "--config", str(config), "--out", str(tmp_path / "r.svg")]) == 0
    assert "clustering coefficient" in (tmp_path / "r_w15.svg").read_text()


def test_config_span_start_is_honoured_by_stitch(export_tree, tmp_path):
    config = write(tmp_path / "run.cfg", "span-start = 2020-04-01\n")
    assert main(stitch_argv(export_tree, "--config", str(config))) == 0
    series = parse_stitched((tmp_path / "out" / "cough.csv").read_text())
    assert series.start_date == date(2020, 4, 1)
    assert series.end_date == SPAN_END


def test_second_run_replaces_files_and_keeps_no_prev(export_tree, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "unrelated").mkdir(parents=True)
    for name in ("cough.csv", "fever.csv"):
        write(out / name, "earlier run\n")
    assert main(stitch_argv(export_tree)) == 0
    assert capsys.readouterr().err == ""
    # No `.part` or `.prev` is listed beside them.
    assert sorted(p.name for p in out.iterdir()) == ["cough.csv", "fever.csv", "flu.csv",
                                                     "unrelated"]
    assert not any((out / "unrelated").iterdir())
    assert parse_stitched((out / "cough.csv").read_text()).start_date == SPAN_START


# --- failures: one error line, the exact exit code, and the tree under tmp_path unchanged ---
#
# Each case of FAILURES is (test id, setup). `setup(tmp_path, fixture)`, where `fixture` is
# `request.getfixturevalue`, prepares the tree and returns (argv, exit code, message).

def cmd(f, command, *flags):
    """`command` on its fixture: stitch `export_tree`, analyze `stitched_dir`, report `analysis`."""
    return {"stitch": lambda: stitch_argv(f("export_tree"), *flags),
            "analyze": lambda: analyze_argv(f("stitched_dir"), *flags),
            "report": lambda: report_argv(f("analysis"), *flags)}[command]()


def flags_case(command, code, message, *flags):
    return lambda t, f: (cmd(f, command, *flags), code, message)


def planted_case(command, name, lineno, text, field, message, code=2):
    """`command` once `plant` put `text` in the file `name` under tmp_path; the message
    follows that file's path. The argv comes first, so its fixture exists to plant in."""
    return lambda t, f: (cmd(f, command), code,
                         f"{plant(t / name, lineno, text, field)}: {message}")


def config_case(command, text, message, *flags):
    """`command` with a config file holding `text`; `{config}` in the message is its path."""
    return lambda t, f: (cmd(f, command, "--config", str(config := write(t / "run.cfg", text)),
                              *flags), 2, message.format(config=config))


def events_case(text, message):
    return lambda t, f: (cmd(f, "report", "--events", str(events := write(t / "events.csv", text))),
                         2, f"{events}: {message}")


def registry_case(command, text, message):
    """`command` reading a registry holding `text`, written once the fixtures are built."""
    def setup(t, f):
        flags = ["--registry", str(t / "registry.csv")] if command == "analyze" else []
        return cmd(f, command, *flags), 2, f"{write(t / 'registry.csv', text)}: {message}"
    return setup


def extra_thresholds(t, f, windows, thresholds, window, labels):
    """`report` of an analysis of `windows` x `thresholds`, plus copies of window
    `window`'s t0.5 metrics relabelled to each of `labels`."""
    analysis = t / "analysis"
    assert main(analyze_argv(f("stitched_dir"), "--windows", windows, "--thresholds", thresholds,
                             "--out", str(analysis))) == 0
    text = (analysis / f"metrics_w{window}_t0.5.csv").read_text()
    for label in labels:
        write(analysis / f"metrics_w{window}_t{label}.csv",
              text.replace(f",{window},0.5,", f",{window},{label},"))
    return report_argv(analysis)


def header_only_metrics(t, f):
    report, path = cmd(f, "report"), t / METRICS
    write(path, path.read_text().partition("\n")[0] + "\n")
    return report, 2, f"{path}: no data rows"


def single_keyword(t, f):
    stitched = f("stitched_dir")
    for name in ("fever.csv", "flu.csv"):
        (stitched / name).unlink()
    f("monkeypatch").setattr(kernels, "rolling_dcor", lambda *args: pytest.fail("dCor ran"))
    return analyze_argv(stitched), 2, f"{stitched}: 1 keyword (cough), analyze needs at least 2"


def stitched_files_named_with_a_pipe(t, f):
    stitched = f("stitched_dir")
    text = (stitched / "cough.csv").read_text()
    for path in stitched.iterdir():
        path.unlink()
    for kw in PIPE_KEYWORDS:
        write(stitched / f"{kw}.csv", text)
    return analyze_argv(stitched), 2, f"{stitched / 'a|b.csv'}: {PIPE_MESSAGE}"


def stitched_file_naming_no_keyword(name, keyword):
    """`analyze` without `--registry` once the stitched directory also holds `name`."""
    def setup(t, f):
        stitched = f("stitched_dir")
        bad = write(stitched / name, (stitched / "cough.csv").read_text())
        return analyze_argv(stitched), 2, (
            f"{bad}: keyword {keyword!r} cannot name a file; a keyword"
            " must not be empty, '.' or '..' or hold '/' or '\\'")
    return setup


def out_naming_no_chart(out, in_config):
    """`report` given `--out <out>`, or the config line `out = <out>`, in an empty working
    directory; it exits before reading any metrics file."""
    def setup(t, f):
        argv = ["report", "--metrics", str(f("analysis"))]
        f("monkeypatch").chdir(mkdir(t / "work"))
        f("monkeypatch").setattr(cli.netstat, "parse_metrics_csv",
                                 lambda text: pytest.fail("metrics read"))
        if not in_config:
            return [*argv, "--out", out], 2, f"--out must name a chart file, got {out!r}"
        config = write(t / "run.cfg", f"out = {out}\n")
        return ([*argv, "--config", str(config)], 2,
                f"{config}: config line 1: out must name a chart file, got {out!r}")
    return setup


def failed_move_restores_earlier_run(t, f):
    stitched, out = f("stitched_dir"), t / "out"
    two = write(t / "two.csv", "keyword,category\ncough,SymptomsEnglish\nfever,SymptomsEnglish\n")
    assert main(analyze_argv(stitched, "--registry", str(two), "--windows", "15",
                             "--thresholds", "0.5")) == 0
    # The second run's correlations file moves into place before this target fails.
    (out / "metrics_w15_t0.4.csv").mkdir()
    return (analyze_argv(stitched, "--windows", "15", "--thresholds", "0.4,0.5"), 3,
            f"{out / 'metrics_w15_t0.4.csv'}: Is a directory")


def empty_setting(line, argv, source):
    def setup(t, f):
        f("monkeypatch").chdir(mkdir(t / "work"))
        write(t / "work" / "run.cfg", f"{line}\n")
        return argv(f), 2, f"{source} is empty"
    return setup


def missing_required(command, first, source):
    def setup(t, f):
        config = ["--config", str(write(t / "run.cfg", f"{first} = {t}\n"))]
        return [command, *(config if source == "config" else [])], 2, REQUIRED[command]
    return setup


def date_case(command, name, lineno, bad, column="date"):
    """`command` once the date opening line `lineno` of the file `name` is `bad`."""
    return planted_case(command, name, lineno, bad, 0,
                        f"line {lineno}: {column} '{bad}' does not parse")


def bad_date_cases(bad):
    """Each source of a date not written YYYY-MM-DD: Python 3.11+ `date.fromisoformat`
    reads these basic and ISO-week forms; 3.10 and trendnet read only YYYY-MM-DD."""
    return {
        "segment": date_case("stitch", "daily/cough/2.csv", 5, bad),
        # A first row that starts with a digit is data, never preamble.
        "segment_first_row": date_case("stitch", "daily/cough/2.csv", 1, bad),
        "weekly": date_case("stitch", "weekly/cough.csv", 6, bad),
        "stitched": date_case("analyze", "stitched/fever.csv", 41, bad),
        "events": events_case(f"date,label,category\n2020-04-01,ok,Policy\n{bad},x,Policy\n",
                              f"line 3: event date '{bad}' does not parse"),
        "metrics": date_case("report", METRICS, 3, bad, "label_date"),
        "span_start_flag": flags_case("stitch", 2, f"--span-start must be an ISO date, got '{bad}'",
                                      "--span-start", bad),
        "period_flag": flags_case("analyze", 2, "--period must be start:end ISO dates,"
                                  f" got '{bad}:2020-06-30'", "--period", f"{bad}:2020-06-30"),
        "span_start_config_line": config_case(
            "stitch", f"span-start = {bad}\n",
            f"{{config}}: config line 1: span-start must be an ISO date, got '{bad}'"),
    }


UNREADABLE = {  # where: (command, file, line, its message once Python 3.11+ reads a NUL)
    "segment": ("stitch", "daily/fever/2.csv", 5, "2020-04-20: unparseable value '0.5\\x00'"),
    "stitched": ("analyze", "stitched/fever.csv", 41,
                 "expected 2020-04-24 after 2020-04-23, got 2020-04-20"),
    "metrics": ("report", METRICS, 3, "line 3: 2 fields, expected 7"),
}
PIPE_KEYWORDS = ("a|b", "c", "a", "b|c")  # ("a|b", "c") and ("a", "b|c") would both join as a|b|c
PIPE_MESSAGE = "keyword 'a|b' holds '|', which joins the keywords of a persistence row"
REQUIRED = {"stitch": "stitch requires --daily-dir, --weekly-dir and --out",
            "analyze": "analyze requires --stitched and --out",
            "report": "report requires --metrics and --out"}
PERIODS = ["2020-04-01:2020-06-30", "2020-05-01:2020-05-31", "2020-04-01 : 2020-06-30"]
WINDOW_400 = "window of 400 days exceeds 365 days of data"
UNLABELLED = ("0.48663415325799997 is labelled 0.486634 in outputs;"
              " give at most 6 significant digits")
CHART_COLOURS = "11 thresholds in one chart, at most 10 have distinct colours"
ONE_LINE = "test_failure_exits_with_one_error_line_and_leaves_nothing"
FAILURES = [
    ("test_stitch_gap_exits_2_naming_keyword_and_date", planted_case(
        "stitch", "daily/fever/2.csv", 11, None, None,
        "expected 2020-04-26 after 2020-04-25, got 2020-04-27")),
    ("test_stitch_missing_weekly_exits_3", lambda t, f: (
        cmd(f, "stitch"), 3, f"{remove(t / 'weekly/flu.csv')}: No such file or directory")),
    ("test_stitch_bad_weekly_row_names_weekly_file", planted_case(
        "stitch", "weekly/cough.csv", 6, "250", 1, "2020-04-13: value 250 outside [0,100.0]")),
    ("test_stitch_missing_daily_dir_exits_3", lambda t, f: (
        ["stitch", "--daily-dir", str(t / "nope"), "--weekly-dir", str(t), "--out", str(t / "out")],
        3, f"{t / 'nope'}: not a directory")),
    ("test_stitch_uncovered_span_exits_2", lambda t, f: (
        cmd(f, "stitch", "--span-end", "2021-06-30"), 2, f"{t / 'daily/cough'}: assembled span"
        " 2020-03-16..2021-03-15 does not cover 2020-03-16..2021-06-30")),
    ("test_stitch_inverted_span_exits_2_writing_nothing", flags_case(
        "stitch", 2, "--span-start 2021-03-15 is after --span-end 2020-03-16",
        "--span-start", "2021-03-15", "--span-end", "2020-03-16")),
    ("test_analyze_window_exceeding_data_exits_4", lambda t, f: (
        cmd(f, "analyze", "--windows", "400"), 4, f"{t / 'stitched'}: {WINDOW_400}")),
    ("test_analyze_failing_window_writes_nothing", lambda t, f: (
        cmd(f, "analyze", "--windows", "15,400", "--out", str(t / "new/deeper")), 4,
        f"{t / 'stitched'}: {WINDOW_400}")),
    ("test_analyze_stitched_file_starting_a_day_late_exits_2_naming_dir", lambda t, f: (
        cmd(f, "analyze"), 2, f"{plant(t / 'stitched/flu.csv', 2, None).parent}: flu: spans"
        " 2020-03-17..2021-03-15, expected 2020-03-16..2021-03-15")),
    ("test_analyze_bad_threshold_exits_2", flags_case(
        "analyze", 2, "--thresholds must lie in (0,1), got '1.5'", "--thresholds", "1.5")),
    *[(f"test_analyze_colliding_labels_exit_2[{flag}-{raw}]", flags_case(
        "analyze", 2, f"{flag} values repeat the output label {label}, got '{raw}'", flag, raw))
      for flag, raw, label in [("--thresholds", "0.5,0.5", "0.5"),
                               ("--thresholds", "0.5,0.5000001", "0.5"),  # both label t0.5
                               ("--windows", "15,15", "15"), ("--windows", "15,015", "15")]],
    # Edges are drawn at the value itself, but every output names its `:g` label.
    ("test_analyze_threshold_not_its_label_exits_2[flag]", flags_case(
        "analyze", 2, f"--thresholds {UNLABELLED}", "--thresholds", "0.48663415325799997")),
    ("test_analyze_threshold_not_its_label_exits_2[config]", config_case(
        "analyze", "thresholds = 0.4,0.48663415325799997\n",
        f"{{config}}: config line 1: thresholds {UNLABELLED}")),
    ("test_analyze_missing_dir_exits_3", lambda t, f: (
        ["analyze", "--stitched", str(t / "void"), "--out", str(t / "out")], 3,
        f"{t / 'void'}: not a directory")),
    ("test_analyze_single_keyword_exits_2", single_keyword),
    ("test_registry_header_after_a_keyword_row_exits_2_naming_line", registry_case(
        "stitch", "cough,SymptomsEnglish\nkeyword,category\nfever,SymptomsEnglish\n",
        "line 2: unknown keyword category 'category' for 'keyword'; expected one of"
        " SymptomsEnglish, SymptomsFilipino, FaceWearing, Quarantine, NewNormal")),
    *[(f"test_empty_registry_exits_2_naming_file[{command}]",
       registry_case(command, "keyword,category\n", "no keyword rows"))
      for command in ("stitch", "analyze")],
    *[(f"test_keyword_holding_a_pipe_in_the_registry_exits_2_naming_line[{command}]",
       registry_case(command, "".join(f"{kw},FaceWearing\n" for kw in PIPE_KEYWORDS),
                     f"line 1: {PIPE_MESSAGE}")) for command in ("stitch", "analyze")],
    ("test_analyze_stitched_file_named_with_a_pipe_exits_2_naming_it",
     stitched_files_named_with_a_pipe),
    *[(f"test_analyze_stitched_file_naming_no_keyword_exits_2_naming_it[{case}]",
       stitched_file_naming_no_keyword(name, keyword))
      for case, name, keyword in [("empty", ".csv", ""), ("dot", "..csv", "."),
                                  ("backslash", "a\\b.csv", "a\\b")]],
    *[(f"test_report_out_naming_no_chart_file_exits_2[{case}]",
       out_naming_no_chart(out, case == "config"))
      for case, out in [("dot", "."), ("root", "/"), ("dot-dot", ".."),
                        ("dir-dot-dot", "reports/.."), ("config", "..")]],
    ("test_analyze_period_without_frames_exits_2", flags_case(
        "analyze", 2, "--period 2019-01-01:2019-02-01 selects no frame of window 15,"
        " labeled 2020-03-31..2021-03-16", "--windows", "15", "--thresholds", "0.5",
        "--period", "2020-05-01:2020-05-31", "--period", "2019-01-01:2019-02-01")),
    ("test_analyze_more_thresholds_than_colours_exits_2", flags_case(
        "analyze", 2, "--thresholds takes at most 10 values, got 11", "--windows", "15",
        "--thresholds", ",".join(f"0.{i:02d}" for i in range(5, 60, 5)))),
    *[(f"test_analyze_window_shorter_than_two_days_exits_2[{raw}]", flags_case(
        "analyze", 2, f"--windows must be integers of at least 2 days, got '{raw}'",
        "--windows", raw)) for raw in ("1", "15,1", "0")],
    # analyze refuses an 11th threshold, so its metrics file is written by hand.
    ("test_report_more_thresholds_than_colours_exits_2", lambda t, f: (extra_thresholds(
        t, f, "15", ",".join(f"0.{i:02d}" for i in range(5, 55, 5)), 15, ["0.55"]),
        2, f"{t / 'analysis'}: window 15: {CHART_COLOURS}")),
    # w15 renders; w30 gets 11 thresholds, one more than a chart has colours.
    ("test_report_failing_window_writes_nothing", lambda t, f: (extra_thresholds(
        t, f, "15,30", "0.5", 30, [f"0.{i:02d}" for i in range(1, 11)]),
        2, f"{t / 'analysis'}: window 30: {CHART_COLOURS}")),
    *[(f"test_report_malformed_metrics_exits_2_naming_file[{name}]",
       planted_case("report", METRICS, lineno, text, field, message))
      for name, lineno, text, field, message in [
          ("unparseable", 2, "xx", 3, "line 2: edge_count 'xx' does not parse"),
          ("truncated", 3, None, 6, "line 3: 6 fields, expected 7"),
          ("nan", 3, "nan", 4, "line 3: density 'nan' is not finite"),
          ("inf", 2, "-inf", 5, "line 2: clustering_global '-inf' is not finite"),
      ]],
    ("test_report_malformed_metrics_exits_2_naming_file[header-only]", header_only_metrics),
    ("test_report_short_event_row_exits_2_naming_file", events_case(
        "2020-04-01,only-two\n", "line 1: row needs date,label,category:"
        " ['2020-04-01', 'only-two']")),
    ("test_report_missing_metrics_dir_exits_3", lambda t, f: (
        ["report", "--metrics", str(t / "void"), "--out", str(t / "r.svg")], 3,
        f"{t / 'void'}: not a directory")),
    *[(f"test_config_unknown_key_exits_2[{line}-{key}]", config_case(
        "analyze", f"{line}\nthresholds = 0.5\n",
        f"{{config}}: config line 1: unknown key '{key}'"))
      for line, key in [("treshold = 0.5", "treshold"), ("scale = raw", "scale")]],
    ("test_config_repeated_key_exits_2", config_case(
        "analyze", "windows = 15\nthresholds = 0.5\n# comment\nwindows = 30\n",
        "{config}: config line 4: key 'windows' repeats line 1")),
    # Lines end at \n only: str.splitlines would also break at the form feed.
    ("test_config_line_numbers_end_at_newline_only", config_case(
        "analyze", "windows = 15\f\nthresholds = 0.5\nbogus\n",
        "{config}: config line 3: expected key=value, got 'bogus'")),
    *[(f"test_{name}", planted_case("stitch", "daily/cough/1.csv", 2, value, 1,
                                    f"2020-03-17: unparseable value '{value}'"))
      for name, value in [("malformed_value_names_file_and_date", "oops"),
                          ("underscored_export_value_exits_2_naming_file_and_date", "5_0")]],
    # int() and float() read 1_5 as 15 and 0.4_5 as 0.45.
    *[(f"test_underscored_number_flag_exits_2_naming_flag[{flag[2:]}]", flags_case(
        "analyze", 2, f"{flag} must be {kind}, got '{raw}'", flag, raw))
      for flag, raw, kind in [("--windows", "1_5,3_0", "integers"),
                              ("--thresholds", "0.4_5", "numbers")]],
    ("test_analyze_failed_move_restores_earlier_run", failed_move_restores_earlier_run),
    *[(f"test_missing_required_settings_exit_2[{source}-{command}-{first}-{REQUIRED[command]}]",
       missing_required(command, first, source)) for source in ("flags", "config")
      for command, first in [("stitch", "daily-dir"), ("analyze", "stitched"),
                             ("report", "metrics")]],
    ("test_config_bogus_metric_exits_2", lambda t, f: (
        ["report", "--config", str(config := write(
            t / "run.cfg", f"metrics = {f('analysis')}\nmetric = bogus\n")),
         "--out", str(t / "reports/r.svg")], 2,
        f"{config}: config line 2: metric must be density or clustering, got 'bogus'")),
    ("test_report_mistyped_event_date_exits_2_naming_file", events_case(
        "2020-04-01,ok,Policy\n2020-13-01,typo month,Policy\n2020-04-31,typo day,Vaccine\n",
        "line 2: event date '2020-13-01' does not parse")),
    *[(f"test_bad_config_value_exits_2_naming_file_and_line[{name}]",
       config_case(command, f"# run settings\n{lines}\n", f"{{config}}: config line {message}"))
      for name, command, lines, message in [
          ("windows", "analyze", "windows = 15,abc", "2: windows must be integers, got '15,abc'"),
          ("thresholds", "analyze", "thresholds = 0.5,1.5",
           "2: thresholds must lie in (0,1), got '0.5,1.5'"),
          ("underscored-windows", "analyze", "windows = 1_5,3_0",
           "2: windows must be integers, got '1_5,3_0'"),
          ("underscored-thresholds", "analyze", "thresholds = 0.4_5",
           "2: thresholds must be numbers, got '0.4_5'"),
          ("second-period", "analyze", "period = 2020-05-01:2020-05-31\nperiod = 2020-01-01",
           "3: period must be start:end ISO dates, got '2020-01-01'"),
          ("span-start", "stitch", "span-start = 2020-13-01",
           "2: span-start must be an ISO date, got '2020-13-01'"),
          ("metric", "report", "metric = bogus",
           "2: metric must be density or clustering, got 'bogus'"),
      ]],
    ("test_bogus_metric_flag_exits_2_naming_flag", lambda t, f: (
        ["report", "--metrics", str(t), "--metric", "bogus", "--out", str(t / "r.svg")], 2,
        "--metric must be density or clustering, got 'bogus'")),
    ("test_empty_setting_exits_2_naming_source[out]", empty_setting(
        "out =", lambda f: ["report", "--metrics", str(f("analysis")), "--config", "run.cfg"],
        "run.cfg: config line 1: out")),
    ("test_empty_setting_exits_2_naming_source[events]", empty_setting(
        "events =", lambda f: cmd(f, "report", "--config", "run.cfg", "--out", "r.svg"),
        "run.cfg: config line 1: events")),
    ("test_empty_setting_exits_2_naming_source[registry]", empty_setting(
        "", lambda f: cmd(f, "stitch", "--config", "run.cfg", "--registry", "",
                           "--out", "stitched"), "--registry")),
    ("test_mistyped_stitched_date_exits_2_naming_file_and_line",
     date_case("analyze", "stitched/fever.csv", 41, "2020-04-O24")),
    *[(f"test_date_not_written_yyyy_mm_dd_exits_2_naming_source[{bad}-{where}]", setup)
      for bad in ("20200401", "2020-W14-5", "2020W141")
      for where, setup in bad_date_cases(bad).items()],
    ("test_inverted_span_names_each_value_source[config]", config_case(
        "stitch", "span-start = 2021-03-15\nspan-end = 2020-03-16\n",
        "{config}: config line 1: span-start 2021-03-15 is after"
        " {config}: config line 2: span-end 2020-03-16")),
    ("test_inverted_span_names_each_value_source[flag-and-config]", config_case(
        "stitch", "span-end = 2020-03-16\n",
        "--span-start 2021-03-15 is after {config}: config line 1: span-end 2020-03-16",
        "--span-start", "2021-03-15")),
    ("test_config_period_without_frames_names_config_line", config_case(
        "analyze", "windows = 15\nperiod = 2020-05-01:2020-05-31\n"
        "period = 2019-01-01:2019-02-01\n",
        "{config}: config line 3: period 2019-01-01:2019-02-01 selects no frame"
        " of window 15, labeled 2020-03-31..2021-03-16")),
    ("test_repeated_period_exits_2_naming_both_sources[flags]", flags_case(
        "analyze", 2, f"--period {PERIODS[2]} repeats --period {PERIODS[0]}",
        *(arg for p in PERIODS for arg in ("--period", p)))),
    ("test_repeated_period_exits_2_naming_both_sources[config]", config_case(
        "analyze", "".join(f"period = {p}\n" for p in PERIODS),
        f"{{config}}: config line 3: period {PERIODS[2]} repeats"
        f" {{config}}: config line 1: period {PERIODS[0]}")),
    *[(f"test_unreadable_row_exits_2_naming_file_and_line[over-field-limit-{where}]",
       planted_case(command, name, n, "2020-04-20," + "1" * 200_000, None,
                    f"line {n}: field larger than field limit ({csv.field_size_limit()})"))
      for where, (command, name, n, _) in UNREADABLE.items()],
    # Python 3.10's csv rejects a NUL; later ones read it, and the row then fails a check.
    *[(f"test_unreadable_row_exits_2_naming_file_and_line[nul-{where}]",
       planted_case(command, name, n, "2020-04-20,0.5\0", None,
                    read if sys.version_info >= (3, 11) else f"line {n}: line contains NUL"))
      for where, (command, name, n, read) in UNREADABLE.items()],
    # A flag beats a config line, so only the input dirs (the first 5 args) and --out are given.
    *[(f"test_config_path_holding_nul_exits_2_naming_config_line[{key}]", lambda t, f, key=key: (
        [*cmd(f, "stitch")[:5], *(["--out", str(t / "stitched")] if key == "registry" else []),
         "--config", str(config := write(t / "run.cfg", f"{key} = {key[0]}\0x\n"))], 2,
        f"{config}: config line 1: {key} must not hold a NUL byte, got '{key[0]}\\x00x'"))
      for key in ("out", "registry")],
    ("test_registry_keyword_holding_nul_exits_2_naming_line", registry_case(
        "stitch", "keyword,category\ncough,SymptomsEnglish\nfe\0ver,SymptomsEnglish\n",
        "line 3: " + ("keyword 'fe\\x00ver' cannot name a file: it holds a NUL byte"
                      if sys.version_info >= (3, 11) else "line contains NUL"))),
    ("test_failed_move_removes_files_placed_where_none_existed", lambda t, f: (
        cmd(f, "stitch"), 3,  # flu is the last target: cough and fever move first
        f"{mkdir(t / 'out/flu.csv')}: Is a directory")),
    # The failed mkdir is the error, not a cleanup that tries to remove a part under a file.
    *[(f"test_out_that_cannot_be_a_directory_exits_3_naming_it[{case}]",
       lambda t, f, name=name, strerror=strerror: (
           cmd(f, "stitch", "--out", str(out := write(t / "taken", "a file\n") / name)), 3,
           f"{out}: {strerror}"))
      for case, name, strerror in [("a-file", "", "File exists"),
                                   ("under-a-file", "sub", "Not a directory")]],
    (f"{ONE_LINE}[inverted_period]", flags_case(
        "analyze", 2, "--period end 2020-04-01 precedes start 2020-06-30",
        "--period", "2020-06-30:2020-04-01")),
    (f"{ONE_LINE}[missing_segment_dir]", lambda t, f: (
        cmd(f, "stitch"), 3, f"{remove(t / 'daily/fever')}: missing daily segment directory")),
    (f"{ONE_LINE}[no_segment_csvs]", lambda t, f: (
        cmd(f, "stitch"), 3, f"{rename_files(t / 'daily/fever', '.txt')}: no segment CSV files")),
    (f"{ONE_LINE}[no_stitched_csvs]", lambda t, f: (
        analyze_argv(mkdir(t / "empty")), 3, f"{t / 'empty'}: no stitched CSV files")),
    (f"{ONE_LINE}[no_metrics_csvs]", lambda t, f: (
        report_argv(mkdir(t / "empty")), 3, f"{t / 'empty'}: no metrics_w*_t*.csv files")),
    (f"{ONE_LINE}[missing_value_field]", planted_case(
        "stitch", "daily/cough/2.csv", 5, "2020-04-20", None, "2020-04-20: missing value field")),
    (f"{ONE_LINE}[config_line_without_equals]", config_case(
        "analyze", "# windows\nwindows 15\n", "{config}: config line 2: expected key=value,"
        " got 'windows 15'")),
]


def run_failure(request, setup):
    tmp_path = request.getfixturevalue("tmp_path")
    assert_fails(tmp_path, *setup(tmp_path, request.getfixturevalue))


globals().update(by_test_id(FAILURES, run_failure))


# --- failures that need a fork, a signal, a patched call or shown CPUs ---

@pytest.mark.parametrize("key, value, code, message", [
    ("thresholds", "1.5", 2, "--thresholds must lie in (0,1), got '1.5'"),
    ("registry", "{tmp}/missing.csv", 3, "{tmp}/missing.csv: No such file or directory"),
    ("windows", "400", 4, "{stitched}: " + WINDOW_400),
], ids=["invalid", "io", "too-little-data"])
def test_exit_code_is_the_error_code(stitched_dir, tmp_path, key, value, code, message):
    """The code of the error the library raises is the exit status of `main`."""
    argv = analyze_argv(stitched_dir, f"--{key}", value.format(tmp=tmp_path))
    message = message.format(tmp=tmp_path, stitched=stitched_dir)
    assert_raises(lambda: cli.cmd_analyze(cli._settings(cli.build_parser().parse_args(argv))),
                  message, code)
    assert_fails(tmp_path, argv, code, message)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_analyze_earliest_failing_window_decides_on_any_cpus(stitched_dir, tmp_path, monkeypatch,
                                                             cpus):
    show_cpus(monkeypatch, cpus)
    assert_fails(tmp_path, analyze_argv(stitched_dir, "--windows", "15,400,500"), 4,
                 f"{stitched_dir}: {WINDOW_400}")
    assert_reaped()


@pytest.mark.parametrize("cpus", [1, 2])
def test_analyze_period_without_frames_of_a_later_window_exits_2(stitched_dir, tmp_path,
                                                                 monkeypatch, cpus):
    # On 2 CPUs window 110 is the forked group; its first frame is labeled 2020-07-04.
    show_cpus(monkeypatch, cpus)
    assert_fails(tmp_path, analyze_argv(stitched_dir, "--windows", "15,110",
                                        "--period", "2020-05-01:2020-05-31"), 2,
                 "--period 2020-05-01:2020-05-31 selects no frame of window 110,"
                 " labeled 2020-07-04..2021-03-16")
    assert_reaped()


@pytest.mark.parametrize("windows, failing, message", [
    pytest.param(windows, failing, message, id=f"{failing}-{message}")
    for windows, failing, message in [
        ("15,30", "signal", "analyze worker for windows 30 died by signal 9"),
        ("15,30", "raise", "analyze worker for windows 30 exited with status 1:"
                           " RuntimeError: window failed"),
        # The worker of windows 30 and 45 fails at 45, once it wrote window 30's parts.
        ("15,30,45", "signal", "analyze worker for windows 30,45 died by signal 9"),
        ("15,30,45", "raise", "analyze worker for windows 30,45 exited with status 1:"
                              " RuntimeError: window failed"),
    ]])
def test_analyze_failed_window_worker_exits_3_leaving_nothing(stitched_dir, tmp_path, monkeypatch,
                                                              windows, failing, message):
    show_cpus(monkeypatch, 2)
    parent, real_correlation = os.getpid(), correlate.rolling_correlation
    last = int(windows.rpartition(",")[2])

    def rolling_correlation(series, window):
        if window == last:
            assert os.getpid() != parent, f"window {window} ran in the parent"
            window_30_parts = list((tmp_path / "out").glob(".*_w30*.part"))
            assert len(window_30_parts) == (7 if last == 45 else 0)
            if failing == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("window failed")
        return real_correlation(series, window)

    monkeypatch.setattr(correlate, "rolling_correlation", rolling_correlation)
    assert_fails(tmp_path, analyze_argv(stitched_dir, "--windows", windows), 3, message)
    assert_reaped()


def log_writes(monkeypatch, log: Path) -> None:
    """Append `<pid> <part name>` to `log` for each `_Outputs.write`, from any process."""
    real_write = cli._Outputs.write

    def logged_write(outputs, path, chunks):
        with open(log, "a") as writes:  # one short append per write
            writes.write(f"{os.getpid()} {outputs._part(path).name}\n")
        return real_write(outputs, path, chunks)

    monkeypatch.setattr(cli._Outputs, "write", logged_write)


def test_forked_window_worker_writes_its_own_parts(stitched_dir, tmp_path, monkeypatch):
    show_cpus(monkeypatch, 2)
    log_writes(monkeypatch, log := tmp_path / "writes.log")
    assert main(analyze_argv(stitched_dir)) == 0
    writers = {}
    for line in log.read_text().splitlines():
        pid, name = line.split()
        writers.setdefault("_w30" in name, []).append(int(pid))
    assert len(writers[True]) == 7 and os.getpid() not in writers[True]
    assert set(writers[False]) == {os.getpid()}


def test_window_parts_are_written_before_the_next_window_runs(stitched_dir, tmp_path,
                                                              monkeypatch):
    show_cpus(monkeypatch, 1)
    real_correlation, seen = correlate.rolling_correlation, {}

    def rolling_correlation(series, window):
        seen[window] = (tmp_path / "out" / ".correlations_w15.csv.part").exists()
        return real_correlation(series, window)

    monkeypatch.setattr(correlate, "rolling_correlation", rolling_correlation)
    assert main(analyze_argv(stitched_dir)) == 0
    assert seen == {15: False, 30: True}


def test_analyze_interrupted_after_a_window_leaves_nothing(stitched_dir, tmp_path, monkeypatch):
    """An exception that is no `Exception`, raised once window 15's parts are written."""
    show_cpus(monkeypatch, 1)
    real_correlation = correlate.rolling_correlation

    def rolling_correlation(series, window):
        if window == 30:
            assert (tmp_path / "out" / ".correlations_w15.csv.part").exists()
            raise KeyboardInterrupt("stop")
        return real_correlation(series, window)

    monkeypatch.setattr(correlate, "rolling_correlation", rolling_correlation)
    before = tree_bytes(tmp_path)
    assert_raises(lambda: main(analyze_argv(stitched_dir)), "stop", kind=KeyboardInterrupt)
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("failing, message", [
    ("child", "dCor worker for frames 117..233 of 351 exited with status 1:"
              " RuntimeError: worker failed"),
    ("signal", "dCor worker for frames 117..233 of 351 died by signal 9"),
    ("parent", "[Errno 12] Cannot allocate memory"),
], ids=["child", "signal", "parent"])
def test_analyze_failed_dcor_worker_exits_3_leaving_nothing(stitched_dir, tmp_path, monkeypatch,
                                                            failing, message):
    show_dcor_workers(monkeypatch, 3)
    real_frames, parent = kernels._dcor_frames, os.getpid()

    def dcor_frames(days, n):
        if (os.getpid() == parent) == (failing == "parent"):
            if failing == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise (OSError(errno.ENOMEM, "Cannot allocate memory") if failing == "parent"
                   else RuntimeError("worker failed"))
        return real_frames(days, n)

    monkeypatch.setattr(kernels, "_dcor_frames", dcor_frames)
    assert_fails(tmp_path, analyze_argv(stitched_dir, "--windows", "15", "--thresholds", "0.5"),
                 3, message)
    assert_reaped()


def test_analyze_failed_fork_exits_3_leaking_nothing(stitched_dir, tmp_path, monkeypatch):
    """The second of two forks fails: the first child is still read and waited
    for, and no pipe end is left open."""
    show_cpus(monkeypatch, 3)
    forks, real_fork, parent = [], os.fork, os.getpid()

    def fork():
        if os.getpid() == parent:
            forks.append(parent)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    descriptors = os.listdir("/proc/self/fd")
    assert_fails(tmp_path, analyze_argv(stitched_dir, "--windows", "15,30,45"), 3,
                 f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}")
    assert len(forks) == 2
    assert_reaped()
    assert os.listdir("/proc/self/fd") == descriptors


def half_then_enospc(chunks):
    """The first half of `chunks`, rounded up, then the OSError of a full disk."""
    chunks = list(chunks)
    yield from chunks[: (len(chunks) + 1) // 2]
    raise OSError(errno.ENOSPC, "No space left on device")


def fail_third_write(monkeypatch):
    """Make the third `_Outputs.write` write half its chunks, then raise ENOSPC."""
    real_write, calls = cli._Outputs.write, []

    def failing_write(outputs, path, chunks):
        calls.append(path)
        return real_write(outputs, path, half_then_enospc(chunks) if len(calls) == 3 else chunks)

    monkeypatch.setattr(cli._Outputs, "write", failing_write)


def test_analyze_write_failure_leaves_no_output(stitched_dir, tmp_path, monkeypatch):
    """The output directories the failed run created are removed too."""
    out = tmp_path / "new" / "deeper"
    fail_third_write(monkeypatch)
    assert_fails(tmp_path, analyze_argv(stitched_dir, "--out", str(out)), 3,
                 f"{out / 'metrics_w15_t0.5.csv'}: No space left on device")


def test_stitch_write_failure_keeps_earlier_output(export_tree, tmp_path, monkeypatch):
    show_cpus(monkeypatch, 1)  # `fail_third_write` counts the writes of one process
    write(mkdir(tmp_path / "out") / "cough.csv", "earlier run\n")
    fail_third_write(monkeypatch)
    assert_fails(tmp_path, stitch_argv(export_tree), 3,
                 f"{tmp_path / 'out' / 'flu.csv'}: No space left on device")


def test_stitch_forked_worker_write_failure_leaves_nothing(export_tree, tmp_path, monkeypatch):
    show_cpus(monkeypatch, 2)
    write(mkdir(tmp_path / "out") / "cough.csv", "earlier run\n")
    real_write, parent = cli._Outputs.write, os.getpid()

    def failing_write(outputs, path, chunks):
        if outputs._part(path).name == ".flu.csv.part":
            assert os.getpid() != parent, "flu was stitched in the parent"
            chunks = half_then_enospc(chunks)
        return real_write(outputs, path, chunks)

    monkeypatch.setattr(cli._Outputs, "write", failing_write)
    assert_fails(tmp_path, stitch_argv(export_tree), 3,
                 f"{tmp_path / 'out' / 'flu.csv'}: No space left on device")
    assert_reaped()


# --- the writer streams: no process holds a whole correlations or persistence text ---

def spy_writes(monkeypatch) -> dict[str, tuple[bool, list]]:
    """{target name: (whether its chunks came as an iterator, the chunks)} of each
    `_Outputs.write` in this process."""
    real_write, seen = cli._Outputs.write, {}

    def spied_write(outputs, path, chunks):
        seen[path.name] = (iter(chunks) is chunks, list(chunks))
        return real_write(outputs, path, seen[path.name][1])

    monkeypatch.setattr(cli._Outputs, "write", spied_write)
    return seen


def test_writer_gets_correlations_by_frame_and_persistence_by_group(tmp_path, monkeypatch):
    """At K = 15, `correlations_w15.csv` comes as an iterator of its header and one chunk
    per frame, 105 rows of one label each, never as one text; each persistence file as its
    header and one chunk per (period, threshold) group. Every other output of stitch,
    analyze and report comes as one str in a container, never as a bare str, which the
    writer would write a character at a time."""
    show_cpus(monkeypatch, 1)  # every write in this process, where the spy records it
    seen = spy_writes(monkeypatch)
    run_reference(tmp_path, "flat")
    streamed = {name for name in seen if name.startswith(("correlations_", "persistence_"))}
    assert (len(seen), len(streamed)) == (37, 6)
    for name, (lazy, chunks) in seen.items():
        assert lazy == (name in streamed) and all(isinstance(chunk, str) for chunk in chunks)
        assert name in streamed or len(chunks) == 1, name
    header, *frames = seen["correlations_w15.csv"][1]
    assert header == "label_date,keyword_a,keyword_b,dcor\n" and len(frames) == 365 - 15 + 1
    for chunk in frames:
        rows = chunk.splitlines()
        assert len(rows) == 105 and len({row.partition(",")[0] for row in rows}) == 1
    for name in sorted(name for name in streamed if name.startswith("persistence_")):
        header, *groups = seen[name][1]
        assert header == "period_start,period_end,threshold,members,count\n"
        keys = [{tuple(row.split(",")[:3]) for row in chunk.splitlines()} for chunk in groups]
        assert {len(chunk.splitlines()) for chunk in groups} == {455 if "triads" in name else 105}
        assert [len(key) for key in keys] == [1] * len(groups)
        keys = [key.pop() for key in keys]
        assert len(set(keys)) == len(groups) == 4 * len({key[:2] for key in keys}), name


@pytest.mark.parametrize("cpus", [1, 2])
def test_emitter_failing_mid_stream_exits_2_leaving_nothing(stitched_dir, tmp_path, monkeypatch,
                                                           cpus):
    """Window 30's correlations yield their header, then raise: in this process on 1 CPU,
    in the forked window worker on 2."""
    show_cpus(monkeypatch, cpus)
    real_emit, parent = correlate.emit_correlations_csv, os.getpid()

    def emit_correlations_csv(frames):
        chunks = real_emit(frames)
        yield next(chunks)
        if frames.window_days == 30:
            assert (os.getpid() == parent) == (cpus == 1)
            assert (tmp_path / "out" / ".correlations_w30.csv.part").exists()
            raise TrendnetError("dcor row 2 failed mid-stream")
        yield from chunks

    monkeypatch.setattr(correlate, "emit_correlations_csv", emit_correlations_csv)
    assert_fails(tmp_path, analyze_argv(stitched_dir), 2, "dcor row 2 failed mid-stream")
    assert_reaped()


# --- stitch on every CPU: on 2 CPUs cough is stitched here, fever and flu by a worker ---

def test_stitch_outputs_do_not_depend_on_cpus(export_tree, monkeypatch, capsys):
    runs = []
    for cpus in (1, 2, 3):
        forks = show_cpus(monkeypatch, cpus)
        assert main(stitch_argv(export_tree)) == 0
        assert len(forks) == cpus - 1
        runs.append((tree_bytes(export_tree / "out"), capsys.readouterr()))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1].err == ""


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_stitch_earliest_failing_keyword_decides_on_any_cpus(export_tree, tmp_path, monkeypatch,
                                                             cpus):
    show_cpus(monkeypatch, cpus)
    remove(tmp_path / "weekly" / "flu.csv")  # would exit 3
    fever = plant(tmp_path / "daily" / "fever" / "2.csv", 5, "2020-13-01", 0)
    assert_fails(tmp_path, stitch_argv(export_tree), 2,
                 f"{fever}: line 5: date '2020-13-01' does not parse")
    assert_reaped()


def test_stitch_segment_peak_warning_of_a_forked_keyword_names_file(export_tree, monkeypatch):
    forks = show_cpus(monkeypatch, 2)
    seg = export_tree / "daily" / "flu" / "1.csv"
    seg.write_text(re.sub(r",100$", ",60", seg.read_text(), flags=re.M), "utf-8")
    with pytest.warns(UserWarning) as log:
        assert main(stitch_argv(export_tree)) == 0
    assert len(forks) == 1
    assert [str(w.message).partition(" has max ")[0] for w in log] == [
        f"{seg}: segment starting 2020-03-16"]
    assert log[0].filename == cli.__file__  # where `_parse` warns it in one process


def test_forked_keyword_worker_writes_its_own_parts(export_tree, tmp_path, monkeypatch):
    show_cpus(monkeypatch, 2)
    log_writes(monkeypatch, log := tmp_path / "writes.log")
    assert main(stitch_argv(export_tree)) == 0
    lines = log.read_text().splitlines()
    writers = {name: int(pid) for pid, name in map(str.split, lines)}
    assert len(lines) == len(writers)
    assert sorted(writers) == [".cough.csv.part", ".fever.csv.part", ".flu.csv.part"]
    assert writers[".cough.csv.part"] == os.getpid()
    assert writers[".fever.csv.part"] == writers[".flu.csv.part"] != os.getpid()


def test_stitch_killed_keyword_worker_exits_3_leaving_nothing(export_tree, tmp_path, monkeypatch):
    show_cpus(monkeypatch, 2)
    real_stitch, parent = stitch.stitch_series, os.getpid()

    def stitch_series(daily, weekly):
        # The worker dies at flu, once it wrote fever's part.
        if os.getpid() != parent and (tmp_path / "out" / ".fever.csv.part").exists():
            os.kill(os.getpid(), signal.SIGKILL)
        return real_stitch(daily, weekly)

    monkeypatch.setattr(stitch, "stitch_series", stitch_series)
    assert_fails(tmp_path, stitch_argv(export_tree), 3,
                 "stitch worker for keywords fever..flu died by signal 9")
    assert_reaped()
