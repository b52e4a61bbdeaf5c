"""Tests for the markdown report generator."""

import json
from pathlib import Path

import pytest

from repro.bench.harness import Experiment, Panel
from repro.bench.plots import main as plots_main
from repro.bench.report import experiment_to_markdown, generate_report, main


def write_result(directory, experiment):
    path = directory / f"{experiment.experiment_id}.json"
    path.write_text(json.dumps(experiment.to_dict()))


@pytest.fixture
def results_dir(tmp_path):
    exp = Experiment("fig2", "Mathematical analysis in scattered repair")
    panel = Panel("Fig 2(a) — varying M", "# of nodes")
    panel.add_point(20, {"predictive": 0.84, "reactive": 1.52})
    panel.add_point(100, {"predictive": 0.25, "reactive": 0.29})
    exp.panels.append(panel)
    write_result(tmp_path, exp)

    ext = Experiment("lrc_extension", "LRC extension")
    panel = Panel("Analysis", "model")
    panel.add_point("reactive", {"rs": 0.97, "lrc": 0.29})
    ext.panels.append(panel)
    write_result(tmp_path, ext)
    return tmp_path


class TestSerialization:
    def test_to_from_dict_roundtrip(self):
        exp = Experiment("figX", "Title")
        panel = Panel("P", "x", ylabel="seconds")
        panel.add_point("a", {"s1": 1.5, "s2": 2.5})
        exp.panels.append(panel)
        back = Experiment.from_dict(exp.to_dict())
        assert back.experiment_id == "figX"
        assert back.panel("P").values_of("s1") == [1.5]
        assert back.panel("P").ylabel == "seconds"
        assert back.render() == exp.render()


class TestGenerateReport:
    def test_contains_headings_and_tables(self, results_dir):
        report = generate_report(results_dir)
        assert report.startswith("# FastPR reproduction results")
        assert "## fig2: Mathematical analysis" in report
        assert "### Fig 2(a) — varying M" in report
        assert "| # of nodes | predictive | reactive |" in report
        assert "| 20 | 0.8400 | 1.5200 |" in report

    def test_figures_before_extensions(self, results_dir):
        report = generate_report(results_dir)
        assert report.index("fig2") < report.index("lrc_extension")

    def test_notes_file_lands_under_its_heading(self, results_dir):
        (results_dir / "fig2.notes.md").write_text("Read this first.\n")
        report = generate_report(results_dir)
        heading = report.index("## fig2: Mathematical analysis")
        assert heading < report.index("Read this first.") < report.index(
            "### Fig 2(a)"
        )
        assert report.count("Read this first.") == 1

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            generate_report(tmp_path)

    def test_markdown_table_shape(self):
        exp = Experiment("figY", "T")
        panel = Panel("P", "x")
        panel.add_point(1, {"a": 0.5})
        exp.panels.append(panel)
        lines = experiment_to_markdown(exp)
        header = next(l for l in lines if l.startswith("| x"))
        assert header == "| x | a |"


class TestCli:
    def test_writes_output_file(self, results_dir, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main([str(results_dir), "-o", str(out)]) == 0
        assert out.exists()
        assert "Fig 2(a)" in out.read_text()

    def test_prints_to_stdout(self, results_dir, capsys):
        assert main([str(results_dir)]) == 0
        assert "Fig 2(a)" in capsys.readouterr().out

    def test_missing_dir(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2


class TestCommittedReport:
    def test_report_md_is_generated_from_benchmarks_results(self):
        # REPORT.md changes only by `make report`; hand-written prose
        # goes into benchmarks/results/<id>.notes.md.
        root = Path(__file__).resolve().parents[2]
        committed = (root / "REPORT.md").read_text()
        assert committed == generate_report(root / "benchmarks" / "results")

    def test_figures_are_generated_from_benchmarks_results(self, tmp_path):
        # figures/ changes only by `make report`, like REPORT.md: the
        # same SVG names, byte for byte, as a fresh render.
        root = Path(__file__).resolve().parents[2]
        results = root / "benchmarks" / "results"
        assert plots_main([str(results), "-o", str(tmp_path)]) == 0
        fresh = {p.name: p.read_bytes() for p in tmp_path.glob("*.svg")}
        committed = {
            p.name: p.read_bytes() for p in (root / "figures").glob("*.svg")
        }
        assert sorted(committed) == sorted(fresh)
        stale = sorted(n for n in fresh if committed[n] != fresh[n])
        assert stale == []
