"""Report-generator tests.

The fast report grids run once per session (the ``report_aggregates``
fixture, shared with the golden fixture), the structure checks render
them, and the CLI tests stub the generator.
"""

import pytest

from repro.experiments import report


@pytest.fixture(scope="module")
def generated(report_aggregates):
    return report.render_report(report_aggregates, fast=True)


class TestReport:
    def test_markdown_structure(self, generated):
        for heading in (
            "# FM Backscatter reproduction report",
            "## Fig. 2",
            "## Fig. 4",
            "## Fig. 5",
            "## Fig. 6",
            "## Fig. 7",
            "## Fig. 8a",
            "## Fig. 9",
            "## Fig. 11",
            "## Fig. 14",
            "## Fig. 17b",
            "## Deployment scale-out",
            "## Power",
        ):
            assert heading in generated
        assert "{" not in generated  # no leaked format placeholders

    def test_headline_claims_present(self, generated):
        # The report must carry the power headline verbatim enough for a
        # reader to compare with the paper.
        assert "11.07 uW" in generated

    def test_cli_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            report, "generate_report", lambda fast=True: "# FM Backscatter reproduction report\nstub"
        )
        out = tmp_path / "report.md"
        assert report.main([str(out)]) == 0
        assert out.read_text().startswith("# FM Backscatter reproduction report")

    def test_cli_prints_without_path(self, capsys, monkeypatch):
        monkeypatch.setattr(
            report, "generate_report", lambda fast=True: "# stub report"
        )
        assert report.main([]) == 0
        assert "# stub report" in capsys.readouterr().out
