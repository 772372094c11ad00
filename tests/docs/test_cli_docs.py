"""docs/cli.md must stay in sync with the live argparse tree."""

import pathlib

from repro.cli import main, render_cli_docs

CLI_DOC = (
    pathlib.Path(__file__).parent.parent.parent / "docs" / "cli.md"
)


class TestCliDocsSync:
    def test_page_matches_generator(self):
        assert CLI_DOC.is_file(), (
            "docs/cli.md missing; generate with "
            "`python -m repro.cli docs`"
        )
        assert CLI_DOC.read_text(encoding="utf-8") == \
            render_cli_docs(), (
                "docs/cli.md is out of sync with the CLI; regenerate "
                "with `python -m repro.cli docs`"
            )

    def test_check_subcommand_agrees(self, capsys):
        assert main(["docs", "--check", "--output", str(CLI_DOC)]) == 0
        assert "in sync" in capsys.readouterr().out

    def test_check_detects_drift(self, tmp_path, capsys):
        stale = tmp_path / "cli.md"
        stale.write_text("# stale\n", encoding="utf-8")
        assert main(["docs", "--check", "--output", str(stale)]) == 1
        assert "out of sync" in capsys.readouterr().err

    def test_write_roundtrips_with_check(self, tmp_path):
        page = tmp_path / "cli.md"
        assert main(["docs", "--output", str(page)]) == 0
        assert main(["docs", "--check", "--output", str(page)]) == 0

    def test_every_subcommand_documented(self):
        text = render_cli_docs()
        for command in ("list", "inspect", "run", "sweep", "compare",
                        "exp", "store", "serve", "trace", "docs"):
            assert f"## `repro {command}`" in text, command
        # The bench and the smoke gates are benchmarks/perf/ scripts.
        for command in ("bench", "obs"):
            assert f"## `repro {command}`" not in text, command
        assert "--smoke" not in text

    def test_assignment_flag_documented(self):
        text = render_cli_docs()
        assert "--assignment POLICY" in text
