import re
import shlex
from pathlib import Path

from marginleak.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    # The first ```python block under "## Library quick start", run as is.
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2


def test_cli_pipeline_runs(tmp_path, monkeypatch, capsys):
    # The first ```bash block under "## CLI", one command at a time, in a
    # fresh directory: every command reads only what the ones before wrote.
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.strip() and not ln.startswith("#")]
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 9
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "marginleak"
        assert main(argv[1:]) == 0, (line, capsys.readouterr().err)
