"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    """The first python block of README.md runs and prints the mixing time,
    t_n and s_n, so an example that no longer matches the API fails."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    t_mix, t_n, s_n = capsys.readouterr().out.split()
    assert int(t_mix) >= 1 and float(t_n) > 0 and float(s_n) > 0
