"""The README's library example runs as written, and every library name it
cites exists."""

import importlib
import pathlib
import pkgutil
import re

import blmix

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    """The first python block of README.md runs and prints the mixing time,
    t_n and s_n, so an example that no longer matches the API fails."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    t_mix, t_n, s_n = capsys.readouterr().out.split()
    assert int(t_mix) >= 1 and float(t_n) > 0 and float(s_n) > 0


def test_readme_names_resolve():
    """Each backticked dotted name in README.md, or the name before a call's
    parentheses, that starts with ``blmix``, a blmix module or an export
    resolves by getattr, so a README that cites a moved or deleted name
    fails."""
    modules = {m.name for m in pkgutil.iter_modules(blmix.__path__)}
    heads = modules | {name for name in dir(blmix) if not name.startswith("_")}
    names = {m.group(1) for m in re.finditer(
        r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`",
        README.read_text())}
    cited = sorted(n for n in names if n.split(".")[0] in heads | {"blmix"})
    assert len(cited) >= 20
    for name in cited:
        parts = name.removeprefix("blmix.").split(".")
        obj = (importlib.import_module(f"blmix.{parts[0]}")
               if parts[0] in modules else getattr(blmix, parts[0], None))
        for part in parts[1:]:
            obj = getattr(obj, part, None)
        assert obj is not None, f"README.md cites {name}, which does not exist"
