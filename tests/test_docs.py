"""README's library quickstart runs as written, and every exported name resolves."""

import pathlib
import re

import topkcert

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} quickstart", "exec"), {})
    assert "AdaptiveCertifyWeak(k=100, delta=0.05, weak_budget=120000, w_min=6," in capsys.readouterr().out


def test_every_exported_name_resolves():
    namespace = {}
    # a stale name in __all__ makes the star import raise AttributeError
    exec("from topkcert import *", namespace)
    assert sorted(set(topkcert.__all__)) == sorted(name for name in namespace if name != "__builtins__")
