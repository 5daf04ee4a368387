"""The benchmark's tracer hooks library functions by name
(``perfbench/tracer.py``); a refactor that drops a hooked name must fail
here, not read 0 in a traced run. The tracer file is only read."""

import importlib.util
from pathlib import Path

import mvlab

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    assert Path(mvlab.__file__).resolve().parent == ROOT / "src" / "mvlab"
    tracer = _load_tracer()
    hooks = [(module, attr) for _, module, attr, *_ in
             tracer.SPAN_HOOKS + tracer.COUNT_HOOKS]
    assert hooks
    missing = [f"{module}.{attr}" for module, attr in hooks
               if tracer._resolve(module, attr) is None]
    assert missing == []
