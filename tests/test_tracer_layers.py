"""Every function the benchmark tracer wraps (``perfbench/tracer.LAYERS``)
still exists in netform, so deleting or renaming a traced name fails here
instead of in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, targets in tracer.LAYERS.items():
        for owner, attr in targets:
            mod_name, _, cls_name = owner.partition(".")
            holder = importlib.import_module(f"netform.{mod_name}")
            if cls_name:
                # the tracer patches the class attribute itself
                holder = getattr(holder, cls_name, None)
                found = holder is not None and attr in vars(holder)
            else:
                found = callable(getattr(holder, attr, None))
            if not found:
                missing.append((layer, owner, attr))
    assert tracer.LAYERS
    assert not missing, missing
