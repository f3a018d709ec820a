"""Every dotted name that README.md and PAPER.md cite resolves.

A name is cited in backticks, such as ``coding._MAX_ITER`` or
``ClassicalChannel.sample(letters, rng)``. One whose head is
``measrep``, one of its modules or a public class of one of them must
resolve against the package attribute by attribute, so a deleted name
cannot linger in the docs. Other heads, such as ``np.linalg``, are not
the package's and are skipped.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import measrep

ROOT = Path(__file__).resolve().parent.parent


def _namespace():
    """The package, its modules and their public classes, by bare name."""
    heads = {"measrep": measrep}
    for info in pkgutil.iter_modules(measrep.__path__):
        module = importlib.import_module(f"measrep.{info.name}")
        heads[info.name] = module
        heads.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj) and name[0] != "_"
                     and obj.__module__.startswith("measrep."))
    return heads


def test_every_cited_dotted_name_resolves():
    heads = _namespace()
    cited = {name for doc in ("README.md", "PAPER.md")
             for name in re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)",
                                    (ROOT / doc).read_text(encoding="utf-8"))
             if name.split(".")[0] in heads}
    missing = []
    for name in sorted(cited):
        head, *attrs = name.split(".")
        obj = heads[head]
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert len(cited) >= 18
    assert not missing, f"cited in the docs but not in the package: {missing}"
