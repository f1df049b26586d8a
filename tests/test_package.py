"""The package's public surface."""

import os
import subprocess
import sys
import types
from pathlib import Path

import agekit


def test_all_lists_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(agekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(agekit.__all__) == bound
    assert len(agekit.__all__) == len(set(agekit.__all__))


def test_cli_import_leaves_the_network_stack_unloaded():
    # every CLI call pays for what `import agekit.cli` pulls in; the SVG
    # escaping once loaded xml.sax, and with it urllib, http and ssl
    probe = (
        "import sys, agekit.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request', 'ssl') if m in sys.modules))"
    )
    src = str(Path(agekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
