"""Every demo script and every example in README.md runs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from choquetlike import Capacity, kernel_catalog

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def run_python(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    run_python([str(demo)])


@pytest.mark.parametrize("code", blocks("python"))
def test_readme_python_block_runs(code):
    run_python(["-c", code])


def test_readme_json_examples_load():
    """Each capacity and each kernel spec of the README loads."""
    decoder = json.JSONDecoder()
    specs = []
    for text in blocks("json"):
        pos = 0
        while text[pos:].strip():
            pos += len(text[pos:]) - len(text[pos:].lstrip())
            value, pos = decoder.raw_decode(text, pos)
            specs.append(value)
    kernels = [spec for spec in specs if "family" in spec]
    capacities = [spec for spec in specs if "family" not in spec]
    assert len(kernels) >= 4 and len(capacities) >= 5
    for spec in capacities:
        assert Capacity.from_json(spec).n == spec["n"]
    for spec in kernels:
        assert kernel_catalog(spec, "scalar").name.startswith(spec["family"] + "(")


def test_readme_flags_match_the_parser():
    """The backticked flags of README's "Flags:" paragraph are exactly the
    flags that cli.py defines."""
    source = (ROOT / "src" / "choquetlike" / "cli.py").read_text(encoding="utf-8")
    defined = set(re.findall(r"add_argument\(\s*\"(--[\w-]+)\"", source))
    paragraph = re.search(r"^Flags:.*?(?=\n\n)", README, re.S | re.M).group(0)
    documented = {flag for span in re.findall(r"`([^`]*)`", paragraph)
                  for flag in re.findall(r"--[\w-]+", span)}
    assert documented - {"--help"} == defined


def test_readme_algebra_checks_match_the_module():
    """The law checks that README's Algebra section lists are exactly the
    ``check_*`` functions of algebra.py."""
    source = (ROOT / "src" / "choquetlike" / "algebra.py").read_text(encoding="utf-8")
    defined = set(re.findall(r"^def (check_\w+)", source, re.M))
    section = re.search(r"^### Algebra\n.*?(?=^### )", README, re.S | re.M).group(0)
    assert set(re.findall(r"`(check_\w+)`", section)) == defined
