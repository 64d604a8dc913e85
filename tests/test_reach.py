"""tools/reach.py: the lines of the package that no entry point reaches, at a small n."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _count(spans: str) -> int:
    """The number of lines in ``3-5, 9``."""
    total = 0
    for span in spans.split(", "):
        first, _, last = span.partition("-")
        total += int(last or first) - int(first) + 1
    return total


def test_lists_every_module_and_its_unreached_lines():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), "--n", "3000"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    headers, listed = {}, {}
    for line in proc.stdout.splitlines():
        header = re.fullmatch(r"(\w+): (\d+) of (\d+) code lines unreached", line)
        if header:
            module = header[1]
            headers[module] = (int(header[2]), int(header[3]))
            listed[module] = {}
        else:
            entry = re.fullmatch(r"  ([\w.]+): ([\d, -]+?)(?: \(never called\))?", line)
            listed[module][entry[1]] = _count(entry[2])
    assert set(headers) == {p.stem for p in (ROOT / "src" / "delsync").glob("*.py")}
    for module, (missed, total) in headers.items():
        assert missed == sum(listed[module].values()) <= total
    # a session runs these whole; the table builders run at import, under the tracer
    assert "_match" not in listed["protocol"] and "form_sections" not in listed["matching"]
    assert not {"window_view", "window_keys", "_fnv_byte_tables"} & set(listed["core"])
