import re
from pathlib import Path

import vdvcarleman

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_readme_library_names_are_exported():
    used = set(re.findall(r"\bv\.([A-Za-z_]\w*)", _library_block()))
    assert {"integrate_physical", "integrate_augmented", "ekf_predict"} <= used
    assert used <= set(vdvcarleman.__all__), sorted(used - set(vdvcarleman.__all__))


def test_all_names_resolve():
    assert len(set(vdvcarleman.__all__)) == len(vdvcarleman.__all__)
    for name in vdvcarleman.__all__:
        assert hasattr(vdvcarleman, name), name
