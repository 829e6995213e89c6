"""The README's module map stays a map of the package as it is."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_module_map_names_each_module_once():
    # every src/exposure_lab/*.py file (__init__.py as the package itself)
    # is named exactly once in the "Modules" section, each on its own entry
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    stems = sorted(p.stem for p in (ROOT / "src" / "exposure_lab").glob("*.py"))
    names = ["exposure_lab" if stem == "__init__" else f"exposure_lab.{stem}" for stem in stems]
    for name in names:
        assert section.count(f"`{name}`") == 1, name
    entries = re.findall(r"^- `(exposure_lab[.\w]*)` — ", section, flags=re.M)
    assert sorted(entries) == sorted(names)
