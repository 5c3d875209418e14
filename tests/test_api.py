import re
from pathlib import Path

import pytest

import lieseek

PUBLIC = ["Scenario", "TrajectoryLog", "check_b2", "check_bound", "compare",
          "load_scenario", "metrics", "preset", "preset_names",
          "run_baseline", "run_lbs", "run_proposed"]

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_public_surface():
    assert sorted(lieseek.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in lieseek.__all__:
        assert getattr(lieseek, name) is not None


def test_readme_imports_are_public():
    imports = re.findall(r"^from lieseek import (.+)$", README.read_text(),
                         flags=re.MULTILINE)
    assert imports
    for line in imports:
        for name in line.split(","):
            assert name.strip() in lieseek.__all__


def test_unknown_name_is_an_attribute_error():
    """Public names resolve on first use; any other name is missing."""
    with pytest.raises(AttributeError, match="no_such_name"):
        lieseek.no_such_name
