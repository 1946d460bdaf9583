"""Unit tests for validation helpers, RNG coercion and the env-knob docs."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.utils import make_rng
from repro.utils.validation import check_cycle_count


class TestMakeRng:
    def test_from_seed_deterministic(self):
        assert make_rng(7).integers(1000) == make_rng(7).integers(1000)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, None, "64"])
    def test_cycle_count_names_the_field(self, bad):
        check_cycle_count(np.int64(64), "window")
        check_cycle_count(0, "drain", floor=0)
        with pytest.raises(ValueError, match="^window must be an integer >= 1, got"):
            check_cycle_count(bad, "window")


ROOT = Path(__file__).resolve().parent.parent


def test_every_env_knob_is_documented_and_every_documented_knob_exists():
    """The README names exactly the ``REPRO_*`` variables the code reads."""
    literal = re.compile(r"""["'](REPRO_[A-Z_]*[A-Z])["']""")
    in_code = {
        name
        for top in ("src", "benchmarks", "tools")
        for path in (ROOT / top).rglob("*.py")
        for name in literal.findall(path.read_text(encoding="utf-8"))
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    in_readme = set(re.findall(r"REPRO_[A-Z_]*[A-Z]", readme))
    assert in_code == in_readme
