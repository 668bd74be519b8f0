"""The README's example plan and scene files, read as the CLI reads them."""

import dataclasses
from pathlib import Path

from specfuse import FusionPlan, SyntheticScene

README = Path(__file__).resolve().parents[1] / "README.md"


def example_after(intro: str) -> str:
    """The fenced block that follows the README line starting with `intro`."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```\n", text.index(f"\n{intro}")) + 4
    return text[start : text.index("```", start)]


def keys(text: str) -> list[str]:
    return [line.split("=")[0].strip() for line in text.splitlines() if line.strip()]


def test_example_plan_sets_every_key():
    text = example_after("Config files are flat")
    assert FusionPlan.from_text(text) == FusionPlan(t_alpha=8, alphas=(1, 2, 4))
    assert keys(text) == [field.name for field in dataclasses.fields(FusionPlan)]


def test_example_scene_sets_every_key():
    text = example_after("A scene")
    scene = SyntheticScene.from_text(text)
    assert (scene.shape, scene.seed, scene.noise_level) == ((4, 32, 8, 8), 7, 1.0)
    assert [(tone.axis, tone.amplitude) for tone in scene.tones] == [("t", 2.0)]
    assert sorted(keys(text)) == sorted(field.name for field in dataclasses.fields(SyntheticScene))
