"""Command wiring, exit codes, and byte reproducibility."""

import io
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from specfuse import (
    FusionPlan,
    SeededRng,
    latent_from_tokens,
    multiband_attention,
    read_tensor,
    spectral_blend_attention,
    tokens_from_latent,
)
from specfuse.cli import main
from specfuse.harness import block_weights

SCENE_CFG = """\
shape = 2,16,4,4
seed = 7
noise_level = 1.0
tones = t:0.39269908169872414:2.0
"""

PLAN_CFG = """\
t_alpha = 8
alphas = 1,2
sparse_global = false
domain_mode = temporal
d0 = 0.25
"""


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(SCENE_CFG)
    return path


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.cfg"
    path.write_text(PLAN_CFG)
    return path


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestSceneCommand:
    def test_writes_latent(self, tmp_path, scene_file):
        out = tmp_path / "x.spfu"
        code, _ = run_cli("scene", "--config", str(scene_file), "--out", str(out))
        assert code == 0
        assert read_tensor(out).shape == (2, 16, 4, 4)

    def test_deterministic(self, tmp_path, scene_file):
        a, b = tmp_path / "a.spfu", tmp_path / "b.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(a))
        run_cli("scene", "--config", str(scene_file), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestBlendCommand:
    def test_blend_identical_inputs(self, tmp_path, scene_file):
        lat = tmp_path / "x.spfu"
        out = tmp_path / "z.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        code, _ = run_cli("blend", "--global", str(lat), "--local", str(lat),
                          "--d0", "0.25", "--out", str(out))
        assert code == 0
        blended = read_tensor(out)
        source = read_tensor(lat)
        assert np.abs(blended.data - source.data).max() <= 1e-4


class TestFuseCommand:
    def test_fuse_runs_and_reproduces(self, tmp_path, scene_file, plan_file):
        lat = tmp_path / "x.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        outs = []
        for name in ("f1.spfu", "f2.spfu"):
            out = tmp_path / name
            code, _ = run_cli("fuse", "--input", str(lat), "--plan", str(plan_file),
                              "--weights-seed", "3", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_two_scale_plan_runs_hard_bands(self, tmp_path, scene_file, plan_file):
        # The CLI sends a two-scale plan through the hard bands; run_stack
        # sends it through the Gaussian pair, so the two differ.
        lat, out = tmp_path / "x.spfu", tmp_path / "f.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        code, _ = run_cli("fuse", "--input", str(lat), "--plan", str(plan_file),
                          "--weights-seed", "3", "--out", str(out))
        assert code == 0
        tokens = tokens_from_latent(read_tensor(lat))
        plan = FusionPlan.from_text(PLAN_CFG)
        weights = block_weights(2, SeededRng(3))
        banded = multiband_attention(tokens, weights, plan, (4, 4))
        gaussian = spectral_blend_attention(tokens, weights, plan, (4, 4))
        assert np.array_equal(read_tensor(out).data, latent_from_tokens(banded, (4, 4)).data)
        assert not np.array_equal(banded.features, gaussian.features)

    def test_missing_input_is_runtime_error(self, tmp_path, plan_file, capsys):
        code = main(["fuse", "--input", str(tmp_path / "nope.spfu"),
                     "--plan", str(plan_file), "--out", str(tmp_path / "o.spfu")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.strip()

    def test_malformed_plan_number_names_its_key(self, tmp_path, scene_file, capsys):
        lat, plan = tmp_path / "x.spfu", tmp_path / "bad.cfg"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        plan.write_text("t_alpha = x\nalphas = 1,2\n")
        code = main(["fuse", "--input", str(lat), "--plan", str(plan),
                     "--out", str(tmp_path / "o.spfu")])
        assert code == 1
        assert capsys.readouterr().err == "error: t_alpha must be an integer, got 'x'\n"


class TestSpecmixCommand:
    def test_reproducible_bytes(self, tmp_path):
        outs = []
        for name in ("a.spfu", "b.spfu"):
            out = tmp_path / name
            code, _ = run_cli("specmix", "--frames", "32", "--t-alpha", "8",
                              "--seed", "1", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_shape_flags(self, tmp_path):
        out = tmp_path / "x.spfu"
        run_cli("specmix", "--frames", "12", "--t-alpha", "4", "--seed", "2",
                "--channels", "3", "--height", "5", "--width", "6", "--out", str(out))
        assert read_tensor(out).shape == (3, 12, 5, 6)

    def test_invalid_frames_is_runtime_error(self, tmp_path, capsys):
        code = main(["specmix", "--frames", "4", "--t-alpha", "8",
                     "--out", str(tmp_path / "x.spfu")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestAnalyzeCommand:
    def test_csv_rows_match_bands(self, tmp_path, scene_file):
        ref, ext, csv = tmp_path / "r.spfu", tmp_path / "e.spfu", tmp_path / "rep.csv"
        run_cli("scene", "--config", str(scene_file), "--out", str(ref))
        run_cli("scene", "--config", str(scene_file), "--out", str(ext))
        code, text = run_cli("analyze", "--ref", str(ref), "--ext", str(ext),
                             "--bands", "16", "--threshold", "0.9", "--out", str(csv))
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 16
        assert all(len(line.split(",")) == 4 for line in lines)
        assert "available 16/16" in text

    def test_stdout_and_csv_reproducible(self, tmp_path, scene_file):
        ref, ext = tmp_path / "r.spfu", tmp_path / "e.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(ref))
        run_cli("scene", "--config", str(scene_file), "--out", str(ext))
        runs = []
        for name in ("c1.csv", "c2.csv"):
            csv = tmp_path / name
            _, text = run_cli("analyze", "--ref", str(ref), "--ext", str(ext),
                              "--out", str(csv))
            runs.append((csv.read_bytes(), text))
        assert runs[0] == runs[1]


class TestAttnmapCommand:
    def test_map_and_diagonality(self, tmp_path, scene_file):
        lat, out = tmp_path / "x.spfu", tmp_path / "map.csv"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        code, text = run_cli("attnmap", "--input", str(lat), "--span", "8",
                             "--weights-seed", "2", "--out", str(out))
        assert code == 0
        assert text.startswith("diagonality ")
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 16
        matrix = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-6

    def test_global_map(self, tmp_path, scene_file):
        lat, out = tmp_path / "x.spfu", tmp_path / "map.csv"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        code, text = run_cli("attnmap", "--input", str(lat), "--out", str(out))
        assert code == 0
        assert float(text.split()[1]) > 0.0


class TestSelftestCommand:
    def test_passes_and_reproduces(self):
        code1, out1 = run_cli("selftest")
        code2, out2 = run_cli("selftest")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().split("\n")[-1].endswith("0 failed")


class TestProcessLevel:
    def test_usage_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specfuse.cli", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_module_entry_runs(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SCENE_CFG)
        out = tmp_path / "x.spfu"
        proc = subprocess.run(
            [sys.executable, "-m", "specfuse.cli", "scene",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_bad_thread_env_rejected(self, tmp_path):
        import os

        env = dict(os.environ, SPFU_THREADS="abc")
        proc = subprocess.run(
            [sys.executable, "-m", "specfuse.cli", "selftest"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_thread_cap_accepted(self, tmp_path):
        import os

        cfg = tmp_path / "s.cfg"
        cfg.write_text(SCENE_CFG)
        out = tmp_path / "x.spfu"
        env = dict(os.environ, SPFU_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "specfuse.cli", "scene",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0

    def test_cli_import_loads_no_numpy(self):
        # The thread caps must be set before numpy loads, so the entry
        # point's imports may not load it.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, specfuse.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_thread_cap_sets_the_attention_pool_width(self):
        import os

        env = dict(os.environ, SPFU_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from specfuse.attention import _pool_width; print(_pool_width())"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"
