"""Command wiring, exit codes, and byte reproducibility."""

import io
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest

from specfuse import (
    FusionPlan,
    SeededRng,
    SpecMixParams,
    latent_from_tokens,
    multiband_attention,
    read_tensor,
    specmix,
    spectral_blend_attention,
    tokens_from_latent,
    write_tensor,
)
from specfuse import config
from specfuse.cli import _build_parser, main
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

    @pytest.mark.parametrize("frames, t_alpha, chw, seed", [
        (32, 8, (4, 8, 8), 1), (37, 8, (4, 8, 8), 5), (37, 8, (4, 5, 7), 9)],
        ids=["default-shape", "partial-window", "odd-height-width"])
    def test_matches_the_library(self, tmp_path, frames, t_alpha, chw, seed):
        c, h, w = chw
        cli_out, lib_out = tmp_path / "cli.spfu", tmp_path / "lib.spfu"
        code, _ = run_cli("specmix", "--frames", str(frames), "--t-alpha", str(t_alpha),
                          "--seed", str(seed), "--channels", str(c), "--height", str(h),
                          "--width", str(w), "--out", str(cli_out))
        assert code == 0
        params = SpecMixParams(frames, t_alpha, seed, seed + 1, seed + 2)
        write_tensor(lib_out, specmix(params, (c, h, w)))
        assert cli_out.read_bytes() == lib_out.read_bytes()

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

    def test_non_finite_threshold_is_an_error(self, tmp_path, scene_file, capsys):
        ref = tmp_path / "r.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(ref))
        capsys.readouterr()
        code = main(["analyze", "--ref", str(ref), "--ext", str(ref), "--threshold", "nan",
                     "--out", str(tmp_path / "rep.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: threshold must be a finite real number")
        assert not (tmp_path / "rep.csv").exists()

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

    @pytest.mark.parametrize("span", ["0", "-2"])
    def test_span_below_one_rejected(self, tmp_path, scene_file, capsys, span):
        lat, out = tmp_path / "x.spfu", tmp_path / "map.csv"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        code = main(["attnmap", "--input", str(lat), "--span", span, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: span_frames must be >= 1, got {span}\n"
        assert not out.exists()

    def test_memory_is_linear_in_tokens(self, tmp_path):
        # 4096 tokens (C=8, T=64, 8x8): the dense (n, n) map alone is 128 MiB.
        # The map's value stack and each attention thread's partial sums are
        # one column wide, so every pool width fits in the same bound.
        lat, out = tmp_path / "x.spfu", tmp_path / "map.csv"
        cfg = tmp_path / "big.cfg"
        cfg.write_text("shape = 8,64,8,8\nseed = 3\nnoise_level = 1.0\n")
        run_cli("scene", "--config", str(cfg), "--out", str(lat))
        for width in (1, 2, 4, 8):
            tracemalloc.start()
            try:
                with mock.patch.object(config, "pool_width", return_value=width):
                    code, _ = run_cli("attnmap", "--input", str(lat), "--weights-seed", "2",
                                      "--out", str(out))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            assert len(out.read_text().strip().split("\n")) == 64
            assert peak < 10 << 20, f"attnmap peaked at {peak / 2**20:.1f} MiB at width {width}"


class TestSelftestCommand:
    def test_passes_and_reproduces(self):
        code1, out1 = run_cli("selftest")
        code2, out2 = run_cli("selftest")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().split("\n")[-1].endswith("0 failed")


class TestParser:
    def test_built_once_per_process(self):
        assert _build_parser() is _build_parser()

    def test_choices_are_the_library_vocabularies(self):
        commands = next(a for a in _build_parser()._actions if a.choices).choices
        found = [(command, action.dest, action.choices) for command, sub in commands.items()
                 for action in sub._actions if action.choices]
        assert [f[:2] for f in found] == [("blend", "domain"), ("analyze", "domain")]
        assert all(f[2] is config.DOMAIN_MODES for f in found)

    @pytest.mark.parametrize("command, flag, value", [
        ("blend", "--domain", "polar"), ("analyze", "--domain", "Temporal")])
    def test_bad_choice_is_a_usage_error(self, tmp_path, scene_file, command, flag, value):
        lat = tmp_path / "x.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        out = tmp_path / "out"
        argv = {"blend": ["--global", str(lat), "--local", str(lat)],
                "analyze": ["--ref", str(lat), "--ext", str(lat)]}[command]
        stderr = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stderr(stderr):
            main([command, *argv, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert stderr.getvalue().startswith("usage: specfuse " + command)
        assert f"argument {flag}: invalid choice: '{value}'" in stderr.getvalue()
        assert not out.exists()

    def test_usage_error_then_fuse_matches_a_lone_fuse(self, tmp_path, scene_file, plan_file):
        lat = tmp_path / "x.spfu"
        run_cli("scene", "--config", str(scene_file), "--out", str(lat))
        fuse = ["fuse", "--input", str(lat), "--plan", str(plan_file), "--weights-seed", "3"]
        lone = tmp_path / "lone.spfu"
        proc = subprocess.run([sys.executable, "-m", "specfuse.cli", *fuse, "--out", str(lone)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            main(["fuse", "--input", str(lat), "--weights-seed", "x"])
        assert exc.value.code == 2
        after = tmp_path / "after.spfu"
        assert run_cli(*fuse, "--out", str(after))[0] == 0
        assert after.read_bytes() == lone.read_bytes()


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

        for value, line in (("abc", "error: SPFU_THREADS must be an integer, got 'abc'\n"),
                            ("-3", "error: SPFU_THREADS must be >= 0, got -3\n")):
            env = dict(os.environ, SPFU_THREADS=value)
            proc = subprocess.run(
                [sys.executable, "-m", "specfuse.cli", "selftest"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 1
            assert proc.stderr == line

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
             "from specfuse.config import pool_width; print(pool_width())"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_thread_cap_overrides_blas_pools_already_set(self, tmp_path):
        import os

        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = dict(os.environ, SPFU_THREADS="1", **dict.fromkeys(blas, "4"))
        script = ("import os, sys; from specfuse.cli import main; "
                  "code = main(['specmix', '--frames', '8', '--t-alpha', '8', '--out', sys.argv[1]]); "
                  f"print(code, *(os.environ[var] for var in {blas!r}))")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "x.spfu")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1", "1", "1"]
