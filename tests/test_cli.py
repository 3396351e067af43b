import os
import subprocess
import sys

import pytest

import agvm
import agvm.harness
from agvm.cli import main

FAST_ARGS = ["--total_iterations=30", "--batch_size=16", "--n_samples=128",
             "--trunk_widths=16", "--levels=2", "--input_dim=8", "--head_width=8",
             "--warmup_iters=5", "--tau=10"]


def child_env():
    """Environment for a child `python -m agvm` that imports this very package.

    The package's source root goes first on PYTHONPATH as an absolute path, so the
    child finds the same agvm as this process (not a stale installed copy), whatever
    its working directory and whether or not inherited PYTHONPATH entries are relative.
    """
    env = dict(os.environ)
    env.pop("AGVM_SEED", None)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(agvm.__file__)))
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + inherited if inherited else "")
    return env


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestTrain:
    def test_writes_csv_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        out_csv = tmp_path / "trace.csv"
        code, out, err = run_main(["train", "--out", str(out_csv)] + FAST_ARGS, capsys)
        assert code == 0, err
        assert out_csv.exists()
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "iter,module,phi,mu,eff_lr,loss,grad_norm_sq"
        assert len(lines) == 1 + (30 // 10 + 1) * 3
        assert "final_loss=" in out and "status=ok" in out

    def test_config_file_plus_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("total_iterations = 30\nbatch_size = 16\nn_samples = 128\n"
                       "trunk_widths = 16\nlevels = 2\ninput_dim = 8\nhead_width = 8\n"
                       "warmup_iters = 5\nseed = 3\n")
        code, out, _ = run_main(["train", "--config", str(cfg), "--seed=4"], capsys)
        assert code == 0

    def test_unknown_override_is_error(self, capsys):
        code, out, err = run_main(["train", "--no_such_key=1"] + FAST_ARGS, capsys)
        assert code == 1
        assert "unknown config key" in err

    def test_env_seed_changes_run(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("AGVM_SEED", "11")
        assert run_main(["train", "--out", str(out1)] + FAST_ARGS, capsys)[0] == 0
        monkeypatch.setenv("AGVM_SEED", "12")
        assert run_main(["train", "--out", str(out2)] + FAST_ARGS, capsys)[0] == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_same_env_seed_byte_identical(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("AGVM_SEED", "11")
        assert run_main(["train", "--out", str(out1)] + FAST_ARGS, capsys)[0] == 0
        assert run_main(["train", "--out", str(out2)] + FAST_ARGS, capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestInvalidValues:
    @pytest.mark.parametrize("flags", [
        ["--anchor=5"], ["--clip_lo=2"], ["--alpha=1.0"], ["--eps_ratio=0"],
        ["--optimizer=adamw", "--beta2=1.0"], ["--batch_size=abc"], ["--n_samples=1e3"],
        ["--trunk_widths=32,x"], ["--base_lr=-1"], ["--base_lr=inf"], ["--noise_std=nan"],
        ["--decay_factor=nan"], ["--seed=-1"], ["--base_batch=0"], ["--ablation=mask:abc"],
        ["--levels=0"], ["--head_mode=both", "--alpha=2"],
        # a valid config whose dataset cannot be allocated: numpy's MemoryError
        ["--input_dim=100000000000"],
        # learning rates that overflow: an OverflowError from the milestone
        # decays' power, and a peak that read as a numerical divergence
        ["--decay_factor=1e308", "--milestones=1,2", "--total_iterations=5", "--warmup_iters=0"],
        ["--base_lr=1e308", "--total_iterations=5", "--warmup_iters=0"],
    ])
    def test_exit_1_with_an_error_line_and_no_traceback(self, flags, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        code, out, err = run_main(["train", "--total_iterations=20", "--warmup_iters=5"]
                                  + flags, capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in out + err
        assert "status=" not in out


class TestOversizedSizeKeys:
    # each value sizes an array beyond the elements numpy can index
    @pytest.mark.parametrize("key,value", [
        ("proposals", "99999999999999999999999"), ("input_dim", "99999999999999999999999"),
        ("head_width", "99999999999999999999999"), ("output_dim", "99999999999999999999999"),
        ("n_samples", "99999999999999999999999"),
        # divisible by 2^(levels-1), so only its size is wrong
        ("trunk_widths", "80000000000000000000000"),
    ])
    def test_rejected_by_key_before_anything_is_built(self, key, value, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)

        def unreachable(*args, **kwargs):
            raise AssertionError("the dataset was built for an oversized config")

        monkeypatch.setattr(agvm.harness, "make_dataset", unreachable)
        code, out, err = run_main(["train", "--total_iterations=2", "--warmup_iters=0",
                                   "--n_samples=16", "--batch_size=8", f"--{key}={value}"],
                                  capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert key in err and "exceed numpy" in err
        assert "Traceback" not in out + err
        assert out == ""


class TestInvalidOracleCheck:
    @pytest.mark.parametrize("flags", [["--resamples", "5"], ["--seed", "-5"], ["--seed=x"],
                                       ["--resamples=abc"]])
    def test_exit_1_with_an_error_line_and_no_traceback(self, flags, capsys):
        code, out, err = run_main(["oracle-check"] + flags, capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in out + err
        assert out == ""


class TestInvalidGradCheck:
    # the last one's loss is not finite
    @pytest.mark.parametrize("flags", [["--probes", "0"], ["--probes=-3"], ["--probes=abc"],
                                       ["--noise_std=1e300"]])
    def test_exit_1_with_an_error_line_and_no_traceback(self, flags, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        code, out, err = run_main(["grad-check"] + flags + FAST_ARGS, capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in out + err
        assert out == ""


class TestOtherCommands:
    def test_variance_trace(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        out_csv = tmp_path / "var.csv"
        code, out, _ = run_main(["variance-trace", "--out", str(out_csv)] + FAST_ARGS,
                                capsys)
        assert code == 0
        assert out_csv.exists()

    def test_grad_check(self, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        code, out, _ = run_main(["grad-check", "--probes", "5"] + FAST_ARGS, capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("max_rel_err=")][0]
        assert float(line.split("=")[1]) < 1e-5

    def test_grad_check_prints_probes_made(self, capsys, monkeypatch):
        # a 15-coordinate model: more probes than coordinates probe each once
        monkeypatch.delenv("AGVM_SEED", raising=False)
        code, out, _ = run_main(
            ["grad-check", "--probes=100000", "--input_dim=2", "--trunk_widths=2",
             "--levels=1", "--pyramid=false", "--head_width=2", "--output_dim=1",
             "--n_samples=16", "--batch_size=8", "--total_iterations=20",
             "--warmup_iters=5"], capsys)
        assert code == 0
        assert "probes=15" in out.splitlines()

    def test_oracle_check(self, capsys):
        code, out, _ = run_main(["oracle-check", "--resamples", "100"], capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("max_rel_err=")][0]
        assert float(line.split("=")[1]) < 0.2

    def test_ablate(self, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        code, out, _ = run_main(["ablate"] + FAST_ARGS, capsys)
        assert code == 0
        for arm in ("[shared]", "[independent_heads]", "[no_pyramid]", "[mask_75]",
                    "[proposals_1]", "[proposals_8]"):
            assert arm in out

    def test_ablate_has_no_out_dir_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("AGVM_SEED", raising=False)
        code, out, err = run_main(["ablate", "--out-dir=x"] + FAST_ARGS, capsys)
        assert code == 1
        assert err.startswith("error: unknown config key")
        assert out == ""


class TestEntryPoint:
    def test_a_run_gives_the_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot over more than 10,000 elements across its threads
        runs = [
            # each level's loss has 128 rows x 8 proposals x 16 outputs = 16,384 elements
            ["variance-trace", "--levels=2", "--batch_size=128", "--n_samples=512",
             "--total_iterations=40", "--tau=1", "--input_dim=8", "--trunk_widths=8",
             "--head_width=8", "--output_dim=16", "--proposals=8",
             "--proposal_noise_std=0.5", "--warmup_iters=0", "--seed=3"],
            # the trunk module holds 64 x 160 + 160 = 10,400 parameters
            ["train", "--input_dim=64", "--trunk_widths=160", "--levels=4", "--head_width=16",
             "--output_dim=4", "--batch_size=64", "--n_samples=256", "--total_iterations=40",
             "--tau=1", "--warmup_iters=0", "--seed=3"],
        ]
        for args in runs:
            outputs = []
            for threads in ("1", "2"):
                path = tmp_path / f"threads{threads}.csv"
                env = dict(child_env(), OPENBLAS_NUM_THREADS=threads)
                proc = subprocess.run([sys.executable, "-m", "agvm"] + args + [f"--out={path}"],
                                      capture_output=True, text=True, env=env,
                                      cwd=str(tmp_path))
                assert proc.returncode == 0, proc.stderr
                outputs.append((path.read_bytes(), proc.stdout))
            assert outputs[0] == outputs[1], args[0]

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "agvm", "train"] + FAST_ARGS,
            capture_output=True, text=True, env=child_env(), cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "status=ok" in proc.stdout
