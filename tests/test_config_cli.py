import numpy as np
import pytest

from binauralize import tensorfile, wavio
from binauralize.cli import main
from binauralize.config import ConfigError, parse_config


class TestConfig:
    def test_empty_gives_full_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.get("stft", "fft_size") == 512
        assert cfg.get("stft", "window_size") == 400
        assert cfg.get("stft", "hop") == 160
        assert cfg.get("train", "lambda_b") == 10.0
        assert cfg.get("train", "lambda_g") == 0.01
        assert cfg.get("train", "batch_size") == 64
        assert cfg.get("train", "lr_audio") == 1e-3
        assert cfg.get("train", "lr_other") == 1e-4

    def test_file_overrides_defaults_and_set_overrides_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[train]\nlambda_g = 0.5\nepochs = 7\n")
        cfg = parse_config(path)
        assert cfg.get("train", "lambda_g") == 0.5
        cfg2 = parse_config(path, overrides=["train.lambda_g=0"])
        assert cfg2.get("train", "lambda_g") == 0.0
        assert cfg2.get("train", "epochs") == 7

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nlearning = 0.1\n")
        with pytest.raises(ConfigError, match="train.learning"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match="optimizer"):
            parse_config(path)

    def test_malformed_numeric_names_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nepochs = lots\n")
        with pytest.raises(ConfigError, match="train.epochs"):
            parse_config(path)

    def test_digest_stable_and_sensitive(self):
        a = parse_config()
        b = parse_config()
        c = parse_config(overrides=["train.seed=99"])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_adapters_build_module_configs(self):
        cfg = parse_config(overrides=["model.unet_channels=2,4,8"])
        assert cfg.arch().unet_channels == (2, 4, 8)
        assert cfg.stft_params().hop == 160
        assert cfg.scene_cfg().duration == 20.0
        assert cfg.train_cfg(seed=5).seed == 5
        assert cfg.loss_weights().lambda_b == 10.0


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_config_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nope]\nx = 1\n")
        code = main(["model-info", "--config", str(bad)])
        assert code == 2

    def test_nonpositive_schedule_flags_exit_2(self, tmp_path, capsys):
        for flag in ("--epochs", "--batch-size"):
            for value in ("0", "-3"):
                with pytest.raises(SystemExit) as exc:
                    main(["train", "--data", str(tmp_path / "missing"),
                          "--out", str(tmp_path / "m.ckpt"), flag, value])
                assert exc.value.code == 2
                assert "must be positive" in capsys.readouterr().err

    def test_model_info_runs(self, capsys):
        code = main(["model-info", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total" in out and "budget" in out
        assert "seed 0" in out  # reproducibility header

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BINAURALIZE_SEED", "1234")
        assert main(["model-info"]) == 0
        assert "seed 1234" in capsys.readouterr().out

    def test_gen_data_deterministic_checksums(self, tmp_path):
        import hashlib
        args = ["gen-data", "--seed", "3", "--scenes", "2", "--val", "1",
                "--test", "1", "--split", "scene",
                "--set", "scene.duration=10"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0

        def checksum(root):
            h = hashlib.sha256()
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    h.update(p.relative_to(root).as_posix().encode())
                    h.update(p.read_bytes())
            return h.hexdigest()

        assert checksum(tmp_path / "a") == checksum(tmp_path / "b")

    def test_infer_round_trip(self, tmp_path):
        from binauralize.nn import ArchConfig, init_params, save_checkpoint

        arch = ArchConfig()
        params = {k: v.astype(np.float32) for k, v in init_params(arch, 0).items()}
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, params, arch)
        rng = np.random.default_rng(0)
        mono = rng.uniform(-0.3, 0.3, 16000 * 2)
        wavio.write_wav(tmp_path / "in.wav", mono, 16000, fmt="float32")
        obs = rng.integers(0, 255, size=(20, 32, 64, 3)).astype(np.uint8)
        tensorfile.save_tensor(tmp_path / "obs.bnt", obs)
        code = main(["infer", "--mono", str(tmp_path / "in.wav"),
                     "--obs", str(tmp_path / "obs.bnt"),
                     "--ckpt", str(ckpt), "--out", str(tmp_path / "out.wav")])
        assert code == 0
        out, sr = wavio.read_wav(tmp_path / "out.wav")
        assert sr == 16000 and out.shape == (32000, 2)
        # identity-init checkpoint: both channels equal the (quantized) mono
        np.testing.assert_array_equal(out[:, 0], out[:, 1])

    def test_infer_rejects_other_sample_rates(self, tmp_path, capsys):
        from binauralize.nn import ArchConfig, init_params, save_checkpoint

        arch = ArchConfig()
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_params(arch, 0), arch)
        mono = np.random.default_rng(0).uniform(-0.3, 0.3, 44100 * 2)
        wavio.write_wav(tmp_path / "in.wav", mono, 44100, fmt="float32")
        obs = np.zeros((20, 32, 64, 3), dtype=np.uint8)
        tensorfile.save_tensor(tmp_path / "obs.bnt", obs)
        code = main(["infer", "--mono", str(tmp_path / "in.wav"),
                     "--obs", str(tmp_path / "obs.bnt"),
                     "--ckpt", str(ckpt), "--out", str(tmp_path / "out.wav")])
        assert code == 1
        assert "44100 Hz; the model expects 16000 Hz" in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    def test_gradcheck_subcommand(self):
        assert main(["gradcheck", "--seed", "7"]) == 0
