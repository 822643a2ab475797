import csv
import struct
from dataclasses import replace

import numpy as np
import pytest

from carp import Hyperparams, StatsLattice, cli, codec, compress, save
from carp.cli import main

from conftest import (forged_huge_dims_stream, random_grid, stray_coefficient_stream,
                      synthetic_photo)


@pytest.fixture()
def photo_path(tmp_path):
    path = tmp_path / "photo.pgm"
    save(synthetic_photo(128, seed=31), str(path))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCompressDecompress:
    def test_roundtrip_and_info(self, photo_path, tmp_path, capsys):
        out = str(tmp_path / "photo.carp")
        assert main(["compress", photo_path, out, "--sigma", "4"]) == 0
        assert main(["info", out]) == 0
        info = capsys.readouterr().out
        assert "sigma: 4" in info
        assert "compression ratio:" in info
        recon = str(tmp_path / "recon.pgm")
        assert main(["decompress", out, recon]) == 0
        assert main(["metrics", photo_path, recon]) == 0
        lines = capsys.readouterr().out
        assert "psnr_db:" in lines and "ms_ssim:" in lines

    def test_target_ratio_flag(self, photo_path, tmp_path, capsys):
        out = str(tmp_path / "rate.carp")
        assert main(["compress", photo_path, out, "--target-ratio", "8",
                     "--tol", "0.2"]) == 0
        assert main(["info", out]) == 0
        ratio = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("compression ratio:")][0]
        assert 8 * 0.8 <= float(ratio.split(":")[1]) <= 8 * 1.2

    def test_byte_identical_reruns(self, photo_path, tmp_path):
        out1 = tmp_path / "a.carp"
        out2 = tmp_path / "b.carp"
        main(["compress", photo_path, str(out1), "--sigma", "2"])
        main(["compress", photo_path, str(out2), "--sigma", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_prefix_scales_flag(self, photo_path, tmp_path):
        out = str(tmp_path / "p.carp")
        main(["compress", photo_path, out, "--sigma", "4"])
        recon = str(tmp_path / "coarse.pgm")
        assert main(["decompress", out, recon, "--prefix-scales", "4"]) == 0

    def test_hyper_overrides(self, photo_path, tmp_path, capsys):
        out = str(tmp_path / "h.carp")
        assert main(["compress", photo_path, out, "--sigma", "2",
                     "--eta0", "0.6", "--alpha", "1.0"]) == 0
        main(["info", out])
        text = capsys.readouterr().out
        assert "eta0=0.6" in text and "alpha=1" in text

    def test_empirical_bayes_flag(self, tmp_path, capsys):
        small = tmp_path / "small.pgm"
        save(synthetic_photo(64, seed=33), str(small))
        out = str(tmp_path / "eb.carp")
        assert main(["compress", str(small), out, "--sigma", "2",
                     "--empirical-bayes"]) == 0
        main(["info", out])
        assert "hyperparams:" in capsys.readouterr().out

    @pytest.mark.parametrize("rate", [["--sigma", "2"], ["--target-ratio", "8"]])
    def test_empirical_bayes_shares_one_stats_build(self, tmp_path, monkeypatch, rate):
        small = tmp_path / "small.pgm"
        save(synthetic_photo(64, seed=33), str(small))
        builds = []
        original = StatsLattice.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(StatsLattice, "__init__", counting)
        assert main(["compress", str(small), str(tmp_path / "eb.carp"), *rate,
                     "--empirical-bayes"]) == 0
        assert len(builds) == 1


class TestExitCodes:
    def test_usage_error_is_exit_2(self, photo_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compress", photo_path, str(tmp_path / "x.carp")])
        assert err.value.code == 2

    def test_mutually_exclusive_rate_flags(self, photo_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compress", photo_path, str(tmp_path / "x.carp"),
                  "--sigma", "1", "--target-ratio", "5"])
        assert err.value.code == 2

    def test_q_conflicts_with_target_ratio(self, photo_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["compress", photo_path, str(tmp_path / "x.carp"),
                  "--target-ratio", "5", "--q", "2"])
        assert err.value.code == 2

    def test_tau0_conflicts_with_target_ratio(self, photo_path, tmp_path, capsys):
        out = tmp_path / "x.carp"
        with pytest.raises(SystemExit) as err:
            main(["compress", photo_path, str(out), "--target-ratio", "8", "--tau0", "5"])
        assert err.value.code == 2
        assert "--tau0" in capsys.readouterr().err
        assert not out.exists()

    def test_tau0_conflicts_with_sweep_ratios(self, photo_path, tmp_path, capsys):
        out = tmp_path / "rd.csv"
        with pytest.raises(SystemExit) as err:
            main(["sweep", photo_path, str(out), "--ratios", "4,8", "--tau0", "5"])
        assert err.value.code == 2
        assert "--tau0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_usage_error(self, photo_path, tmp_path, capsys,
                                                workers):
        out = tmp_path / "rd.csv"
        with pytest.raises(SystemExit) as err:
            main(["sweep", photo_path, str(out), "--sigmas", "2", "--workers", workers])
        assert err.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_environment_sets_no_default(self, monkeypatch, capsys):
        monkeypatch.setenv("CARP_WORKERS", "abc")
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "carp" in capsys.readouterr().out
        assert cli.build_parser().parse_args(
            ["sweep", "in.pgm", "out.csv", "--sigmas", "2"]).workers == 1

    def test_empirical_bayes_is_a_compress_flag(self, photo_path, tmp_path, capsys):
        out = tmp_path / "rd.csv"
        with pytest.raises(SystemExit) as err:
            main(["sweep", photo_path, str(out), "--sigmas", "2,8", "--empirical-bayes"])
        assert err.value.code == 2
        assert "--empirical-bayes" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_empirical_bayes_is_exit_1_before_the_fit(
            self, photo_path, tmp_path, monkeypatch, capsys):
        fits = []
        monkeypatch.setattr(cli, "empirical_bayes_fit",
                            lambda *args, **kwargs: fits.append(1))
        monkeypatch.setattr(codec, "DEFAULT_MAX_BYTES", 1 << 20)
        out = tmp_path / "x.carp"
        for rate in (["--sigma", "2"], ["--target-ratio", "8"]):
            assert main(["compress", photo_path, str(out), *rate,
                         "--empirical-bayes"]) == 1
        err = capsys.readouterr().err
        assert "ResourceError" in err and "budget" in err
        assert "Traceback" not in err
        assert not fits and not out.exists()

    def test_pipeline_error_is_exit_1(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "missing.carp")]) == 1
        assert "carp info" in capsys.readouterr().err

    def test_corrupt_stream_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.carp"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["decompress", str(bad), str(tmp_path / "y.pgm")]) == 1
        assert "StreamError" in capsys.readouterr().err

    def test_negative_zero_run_is_exit_1(self, tmp_path, capsys):
        # canonical codes: -5 -> "0", 4 -> "1"; the payload opens with the
        # zero-run token -5 (a run of -2) and then a literal
        stream = compress(random_grid(np.random.default_rng(7), (4, 4)),
                          Hyperparams(sigma=1.0))
        hostile = replace(stream.channels[0], code_lengths={-5: 1, 4: 1},
                          payload=b"\x40\x00", payload_nbits=16)
        bad = tmp_path / "hostile.carp"
        replace(stream, channels=[hostile]).write_file(str(bad))
        assert main(["decompress", str(bad), str(tmp_path / "y.pgm")]) == 1
        err = capsys.readouterr().err
        assert "StreamError" in err and "Traceback" not in err

    def test_stray_coefficient_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "stray.carp"
        bad.write_bytes(stray_coefficient_stream())
        assert main(["decompress", str(bad), str(tmp_path / "y.pgm")]) == 1
        err = capsys.readouterr().err
        assert "StreamError" in err and "Traceback" not in err
        assert not (tmp_path / "y.pgm").exists()

    def test_huge_header_dims_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "huge.carp"
        bad.write_bytes(forged_huge_dims_stream())
        assert main(["decompress", str(bad), str(tmp_path / "y.pgm")]) == 1
        err = capsys.readouterr().err
        assert "ResourceError" in err and "Traceback" not in err
        assert not (tmp_path / "y.pgm").exists()

    def test_nan_q_is_exit_1(self, tmp_path, capsys):
        stream = compress(random_grid(np.random.default_rng(8), (4, 4)),
                          Hyperparams(sigma=1.0))
        data = bytearray(stream.to_bytes())
        data[17:25] = struct.pack("<d", float("nan"))  # q follows magic, 5 bytes, sigma
        bad = tmp_path / "nan_q.carp"
        bad.write_bytes(bytes(data))
        assert main(["decompress", str(bad), str(tmp_path / "y.pgm")]) == 1
        err = capsys.readouterr().err
        assert "StreamError" in err and "Traceback" not in err
        assert not (tmp_path / "y.pgm").exists()


    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_non_finite_q_compress_is_exit_1(self, photo_path, tmp_path, capsys, q):
        out = tmp_path / "x.carp"
        assert main(["compress", photo_path, str(out), "--sigma", "1", "--q", q]) == 1
        err = capsys.readouterr().err
        assert "quantizer step" in err and "Traceback" not in err
        assert not out.exists()

    def test_trailing_bytes_is_exit_1(self, photo_path, tmp_path, capsys):
        out = tmp_path / "x.carp"
        assert main(["compress", photo_path, str(out), "--sigma", "4"]) == 0
        out.write_bytes(out.read_bytes() + b"junk")
        assert main(["decompress", str(out), str(tmp_path / "y.pgm")]) == 1
        err = capsys.readouterr().err
        assert "trailing bytes" in err and "Traceback" not in err
        assert not (tmp_path / "y.pgm").exists()


class TestSweep:
    def test_sigma_sweep_csv(self, photo_path, tmp_path):
        out_csv = str(tmp_path / "sweep.csv")
        assert main(["sweep", photo_path, out_csv,
                     "--sigmas", "1,2,4,8,16,32"]) == 0
        rows = read_csv(out_csv)
        assert [r["sigma"] for r in rows] == ["1", "2", "4", "8", "16", "32"]
        ratios = [float(r["ratio"]) for r in rows]
        assert all(r > 0 for r in ratios)
        assert ratios == sorted(ratios)
        for row in rows:
            assert float(row["encode_ms"]) > 0
            assert float(row["decode_ms"]) > 0
            assert 0 < float(row["ms_ssim"]) <= 1

    def test_csv_stable_outside_timings(self, photo_path, tmp_path):
        a_csv, b_csv = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["sweep", photo_path, a_csv, "--sigmas", "2,8"])
        main(["sweep", photo_path, b_csv, "--sigmas", "2,8"])
        strip = lambda rows: [
            {k: v for k, v in r.items() if not k.endswith("_ms")} for r in rows]
        assert strip(read_csv(a_csv)) == strip(read_csv(b_csv))

    def test_parallel_workers_match_serial(self, photo_path, tmp_path):
        serial_csv = str(tmp_path / "serial.csv")
        parallel_csv = str(tmp_path / "parallel.csv")
        main(["sweep", photo_path, serial_csv, "--sigmas", "1,4"])
        assert main(["sweep", photo_path, parallel_csv, "--sigmas", "1,4",
                     "--workers", "2"]) == 0
        strip = lambda rows: [
            {k: v for k, v in r.items() if not k.endswith("_ms")} for r in rows]
        assert strip(read_csv(serial_csv)) == strip(read_csv(parallel_csv))

    def test_ratio_grid(self, photo_path, tmp_path):
        out_csv = str(tmp_path / "ratios.csv")
        assert main(["sweep", photo_path, out_csv, "--ratios", "5,10",
                     "--tol", "0.15"]) == 0
        rows = read_csv(out_csv)
        assert 5 * 0.85 <= float(rows[0]["ratio"]) <= 5 * 1.15
        assert 10 * 0.85 <= float(rows[1]["ratio"]) <= 10 * 1.15


class TestProgressive:
    def test_prefix_images_and_csv(self, photo_path, tmp_path):
        stream_path = str(tmp_path / "p.carp")
        main(["compress", photo_path, stream_path, "--sigma", "4"])
        out_dir = tmp_path / "prefixes"
        assert main(["progressive", stream_path, photo_path, str(out_dir),
                     "--scales", "2,4,8"]) == 0
        rows = read_csv(out_dir / "progressive.csv")
        assert [r["scales"] for r in rows] == ["2", "4", "8", "14"]
        psnrs = [float(r["psnr_db"]) for r in rows]
        bits = [int(r["bits_used"]) for r in rows]
        assert bits == sorted(bits)
        for lo, hi in zip(psnrs, psnrs[1:]):
            assert hi >= lo - 0.1
        assert (out_dir / "prefix_02.pgm").exists()
        assert (out_dir / "prefix_14.pgm").exists()
