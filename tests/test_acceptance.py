"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The small-image criteria check the fitted model against brute-force
enumeration over every pruned partition tree; the desk-scale criteria
check the qualitative codec behaviors (progressive refinement, the
monotone rate knob, linear scaling, and a rate-distortion sanity floor)
on deterministic synthetic photographs.
"""

import math
import time

import numpy as np
import pytest

from carp import (Hyperparams, PixelGrid, build_posterior, compress,
                  decompress, extract_map_tree, haar_forward, haar_inverse,
                  ms_ssim, psnr, target_ratio_search)
from carp.huffman import (build_code_lengths, canonical_codes, decode_symbols,
                          encode_symbols, histogram, kraft_sum)
from carp.lattice import _halves, build_stats
from carp.codec import default_q
from carp.stream import deserialize_tree, serialize_tree

from conftest import random_grid, same_tree, synthetic_photo
from oracles import (brute_force_map, map_tree_log_posterior,
                     reference_ms_ssim, reference_posterior, tree_to_structure)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {description}: {status}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"


# ---------------------------------------------------------------------------
# Shared oracle instances (criteria 1 and 2)
# ---------------------------------------------------------------------------

ORACLE_SHAPES = [(2,), (2, 2), (2, 4), (4, 4)]
ORACLE_PER_SHAPE = 25


@pytest.fixture(scope="module")
def oracle_instances():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    instances = []
    for shape in ORACLE_SHAPES:
        for _ in range(ORACLE_PER_SHAPE):
            image = rng.integers(0, 256, size=shape).astype(float)
            hp = Hyperparams(sigma=float(rng.uniform(0.5, 16.0)))
            grid = PixelGrid.from_array(image)
            post = build_posterior(grid, hp)
            tree = extract_map_tree(post)
            best, best_log_post, brute_lp = brute_force_map(image, hp)
            instances.append({
                "hp": hp,
                "recursion_lp": post.log_marginal,
                "brute_lp": brute_lp,
                "kappa_root": post.log_map,
                "tree_structure": tree_to_structure(tree),
                "tree_log_post": map_tree_log_posterior(
                    tree, reference_posterior(post.stats, hp)),
                "best_structures": best,
                "best_log_post": best_log_post,
            })
    elapsed = time.perf_counter() - t0
    return instances, elapsed


def test_criterion_01_likelihood_oracle(oracle_instances):
    instances, elapsed = oracle_instances
    worst = 0.0
    for inst in instances:
        rel = (abs(inst["recursion_lp"] - inst["brute_lp"])
               / max(1.0, abs(inst["brute_lp"])))
        worst = max(worst, rel)
    ok = len(instances) >= 100 and worst <= 1e-8 and elapsed < 60.0
    _report(1, "log marginal equals exhaustive enumeration", ok,
            f"{len(instances)} instances, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_map_oracle(oracle_instances):
    instances, _ = oracle_instances
    worst_kappa = 0.0
    mismatches = 0
    for inst in instances:
        diff = abs(inst["kappa_root"] - inst["best_log_post"])
        worst_kappa = max(worst_kappa, diff / max(1.0, abs(inst["best_log_post"])))
        # extracted tree must reach the optimum; when the argmax is unique it
        # must match structurally, ties defer to the fixed axis ordering
        reaches_optimum = (abs(inst["tree_log_post"] - inst["best_log_post"])
                           <= 1e-9 * max(1.0, abs(inst["best_log_post"])))
        structural = inst["tree_structure"] in inst["best_structures"]
        if not (reaches_optimum and structural):
            mismatches += 1
    ok = worst_kappa <= 1e-8 and mismatches == 0
    _report(2, "MAP tree equals exhaustive posterior argmax", ok,
            f"kappa worst rel {worst_kappa:.2e}, {mismatches} mismatches")


def test_criterion_03_two_pixel_closed_form():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        a, b = rng.uniform(0, 255, size=2)
        sigma = float(rng.uniform(0.5, 8.0))
        eta0 = float(rng.choice([0.0, 0.2, 0.4, 0.8]))
        hp = Hyperparams(sigma=sigma, eta0=eta0)
        grid = PixelGrid.from_array(np.array([a, b]))
        lp = build_posterior(grid, hp).log_marginal

        w = (a - b) / math.sqrt(2.0)  # SST of two pixels is w^2
        rho = hp.rho(0)
        tau0 = hp.tau0

        def log_normal(x, var):
            return -0.5 * (math.log(2 * math.pi * var) + x * x / var)

        terms = []
        if eta0 > 0:
            terms.append(math.log(eta0) + log_normal(w, sigma**2))
        terms.append(math.log1p(-eta0) + float(np.logaddexp(
            math.log(rho) + log_normal(w, (1 + tau0**2) * sigma**2),
            math.log1p(-rho) + log_normal(w, sigma**2))))
        peak = max(terms)
        closed = peak + math.log(sum(math.exp(t - peak) for t in terms))
        worst = max(worst, abs(lp - closed) / max(1.0, abs(closed)))
    ok = worst <= 1e-12
    _report(3, "two-pixel marginal matches the closed form", ok,
            f"worst rel {worst:.2e}")


def test_criterion_04_transform():
    rng = np.random.default_rng(8)
    worst_roundtrip = 0.0
    worst_energy = 0.0
    for k in (0, 1, 4, 8, 12, 16):
        v = rng.normal(scale=100.0, size=2**k)
        c = haar_forward(v)
        worst_roundtrip = max(worst_roundtrip,
                              float(np.max(np.abs(haar_inverse(c) - v))))
        energy = float(np.sum(v * v))
        if energy:
            worst_energy = max(worst_energy,
                               abs(float(np.sum(c * c)) - energy) / energy)

    worst_split = 0.0
    grid = random_grid(rng, (8, 8, 8))
    stats = build_stats(grid)
    for shape in stats.shapes:
        for d in [i for i, a in enumerate(shape) if a > 0]:
            child = tuple(a - 1 if i == d else a for i, a in enumerate(shape))
            left, right = _halves(3, d)
            w = stats.haar_array(shape, d)
            recon = stats.ssts[child][left] + stats.ssts[child][right] + w * w
            denom = np.maximum(np.abs(stats.ssts[shape]), 1.0)
            worst_split = max(worst_split,
                              float(np.max(np.abs(stats.ssts[shape] - recon) / denom)))
    ok = worst_roundtrip < 1e-10 and worst_energy <= 1e-9 and worst_split <= 1e-9
    _report(4, "Haar roundtrip, energy equality, split identity", ok,
            f"roundtrip {worst_roundtrip:.2e}, energy {worst_energy:.2e}, "
            f"split {worst_split:.2e}")


def test_criterion_05_entropy_coding():
    rng = np.random.default_rng(9)
    failures = 0
    worst_kraft = 0.0
    for i in range(10_000):
        if i % 100 == 0:
            symbols = [int(rng.integers(-500, 500))] * int(rng.integers(1, 50))
        else:
            n_syms = int(rng.integers(1, 12))
            alphabet = rng.choice(np.arange(-64, 64), size=n_syms, replace=False)
            symbols = [int(s) for s in
                       rng.choice(alphabet, size=int(rng.integers(1, 64)))]
        lengths = build_code_lengths(histogram(symbols))
        worst_kraft = max(worst_kraft, kraft_sum(lengths))
        codes = canonical_codes(lengths)
        payload, nbits = encode_symbols(symbols, codes)
        decoded, ends = decode_symbols(payload, nbits, lengths, len(symbols))
        if decoded.tolist() != symbols or ends[-1] != nbits:
            failures += 1

    tree_failures = 0
    for trial in range(10):
        shape = [(8, 8), (16, 16), (64, 64)][trial % 3]
        grid = random_grid(rng, shape)
        hp = Hyperparams(sigma=float(rng.uniform(0.5, 16.0)))
        tree = extract_map_tree(build_posterior(grid, hp))
        bits, nbits = serialize_tree(tree)
        if not same_tree(deserialize_tree(bits, nbits, tree.dims_padded), tree):
            tree_failures += 1
    ok = failures == 0 and worst_kraft <= 1.0 + 1e-12 and tree_failures == 0
    _report(5, "Huffman and tree serialization roundtrips", ok,
            f"10k streams, kraft max {worst_kraft:.6f}, "
            f"{tree_failures} tree failures")


def test_criterion_06_end_to_end():
    grid = PixelGrid.from_array(np.full((256, 256), 201.0))
    stream = compress(grid, Hyperparams(sigma=4.0))
    tiny = stream.size_bytes < 0.01 * grid.raw_bytes
    exact = np.array_equal(np.rint(decompress(stream).values), grid.values)

    rng = np.random.default_rng(10)
    worst_rms = 0.0
    hp = Hyperparams(sigma=0.01, eta0=0.0)
    q = default_q(hp.sigma)
    for _ in range(3):
        noisy = random_grid(rng, (64, 64))
        recon = decompress(compress(noisy, hp))
        rms = float(np.sqrt(np.mean((recon.values - noisy.values) ** 2)))
        worst_rms = max(worst_rms, rms)
    ok = tiny and exact and worst_rms <= q / 2 * 1.01
    _report(6, "constant image < 1% and exact; near-lossless RMS bound", ok,
            f"{stream.size_bytes}B of {grid.raw_bytes}B, "
            f"rms {worst_rms:.4f} <= {q / 2 * 1.01:.4f}")


def test_criterion_07_progressive(photo512):
    stream = compress(photo512, Hyperparams(sigma=2.0))
    prefixes = [2, 4, 6, 8, stream.n_scales]
    scores = [psnr(photo512, decompress(stream, prefix_scales=k))
              for k in prefixes]
    violations = [max(0.0, lo - hi) for lo, hi in zip(scores, scores[1:])]
    ok = max(violations, default=0.0) <= 0.1
    _report(7, "PSNR weakly increases over scale prefixes", ok,
            "dB at prefixes " + ", ".join(f"{s:.2f}" for s in scores))


def test_criterion_08_monotone_rate_knob(photo512, photo512_b):
    sigmas = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    ok = True
    detail = []
    for name, image in (("A", photo512), ("B", photo512_b)):
        ratios = [compress(image, Hyperparams(sigma=s)).compression_ratio
                  for s in sigmas]
        detail.append(f"{name}: " + ", ".join(f"{r:.0f}" for r in ratios))
        ok = ok and all(hi >= lo for lo, hi in zip(ratios, ratios[1:]))
    _report(8, "compression ratio weakly increasing in sigma", ok,
            "; ".join(detail))


def test_criterion_09_linear_scaling(photo512, photo256):
    def median_encode_seconds(image):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            compress(image, Hyperparams(sigma=8.0))
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    small = median_encode_seconds(photo256)
    large = median_encode_seconds(photo512)
    ratio = large / small
    ok = ratio <= 5.0
    _report(9, "encode time scales linearly (512^2 vs 256^2)", ok,
            f"{small * 1e3:.0f}ms -> {large * 1e3:.0f}ms, ratio {ratio:.2f}")


def test_criterion_10_rd_sanity_floor(photo512):
    result = target_ratio_search(photo512, Hyperparams(sigma=1.0),
                                 target_ratio=20.0, tol=0.1)
    recon = decompress(result.stream)
    p = psnr(photo512, recon)
    s = ms_ssim(photo512, recon)
    in_band = 18.0 <= result.ratio <= 22.0
    ok = in_band and p >= 25.0 and s >= 0.90
    _report(10, "ratio 20 +- 10% with PSNR >= 25 dB and MS-SSIM >= 0.90", ok,
            f"ratio {result.ratio:.2f}, psnr {p:.2f} dB, ms_ssim {s:.4f}")


def test_criterion_11_metrics():
    zeros = PixelGrid.from_array(np.zeros((16, 16)))
    err_peak = PixelGrid.from_array(np.full((16, 16), 255.0))
    err_one = PixelGrid.from_array(np.ones((16, 16)))
    formulas = (
        psnr(zeros, zeros) == math.inf
        and abs(psnr(zeros, err_peak)) <= 1e-12
        and abs(psnr(zeros, err_one) - 20 * math.log10(255)) <= 1e-9
    )

    worst_ref = 0.0
    for seed, sigma in ((41, 1.0), (42, 4.0), (43, 10.0)):
        ref = synthetic_photo(128, seed=seed)
        recon = decompress(compress(ref, Hyperparams(sigma=sigma)))
        mine = ms_ssim(ref, recon)
        theirs = reference_ms_ssim(ref.values[0], recon.values[0])
        worst_ref = max(worst_ref, abs(mine - theirs))

    photo = synthetic_photo(128, seed=44)
    self_score = ms_ssim(photo, photo)
    ok = formulas and worst_ref <= 1e-4 and abs(self_score - 1.0) <= 1e-9
    _report(11, "PSNR formulas exact; MS-SSIM matches reference", ok,
            f"reference gap {worst_ref:.2e}, self {self_score:.10f}")


def test_criterion_12_determinism(photo512, tmp_path):
    hp = Hyperparams(sigma=4.0)
    path_a, path_b = tmp_path / "a.carp", tmp_path / "b.carp"
    compress(photo512, hp).write_file(str(path_a))
    compress(photo512, hp).write_file(str(path_b))
    ok = path_a.read_bytes() == path_b.read_bytes()
    _report(12, "identical inputs produce byte-identical streams", ok,
            f"{path_a.stat().st_size} bytes each")
