"""The benchmark's two sweeps, and their instances relabelled, pinned to the byte.

``apzf sweep`` runs through ``cli.main`` on the frozen ``sweep-ref`` and
``sweep-z1-pool`` configs of ``perfbench/workloads.py`` (copied here),
at the benchmark's default seed 23.  Unlike ``test_golden``'s 200-draw
sweeps, these grids hold 9,000 and 10,000 point-draws, so they pin the
numbers of the kernel's largest passes: how a block's points are cut
into passes must never change a byte of the CSV or of the JSON summary
(back-off fractions included).

The same two instances with their TXs' alphas swapped have canonical
``active_tx`` 1, and at 4,097 draws they run in two blocks.  The first
block's five points run in passes of 1, 2 and 2 points, so passes of a
lone point and of several build the active TX's estimate and
directions; on the reference instance both ZF baselines send private
pairs from shared directions, and on the z1 instance z1 is live.

Both instances as they are, on a grid from -20 to 60 dB at 4,097 draws,
pin the low-SNR points the same way: the first block runs passes of 1,
2 and 2 points, so -20 dB (P = 0.01, where the ZF directions are
rescaled) runs in a pass of its own, and the pass of -3 and 0.5 dB
straddles 0 dB, where s0's power runs out.
"""

import hashlib
import json

import pytest

from apzf import CsitQuality, Topology, canonicalize, cli

SEED = 23

CONFIGS = {
    "sweep-ref": {
        "gamma": [[1.0, 0.8], [0.8, 1.0]],
        "alpha": [[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
        "schemes": ["apzf", "centralized_zf", "naive_zf", "no_csit"],
        "snr_db": [40.0, 45.0, 50.0, 55.0, 60.0],
        "draws": 2000,
        "window_db": [40.0, 60.0],
        "workers": 1,
    },
    "sweep-z1-pool": {
        "gamma": [[1.0, 0.6], [0.9, 0.5]],
        "alpha": [[[0.6, 0.4], [0.5, 0.3]], [[0.2, 0.1], [0.1, 0.0]]],
        "schemes": ["apzf", "centralized_zf", "naive_zf", "no_csit"],
        "snr_db": [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0],
        "draws": 1000,
        "window_db": [40.0, 60.0],
        "workers": 2,
    },
}

# sha256 of (CSV, JSON summary).
DIGESTS = {
    "sweep-ref": (
        "c003f026f027b0f92ffdf457709035773b84ae9d4fd5b43cd496fd6f3f149440",
        "bdb8fd4c73edcaa01cc13f92a8aa67fed973b71789e4fef9f2865188914e356e",
    ),
    "sweep-z1-pool": (
        "c3f3be3e1d9d9e889bf02cf4c1c7a2d50053b3f7c432e3c07607673c473a796a",
        "354d7b449d7f1b7112cca91c2f92c9d25a9edf67cefeb9d8cff6e50c2abf58a6",
    ),
}


_SWAPPED_GRID = {
    "schemes": ["apzf", "centralized_zf", "naive_zf", "no_csit"],
    "snr_db": [20.0, 30.0, 40.0, 50.0, 60.0],
    "draws": 4097,
    "window_db": [40.0, 60.0],
    "workers": 1,
}

SWAPPED = {
    "ref-alphas-swapped": dict(
        _SWAPPED_GRID,
        gamma=[[1.0, 0.8], [0.8, 1.0]],
        alpha=[[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]],
    ),
    "z1-alphas-swapped": dict(
        _SWAPPED_GRID,
        gamma=[[1.0, 0.6], [0.9, 0.5]],
        alpha=[[[0.2, 0.1], [0.1, 0.0]], [[0.6, 0.4], [0.5, 0.3]]],
    ),
}

SWAPPED_DIGESTS = {
    "ref-alphas-swapped": (
        "a9567e342954947e7d790dcec46fe49c61e36c5cc0acec2a79566453caebe633",
        "2f07dd0d1bc4e75af8fcd62f9865ec116cc44e9c936b4b6d12de8381039045d7",
    ),
    "z1-alphas-swapped": (
        "282f9c8dac608dcda9e80c9c49acdf153647e06257a8fa27ddd6f3640374b347",
        "51825a78d87c7e58a3a705f2429434f9f8f2d1b3126c68fc71c2b565cb638fb2",
    ),
}


_LOW_SNR_GRID = dict(_SWAPPED_GRID, snr_db=[-20.0, -3.0, 0.5, 30.0, 60.0], window_db=[-20.0, 60.0])

LOW_SNR = {
    "ref-low-snr": dict(_LOW_SNR_GRID, gamma=CONFIGS["sweep-ref"]["gamma"], alpha=CONFIGS["sweep-ref"]["alpha"]),
    "z1-low-snr": dict(
        _LOW_SNR_GRID, gamma=CONFIGS["sweep-z1-pool"]["gamma"], alpha=CONFIGS["sweep-z1-pool"]["alpha"]
    ),
}

LOW_SNR_DIGESTS = {
    "ref-low-snr": (
        "864a3e0a4343fbe22fa44a8349416642281dd67501b540b8f13ddb42dcca0e4d",
        "a958a75604e92962afbd1d9790fd68badd5943fcceb36337c94ff88e71675c5e",
    ),
    "z1-low-snr": (
        "632ea262566bbb3821c6499757b9d39e0e24c13b98a52f064336b7e102932abc",
        "9dcf88fe6fcc69a401ee99162f5cc5325e95778d71f1e0b897ef9c62986bfdce",
    ),
}


def _sweep_digests(tmp_path, capsys, raw) -> tuple:
    """sha256 of the CSV and JSON summary of ``apzf sweep`` on ``raw`` at SEED."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(raw, seed=SEED), indent=2) + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    return tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (out, out.with_suffix(".json")))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_benchmark_sweep_bytes(tmp_path, capsys, name):
    assert _sweep_digests(tmp_path, capsys, CONFIGS[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWAPPED))
def test_alphas_swapped_sweep_bytes(tmp_path, capsys, name):
    assert canonicalize(Topology(SWAPPED[name]["gamma"]), CsitQuality(SWAPPED[name]["alpha"])).active_tx == 1
    assert _sweep_digests(tmp_path, capsys, SWAPPED[name]) == SWAPPED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LOW_SNR))
def test_low_snr_sweep_bytes(tmp_path, capsys, name):
    assert _sweep_digests(tmp_path, capsys, LOW_SNR[name]) == LOW_SNR_DIGESTS[name]
