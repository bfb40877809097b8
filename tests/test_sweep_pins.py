"""The benchmark's two sweeps, pinned to the byte.

``apzf sweep`` runs through ``cli.main`` on the frozen ``sweep-ref`` and
``sweep-z1-pool`` configs of ``perfbench/workloads.py`` (copied here),
at the benchmark's default seed 23.  Unlike ``test_golden``'s 200-draw
sweeps, these grids hold 9,000 and 10,000 point-draws, so they pin the
numbers of the kernel's largest passes: how a block's points are cut
into passes must never change a byte of the CSV or of the JSON summary
(back-off fractions included).
"""

import hashlib
import json

import pytest

from apzf import cli

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
        "1667a286ea49d914a0bdd9f96c6156b0b538e3f269e4dab6f797383c7fab5fbb",
    ),
    "sweep-z1-pool": (
        "c3f3be3e1d9d9e889bf02cf4c1c7a2d50053b3f7c432e3c07607673c473a796a",
        "5bbd0c2df09bf3497c56b8d1f776b5db8bf0ee97ddcba7da93a5630e76b6b790",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_benchmark_sweep_bytes(tmp_path, capsys, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIGS[name], seed=SEED), indent=2) + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    files = (out, out.with_suffix(".json"))
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
    assert digests == DIGESTS[name]
