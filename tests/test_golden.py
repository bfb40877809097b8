"""Golden outputs of two small sweeps, pinned to the byte.

The CSV texts and the per-(scheme, SNR) back-off counts are those of the
substream contract in which draws come in chunks of
``harness._CHUNK_DRAWS``, one generator per chunk keyed by
``(seed, chunk)`` alone, ``numpy.random.default_rng([seed, chunk])``, so
every SNR point of a sweep sees the same draws.  Every byte and every
count must stay: a change here means the simulated numbers changed,
which must be a deliberate, announced decision.
"""

import json

import pytest

from apzf import CsitQuality, SweepConfig, Topology, sweep, write_csv, write_summary

SCHEMES = ("apzf", "centralized_zf", "naive_zf", "no_csit")
DRAWS = 200
SEED = 23

INSTANCES = {
    # The reference instance of configs/parallel.json: symmetric case 1.
    "reference": (
        [[1.0, 0.8], [0.8, 1.0]],
        [[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]],
        (40.0, 50.0, 60.0),
    ),
    # An asymmetric case-2 instance with a live z1 layer and heavy
    # back-off at low SNR.
    "z1_case2": (
        [[1.0, 0.6], [0.9, 0.5]],
        [[[0.6, 0.4], [0.5, 0.3]], [[0.2, 0.1], [0.1, 0.0]]],
        (20.0, 40.0, 60.0),
    ),
}

GOLDEN_CSV = {
    "reference": (
        'snr_db,scheme,sum_rate_mean,sum_rate_stderr\n'
        '40,apzf,16.5418166286,0.250133746426\n'
        '50,apzf,21.7619224336,0.274864258292\n'
        '60,apzf,27.1705982173,0.290723705014\n'
        '40,centralized_zf,16.9044016484,0.250403581485\n'
        '50,centralized_zf,22.2671797956,0.275146066513\n'
        '60,centralized_zf,27.7848851711,0.290260755778\n'
        '40,naive_zf,12.187921938,0.177021862866\n'
        '50,naive_zf,15.9222325476,0.1889281756\n'
        '60,naive_zf,19.7296276258,0.202387253269\n'
        '40,no_csit,10.79031532,0.127695799345\n'
        '50,no_csit,14.0347881667,0.126142444144\n'
        '60,no_csit,17.2954430105,0.128981299584\n'
    ),
    "z1_case2": (
        'snr_db,scheme,sum_rate_mean,sum_rate_stderr\n'
        '20,apzf,5.73363242044,0.129567829893\n'
        '40,apzf,13.3322903772,0.152614330179\n'
        '60,apzf,22.0344097999,0.166496648756\n'
        '20,centralized_zf,6.0549685429,0.127374353366\n'
        '40,centralized_zf,13.7849565904,0.161073841786\n'
        '60,centralized_zf,22.5561030207,0.176441639753\n'
        '20,naive_zf,3.959626016,0.103519733876\n'
        '40,naive_zf,9.73956900387,0.122997872503\n'
        '60,naive_zf,15.8291993737,0.122259647234\n'
        '20,no_csit,3.959626016,0.103519733876\n'
        '40,no_csit,9.73956900387,0.122997872503\n'
        '60,no_csit,15.8291993737,0.122259647234\n'
    ),
}

# Draws (out of DRAWS) whose adaptive layers the power back-off scaled,
# per scheme, one count per SNR point.
GOLDEN_BACKOFF = {
    "reference": {
        "apzf": [28, 10, 7],
        "centralized_zf": [0, 0, 0],
        "naive_zf": [0, 0, 0],
        "no_csit": [0, 0, 0],
    },
    "z1_case2": {
        "apzf": [200, 0, 0],
        "centralized_zf": [53, 0, 0],
        "naive_zf": [0, 0, 0],
        "no_csit": [0, 0, 0],
    },
}


def _sweep(name, workers=1):
    gamma, alpha, snr_db = INSTANCES[name]
    config = SweepConfig(
        topology=Topology(gamma),
        csit=CsitQuality(alpha),
        schemes=SCHEMES,
        snr_db=snr_db,
        draws=DRAWS,
        seed=SEED,
        workers=workers,
    )
    return config, sweep(config)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_sweep_csv_matches_golden(name, tmp_path):
    _, curve = _sweep(name)
    path = tmp_path / "curve.csv"
    write_csv(curve, path)
    assert path.read_text(encoding="utf-8") == GOLDEN_CSV[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_summary_backoff_frac_equals_golden_counts(name, tmp_path):
    config, curve = _sweep(name)
    path = tmp_path / "summary.json"
    write_summary(config, curve, path)
    fractions = json.loads(path.read_text(encoding="utf-8"))["backoff_frac"]
    expected = {s: [c / DRAWS for c in counts] for s, counts in GOLDEN_BACKOFF[name].items()}
    assert fractions == expected
