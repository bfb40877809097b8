"""Golden outputs of two small sweeps, pinned to the byte.

The CSV texts and the per-(scheme, SNR) back-off counts were produced by
the per-draw implementation that the batched kernel replaced, which ran
one draw at a time through numpy scalars.  The kernel must reproduce
every byte and every count: a change here means the simulated numbers
changed, which must be a deliberate, announced decision.
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
        '40,apzf,16.4266086146,0.241416800848\n'
        '50,apzf,21.8243466805,0.269914413676\n'
        '60,apzf,27.1818362298,0.274466347607\n'
        '40,centralized_zf,16.6515078116,0.237472404999\n'
        '50,centralized_zf,22.3120431914,0.267309404835\n'
        '60,centralized_zf,27.730229516,0.268320469007\n'
        '40,naive_zf,11.8331977006,0.179593163275\n'
        '50,naive_zf,15.7929996761,0.195140522076\n'
        '60,naive_zf,19.6453243972,0.185988868218\n'
        '40,no_csit,10.5334177248,0.139414697042\n'
        '50,no_csit,13.9208260399,0.137994345959\n'
        '60,no_csit,17.2402551144,0.127654987828\n'
    ),
    "z1_case2": (
        'snr_db,scheme,sum_rate_mean,sum_rate_stderr\n'
        '20,apzf,5.80515004765,0.118443457645\n'
        '40,apzf,13.2468452373,0.15076455243\n'
        '60,apzf,21.7952750166,0.157634658476\n'
        '20,centralized_zf,6.08723375853,0.11880490373\n'
        '40,centralized_zf,13.7705939488,0.163196883643\n'
        '60,centralized_zf,22.3009139969,0.171036338067\n'
        '20,naive_zf,3.97706556753,0.107372321965\n'
        '40,naive_zf,9.84464027022,0.129329284395\n'
        '60,naive_zf,15.7480120064,0.133313158113\n'
        '20,no_csit,3.99749848223,0.107577757895\n'
        '40,no_csit,9.84500151618,0.129329445408\n'
        '60,no_csit,15.7480177495,0.13331315818\n'
    ),
}

# Draws (out of DRAWS) whose adaptive layers the power back-off scaled,
# per scheme, one count per SNR point.
GOLDEN_BACKOFF = {
    "reference": {
        "apzf": [18, 16, 7],
        "centralized_zf": [0, 0, 0],
        "naive_zf": [0, 0, 0],
        "no_csit": [0, 0, 0],
    },
    "z1_case2": {
        "apzf": [200, 0, 0],
        "centralized_zf": [36, 0, 0],
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
