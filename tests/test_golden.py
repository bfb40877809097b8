"""Golden outputs of two small sweeps, pinned to the byte.

The CSV texts and the per-(scheme, SNR) back-off counts are those of the
substream contract in which each SNR point draws its normals in chunks of
``harness._CHUNK_DRAWS`` draws, one generator per chunk.  Every byte and
every count must stay: a change here means the simulated numbers
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
        '40,apzf,16.4187827981,0.225366473104\n'
        '50,apzf,21.7051063144,0.230783813064\n'
        '60,apzf,26.3222871046,0.300160746962\n'
        '40,centralized_zf,16.7409474772,0.229121042656\n'
        '50,centralized_zf,22.2336634473,0.232226881956\n'
        '60,centralized_zf,26.9881733746,0.298935826755\n'
        '40,naive_zf,12.025124729,0.16116971488\n'
        '50,naive_zf,15.7845733528,0.17112802503\n'
        '60,naive_zf,19.0643597428,0.209149149747\n'
        '40,no_csit,10.7661623904,0.125681429756\n'
        '50,no_csit,13.9908950943,0.11434874784\n'
        '60,no_csit,16.8835875766,0.138591958211\n'
    ),
    "z1_case2": (
        'snr_db,scheme,sum_rate_mean,sum_rate_stderr\n'
        '20,apzf,5.5501199938,0.125603733644\n'
        '40,apzf,13.212888067,0.148528633362\n'
        '60,apzf,21.6751594382,0.159312573369\n'
        '20,centralized_zf,5.87166487759,0.12788885398\n'
        '40,centralized_zf,13.7262462384,0.16116556596\n'
        '60,centralized_zf,22.2840925213,0.175679912353\n'
        '20,naive_zf,3.8313102668,0.10914632755\n'
        '40,naive_zf,9.81683087703,0.139262996454\n'
        '60,naive_zf,15.7444790734,0.136691462204\n'
        '20,no_csit,3.8313102668,0.10914632755\n'
        '40,no_csit,9.81683087703,0.139262996454\n'
        '60,no_csit,15.7444790734,0.136691462204\n'
    ),
}

# Draws (out of DRAWS) whose adaptive layers the power back-off scaled,
# per scheme, one count per SNR point.
GOLDEN_BACKOFF = {
    "reference": {
        "apzf": [25, 11, 7],
        "centralized_zf": [0, 0, 0],
        "naive_zf": [0, 0, 0],
        "no_csit": [0, 0, 0],
    },
    "z1_case2": {
        "apzf": [200, 4, 1],
        "centralized_zf": [51, 0, 0],
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
