"""Result fingerprints: a sha256 of each CLI output, so that a change
meant to keep every result shows, bit for bit, that it did.

The cases are ``run`` and ``compare`` of every problem, the bar under each
of its three load types, ``run --print-defaults`` and the three sweeps.  A
``run`` pins its CSV bytes.  A ``compare`` pins its JSON report less
``wall_time_s``: the same samples as its CSV (which is the ``run`` CSV) at
full precision, plus the oracle's counts and ``max_discrepancy``, which
reads the oracle through ``sample_at``.  The pins are bitwise on numpy
2.4.6, as ``STOCK_SHOTS`` in ``test_shooting.py`` is.  The oracle's steps
(times, states, step sizes and counts) and the sweeps of every march on a
small grid (all but Emden's and LEO's) are Python-float arithmetic and
round the same on any BLAS; the oracle's dense output (one product with
``_P``), the Emden and LEO sweeps and the interpolants ``sample_at`` reads
still go through numpy products, which another numpy or BLAS may round
differently in a last bit.  A change that moves results by design re-pins
the rows it moves and lists each old -> new pin in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from lvim import shooting
from lvim.cli import main
from lvim.core import march
from lvim.problems import buckled_bar, pendulum
from lvim.rk45 import rk45_integrate, sample_at

PINS = {
    "run blasius":
        "adfd717a9d9ebcd572c2f8c7f629f598af74adc7292778499be3e755dc4f1d09",
    "run emden":
        "3ab0382bf1325d02567f043e06af316af11b57b75ae9543fbfe78af93ec66750",
    "run white-dwarf":
        "4423eb64c83c2170b29ae6b01627fe5113c4a54eb9b8997e1787ba06a00593f3",
    "run mathieu":
        "d94b9b4014dde54a0ffa7b21d6de273bfde976c4a7a2fd07fb396f1dba376003",
    "run pendulum":
        "d31834e023c6383700c2c754062ea9c635e95f478c0809022196700744e4561a",
    "run buckled-bar --load-type dead":
        "98cdf29f745c6a30995a973fe2e2cb4beb2419c537dbe8a7c012f8f352e63c75",
    "run buckled-bar --load-type perpendicular_follower":
        "6154780927f6563874e2f1f53b6c8cb207f4005c142647bd8615c284f16c6d70",
    "run buckled-bar --load-type tangent_follower":
        "2f5f51472d9abd6bbf9f8eb179d5349f60b24b26b9bc9b7bb16d9060d2b20d5e",
    "run elastica":
        "3084d1a3405a74fde7dab415ba3989bb884352f932b669dc644d1d00f1e4fcfe",
    "run leo":
        "dccdbce2028cb9424fce3771bcbd016bffdd6a4287fb0a3c3e8ffe21e3677608",
    "compare blasius":
        "9a35666061cf82515644111a416caa01f57978ad225bc9c3955eba45056a0128",
    "compare emden":
        "1c5dc33cecb13c547d65a8518f34b4150468178eb6592ab1b0057c2c110e1604",
    "compare white-dwarf":
        "8ff622dc8ba2f84e1133fcdfe3fd3e0e2bad1fabe88bfaa86dcb6af49330e9fa",
    "compare mathieu":
        "8d8c6244bd401fbba905d7df405398d9d7788d6edeaba3857ec764296c7daa08",
    "compare pendulum":
        "b9d2ee1de215c37bc9ad8bee50c1f61ecfb3286479ac9c666327bc86675bf76a",
    "compare buckled-bar --load-type dead":
        "26a70d27f4b048751f8839ce3a8a1ebb51d378b2aafb98a19f90e0a83d981c68",
    "compare buckled-bar --load-type perpendicular_follower":
        "d4efeb10a4a98579c4ee1e22acfa218970eecfce93619c62f78a72caaf00968d",
    "compare buckled-bar --load-type tangent_follower":
        "9ae16557dc2af4d2d5df53b3d715d9624e163ed5d9b34cc2376d70a4bda27e06",
    "compare elastica":
        "6db671e35fd628579c426002f5c24ff2ae4b472675e1cdbc3fff1b8f25e72a2a",
    "compare leo":
        "5aa60ddf9dc6c312b15068fb525c726f5b027875e10c5ca2b3a795d7f7e6632f",
    "run --print-defaults":
        "39e355f7ad6b06de144ded6fd6c1de6bae7b30f82c3133e5e0c22464937e359b",
    "sweep pendulum-frequency":
        "d65d1949ba70facf4b349dc88b5fa482da21e6179571039111c51b559aa9d7c8",
    "sweep elastica-regimes":
        "628c281aea9c7ac96b1f5694677d23f594bc8b5a836a2ecfe44641e182fe308e",
    "sweep bar-load":
        "9cf3465eb6d12a65c4db1e01f0527dd54c9ddb3aa76463125ccb6da946c648c3",
}


# Next to each ``compare`` hash, the report's counts and the repr of its
# ``max_discrepancy`` as plain values, so that a red pin names the field
# that moved; the hash still covers every other byte.
FIELDS = ("total_iterations", "total_rhs_evals", "oracle_steps_accepted",
          "oracle_steps_rejected", "oracle_rhs_evals", "max_discrepancy")
COMPARE_FIELDS = {
    "compare blasius": (
        120, 600, 771, 0, 5398,
        "[3.41138732817825e-08, 6.186744772040953e-08, 5.4850956374141724e-08]"),
    "compare emden": (
        117, 1521, 309, 0, 2164,
        "[9.68289337599515e-12, 3.9760441467029395e-11]"),
    "compare white-dwarf": (
        180, 900, 292, 4, 2069,
        "[1.313246178469285e-10, 1.293242537364625e-09]"),
    "compare mathieu": (
        1077, 5385, 6059, 53, 42732,
        "[4.677258438334775e-07, 2.767673227266343e-07]"),
    "compare pendulum": (
        2000, 10000, 3463, 6, 24278,
        "[1.0366771455244672e-05, 5.183526380792003e-06]"),
    "compare buckled-bar --load-type dead": (
        10, 70, 500, 4, 3525,
        "[5.189784669790143e-07, 1.5549393346248053e-06]"),
    "compare buckled-bar --load-type perpendicular_follower": (
        10, 70, 4, 0, 29,
        "[4.200465852317213e-12, 2.926827159335342e-11]"),
    "compare buckled-bar --load-type tangent_follower": (
        10, 70, 10, 0, 71,
        "[3.2612801348363973e-16, 2.1128953407397632e-45]"),
    "compare elastica": (
        20, 140, 296, 3, 2091,
        "[0.008615102901184113]"),
    "compare leo": (
        110, 2860, 553, 9, 3926,
        "[1.700193388387561e-05, 1.091882586479187e-05, 2.945982851088047e-05, "
        "1.072612576535903e-08, 3.003960102887504e-08, 1.8571881810203195e-08]"),
}


@pytest.mark.parametrize("case", PINS)
def test_output_matches_its_pin(case, capsys):
    argv = case.split()
    compare = argv[0] == "compare"
    assert main(argv + ["--format", "json"] if compare else argv) == 0
    text = capsys.readouterr().out
    if compare:
        report = json.loads(text)
        del report["wall_time_s"]
        read = [report[f] for f in FIELDS[:-1]] + [repr(report["max_discrepancy"])]
        assert dict(zip(FIELDS, read)) == dict(zip(FIELDS, COMPARE_FIELDS[case]))
        text = json.dumps(report)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[case]


# ``sample_at`` off both trajectory kinds: a sha256 of the readings at every
# stored time, every midpoint between two and 200 seeded random times, for
# the stock pendulum march and oracle run and a free-end follower shot
# (perpendicular, P = 80, at its buckled tip angle) of each kind read from
# the clamp through ``mirrored``.  Bitwise on numpy 2.4.6, as above.
SAMPLE_PINS = {
    "pendulum march":
        "84ad467da75594ed6a9d847b4020f5cd828d4604d4cc9cccd507c65a920083de",
    "pendulum oracle":
        "f291ad8c89cb9fafe2b23d566097f664316f93540bac325229f2da5bb6dd67d2",
    "mirrored follower march":
        "cb2b5fb4b12cc5078de022a8f80237c6e25ceae3e083aed95b60e00b9ba14ef2",
    "mirrored follower oracle":
        "66770c2aaafa17b0a1779a6463fa796b411ce4ffed3180b242c7828cdef53f89",
}


@pytest.fixture(scope="module")
def sampled_runs():
    spec = pendulum()
    args = (spec.system, spec.t0, spec.tf, spec.x0)
    alpha = 0.45702753025091486
    bar = buckled_bar("perpendicular_follower", 80.0, alpha=alpha)
    shot = (bar.system, bar.t0, bar.tf, [alpha, 0.0])
    return {
        "pendulum march": march(*args, spec.lvim_defaults),
        "pendulum oracle": rk45_integrate(*args, spec.rk_defaults),
        "mirrored follower march": march(*shot, bar.lvim_defaults).mirrored(shooting._FLIP),
        "mirrored follower oracle":
            rk45_integrate(*shot, bar.rk_defaults).mirrored(shooting._FLIP),
    }


@pytest.mark.parametrize("case", SAMPLE_PINS)
def test_sample_at_readings_match_their_pin(case, sampled_runs):
    tr = sampled_runs[case]
    mid = 0.5 * (tr.times[:-1] + tr.times[1:])
    rand = np.random.default_rng(2024).uniform(tr.times[0], tr.times[-1], 200)
    readings = sample_at(tr, np.concatenate([tr.times, mid, rand]))
    assert hashlib.sha256(readings.tobytes()).hexdigest() == SAMPLE_PINS[case]
