"""Result fingerprints: a sha256 of each CLI output, so that a change
meant to keep every result shows, bit for bit, that it did.

The cases are ``run`` and ``compare`` of every problem, the bar under each
of its three load types, ``run --print-defaults`` and the three sweeps.  A
``run`` pins its CSV bytes.  A ``compare`` pins its JSON report less
``wall_time_s``: the same samples as its CSV (which is the ``run`` CSV) at
full precision, plus the oracle's counts and ``max_discrepancy``, which
reads the oracle through ``sample_at``.  The pins are bitwise on numpy
2.4.6, as ``STOCK_SHOTS`` in ``test_shooting.py`` is.  The oracle's steps
(times, states, step sizes and counts) are Python-float arithmetic and
round the same on any BLAS; its dense output (one product with ``_P``) and
every march still go through numpy products, which another numpy or BLAS
may round differently in a last bit.  A change that moves results by
design re-pins the rows it moves and lists each old -> new pin in
CHANGES.md.
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
        "b64822ce4ee514cfbdae99cf46dfa6d94037bc894889565f848c3e3fd5ccfa18",
    "run emden":
        "3ab0382bf1325d02567f043e06af316af11b57b75ae9543fbfe78af93ec66750",
    "run white-dwarf":
        "5f7765c6637a3e4d11bcee471921cfdc2137b04b278ac3476d7cbcf5d4658500",
    "run mathieu":
        "051e0398bc40f548266fd7cac80a3ee3315f6d71c25eef8619a776f9ecf11713",
    "run pendulum":
        "d4a47065bfff22184149395da4c6da397a71d77f5c4779afd06df5bff1ba1e3c",
    "run buckled-bar --load-type dead":
        "0ec7a4af41cd4cd70730033b36ff64c10de23a00d99f18487b91b1714741ed0d",
    "run buckled-bar --load-type perpendicular_follower":
        "6df8e26298e5857cba98ac6d215fd1e75d6daaa372b33f7e054741e500143441",
    "run buckled-bar --load-type tangent_follower":
        "c11e7d679dd20c4d89213365ee43fd5739e050fdb6422473dfcc7146bfea936e",
    "run elastica":
        "36fec60251fc55a518e2d76b32e94a6f3d7fc5903f59d6a2ead201207d4993ed",
    "run leo":
        "dccdbce2028cb9424fce3771bcbd016bffdd6a4287fb0a3c3e8ffe21e3677608",
    "compare blasius":
        "0f1cef54a852bce58b2c8b7aaeed7eb5f8265a3e514b370faa881d8d48a59ee5",
    "compare emden":
        "1c5dc33cecb13c547d65a8518f34b4150468178eb6592ab1b0057c2c110e1604",
    "compare white-dwarf":
        "c8065937304883db5c40db886c0f32364af0e31b112cb587df7941bf5587cc41",
    "compare mathieu":
        "548f4d0f4205d70af377e34e385a950d3ae9f0343ebaf00a36a2ee91406e88fd",
    "compare pendulum":
        "05c2abc92bb2d073ae5e630265ddd0cdf0c3f0ed73a873209c8ffc9528c47bb5",
    "compare buckled-bar --load-type dead":
        "e1711ed7272011c8cdd77fa6e3cdf8e2f5159e2a3cc51c32eb99e438f4e9e7f8",
    "compare buckled-bar --load-type perpendicular_follower":
        "fd3d66b7453784b8ace3e9ed0f2dc4fde2dfc910b6a0e289f9c9ad3139d38003",
    "compare buckled-bar --load-type tangent_follower":
        "d3d956dfb2b96bb1c6394897635143c1c2e5b1d4289b26dcb2415e6e6bbf8251",
    "compare elastica":
        "9d4fa51c04747ed4098c67b3897c9af04ba21454af65cf357039908f1ed949a1",
    "compare leo":
        "5aa60ddf9dc6c312b15068fb525c726f5b027875e10c5ca2b3a795d7f7e6632f",
    "run --print-defaults":
        "39e355f7ad6b06de144ded6fd6c1de6bae7b30f82c3133e5e0c22464937e359b",
    "sweep pendulum-frequency":
        "c1eba4accf3d9171041176020bd16d8b47b8f1700bda0798765c7018b77dc369",
    "sweep elastica-regimes":
        "6ab420f759e02ffed36311eda7b4686da9c8566be47447bd0f4cec48780a4d15",
    "sweep bar-load":
        "af12196a8b16fae6c28adfc415a0a3a0769c5da3aaa71d8641a8d779a702c31f",
}


# Next to each ``compare`` hash, the report's counts and the repr of its
# ``max_discrepancy`` as plain values, so that a red pin names the field
# that moved; the hash still covers every other byte.
FIELDS = ("total_iterations", "total_rhs_evals", "oracle_steps_accepted",
          "oracle_steps_rejected", "oracle_rhs_evals", "max_discrepancy")
COMPARE_FIELDS = {
    "compare blasius": (
        120, 600, 771, 0, 5398,
        "[3.411387261564869e-08, 6.186744805347644e-08, 5.485095634638615e-08]"),
    "compare emden": (
        117, 1521, 309, 0, 2164,
        "[9.68289337599515e-12, 3.9760441467029395e-11]"),
    "compare white-dwarf": (
        180, 900, 292, 4, 2069,
        "[1.3132483989153343e-10, 1.293242544303519e-09]"),
    "compare mathieu": (
        1077, 5385, 6059, 53, 42732,
        "[4.6772584649801274e-07, 2.767673239478796e-07]"),
    "compare pendulum": (
        2000, 10000, 3463, 6, 24278,
        "[1.0366008257649273e-05, 5.1831447553940535e-06]"),
    "compare buckled-bar --load-type dead": (
        10, 70, 500, 4, 3525,
        "[5.189784672010589e-07, 1.5549393630465147e-06]"),
    "compare buckled-bar --load-type perpendicular_follower": (
        10, 70, 4, 0, 29,
        "[4.200465801758232e-12, 2.9268271287577414e-11]"),
    "compare buckled-bar --load-type tangent_follower": (
        10, 70, 10, 0, 71,
        "[2.0816681711721685e-17, 8.210733189403225e-47]"),
    "compare elastica": (
        20, 140, 296, 3, 2091,
        "[0.008615102901184085]"),
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
        "b42b96874652a4778e4d9d8c7532686fcb051c694786a48ab6eb7da2e96f7438",
    "pendulum oracle":
        "f291ad8c89cb9fafe2b23d566097f664316f93540bac325229f2da5bb6dd67d2",
    "mirrored follower march":
        "6905fa5787b62e37346bffcdb93058db22027852e7ea2f62ddeeddfaacf8b9f7",
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
