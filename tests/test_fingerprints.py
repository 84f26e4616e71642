"""Result fingerprints: a sha256 of each CLI output, so that a change
meant to keep every result shows, bit for bit, that it did.

The cases are ``run`` and ``compare`` of every problem, the bar under each
of its three load types, ``run --print-defaults`` and the three sweeps.  A
``run`` pins its CSV bytes.  A ``compare`` pins its JSON report less
``wall_time_s``: the same samples as its CSV (which is the ``run`` CSV) at
full precision, plus the oracle's counts and ``max_discrepancy``, which
reads the oracle through ``sample_at``.  The pins are bitwise on numpy
2.4.6, as ``STOCK_SHOTS`` in ``test_shooting.py`` is; another numpy or BLAS
may round a last bit differently.  A change that moves results by design
re-pins the rows it moves and lists each old -> new pin in CHANGES.md.
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
        "cdee3568cfcc2fd9556a0acff700f1b5bcf0497afc8d0b9697e53ed40c94ff95",
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
        "18b72f6ca7e5ab03d221e66a2eaa71dea3a10e5e548c78e9494de00f8d9e3737",
    "compare emden":
        "cef4eb1ea0a3a4191089e93e2006af7a24845d65073f628cba79d657ca007ba2",
    "compare white-dwarf":
        "b1dc31b497c2bd3bb5adce66f15c33977beb25bde7ffdbebbc488cffa6dd2c53",
    "compare mathieu":
        "d9e26e2c39f946e5baf519451c208c67ccc91dc00411c0b45487aba54bd99272",
    "compare pendulum":
        "edb734207fb8c3b77b3fde651b59dedfd768c8431202ee84b6a862af3dcd8138",
    "compare buckled-bar --load-type dead":
        "71f087a56d95710ee8c4ec70b8dd69c3a7202da1f8b0e8f37ead24db1cb64d59",
    "compare buckled-bar --load-type perpendicular_follower":
        "4330b1248492be15d2ba47f57b69788fe7067d4e677cab60887cc1109e1a8e53",
    "compare buckled-bar --load-type tangent_follower":
        "d3d956dfb2b96bb1c6394897635143c1c2e5b1d4289b26dcb2415e6e6bbf8251",
    "compare elastica":
        "45c06401f201da6d9fc995d19c447d240f546c62472b74b855c906a734455fd4",
    "compare leo":
        "75c17f3b8174f5d9e01b3b70a58ebcfdad9bf45ccdd44e6939f68f231e950052",
    "run --print-defaults":
        "aaad8a419e1691c182791caacd1425ed0619967a37f6fed3e736f6a6c65e87d2",
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
        "[3.4113872504626386e-08, 6.186744860858795e-08, 5.4850956349855595e-08]"),
    "compare emden": (
        117, 1521, 309, 0, 2164,
        "[9.682872559313438e-12, 3.9760441467029395e-11]"),
    "compare white-dwarf": (
        180, 900, 292, 4, 2069,
        "[1.3132483989153343e-10, 1.293242540834072e-09]"),
    "compare mathieu": (
        1077, 5385, 6059, 53, 42732,
        "[4.6772580541976083e-07, 2.767672917514119e-07]"),
    "compare pendulum": (
        2000, 10000, 3463, 6, 24278,
        "[1.0365361967482056e-05, 5.182821617655264e-06]"),
    "compare buckled-bar --load-type dead": (
        10, 70, 500, 4, 3525,
        "[5.189784678671927e-07, 1.5549394110081494e-06]"),
    "compare buckled-bar --load-type perpendicular_follower": (
        10, 70, 4, 0, 29,
        "[4.20046580173258e-12, 2.926827128745862e-11]"),
    "compare buckled-bar --load-type tangent_follower": (
        10, 70, 10, 0, 71,
        "[2.0816681711721685e-17, 8.210733189403225e-47]"),
    "compare elastica": (
        20, 140, 296, 3, 2091,
        "[0.00861510290118489]"),
    "compare leo": (
        110, 2860, 553, 9, 3926,
        "[1.7002341337502003e-05, 1.0938849300146103e-05, 2.9465649276971817e-05, "
        "1.0718849807744846e-08, 3.003248849609008e-08, 1.856733433669433e-08]"),
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
        "41bd7a77e60e0c98b10e770854aa20e4d100487d70de9cbb91b56fa5f2644a84",
    "mirrored follower march":
        "6905fa5787b62e37346bffcdb93058db22027852e7ea2f62ddeeddfaacf8b9f7",
    "mirrored follower oracle":
        "f222c17ffd35befb6db9afaa1fc25a25566a92e0776a5e2f6bf54f4fec70cfde",
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
