"""Golden outputs: the exact bytes every fitting and analysis command writes.

Each command runs through ``datascale.cli.main`` on a small seeded table, in
a temporary directory with relative paths so that the provenance block of a
report does not depend on where the test runs.  The sha256 of every output
is compared with a digest recorded from an earlier implementation, so a
refactor of the fitters, the analysis or the reports that is meant to leave
results unchanged has to leave every byte unchanged.

The digests depend on the numpy build and on the CPU as well as on the
code: numpy's SIMD ``log`` and ``pow`` kernels differ between instruction
sets in the last bits, and those bits reach the reports through ``repr``.
On another machine or numpy version the digests may disagree although the
code is unchanged; record them anew there from a commit known to be good,
then compare the change against them.
"""

import hashlib
import os

import pytest

import datascale as ds
from datascale.cli import main
from datascale.observations import format_observations

from conftest import DOUBLING_GRID, NOISE_BLOCK

JOINT_FIXED = ["--beta", "2.0", "--p-e", "0.3", "--p-d", "0.25", "--l-inf", "0.01"]
SHAPES = [(10**8, 5 * 10**7), (2 * 10**8, 10**8), (4 * 10**8, 2 * 10**8)]

# Commands in run order: output file, then argv (reports read earlier outputs).
COMMANDS = [
    ("fit.json", ["fit", "--input", "obs.csv", "--condition", "no_noise", "--seed", "3"]),
    ("fit-linear-space.json", ["fit", "--input", "obs.csv", "--condition", "target_noise",
                               "--seed", "4", "--loss-space", "linear"]),
    ("shared.json", ["fit-shared", "--input", "obs.csv", "--seed", "5"]),
    ("shared-linear-space.json", ["fit-shared", "--input", "obs.csv", "--seed", "5",
                                  "--loss-space", "linear"]),
    ("tail.json", ["fit-tail", "--input", "obs.csv", "--condition", "no_noise",
                   "--d-min", "8", "--seed", "6"]),
    ("tail-linear-space.json", ["fit-tail", "--input", "obs.csv", "--condition", "no_noise",
                                "--d-min", "8", "--seed", "6", "--loss-space", "linear"]),
    ("joint.json", ["fit-joint", "--input", "joint.csv", "--seed", "7", *JOINT_FIXED,
                    "--hold-out", "400000000x200000000"]),
    ("joint-linear-space.json", ["fit-joint", "--input", "joint.csv", "--seed", "7", *JOINT_FIXED,
                                 "--hold-out", "400000000x200000000", "--loss-space", "linear"]),
    ("ols.json", ["fit-linear", "--input", "obs.csv", "--x-column", "d_millions",
                  "--y-column", "loss"]),
    ("fit-table.csv", ["report", "--report", "fit.json"]),
    ("shared-table.csv", ["report", "--report", "shared.json"]),
    ("tail-table.csv", ["report", "--report", "tail.json"]),
    ("joint-table.csv", ["report", "--report", "joint.json"]),
    ("fit-analysis.json", ["analyze", "fit.json", "--marginal-at", "4", "--marginal-at", "300"]),
    ("shared-analysis.json", ["analyze", "shared.json", "--marginal-at", "16"]),
    ("mc.json", ["mc", "--input", "obs.csv", "--condition", "no_noise", "--seed", "11",
                 "--fit-seed", "2", "--n-reps", "20"]),
]

DIGESTS = {
    "fit.json": "6a5953cf5f44ab7b30afb7b415228e7335f31a4f05443a8b16493c32a7a74c5c",
    "fit-linear-space.json": "fa9e6ae31006b346eda1f843be2d7433bb70ee40a5475e4cf954ee34ef497634",
    "shared.json": "d2bb1089e07f27ff86814bc330c955f5f841474f9b53c1f251cabaf4f78ff0f8",
    "shared-linear-space.json": "c604545e3f915f62b567c87071162661bb36b7e3e41f6b3aa4bdf6ec6487758b",
    "tail.json": "b806de56ad7a532346049a76e6e949175979063d7f3029f7c9b6e7d69db20a32",
    "joint.json": "d6d01d1945c0735b4cd1915f264f376aa64e946618f6916834a0b44c41067171",
    "tail-linear-space.json": "8d6fcec60718b84d05747a8a01ce20b306c67e00834cbca890cf2ee1f9b4a214",
    "joint-linear-space.json": "03380928eae5e292988dec69b64989eefa1fbe117dd28d1306521afa15808223",
    "ols.json": "585b86830705eaf80e444d58893a18233e19ad9d57047fae2db9606680226569",
    "fit-table.csv": "f9818e580ec582adb0ef7fd22a954060e45f0a0975d2f25f5e774b34f33ca384",
    "shared-table.csv": "acfd873cf059f69a028633eed7fd018bbc3d8ca448ad68bd31cec985e6d21d5b",
    "tail-table.csv": "f42679021c9b04265c9e99fa8868763261515918e37dc82dffed44d3b499b5b2",
    "joint-table.csv": "055a3591b3108c66a3c0369da097100a93c7d8ef59ec2b257268facd00638bec",
    "fit-analysis.json": "07a019e367fbc63c275c959fb7e14cf378b9b5f392ded342734452ea9630deb8",
    "shared-analysis.json": "e2b3855b063a7e78435a510c66ca92a1cb15b86c8163442ce31b87c7bb9cd21d",
    "mc.json": "9c01adf6f851d262803a5a9135eef800789329e6a23262fdbd7789946dfa2883",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once; map each output name to (exit code, sha256)."""
    work = tmp_path_factory.mktemp("golden")
    rows = []
    for i, (label, alpha, c, p) in enumerate(NOISE_BLOCK[::2]):
        law = ds.PowerLaw(alpha, c, p)
        rows += ds.simulate(law, DOUBLING_GRID, 0.02, seed=20 + i, condition=label).rows
    (work / "obs.csv").write_text(format_observations(ds.ObservationTable(rows)), encoding="utf-8")
    params = ds.JointLawParams(alpha=1.8, p=0.3, beta=2.0, p_e=0.3, p_d=0.25, l_inf=0.01)
    joint = ds.simulate_joint(params, SHAPES, DOUBLING_GRID, 0.01, seed=30)
    (work / "joint.csv").write_text(format_observations(joint), encoding="utf-8")

    results = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, argv in COMMANDS:
            code = main([*argv, "--output", name])
            with open(name, "rb") as fh:
                results[name] = (code, hashlib.sha256(fh.read()).hexdigest())
    finally:
        os.chdir(cwd)
    return results


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_output_is_byte_identical(outputs, name):
    code, digest = outputs[name]
    assert code == 0
    assert digest == DIGESTS[name]
