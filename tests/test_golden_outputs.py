"""Golden outputs: the exact bytes every fitting, analysis and corpus
command writes.

Each command runs through ``datascale.cli.main`` on a small seeded table or
corpus, in a temporary directory with relative paths so that the provenance
block of a report does not depend on where the test runs.  The sha256 of
every output is compared with a digest recorded from an earlier
implementation, so a refactor of the fitters, the analysis, the reports or
the corpus noise that is meant to leave results unchanged has to leave every
byte unchanged.

The digests of the fitting and analysis outputs depend on the numpy build
and on the CPU as well as on the code: numpy's SIMD ``log`` and ``pow``
kernels differ between instruction sets in the last bits, and those bits
reach the reports through ``repr``.  On another machine or numpy version
those digests may disagree although the code is unchanged; record them anew
there from a commit known to be good, then compare the change against them.
The corpus digests use only integer arithmetic and exact float comparisons,
so they hold on any machine.
"""

import hashlib
import json
import os

import pytest

import datascale as ds
from datascale.cli import main
from datascale.corpus import SplitMix64
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
    # Engine branches the entries above do not reach: Monte Carlo in linear
    # space, a fit without restarts, a tail fit with one start, and a fit
    # stopped by its iteration cap.
    ("mc-linear-space.json", ["mc", "--input", "obs.csv", "--condition", "target_noise",
                              "--seed", "12", "--fit-seed", "3", "--n-reps", "20",
                              "--loss-space", "linear"]),
    ("fit-no-restarts.json", ["fit", "--input", "obs.csv", "--condition", "target_noise",
                              "--seed", "8", "--n-restarts", "0"]),
    ("tail-one-restart.json", ["fit-tail", "--input", "obs.csv", "--condition", "target_noise",
                               "--d-min", "4", "--seed", "9", "--n-restarts", "1"]),
    ("fit-iteration-cap.json", ["fit", "--input", "obs.csv", "--condition", "no_noise",
                                "--seed", "10", "--max-iters", "3"]),
    # Monte Carlo replicates without restarts, through the redraw loop (8 of
    # the 20 replicates hold a non-positive first draw), stopped by an
    # iteration cap that leaves 10 of 20 unconverged, and with noise so
    # large that the losses reach 1e300.
    ("mc-no-restarts.json", ["mc", "--input", "obs.csv", "--condition", "target_noise",
                             "--seed", "13", "--n-reps", "20", "--n-restarts", "0"]),
    ("mc-redraw.json", ["mc", "--input", "obs.csv", "--condition", "no_noise", "--seed", "14",
                        "--n-reps", "20", "--noise-frac", "0.6"]),
    ("mc-iteration-cap.json", ["mc", "--input", "obs.csv", "--condition", "target_noise",
                               "--seed", "15", "--n-reps", "20", "--max-iters", "6"]),
    ("mc-huge-noise.json", ["mc", "--input", "obs.csv", "--condition", "no_noise", "--seed", "16",
                            "--n-reps", "5", "--noise-frac", "1e300"]),
]

# Exit codes other than 0: a fit that hits its iteration cap still writes
# its report and exits 3.
EXIT_CODES = {"fit-iteration-cap.json": 3}

# Corpus commands: every noise kind on both sides at two rates and two seeds,
# one of them beyond 64 bits, then filter and sample.
CORPUS_SEEDS = ("7", str(2**64 + 5))
COMMANDS += [
    (f"{kind}-{side}-{prob}-{seed}.tsv", ["corpus", "corrupt", "--kind", kind, "--side", side,
                                          "--prob", prob, "--seed", seed, "--input", "corpus.tsv"])
    for kind in ("char_noise", "word_delete", "pair_shuffle")
    for side in ("source", "target")
    for prob in ("0.1", "1.0")
    for seed in CORPUS_SEEDS
]
COMMANDS += [
    ("filter.tsv", ["corpus", "filter", "--fraction", "0.3", "--input", "corpus.tsv"]),
    *((f"sample-{seed}.tsv", ["corpus", "sample", "--size", "40", "--seed", seed,
                              "--input", "corpus.tsv"]) for seed in CORPUS_SEEDS),
]

DIGESTS = {
    "fit.json": "9df7dcd50e6f2c3ac3f064d3f9058150552911cfc16fe9c7791554242944c3eb",
    "fit-linear-space.json": "fb96491f88452aa058f900d94bbed62350c55f60ef635fa93cf3aecaa28d0ebe",
    "shared.json": "b5b9c6254594108e14def15e827fbc0974ff64223c519256d06376740254b2ab",
    "shared-linear-space.json": "445cc3043afef23d0dd52d91a4a718e51b13935a0b5bd767276664d62d13d4f5",
    "tail.json": "b806de56ad7a532346049a76e6e949175979063d7f3029f7c9b6e7d69db20a32",
    "joint.json": "6ee95b7e758f66e905767ca330b5c14f8c23a82825f3ecd121e7b480a522b4ac",
    "tail-linear-space.json": "8d6fcec60718b84d05747a8a01ce20b306c67e00834cbca890cf2ee1f9b4a214",
    "joint-linear-space.json": "4f6809b18ffd0daf45048270369aacb3531031d5f6bac3adb02b8c9f8dee3faa",
    "ols.json": "585b86830705eaf80e444d58893a18233e19ad9d57047fae2db9606680226569",
    "fit-table.csv": "fb66a3a2c24155f5a8cfddaca6c1280df5577720813005e8dd3057e39e0c19ad",
    "shared-table.csv": "11d62a93fcfd80f44459271f049cac11bec62305129270b7cb17bc539d776bc6",
    "tail-table.csv": "f42679021c9b04265c9e99fa8868763261515918e37dc82dffed44d3b499b5b2",
    "joint-table.csv": "fc54f5e1cf7b3a6066f3f47ae17443c2e58600423d278096b5f86170d2b3acfd",
    "fit-analysis.json": "e40c06d1c22bd8fe78b2d536da9b6a658aeed4d283e96ba0c039d77d32f694dc",
    "shared-analysis.json": "efa569d2290108d27386347c5be3e579d7df1adf0802a0aaef51dcbdf6a1995e",
    "mc.json": "d98c39751f567dea968af9d36491164e1b59cd272ea157c49b119f02d4cf0d46",
    "mc-linear-space.json": "7ce6817096d0d1b3758ed6d5651eba0248ed1ec0026a58d182264f06a61822ac",
    "fit-no-restarts.json": "714779dc08c008576ec4d57485105aa9f3127f2209e8c0093079098fcc2a679a",
    "tail-one-restart.json": "72a4e845e9b55b5b508af1b85ab7424da3c91e9e1b6b5213efbd586193091386",
    "fit-iteration-cap.json": "ba9ac5089a912586a249d9b344f364d430eba00c3592268f94c1ef054d1cd869",
    "mc-no-restarts.json": "6bc5f6803b74a3edf126fd9de879f635cd3038f869bc35dfa3b887e98e694a09",
    "mc-redraw.json": "29bac0df9dfb3163d269efd3a9a4c88a1e94b57e6b35a389eccf324cce5b0ed2",
    "mc-iteration-cap.json": "062d36e47f1281881c2c752eec9863f85a4c4922f8a5df151f361cd315ed02ee",
    "mc-huge-noise.json": "145907444aad175fdc498d745ce576bfa710c33c15c34c0eaf1c4abb9595ff84",
    "char_noise-source-0.1-7.tsv": "0ab6eb26a6bf125bec58ade8ac5686b8e6f1befa58b02181ae4128bf98570349",
    "char_noise-source-0.1-18446744073709551621.tsv": "c071506ad98836731f4a2a31c55572843b667145ceaf213864cc76b418a43fb1",
    "char_noise-source-1.0-7.tsv": "41a6177624941eb018a7733aee923ceef4bcac62fa0378c2365ee78c58a0e60a",
    "char_noise-source-1.0-18446744073709551621.tsv": "015dc5e413659df6883fe7c10e51591c39a42904b3db6eade1884bf75e25e93c",
    "char_noise-target-0.1-7.tsv": "d4474cf8459c96c26ad090a985d3f1558ce7b8335e7fb3e24706d3aeecb91650",
    "char_noise-target-0.1-18446744073709551621.tsv": "f0eb6a25116f26406fdf32761ce0ee1170e71a488177867c2c9a043e8e45b886",
    "char_noise-target-1.0-7.tsv": "2a38a443faec473dc42075c3dd06c860eab5511a38307533e3787067f65bc83e",
    "char_noise-target-1.0-18446744073709551621.tsv": "3d99f2028296b502f91b5a722fe5e5fc8d789bc434888b1c6c80d186bc7a9ef6",
    "word_delete-source-0.1-7.tsv": "38c6d4ae52a075ac73639454b5be2e6d9f957c0b1c9cfccd9c2f92e13a9b2961",
    "word_delete-source-0.1-18446744073709551621.tsv": "76193dd485bc2c388501b007bbd40dc57a922e75338dab197df1245fe9e77f08",
    "word_delete-source-1.0-7.tsv": "e8ea74667f12d2a7921c21540b064fe7fff9d492d52c68e6ec4cafa0498e1916",
    "word_delete-source-1.0-18446744073709551621.tsv": "e8ea74667f12d2a7921c21540b064fe7fff9d492d52c68e6ec4cafa0498e1916",
    "word_delete-target-0.1-7.tsv": "cb3b05df3039e77cc4d9aaa7d77f101f0d4f4f95343cabe4707931e175a7d217",
    "word_delete-target-0.1-18446744073709551621.tsv": "e698d7c31cedf0b15cc227ffd48ec141fde9353c892f469e4f7062aa0d881782",
    "word_delete-target-1.0-7.tsv": "234df832583da7365490857815de6bc0ffb50718c02bd1a37ec222053af91db7",
    "word_delete-target-1.0-18446744073709551621.tsv": "234df832583da7365490857815de6bc0ffb50718c02bd1a37ec222053af91db7",
    "pair_shuffle-source-0.1-7.tsv": "cd6f75c2b46e34d582aa003c436b4c517a9ffaaf91c5bb06e7d2abc1601d07a0",
    "pair_shuffle-source-0.1-18446744073709551621.tsv": "6cf6c21df278401c460f8a1a6e134722c3c1ac69fe109eeb1f1e85e47f13f35f",
    "pair_shuffle-source-1.0-7.tsv": "f750ae15ed0edc0c3a5ba3792394b4344c21d3a9c7f9eb9f7c3fbcf0fab94d74",
    "pair_shuffle-source-1.0-18446744073709551621.tsv": "f750ae15ed0edc0c3a5ba3792394b4344c21d3a9c7f9eb9f7c3fbcf0fab94d74",
    "pair_shuffle-target-0.1-7.tsv": "cd6f75c2b46e34d582aa003c436b4c517a9ffaaf91c5bb06e7d2abc1601d07a0",
    "pair_shuffle-target-0.1-18446744073709551621.tsv": "6cf6c21df278401c460f8a1a6e134722c3c1ac69fe109eeb1f1e85e47f13f35f",
    "pair_shuffle-target-1.0-7.tsv": "f750ae15ed0edc0c3a5ba3792394b4344c21d3a9c7f9eb9f7c3fbcf0fab94d74",
    "pair_shuffle-target-1.0-18446744073709551621.tsv": "f750ae15ed0edc0c3a5ba3792394b4344c21d3a9c7f9eb9f7c3fbcf0fab94d74",
    "filter.tsv": "16b8e0d73f97bf0b2c04d1779462995b18b9301cf592aab8ce5525498da780c1",
    "sample-7.tsv": "881ec36998453354f36f2e77e72e1c031b7c7a4fc96aef96d36c1f4cfe160c86",
    "sample-18446744073709551621.tsv": "7e1e0728b5a625e0e3de50417ed11e7652072a322739d5afa45dd3b6cac860ae",
}


# Words with non-ASCII and astral characters, and separators with runs of
# spaces and non-ASCII whitespace (which ``str.split`` also splits on).
CORPUS_WORDS = ["the", "cat", "Straße", "naïve", "Жук", "日本語", "😀", "𝔘𝔫𝔦", "café", "x", "€5", "—"]
CORPUS_SEPARATORS = [" ", " ", " ", "   ", "\u3000", "\xa0 "]


def corpus_text() -> str:
    """A scored corpus of 120 pairs with empty sides, padded sides and one
    2000-character source."""
    lines = []
    for i in range(120):
        rng = SplitMix64.for_item(99, i)

        def side(n_words):
            text = ""
            for _ in range(n_words):
                text += CORPUS_WORDS[rng.next_below(len(CORPUS_WORDS))]
                text += CORPUS_SEPARATORS[rng.next_below(len(CORPUS_SEPARATORS))]
            return text.rstrip() if i % 4 else "  " + text

        source = "" if i % 17 == 3 else side(rng.next_below(15))
        target = "" if i % 13 == 5 else side(rng.next_below(15))
        if i == 50:
            source = "é€ßЖ😀 " * 400
        lines.append(f"{source}\t{target}\t{rng.next_below(1000) / 8 - 40}\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command once; map each output name to (exit code, bytes)."""
    work = tmp_path_factory.mktemp("golden")
    rows = []
    for i, (label, alpha, c, p) in enumerate(NOISE_BLOCK[::2]):
        law = ds.PowerLaw(alpha, c, p)
        rows += ds.simulate(law, DOUBLING_GRID, 0.02, seed=20 + i, condition=label).rows
    (work / "obs.csv").write_text(format_observations(ds.ObservationTable(rows)), encoding="utf-8")
    params = ds.JointLawParams(alpha=1.8, p=0.3, beta=2.0, p_e=0.3, p_d=0.25, l_inf=0.01)
    joint = ds.simulate_joint(params, SHAPES, DOUBLING_GRID, 0.01, seed=30)
    (work / "joint.csv").write_text(format_observations(joint), encoding="utf-8")
    (work / "corpus.tsv").write_text(corpus_text(), encoding="utf-8")

    results = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, argv in COMMANDS:
            code = main([*argv, "--output", name])
            with open(name, "rb") as fh:
                results[name] = (code, fh.read())
    finally:
        os.chdir(cwd)
    return results


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_output_is_byte_identical(outputs, name):
    code, data = outputs[name]
    assert code == EXIT_CODES.get(name, 0)
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


def test_iteration_cap_is_reported(outputs):
    report = json.loads(outputs["fit-iteration-cap.json"][1])
    assert report["converged"] is False
    assert report["n_iters"] == 3
