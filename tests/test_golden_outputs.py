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

``python tests/test_golden_outputs.py``, with ``datascale`` on the import
path, runs every command in a temporary directory and prints the ``DIGESTS``
literal of the outputs it wrote, marking each entry that differs from the
recorded one.  Paste it in only from a commit meant as the new reference, and
say for each marked entry why its output changed.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

import datascale as ds
from datascale.cli import main
from datascale.observations import format_observations

from conftest import DOUBLING_GRID, NOISE_BLOCK, SplitMix64

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
    # space, a log fit of target_noise (named from when power-law fits took
    # restarts), a tail fit of three points that the law interpolates, and a
    # fit stopped by its iteration cap.
    ("mc-linear-space.json", ["mc", "--input", "obs.csv", "--condition", "target_noise",
                              "--seed", "12", "--fit-seed", "3", "--n-reps", "20",
                              "--loss-space", "linear"]),
    ("fit-no-restarts.json", ["fit", "--input", "obs.csv", "--condition", "target_noise",
                              "--seed", "8"]),
    ("tail-three-points.json", ["fit-tail", "--input", "joint.csv", "--condition", "100000000x50000000",
                                "--d-min", "128", "--seed", "9"]),
    ("fit-iteration-cap.json", ["fit", "--input", "obs.csv", "--condition", "no_noise",
                                "--seed", "10", "--max-iters", "3"]),
    # Monte Carlo of target_noise (named as above), through the redraw rounds
    # (8 of the 20 replicates hold a non-positive first draw), stopped by an
    # iteration cap that leaves 13 of 20 unconverged, and with noise so
    # large that the losses reach 1e300.
    ("mc-no-restarts.json", ["mc", "--input", "obs.csv", "--condition", "target_noise",
                             "--seed", "13", "--n-reps", "20"]),
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
    "fit.json": "4fa2410d96765959ab8b7b6abaee7e5bbdeac4662346d31d89fd08b3ef008322",
    "fit-linear-space.json": "049de15ea8dd0bf788aa784d72c1f6c49ba5965989fc7e742f941b8e22a10075",
    "shared.json": "0ce935b2581014f3ccccf7f027602da3bdd8d1088835768ef0cb27736d0ed347",
    "shared-linear-space.json": "5f44c1ebba5edead9be115fb7c2d1b49e5603b7f3fa6ce6eaa7946bdaeb0d103",
    "tail.json": "3078ba7dd3318ba701dae2da8f759a4db43d38390ae43c7bbd90c0e50238ebac",
    "tail-linear-space.json": "00876a97029552d43033afe762551ac15d9a7883ced04f481036ba4d4424a11d",
    "joint.json": "3fe19aab2b993885759f9c00e80113183be270c4c1914279c63eb4e3eeb710c7",
    "joint-linear-space.json": "028f17ae88b34a1a89169c8fcbd4e3c02900e06535db609bdc5cb659f4bf9728",
    "ols.json": "585b86830705eaf80e444d58893a18233e19ad9d57047fae2db9606680226569",
    "fit-table.csv": "fb66a3a2c24155f5a8cfddaca6c1280df5577720813005e8dd3057e39e0c19ad",
    "shared-table.csv": "facb8cc7d02e0bff0d04cf1c3cf55e13adb0f56895dfc0276476b7f37448246f",
    "tail-table.csv": "1ef2d372bd3b6804300bd8066a6acb713b320592b0dedebe55f4198585c9456b",
    "joint-table.csv": "57b72ad941c890597dfb04d55f303fa1194a0e31dadeaae55fe3ff365240c18b",
    "fit-analysis.json": "e40c06d1c22bd8fe78b2d536da9b6a658aeed4d283e96ba0c039d77d32f694dc",
    "shared-analysis.json": "efa569d2290108d27386347c5be3e579d7df1adf0802a0aaef51dcbdf6a1995e",
    "mc.json": "4ba653c8be57be90196a74fe8f0d1621e722c8a91f5d05956395ea3250a59148",
    "mc-linear-space.json": "cf701a6c32aa50f95319d9af2e391a5c303a02db5a8c7a63c0dca45fbb2cfc7d",
    "fit-no-restarts.json": "c32d418bcc2035e1001ae497803539bcf748a527b985a4d639aa22fef55cf7cc",
    "tail-three-points.json": "ebbc285eb27c9e57d1ae2bb853f129e3d62c39c6a1a706b1f938d7f4f2724ca4",
    "fit-iteration-cap.json": "c05fd48e66361fcde201d1ea90c62723afdecf922183e7c941d96b8314ea9428",
    "mc-no-restarts.json": "b6bff909fa372f8246c1115a45fe58bb3555329df3382497c49fc0f907cdac28",
    "mc-redraw.json": "769edd596acf05380c5561d033266140bb43d448f4c00c36460174fe797fb57d",
    "mc-iteration-cap.json": "a62c007ce1009ba9ce0f8530539a14813e521cf850965ce1d0b109e8a57e202e",
    "mc-huge-noise.json": "9232fee25b7809d6803a8626ea3cc76f79b6e4f12e612a8c15179b416ecbf5e5",
    "char_noise-source-0.1-7.tsv": "dfc6da7e9c97744f6d443191b16d93aec54b937431eb1b4541505706ea947287",
    "char_noise-source-0.1-18446744073709551621.tsv": "41734a5b9d4a9d6e04a9605af11cf69406fcd280171457dd3e2e587e99607d4f",
    "char_noise-source-1.0-7.tsv": "41a6177624941eb018a7733aee923ceef4bcac62fa0378c2365ee78c58a0e60a",
    "char_noise-source-1.0-18446744073709551621.tsv": "015dc5e413659df6883fe7c10e51591c39a42904b3db6eade1884bf75e25e93c",
    "char_noise-target-0.1-7.tsv": "9ae8c0e084c41d32befde05fafff0336de6d2cc9009b3cdc8f6f4701ea95a4c6",
    "char_noise-target-0.1-18446744073709551621.tsv": "c0789fcd12c3a23be917d70ff28cce41a7be91456dec3ef862a5b32cf2f123ff",
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
    "sample-7.tsv": "6cb17d09f996c731250ebb85751d35d0c54ef9c2d5e11f8ead4ded45ef05e3eb",
    "sample-18446744073709551621.tsv": "f93cc352674f36624146bf630db99058ea367d3b2d647d31356e24d21222c359",
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


def run_commands(work: Path) -> dict:
    """Write the inputs into ``work`` and run every command there once; map
    each output name to (exit code, bytes)."""
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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_output_is_byte_identical(outputs, name):
    code, data = outputs[name]
    assert code == EXIT_CODES.get(name, 0)
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


def test_iteration_cap_is_reported(outputs):
    report = json.loads(outputs["fit-iteration-cap.json"][1])
    assert report["converged"] is False
    assert report["n_iters"] == 3


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        results = run_commands(Path(work))
    print("DIGESTS = {")
    for name, _ in COMMANDS:
        code, data = results[name]
        digest = hashlib.sha256(data).hexdigest()
        marks = [] if DIGESTS.get(name) == digest else ["changed"]
        if code != EXIT_CODES.get(name, 0):
            marks.append(f"exit code {code}")
        print(f'    "{name}": "{digest}",' + "".join(f"  # {mark}" for mark in marks))
    print("}")
