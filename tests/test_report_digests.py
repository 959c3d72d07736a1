"""The bytes of every ``evaluate`` report, pinned by sha256.

The matrix is 2d/2.5d/3d x F/P x threshold/oracle/external on a 72x64x4
``synth`` set brought to 90x76, so the bilinear image resize runs, with the
none denoiser, so no scipy filter bits enter the pins.  At patch 32 and
overlap 0.5 the P grid has an edge anchor on both axes.  The external
backend reads the one-hot of each truth, nearest-resized to the working
size and shifted 3 columns, so its cells score below 1.0.  An intended
change to a report's bytes updates this table, and says why.
"""

import hashlib

import numpy as np

from octpipe.backends import one_hot
from octpipe.cli import main
from octpipe.preprocess import resize_volume
from octpipe.volume_io import ProbVolume, prob_path, read_labels, write_volume

WORKING = (90, 76)

DIGESTS = {
    "threshold evaluate_2d_F.csv": "bb71a26832c3a67d82e9082a7269f94792bd4118b7dcab44676e7d9e6a289a11",
    "threshold evaluate_2d_F.md": "f38c37a1479db2dfac615fedce7c1928835fb1726d1ee1ef2b3cfd4d11a02e35",
    "threshold evaluate_2d_P.csv": "b828bbf244da43301ea183ae01130344928fe0d0d579e8fa91cd955f6ccaa91c",
    "threshold evaluate_2d_P.md": "9e564c86af274df844029ad7641e9281e02c270e0b12017783b533cd6c9d15e5",
    "threshold evaluate_2.5d_F.csv": "ddba957e5de94c3ef51248354f31a600d11f66602cf24d460d167268aebf9a66",
    "threshold evaluate_2.5d_F.md": "1ca164b315415f6136ea476458bea0aa02d022b9c288366e693d9ea1b506961a",
    "threshold evaluate_2.5d_P.csv": "7429969edae66bc8b32016c69d82fa7293e4600cc1ce916272acaba308248baf",
    "threshold evaluate_2.5d_P.md": "2a7cce75034a0ebb34a35e07341798f9cc51dbfb7a357551d0564059d295aaf4",
    "threshold evaluate_3d_F.csv": "eef14a50dcc5a91d59e53fd05dac4ebeb2affc341da4e098bf44cd330c3352d4",
    "threshold evaluate_3d_F.md": "31b8d1e4dd971fa06a672d222678589c24a62b8d2871351e458cbf772a3ee5b0",
    "threshold evaluate_3d_P.csv": "772ca4a723ba2b72cf3e224fa376cd7f348d8f5aedb030f8887d76bec08ee4dc",
    "threshold evaluate_3d_P.md": "2450655f852a34bc8064c0a90fdd87bd259aa79dd71694c440e49b1ea7c74bfc",
    "oracle evaluate_2d_F.csv": "7729e6800b78d1e77849db8d5ff64cf518f998ee267bddef797d0928017d271e",
    "oracle evaluate_2d_F.md": "ee1a463f993d129d452214a2a0d91f8d9c7e87cf0c2e1504372d067601a48331",
    "oracle evaluate_2d_P.csv": "b59ae0e5592b6171d6f389289b66180651817ccb68a8b4a812da3b1bd415bd5e",
    "oracle evaluate_2d_P.md": "5435e0d477d35191d876ed8146ccf915552e14512ccaf09c300a376a77177586",
    "oracle evaluate_2.5d_F.csv": "0e0a5f0a6667152bc9870e33ef6e8eba783c5f8643ade1c51c04b8530a363e71",
    "oracle evaluate_2.5d_F.md": "f395c32fbb0a54bf067e8ea8088bf85812438a3bf8607aa344756cecc897c9db",
    "oracle evaluate_2.5d_P.csv": "9ac8d213af5aea7213df2fbe2a18cbee0e3e32e4c5f9467620b51a9f2051d9da",
    "oracle evaluate_2.5d_P.md": "f9723a6691392a427a0592a538bf8444049e583e9f1dd4b5af838af8f72024aa",
    "oracle evaluate_3d_F.csv": "7df91363823b764196e21dae9958130661fd55847a9872b0d3e31c2d321ee233",
    "oracle evaluate_3d_F.md": "68483f589d14853c561bb329a9e151d0638ffa6e2beac04590856958868b0123",
    "oracle evaluate_3d_P.csv": "9768eeecfa24484baaee3ebc16c9e9ffd98ae84842d4767c430e7e1a0b16ab8a",
    "oracle evaluate_3d_P.md": "08cc81ae0d2b86de64472602653aa5047254a2fbe9dceb2cb7af65ce1c5785a9",
    "external:probs evaluate_2d_F.csv": "910c205d8e04e2d3c03e7eb7515fdc72ad4a97d9e1091511d28924f01f968a7e",
    "external:probs evaluate_2d_F.md": "1a231ada8f1e002c672637670c8cf2b6db2422d4389811c78a602dcfc033233f",
    "external:probs evaluate_2d_P.csv": "0fe363a01b9eea53cb830f8dc21c9c1fcde2be57b11c564eec52dea8a3b74462",
    "external:probs evaluate_2d_P.md": "6997e0d30f4a59f1e419496f4fed33f71e7da1ed3f98bbf1d996a97c90c06c9e",
    "external:probs evaluate_2.5d_F.csv": "7525ae8301a5002db4607e5d8b88e2139ff5c8a76c4e3e830ad73b996a4f8e64",
    "external:probs evaluate_2.5d_F.md": "9440f6b812e0b4e84e3097a713282365b869b39a1c315899ab3f14488b44ebb7",
    "external:probs evaluate_2.5d_P.csv": "9505107b00527469a215b55ddbf37021c1de5acd646cbb54965c4014928d3e18",
    "external:probs evaluate_2.5d_P.md": "296fe561b32330ce8b4ea9a1add71324bd71b0309e6618ebeacac60a1a95b49c",
    "external:probs evaluate_3d_F.csv": "c49eb53113f76cb478b02f3dc93c22bfea484361733d5914da7505f2af285ac2",
    "external:probs evaluate_3d_F.md": "9762b6b37e8114129cde4fd0d4f250e9c4ed9041b4b3ba6cb58279d32c704f57",
    "external:probs evaluate_3d_P.csv": "231787996ad26e4a080b52f3aa377e583fd95b3860721bde26ec6e3a411f87dc",
    "external:probs evaluate_3d_P.md": "998d38ef2520c7a6d1973954fba5c92798ec866f51c0edb623ad53656147f2a7",
}


def report_digests(root):
    """Synthesize the set under ``root``, run the matrix there, and return
    each report's sha256 by backend and file name."""
    config = root / "working.cfg"
    config.write_text(
        f"preprocess.target_2d = {WORKING[0]}x{WORKING[1]}\n"
        f"preprocess.target_vol = {WORKING[0]}x{WORKING[1]}\n"
        "preprocess.denoiser = none\n"
        "grid.patch_size = 32\n"
        "grid.overlap = 0.5\n"
    )
    data = root / "data"
    argv = ["--data-root", str(data), "--config", str(config), "--folds", "2", "--jobs", "1"]
    assert main(["synth", "--dims", "72x64x4", "--n-per-vendor", "2", "--vendors", "Cirrus,Spectralis", *argv]) == 0
    probs = root / "probs"
    probs.mkdir()
    for path in sorted((data / "labels").glob("*.mhd")):
        truth = resize_volume(read_labels(path), WORKING)
        write_volume(ProbVolume(one_hot(np.roll(truth.voxels, 3, axis=2))), prob_path(probs, path.stem))
    digests = {}
    for backend in ("threshold", "oracle", "external:probs"):
        for mode in ("2d", "2.5d", "3d"):
            for variant in ("F", "P"):
                out = root / "out" / backend.partition(":")[0]
                run = ["evaluate", "--backend", backend, "--depth-mode", mode, "--variant", variant]
                assert main([*run, "--output-dir", str(out), *argv]) == 0
                for ext in ("csv", "md"):
                    name = f"evaluate_{mode}_{variant}.{ext}"
                    digests[f"{backend} {name}"] = hashlib.sha256((out / "reports" / name).read_bytes()).hexdigest()
    return digests


def test_evaluate_reports_are_the_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the external model column is the relative ``external:probs``
    assert report_digests(tmp_path) == DIGESTS
