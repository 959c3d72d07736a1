"""The bytes of every ``evaluate`` report, and of ``preprocess`` and
``patchify`` outputs, pinned by sha256.

The matrix is 2d/2.5d/3d x F/P x threshold/oracle/external on a 72x64x4
``synth`` set brought to 90x76, so the bilinear image resize runs, with the
none denoiser, so no scipy filter bits enter the pins.  At patch 32 and
overlap 0.5 the P grid has an edge anchor on both axes.  The external
backend reads the one-hot of each truth, nearest-resized to the working
size and shifted 3 columns, so its cells score below 1.0.  The same set
pins what ``preprocess`` writes, with one volume's labels removed, and
what ``patchify --slice-policy all`` spills for one volume in each depth
mode and variant, ``run_config.txt`` included.  An intended change to
any of these bytes updates its table, and says why.
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

OUTPUT_DIGESTS = {
    "patchify_2.5d_F/patches/cirrus_00_z0000.json": "80edfc9dfb1f1d927ed912f481918dd7322c01fa37a650f80c93f70dc5d65215",
    "patchify_2.5d_F/patches/cirrus_00_z0000.raw": "43316a082f6a6d1b791451a8d5b01b963752e2b91275936eb54d9c497209db34",
    "patchify_2.5d_F/patches/cirrus_00_z0001.json": "b2d535300dbf2b31666034386551c85c94252c74c4a284557ff1b5561239b139",
    "patchify_2.5d_F/patches/cirrus_00_z0001.raw": "bf122c8adb693371775a16a5342cd49fda45e55ab1b7b4afd6818a8d78a7cdf8",
    "patchify_2.5d_F/patches/cirrus_00_z0002.json": "122bd058a161d259e265b50f77331ac097740138e0776e0917460c3c66e96a01",
    "patchify_2.5d_F/patches/cirrus_00_z0002.raw": "a5e60a70fc189588bd37fcc32d006a52295d5015c96e7eb0064a9d85ec0317d3",
    "patchify_2.5d_F/patches/cirrus_00_z0003.json": "2b01522749dab2dd113d464957d965a191ddc293a45b076076c499a426dfae4a",
    "patchify_2.5d_F/patches/cirrus_00_z0003.raw": "e270ea810e0f1f3c2caaf65d5c1cc8894bb8dd8a3d53545846d42543ac07cc1b",
    "patchify_2.5d_F/patches/run_config.txt": "136084e28cde7042ad6fd9ba1b2a0a1d76a2f51aeb1c3beffcd069ff97e3995c",
    "patchify_2.5d_P/patches/cirrus_00_z0000.json": "936ba63a69017ec968c8ccb33e46b96250686a7d7f04c1e1273f2b5f3d166535",
    "patchify_2.5d_P/patches/cirrus_00_z0000.raw": "564267d5ec6c634c10093843f31aa904bda5acbfed3f43c3045bcd4f4d438772",
    "patchify_2.5d_P/patches/cirrus_00_z0001.json": "131c9be4bc7ce12712c4bb1ac3c389ec47baed9ae6618ceabc5401ccced68bcb",
    "patchify_2.5d_P/patches/cirrus_00_z0001.raw": "129b668f999d5e3463a8d1ca2d834574d28b9e0c1bee5653f07022ce4a09958d",
    "patchify_2.5d_P/patches/cirrus_00_z0002.json": "5ef36b0cbeb6b471d6dadca05081005878527077487f245bb15109a24e7ab1b6",
    "patchify_2.5d_P/patches/cirrus_00_z0002.raw": "2d5afed2ca017122c43c05029fe44a8a024f617664162a14d243f9fd54d86aa6",
    "patchify_2.5d_P/patches/cirrus_00_z0003.json": "551d2d105cc982c6085d1260a35ef24d12ef878f142751ac6ffe006878b58b33",
    "patchify_2.5d_P/patches/cirrus_00_z0003.raw": "b0b6b257b0bc3ceabc9fa1bb6158293ad5bfc1fb52f73ec1e6623a5684f55754",
    "patchify_2.5d_P/patches/run_config.txt": "8c489d9c64983edfe476289f6bbc009886a9204de0ed79d665599d214c9bfc69",
    "patchify_2d_F/patches/cirrus_00_z0000.json": "5fd1a56f335cbee65e67207d3bdd66757dfa93b438baa7dfd4253bca5a8972f9",
    "patchify_2d_F/patches/cirrus_00_z0000.raw": "c837832a8e9f6d6ea93d7d950322d6fa1208ebb664bdca333560aac35fa9dc70",
    "patchify_2d_F/patches/cirrus_00_z0001.json": "5d8a25602fa0ccd70d71a58cec0639701a2f6c2c29edc106fc26a7c27b89ee17",
    "patchify_2d_F/patches/cirrus_00_z0001.raw": "203e625ab5406ad3937cfd26f6e7f8af37ffd3efd09b3a847aa137d2f75393ee",
    "patchify_2d_F/patches/cirrus_00_z0002.json": "a72ee0fa8a4b2d841391738c6de088819c1edbf404d92a45d3dbf8388a8e108a",
    "patchify_2d_F/patches/cirrus_00_z0002.raw": "c3fddd3e76922980ea2517a4108692c716e1e4cde3fdd80e4a9ae9b2c75ce45b",
    "patchify_2d_F/patches/cirrus_00_z0003.json": "3334268d90d76f6a5a7ea747800a56a4dc0beba51714d84f4cf034e21c421d9e",
    "patchify_2d_F/patches/cirrus_00_z0003.raw": "a7fd8d5039d0a5db4e0d96ea8991f7b3ec4ae6648223e59f4fca7e2cb3cb2b2d",
    "patchify_2d_F/patches/run_config.txt": "ec8fa137abfd8b44289e9ba888967ebb93e5a7328b125adb023af1b25962c7f8",
    "patchify_2d_P/patches/cirrus_00_z0000.json": "97a0f49f1a0c9848934bbdd835c384c655c7971796bdb4968f4f7fe459ff0101",
    "patchify_2d_P/patches/cirrus_00_z0000.raw": "ba7c845aa0626050479900ee1286ee08f54629a1477647c3841d64a32496bcbf",
    "patchify_2d_P/patches/cirrus_00_z0001.json": "324592f59c927c4546d61a4ed602c53ff160228127ab5b1b06e405efd83b7452",
    "patchify_2d_P/patches/cirrus_00_z0001.raw": "c3e904f6d1774b166a871380c34ef19be908e02887626fd1f7dc51c28107cf7d",
    "patchify_2d_P/patches/cirrus_00_z0002.json": "2e7526b80e47b8a5b065e6240f2f29ba2c6ab1aac99bf07b74da9703c836a7bb",
    "patchify_2d_P/patches/cirrus_00_z0002.raw": "333ce53ae7fa3d423d6d37b38534a54a9643a37fc62b7468b669606438278f58",
    "patchify_2d_P/patches/cirrus_00_z0003.json": "a8c7b8597fa46c81a367f7120763432114ce4e9561b617e8ae35bf930ea87c6f",
    "patchify_2d_P/patches/cirrus_00_z0003.raw": "cc2dac9960c0d68416b607a81cf13bb2bcbe4ac820a7b9de02bd0652d2186f90",
    "patchify_2d_P/patches/run_config.txt": "c6516d5626cbc8670a12738125772b61d6f9ab9c2058d6668c85e15b586fdaf8",
    "patchify_3d_F/patches/cirrus_00_3d.json": "6ebf2f99e785cdcfe1e2d2b84715b46bff513e8b49dc6da4f68b912952b40883",
    "patchify_3d_F/patches/cirrus_00_3d.raw": "07291ef5ed7a0372b7252523895be1ac98bf43df08791a13169fa938ca83e0da",
    "patchify_3d_F/patches/run_config.txt": "7125d79938264eed3de7fbcdf7b4b85b498e60fb4ad434b389fe23f1ff63263f",
    "patchify_3d_P/patches/cirrus_00_3d.json": "dd49fde94a4aa8660cb23650bb83f61dfbc7642666b4f71ac255c0a9bef73342",
    "patchify_3d_P/patches/cirrus_00_3d.raw": "30cdc0c1b6ea04f06cc1a1284c5908bb08824394e50200f3e2e5446c48cf3d4b",
    "patchify_3d_P/patches/run_config.txt": "ed2dc05bd81c7124a3e361ff4f69f4dd39874ed1bf660c12b4e1c8fa19d4fa8a",
    "preprocess/volumes/cirrus_00.mhd": "e482b9c2fb663315c1583be43955bb40770fd7687ef19448dfea02cc90aac17b",
    "preprocess/volumes/cirrus_00.raw": "07291ef5ed7a0372b7252523895be1ac98bf43df08791a13169fa938ca83e0da",
    "preprocess/volumes/cirrus_00_labels.mhd": "bfbe62be24504bc83471db48d7e0ea23c560cbe1ab1e8ba62a9586b00e45f919",
    "preprocess/volumes/cirrus_00_labels.raw": "6d80b6a590aa27a8f0eb486cb4eadfec90e5354ad622c85f063961e1cb9e059f",
    "preprocess/volumes/cirrus_01.mhd": "0e25d3f074fd7fcaf5463cac95b6f8103603c557c6740abb62b382376ba1dacb",
    "preprocess/volumes/cirrus_01.raw": "3cdf3d54826819130e24ca3f00390c25eb19d3e0499e841fc86e0d1a31ae78bb",
    "preprocess/volumes/cirrus_01_labels.mhd": "916103a8384e521e5dfdcdf213f8c6b2ac0de72422c3c3883e2c7bcdd2a70385",
    "preprocess/volumes/cirrus_01_labels.raw": "8981eb8f92b176f5dd497511035347e596547cdfff5006e20b73654909092afb",
    "preprocess/volumes/run_config.txt": "4e88d8071789b23aea5e6b8ad394317ba0e12613f97d2c7b0f5e077b5d94ffee",
    "preprocess/volumes/spectralis_00.mhd": "8d555601673e43dc0e4e85ee42ab9bc29edf911c25e287b90da638c68c2d80ab",
    "preprocess/volumes/spectralis_00.raw": "cf913104c2979c54b0a1d2b1c6fcabfb0c18714c99b5565fd44a83d4f5e55c2b",
    "preprocess/volumes/spectralis_00_labels.mhd": "1bdd03af758caff59601dd52a7557586742ae95666f8ceaeb3ec99ae88a47568",
    "preprocess/volumes/spectralis_00_labels.raw": "63361b7e8203c86603ba07b500480410d120734c4dcaaaca337c28b107e9c75b",
    "preprocess/volumes/spectralis_01.mhd": "8f02b2afe1c562c7d2949610e91b67b8173669852c8e44a62bb5f04ab8f3b3d5",
    "preprocess/volumes/spectralis_01.raw": "9d029b3948bbe648ed3e5c6c6c6ac4780276a5f5fb8298bd2146f74a22353f4a",
}


def synth_set(root):
    """Write the working-size config and synthesize the set under ``root``
    (the working directory); return the arguments each command takes."""
    config = root / "working.cfg"
    config.write_text(
        f"preprocess.target_2d = {WORKING[0]}x{WORKING[1]}\n"
        f"preprocess.target_vol = {WORKING[0]}x{WORKING[1]}\n"
        "preprocess.denoiser = none\n"
        "grid.patch_size = 32\n"
        "grid.overlap = 0.5\n"
    )
    argv = ["--data-root", "data", "--config", str(config), "--folds", "2", "--jobs", "1"]
    assert main(["synth", "--dims", "72x64x4", "--n-per-vendor", "2", "--vendors", "Cirrus,Spectralis", *argv]) == 0
    return argv


def report_digests(root):
    """Synthesize the set under ``root``, run the matrix there, and return
    each report's sha256 by backend and file name."""
    argv = synth_set(root)
    data = root / "data"
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


def output_digests(root):
    """Synthesize the set under ``root``, then return the sha256 of each file,
    by its path under ``out``, that ``preprocess`` writes with one volume's
    labels removed and that ``patchify --slice-policy all`` writes for
    cirrus_00 in each depth mode and variant."""
    argv = synth_set(root)
    for path in (root / "data" / "labels").glob("spectralis_01.*"):
        path.unlink()
    assert main(["preprocess", "--output-dir", "out/preprocess", *argv]) == 0
    for mode in ("2d", "2.5d", "3d"):
        for variant in ("F", "P"):
            run = ["patchify", "--volume", "cirrus_00", "--slice-policy", "all", "--depth-mode", mode]
            out = f"out/patchify_{mode}_{variant}"
            assert main([*run, "--variant", variant, "--output-dir", out, *argv]) == 0
    out = root / "out"
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_preprocess_and_patchify_outputs_are_the_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # each run_config.txt names the relative ``data`` and ``out/...``
    assert output_digests(tmp_path) == OUTPUT_DIGESTS
