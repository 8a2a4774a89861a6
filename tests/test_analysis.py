"""The single analysis pass: output identity, violation text, walk count.

The digests below are the sha256 of `pirlab extract` and `pirlab transform`
stdout as produced before `analyze` replaced the separate independence
check and extraction walks.  They pin the CLI documents across that
refactor.  BUILD_SHA256 pins `pirlab build` stdout for the same (n, theta)
cases, as produced before one pattern-class table replaced the builder's
per-class step loops.  Those documents were written with
json.dumps(indent=2); pirlab now writes compact JSON, so each document is
re-rendered in the indented form (`conftest.indented_sha256`) before it is
hashed, and a pin holds exactly when the content, key order included, is
unchanged.  The transform pins were recorded when transform wrote one row
per pattern, so they are checked on documents written by that reference
(`reference_transform`); MERGED_TRANSFORM_SHA256 pins the stdout of
today's transform, one row per distinct joint query.

BUILD_SHA256 was recorded on v1 scheme documents (`pirlab/build/v1`), so
it pins the reference v1 writer (`reference_scheme.v1_build_text`).
ANNOTATED_V2_SHA256 pins `pirlab build` stdout as written in flat integer
columns while a scheme stored its patterns and side information, and so
the reference v2 writer (`reference_scheme.v2_build_text`);
BUILD_V2_SHA256 pins it as written today, the rows alone.  Both older
documents are refused now.  CLI_SHA256 and MERGED_TRANSFORM_SHA256 were
first recorded on the v1 documents; their stdout includes the input
digest, so they were recorded again on the rows-only `build` output,
before the v1 reader was removed, where the results (all but
`meta.input_sha256`) were the same from all three documents.
"""

import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import pirlab.patterns
from pirlab import cli
from pirlab.builder import build_scheme, verify_scheme
from pirlab.errors import ParameterError
from pirlab.patterns import (
    IndependenceError,
    Violation,
    analyze,
    check_independence,
    check_srp,
    extract_patterns,
)
from pirlab.scheme import Summation
from pirlab.sim import random_storage, run_deterministic_trial
from pirlab.transform import entropy_proxy_ok, transform

from conftest import indented_sha256, load_scheme, row_at
from reference_patterns import reference_check, reference_extract
from reference_scheme import v1_build_text, v2_build_text
from reference_transform import reference_transform
from test_patterns import _mutate
from test_transform import _gf2_reference

CLI_SHA256 = {
    ("extract", 3, 0):
        "aa26d6f389c8ed13684d3184f7076c217a5fe14acb791c54af1ca7d50766643d",
    ("transform", 3, 0):
        "a9c929f0c251768fb65560bb1827640456af68d52f471a4f371a5f64885cf6c5",
    ("extract", 3, 1):
        "4a65f017984ac4ac636d9e20a2300e373d93dd83723287ff9096a147e3a86f0a",
    ("transform", 3, 1):
        "0baa20bfdedb439bad87059d2ecee8dab49eaf2fe6356f06ab07a05076156a7f",
    ("extract", 3, 2):
        "c177e1ca7627c2c3f3fc138d56f224542065d36c00de8a7bc82757f25c4abca7",
    ("transform", 3, 2):
        "18f27f9fc1d69da2819d0341cbb908f420bab54d65d0f59521c6cb6d03bc1b8c",
    ("extract", 4, 0):
        "e04b46993fae4c55742080a640289394b6881eab3bc69e3fcba2b91491b986fd",
    ("transform", 4, 0):
        "999a3f1a0cd898482b284fa44797847f665eff090aa9215e359c2ede072fd71b",
    ("extract", 4, 1):
        "6ed7ca2fd11f012ea31bd313e12f1039fc9c092c0f20a01bb1287c59a670f1e7",
    ("transform", 4, 1):
        "c6b47bf4ab54f76d4f928e98271c745b8819dd6bfef4c2704fb016b679887e22",
    ("extract", 4, 2):
        "0e3bbabefe436ade35d65f29c42f9f192860cce0177933ec0e0121dac500c4c5",
    ("transform", 4, 2):
        "c1026d9f8311b2dcb1a44a3e70ebf622236c130d5816e6346da95031da284e11",
    ("extract", 4, 3):
        "5e3a9d97510a3766ebb327066f43c457184d6d8773321bfa62037ba2cd14a126",
    ("transform", 4, 3):
        "9746d5d8a2da858ea046edf18ea9d623698adcec8ec3128e28eb90e0b83dcd7b",
    ("extract", 4, 4):
        "8f2fcaf559661209eadb82210d5a5f3e1d9f2d60fd101301bdefb12383cad034",
    ("transform", 4, 4):
        "29bf668f9024193be97540c100b4c58e8a78aee9d91d0e4ac8c16c520aef072c",
    ("extract", 4, 5):
        "66edbfdd61a4a9089244e85a34321671b55d264e0d939d7f6baeac33f0bb861d",
    ("transform", 4, 5):
        "8fad92cc92f6a2507eb1ef1c607d1f343573ba70feedb7c0fb5b2ff2ce5db336",
    ("extract", 5, 0):
        "f3f9794c0d1f0ec88e74f696fad242d685c3b34b8e0fff01f13578c656f3e4af",
    ("transform", 5, 0):
        "cfedb0e005ee38930dfb40439b9e4b07710a653f8e4fdb5fea64d80ac7fba83d",
    ("extract", 5, 1):
        "5e4b53efba0f5ca1791abc7f6834e95d09daf9256b24b3b4074ee30d2c0df0cd",
    ("transform", 5, 1):
        "3bcacc207899687a4601420d5904e3a7aeaeaeea1f2a3404779acd7c40460bea",
    ("extract", 5, 2):
        "b7b4a3dac71a43289b7030712404c220289274cc321f9d9838c058b1d4e2c09b",
    ("transform", 5, 2):
        "546b090594decbc9d4eba221825e69fbf2677b0ac3bfd39bde58620e0a94f210",
    ("extract", 5, 3):
        "1b3d69952766e15c9334a54215ce87d02a597fe7a32689f05a1620201738757b",
    ("transform", 5, 3):
        "a1dba18f4a8ee46152623fc6726fdc71422fffc84273396cb6d5d557c6eec67b",
    ("extract", 5, 4):
        "8ea48c15a7c409a06655e38964743a413cedd78a73209d2298ee6b1c800783ac",
    ("transform", 5, 4):
        "4c11917a0979c8001b7be314ee735a1b59880bb304b65c484edd4bb518e8f95d",
    ("extract", 5, 5):
        "85787e4ca0fbe289ca77a2f1ffa44690a38791e14cded5252b052d58e7ad1b33",
    ("transform", 5, 5):
        "cf7b39a770c44bc022045a1807132953976f802c55be9e5e2a664b975a3b0f71",
    ("extract", 5, 6):
        "9bea141d7d213598f8a66d5a60b14b7c888de39b11ea059f17d61921f3ebf0ff",
    ("transform", 5, 6):
        "d55074ce54380fa8458991d0e36b96de709edad833a4d19b4e4fd3c4cfdee073",
    ("extract", 5, 7):
        "cb60ec76d81ffbfa606bc990cbba111a39ad1e01cc01d3b8f25182bf784f2d61",
    ("transform", 5, 7):
        "dec061d2793020847d0406c35a76426f0f9a4a18f7916854ee481752674e48cd",
    ("extract", 5, 8):
        "ba9c76e90af16c7ea080288f483de50932f5693764efc271a8b22259b8fa55f8",
    ("transform", 5, 8):
        "40ec9191f5b15dacf86d79611fb58e99d7dc3d76842d22a7a2cfc4142a640f73",
    ("extract", 5, 9):
        "77d4dea55e29d4c249b666f31a0730fb6db86c2a0854ae274bab0538b969e38e",
    ("transform", 5, 9):
        "86654897d66088cddf97ffa3bbcce9d9040cf789582097c25c97bbb359b33a2e",
    ("extract", 6, 0):
        "13e6b65b723f16c0ec106c376c7219dc8f7c90a3810da992c26bbfd141daec5d",
    ("transform", 6, 0):
        "81f62492f6fbee943d3c45eeb9495890c3617de23564824cff7ee2561d851d74",
    ("extract", 6, 1):
        "4946ec6e16212f18e025ed7aef34ee00f0d019ef1f367a920267d18873222fc7",
    ("transform", 6, 1):
        "fffe8064adad53745223f50fafcf9c8c6d32a3a77360c3509c6e201274c476d6",
}

BUILD_SHA256 = {
    (3, 0): "61f9167b6f6116251a0efce6d1cfa3c052405e89970ee8d8617cee56208b9fc9",
    (3, 1): "48a0d70e2de386e326ec1915b05d8f43d478099165e659564e4b27f9e3e1c528",
    (3, 2): "0ce68a8120f00125350ff2b32fb8925b9fad04ebae0625ceaa186c092d8221fe",
    (4, 0): "6fe11715883ec8e8334d83a15582c0e0ddec5fdce17abaa5e6d27cb61396028c",
    (4, 1): "c64e77a6d72ea55c4816d575094d6a6cbc8e48feb727ea6b3ea717609b94fb77",
    (4, 2): "35f466779899021481a9b3b446cd2e91b909c39e7c6edef5761cdcc2abe4103d",
    (4, 3): "c7251aca9f59735eb57f8b2799be883d2a4d284eae8993dcb7a5e969e85d3042",
    (4, 4): "34a9ab8b8bdb1f8dbee2884ec58781d71de3140dfc46b73a01cfb6ec71124200",
    (4, 5): "48d3f2fa7cbae9adcb3d148c6009d847285e18db4118a22eaa9356093f131976",
    (5, 0): "ca217c43e316c13c8f893cac7116954848b73a7660f218b8ce8eb7fb1e82d136",
    (5, 1): "e2cf428e9621b9de86267afa4c6d1239a605780e97b01502a4ef79b3bbfdc2a6",
    (5, 2): "cc8b308959ca4c811b745bcc4468d318b9354b30d2029dc9393547146cc55088",
    (5, 3): "f866a02ad3d4b87935125b3987c661d5a41819d5e4779969fde5793dbaf7c689",
    (5, 4): "aff0dba75224625740e74ae53f785848cb6b04e5d26d02a354e9c6609935e68c",
    (5, 5): "b91da70bef6e649245bc79b8c31aef81c20dc5553209214c946eb9846fabbc23",
    (5, 6): "b63a468dcdc122a11748bbd838840e6100ce8b970b8bd6fb7f69e54abdf032ad",
    (5, 7): "b22d3ce3552a0609d61be523cad745ea84a18c2e097b2859fba503f178789a10",
    (5, 8): "9c7c1279d0180dc1f79d7be5db6fc5fdc40e21e9227ad411b042c2acbc406471",
    (5, 9): "2bfcfef0184e909ba163e9d1c5efa98530c7032671afa8de1574a09782e8cc56",
    (6, 0): "79cb90410a1331d893a8d3024b11c0b1fc1effac608d1d89e8b35acdb62b5ea7",
    (6, 1): "9857c68cd25411bb667cf341fe69872a1ccafde230ed971b89494e6781256e19",
}

# sha256 of `pirlab transform` stdout as written, one row per distinct
# joint query (schema pirlab/transform/v2)
MERGED_TRANSFORM_SHA256 = {
    (4, 0):
        "4472318b07cd1ce5237f61da1e043f9a1bf47cfdf865c724686aca750d7223f8",
    (4, 1):
        "70b47a6f65bb4b04617768a8a4efddcdd86387e03a8fa510b4b6f3b041ec5f2e",
    (4, 2):
        "c59bd69d3279ed60d04cd5d3873804cbbf18e684fc888e4e696e1b114f937e38",
    (4, 3):
        "bf9d942be5072485467c9a957d40f2e63e3328a995143caca7ec0f56dc4ce34d",
    (4, 4):
        "991c29da996e3a8809d85b55f6fa038fa856780e53df18d3fde4aac3d4393670",
    (4, 5):
        "d12dcf09f8848613029797d164112ab863020ce623168c90d15134cd48cc711f",
    (5, 0):
        "a735da68b8e9479ebb927fbce9157edccbd3cefbc7e52f581460513fe6fa06dc",
    (5, 1):
        "12b60d3ad2249b5c096e360a630817c12312275b3e37e05ee00731508de388f0",
    (5, 2):
        "5fc88309dd7c9e3cb88747db96361271506288e04a75ec5979312cc6b18f5dff",
    (5, 3):
        "43c9a7dedae3c27402b31bef05b1158f9efe442d2660682e3e44ba734c6b5fa4",
    (5, 4):
        "af4295610eda2018a1c8666e11e6d4c103a1f0b1521ae5b70bf68ff84b107a42",
    (5, 5):
        "a3944e36dc9f3da9b3f84232c276e6a07af669d6c3b48fb6960d7c90afe8e58a",
    (5, 6):
        "3041b991fca12034d44639512e1c150d299758aa41df04567b9c7abc4544a215",
    (5, 7):
        "3f10cc4719557b12e8efb3966a630dd28e336388a52c775706c21b3d44f6ec5a",
    (5, 8):
        "aa3c5273d0a7e7029716ec7b97928bdf2c7d5a1115cbe185044573041b04a3d4",
    (5, 9):
        "1364e1f2767b525aa261922e2bc91dab57f5e4fcf2fe9b647892f2b6c758bbe5",
    (6, 0):
        "99247e41f44709f7a9c03afa5fcf4b2b50048474293c53f268de6596d4d57a3e",
    (6, 1):
        "7a4abfc133ca998b7025b00086f131a52756be41080891dc0a1028a8f65790aa",
}

# sha256 of `pirlab build` stdout as written while a scheme stored its
# patterns and side information, flat integer columns with those columns
# after the rows (schema pirlab/build/v2)
ANNOTATED_V2_SHA256 = {
    (3, 0): "4d7f24590e16644bb24092d4ad98c912f245cbf92d7ba7ef595809b8ab8ad4a1",
    (3, 1): "f35018e32e209b0941fa362b84ddd135c71251637335eb7cf1961ba945fa4072",
    (3, 2): "38d2203bcba89505e3374ff662ea16d230fb2027837b9bc42e35b3983b16fc2b",
    (4, 0): "6df6e13626283feecbaf65fcc18dae27be7f5b7ff39e99ee2102a63c0b88774d",
    (4, 1): "80aa1956c73b56c371ad70edc807e38a3f35d86afcadc12676bb9dbb64e5ce03",
    (4, 2): "3087fe7ca9b445d01c1cb0c46d9fd803433bf60b90b191794bc452a53c1642e7",
    (4, 3): "94b8de45ab323f53f3f4783db068a9edc78179e41d4c9fb7da79969937738c4d",
    (4, 4): "9f5d9d0f65a2737e5325fbad31403a6e8a9152ffb50e80ed3f4bf1018d806f4f",
    (4, 5): "5cfd033b411237799467132258d6e76de42104ff9f1ec5faac223b286fd039a4",
    (5, 0): "469ff69b2dbaf7743989e1fa3f2564497e27b5764c35a6beecf4b0de86cb70a6",
    (5, 1): "2ddfde8e6e812477ef9e73aa84e2b6286ed8dba56c2b7ed91ddea1a03a67a2be",
    (5, 2): "2e698618e820beab689e57614eaca4476bea2c1e463f420c754be6cca9cd8172",
    (5, 3): "88ed26744b7798af87955eed19d4501f2ba8adc7c8a3b3baa30491f9598f01f3",
    (5, 4): "17927ca49504934092d75a78fb3b3fdcf12cd6c33880ade716c6644c84f0c915",
    (5, 5): "deaa24fce8f16473b2c0341c9ad4775900c2a10d25dcbfc8e55fdf82bdfbe997",
    (5, 6): "3f114019038b83987bb5c3d66a660c9553492e086fb16da3e1ebd8a23da77a9f",
    (5, 7): "479c4f20ec86ca82be54d24598af1e172c4abb924e8a1b5055e4fa25967e748f",
    (5, 8): "fa5a06d307bdb4a6727bb664690f34a7d1eeea2fa3784f23b320c6e5521fdf11",
    (5, 9): "76750171fb43ab660d44e33876b64df695584ad4c33e42c1ed306a94a68516c0",
    (6, 0): "fc07204d2c7c5cd01532279db47d8b7ba353eddb5e954ba0c571078fc6d1d3cc",
    (6, 1): "4c2d180497988fefdf55cb7f35a676c72e0fc9fe1d2f5ba41a32103d2402ce7e",
}

# sha256 of `pirlab build` stdout as written, the rows' flat integer
# columns alone (schema pirlab/build/v2)
BUILD_V2_SHA256 = {
    (3, 0): "e7dedb33ff26cea9e766b0cd610662331ffc2e9ab79ac9f850e9ba54ff25bd35",
    (3, 1): "edab018203bfe5d85d2c9dcb4c36abcbe048d5859d7812d59faf070fa88045c8",
    (3, 2): "c7907262b8a3d4fcd337c0d38333363abd3c7a85539ecc5d4a8b310a4b35b318",
    (4, 0): "fd84ac9ce8ee6277c215f972250a5d62a7568b7842947fb08d103e84b48cdbd0",
    (4, 1): "9fab3c31305b3ef1819dc2b8136d4ae00a993c59bb67cb8f6939f033583468cd",
    (4, 2): "ed7753f379be5fdb36e2b042fdbd35b73ac69475106613170ba0a76d61e83641",
    (4, 3): "a22d4a1709543d1d17ea6293d135b2a2fbfa0b6d4ed9eadf660d1e7739a1abaf",
    (4, 4): "567826cb5fe2805d519a585572d56193e9e405192deb28e1b333d750bed0abe5",
    (4, 5): "ef8b1ad88a5a30e7a44c3ef5708d2b2ba048ffa27e425779916cf7982650c658",
    (5, 0): "6d8d19095175fea083d93dc2eeaf875dabe02d15eeecb97480e37492e536500c",
    (5, 1): "9389c56ace1da81360af844f9467484030e96a979fd96164c353508f6bd28b91",
    (5, 2): "2058233aca9db430180ab657a6ea3d21d93c0205dd47c8a39c81d60629c06cd5",
    (5, 3): "d96bb7f0ce328e656bc0ec3b7bdcf20388ea764796b08391215ceabde6db486f",
    (5, 4): "9ba9fc5839bf2379581ed8d49c76f1c8dcabe416c679de3dc27dfba188f2f111",
    (5, 5): "fb1c154a63c5e733910c325854d1b270ba475c82fae9469045e8cfa8647aaa09",
    (5, 6): "f542296fda975c130189cc70c71ac9b6767fa6d228399946e882cce98a3a39c0",
    (5, 7): "c88f0bdf7af9efc39a0a9263b30ad7575edb0234480ee1fea163bfed769efa96",
    (5, 8): "ad8818623a19e2ebdc8cb1c4d4370924fb375a847220590821778db066efbe2b",
    (5, 9): "4038579fcc03615b3d387b36430b834ab73910b469bbdd9750dea292acfd00fc",
    (6, 0): "aa3f5af7d7ffea1938fc90e37037444cfdbebef4d599cc09e7366f79d3a3463c",
    (6, 1): "b09e26285c1204ac82cc584f12132eb6e072886bb32aa8ad60171adf07978260",
}

CASES = sorted({(n, theta) for _cmd, n, theta in CLI_SHA256})


def _run(capsys, argv):
    capsys.readouterr()
    assert cli.main(argv) == 0
    return capsys.readouterr()


@pytest.mark.parametrize("n,theta", CASES)
def test_cli_output_bytes_unchanged(n, theta, tmp_path, capsys, monkeypatch):
    # the transform pins were recorded when transform wrote one row per
    # pattern, so they hold on documents written by that reference; all
    # of them read the build document
    monkeypatch.setattr(cli, "transform", reference_transform)
    assert indented_sha256(v1_build_text(n, theta)) == \
        BUILD_SHA256[(n, theta)], ("build", n, theta)
    path = tmp_path / "scheme.json"
    path.write_text(_run(capsys, ["build", "--n", str(n), "--theta",
                                  str(theta)]).out)
    for cmd in ("extract", "transform"):
        capsys.readouterr()
        assert cli.main([cmd, "--scheme", str(path)]) == 0
        out = capsys.readouterr().out
        assert indented_sha256(out) == CLI_SHA256[(cmd, n, theta)], \
            (cmd, n, theta)


@pytest.mark.parametrize("n,theta", CASES)
def test_merged_transform_bytes(n, theta, tmp_path, capsys):
    path = tmp_path / "scheme.json"
    path.write_text(_run(capsys, ["build", "--n", str(n), "--theta",
                                  str(theta)]).out)
    capsys.readouterr()
    assert cli.main(["transform", "--scheme", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "schema: pirlab/transform/v2\n"
    if n == 3:
        # no two K3 slots share a joint query, so nothing merges
        assert indented_sha256(out) == CLI_SHA256[("transform", n, theta)]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == \
            MERGED_TRANSFORM_SHA256[(n, theta)]


@pytest.mark.parametrize("n,theta", CASES)
def test_v2_build_bytes_and_results(n, theta, tmp_path, capsys):
    # build writes the rows alone; the v1 document and the v2 document
    # with patterns of the same scheme are refused, each with one line
    out, err = _run(capsys, ["build", "--n", str(n), "--theta", str(theta)])
    assert err == "schema: pirlab/build/v2\n"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        BUILD_V2_SHA256[(n, theta)]
    annotated = v2_build_text(n, theta)
    assert hashlib.sha256(annotated.encode()).hexdigest() == \
        ANNOTATED_V2_SHA256[(n, theta)]
    path = tmp_path / "scheme.json"
    for text, layout in ((v1_build_text(n, theta), "the v1 layout"),
                         (annotated, "stores patterns and side_info")):
        path.write_text(text)
        for cmd in ("extract", "transform", "simulate"):
            capsys.readouterr()
            assert cli.main([cmd, "--scheme", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 2
            assert layout in err.splitlines()[1], (cmd, layout)


def _all_conditions_broken():
    # a5+b2 -> a5+a6 at S1 repeats file 0 (condition 1) and a6 (condition
    # 3); b3+c3 -> b2+c3 repeats b2 at S3 (condition 2); b1 -> a1 asks S3
    # for a file it does not store (condition 2) and repeats a1 (condition
    # 3); the components then no longer cancel (condition 4).
    return _mutate("k3_scheme.json", 1, 3, [[0, 5, 1], [0, 6, 1]],
                   (3, 3, [[1, 2, 1], [2, 3, 1]]),
                   (3, 0, [[0, 1, 1]]))


def test_violation_tuple_pinned():
    rep = check_independence(_all_conditions_broken())
    assert not rep.ok
    assert rep.violations == (
        Violation(1, "row 3 at server 1 repeats files [0]"),
        Violation(2, "server 3 asked for file 0 it does not store (row 0)"),
        Violation(2, "subfile symbols [(1, 2)] repeat at server 3"),
        Violation(3, "desired subfiles must appear exactly once each: "
                     "missing [], repeated or out of range [1, 6]"),
        Violation(4, "rows [(1, 2)] leave uncancelled symbols [(1, 1)]"),
        Violation(4, "rows [(1, 3)] leave uncancelled symbols []"),
        Violation(4, "servers [2, 3] each contribute several rows to one "
                     "component"),
    )


def test_analyze_matches_public_wrappers(k3_scheme, star4_scheme):
    for scheme in (k3_scheme, star4_scheme, build_scheme(4, 2)):
        report, extraction = analyze(scheme)
        assert report == check_independence(scheme)
        assert extraction == extract_patterns(scheme)
    report, extraction = analyze(_all_conditions_broken())
    assert not report.ok
    assert extraction is None


SOURCE_SCHEMES = [load_scheme(name) for name in (
    "k3_scheme.json", "star4_scheme.json", "two_per_server.json",
    "star_center_heavy.json")] + [build_scheme(3, theta) for theta in (1, 2)]


@st.composite
def mutated_schemes(draw):
    """A source scheme with a few rows replaced by random summations.

    File ids are mostly valid; now and then one names a file the graph
    does not have, which both analyses must reject the same way.
    """
    scheme = draw(st.sampled_from(SOURCE_SCHEMES))
    nfiles = len(scheme.graph.edges)
    term = st.tuples(st.sampled_from(list(range(nfiles)) * 8 + [nfiles]),
                     st.integers(1, scheme.L + 1), st.sampled_from((1, -1)))
    edits = draw(st.lists(st.tuples(st.sampled_from(sorted(scheme.queries)),
                                    st.integers(0, 99),
                                    st.lists(term, max_size=3)),
                          max_size=3))
    queries = {srv: list(rows) for srv, rows in scheme.queries.items()}
    for srv, pick, terms in edits:
        rows = queries[srv]
        if rows:
            rows[pick % len(rows)] = Summation(terms)
    return scheme.replace(queries=queries)


def _outcome(fn, scheme):
    try:
        return fn(scheme)
    except ParameterError as exc:
        return ("ParameterError", str(exc))


def _b1_read_at(*places):
    """The K3 fixture with the non-desired symbol b1 (file 1, subfile 1),
    which rows 2 of server 1 and 0 of server 3 hold, added to the row at
    each (server, index) of `places`: read 3 or 4 times in all, so its
    parity has to flip at every read, also twice in one row."""
    k3 = SOURCE_SCHEMES[0]
    queries = {srv: list(rows) for srv, rows in k3.queries.items()}
    for srv, idx in places:
        queries[srv][idx] = Summation(queries[srv][idx].terms + ((1, 1, 1),))
    return k3.replace(queries=queries)


@settings(max_examples=300, deadline=None)
@given(mutated_schemes())
# b1 read 3 times: again at server 3, in another row or in the same one,
# or at server 2, which does not store file 1; then 4 times
@example(_b1_read_at((3, 1)))
@example(_b1_read_at((3, 0)))
@example(_b1_read_at((2, 0)))
@example(_b1_read_at((3, 1), (3, 2)))
@example(_b1_read_at((3, 0), (3, 0)))
@example(_b1_read_at((2, 0), (3, 0)))
def test_analyze_agrees_with_reference(scheme):
    got = _outcome(analyze, scheme)
    want = _outcome(reference_check, scheme)
    if isinstance(want, tuple):  # both must reject the same file id
        assert got == want
        return
    report, extraction = got
    assert report == want
    if report.ok:
        assert (extraction.patterns, extraction.side_info) == \
            reference_extract(scheme)


@pytest.fixture
def analyze_calls(monkeypatch):
    calls = []
    real = pirlab.patterns.analyze

    def counting(scheme):
        calls.append(scheme)
        return real(scheme)

    monkeypatch.setattr(pirlab.patterns, "analyze", counting)
    return calls


def test_each_caller_walks_the_rows_once(analyze_calls, tmp_path, capsys):
    s = build_scheme(5)
    assert verify_scheme(s).ok
    assert len(analyze_calls) == 1

    analyze_calls.clear()
    ex = extract_patterns(s)
    assert len(analyze_calls) == 1

    analyze_calls.clear()
    transform(s)
    assert len(analyze_calls) == 1

    analyze_calls.clear()
    transform(s, ex)
    assert analyze_calls == []

    path = tmp_path / "k5.json"
    assert cli.main(["build", "--n", "5", "--out", str(path)]) == 0
    analyze_calls.clear()
    assert cli.main(["extract", "--scheme", str(path)]) == 0
    assert len(analyze_calls) == 1
    capsys.readouterr()


# ============================================================
# one analysis per scheme object
# ============================================================

@pytest.fixture
def walks(monkeypatch):
    """The schemes whose rows `analyze` actually walked."""
    calls = []
    real = pirlab.patterns._walk

    def counting(scheme):
        calls.append(scheme)
        return real(scheme)

    monkeypatch.setattr(pirlab.patterns, "_walk", counting)
    return calls


def test_analyze_walks_each_scheme_object_once(walks):
    s = build_scheme(5)
    first = analyze(s)
    assert analyze(s) is first
    assert len(walks) == 1

    # every reader of the analysis shares that walk
    assert verify_scheme(s).ok
    assert check_independence(s) is first[0]
    ex = extract_patterns(s)
    assert ex is first[1]
    assert transform(s) == transform(s, ex)
    assert entropy_proxy_ok(s)
    assert s.patterns is first[1].patterns
    assert s.side_info is first[1].side_info
    storage = random_storage(s.graph, 2, s.L, random.Random(1))
    assert run_deterministic_trial(s, storage).ok
    assert len(walks) == 1

    # replace() gives a new object, which is walked again
    fresh = s.replace()
    assert run_deterministic_trial(fresh, storage).ok
    assert len(walks) == 2 and walks[1] is fresh
    assert analyze(fresh) == first and analyze(fresh) is not first
    assert len(walks) == 2
    # the kept result is not a field
    assert fresh == s and repr(fresh) == repr(s)
    assert "_analysis" not in fresh.to_json()


def _duplicate_first_row(scheme, server):
    rows = list(scheme.queries[server])
    rows[1] = rows[0]  # every symbol of row 0 now repeats at the server
    return tuple(rows)


def test_swapped_row_tuple_changes_the_verdict(walks):
    s = build_scheme(4)
    assert verify_scheme(s).ok
    extract_patterns(s)
    assert len(walks) == 1

    good = s.queries[2]
    bad = s.replace(queries={**s.queries, 2: _duplicate_first_row(s, 2)})
    assert not verify_scheme(bad).ok
    assert 2 in {v.condition for v in check_independence(bad).violations}
    with pytest.raises(IndependenceError):
        extract_patterns(bad)
    assert not entropy_proxy_ok(bad)
    assert len(walks) == 2

    # an equal row block that is not the one walked is walked again
    again = s.replace(queries={**s.queries, 2: tuple(good)})
    assert again.queries[2] == good and again.queries[2] is not good
    assert verify_scheme(again).ok
    assert len(walks) == 3

    # a queries map that gained a server is refused
    with pytest.raises(ParameterError):
        s.replace(queries={**s.queries, 9: good})
    assert len(walks) == 3


# ============================================================
# readers of the analysis against plain readings
# ============================================================

def _srp_counts_by_files(scheme, extraction):
    """check_srp's counts as read through every selection's .files."""
    t1, t2 = scheme.graph.endpoints(scheme.theta)
    counts = {t1: 0, t2: 0}
    for p in extraction.patterns:
        for srv, idx in p.selections.items():
            if scheme.theta in row_at(scheme.queries[srv], idx).files:
                counts[srv] += 1
    return counts


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_entropy_proxy_and_srp_match_plain_readings(n):
    for theta in range(n * (n - 1) // 2):
        s = build_scheme(n, theta)
        assert entropy_proxy_ok(s) is _gf2_reference(s) is True
        ex = extract_patterns(s)
        assert check_srp(s, ex).counts == _srp_counts_by_files(s, ex)


def test_srp_counts_match_plain_reading_on_fixtures(k3_scheme, star4_scheme):
    for s in (k3_scheme, star4_scheme):
        ex = extract_patterns(s)
        assert check_srp(s, ex).counts == _srp_counts_by_files(s, ex)
