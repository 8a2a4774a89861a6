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
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import pirlab.patterns
from pirlab import cli
from pirlab.builder import build_scheme, verify_scheme
from pirlab.errors import ParameterError
from pirlab.patterns import (
    Violation,
    analyze,
    check_independence,
    extract_patterns,
)
from pirlab.scheme import DeterministicScheme
from pirlab.transform import transform

from conftest import indented_sha256, load_json
from reference_patterns import reference_check, reference_extract
from reference_transform import reference_transform
from test_patterns import _mutate

CLI_SHA256 = {
    ("extract", 3, 0):
        "8962c38418a52b6c61fa13012df418a17ec44d77c607048c7259fa59ccc0a3f9",
    ("transform", 3, 0):
        "1ca47c2dc0b0a1fffead84979702249cc27e971c2177d1db686102816f95f9da",
    ("extract", 3, 1):
        "4de470d330c4b4cf3414bd356c5920f3ee3c0e0645dcce2e0677714ad720465d",
    ("transform", 3, 1):
        "aca8c19493bf7bda911a13e8a2e61c0f704514e773c7da9955224fe283563ee3",
    ("extract", 3, 2):
        "e12684439ae9bedd792d59951e8098db5dfca19cfed8bf0228e8fbad956cea27",
    ("transform", 3, 2):
        "4a2d21da73abf22f7dddc26fa5e1156ff7ce848883ea92141807f466c77ce390",
    ("extract", 4, 0):
        "5019f3f31be6341280b1d4b92906f5e3f6210fdb1a65c408833e3d9dd9f7d4ca",
    ("transform", 4, 0):
        "73cb81c342337a8151fb2a4dee3c0cbac7cc3ae1678729cb22fc19a83295e012",
    ("extract", 4, 1):
        "d882bc7ec68279d684ce5fe6714058852716cbbc1a46d67ad5f1af845f9d22c9",
    ("transform", 4, 1):
        "22ced59a33d5c36d9b4208e557cfd35ea3849ed229a1feaa7ee81939f8650402",
    ("extract", 4, 2):
        "bce584f8bcac3caec8156caaf5bfdaadfae0d4a1c9b20d55f381e369d053b0e3",
    ("transform", 4, 2):
        "282912d240743f0636dc9b06f1352902392a72eb5330dad690beb58d289bce6d",
    ("extract", 4, 3):
        "4b339639fd998d3ed708a068f12d91e557114fcc43955bebd4164f35c1b1266c",
    ("transform", 4, 3):
        "44606449217a04d76f6e9542d0d4d1ef2a6e35cefba167bb07484c01e8fb81b9",
    ("extract", 4, 4):
        "5a08c38ddb1c0384707d628247a7de24ab75687a8a622db57e430223590d2047",
    ("transform", 4, 4):
        "f212af1fc8ec042d46199b288e946d1fa0f544e274eab7c37510a1bb19936ffa",
    ("extract", 4, 5):
        "6ca01b5f7015bbef7443e6c6573cfbf8ddb89b8946c2b2097a7ddcbf2a07d36d",
    ("transform", 4, 5):
        "3dc6672ea76134f9144e55634925f451598497aa39f6afffe4ef852021ed88cd",
    ("extract", 5, 0):
        "8c6ba7cb24b868894fdc9db9a3da743b9ef0ad7335d7ac91e879b069634e5b25",
    ("transform", 5, 0):
        "402b2b2aaa384e703b3a9fa6a1d0d2e49e6806abeebf0fb2af2ceca4599e4854",
    ("extract", 5, 1):
        "c3d254dbdbc028d54a0077502edaa54e83a14fcc4868d699cc87e24f2f52fec3",
    ("transform", 5, 1):
        "a8572184df7172482bb017f9f4b2f4f205cbf66024c5ec044554e7092016386c",
    ("extract", 5, 2):
        "2281d9cb8a75f7968f6d83098867a3293f3109d8c77469b76c336a213be3cf56",
    ("transform", 5, 2):
        "5fe5f075ebf58cfa247ec27aed9b2801099f321234bd28c79d5d527bd4cb8c1c",
    ("extract", 5, 3):
        "ff217a765877593fd9b9067a94dd0289e684d2263b242a334036bb88b6e0f74d",
    ("transform", 5, 3):
        "a0501b4300f1a62cce263c39af2451bbf5c99c55e153ec7bc6b6f8b3f16fa24d",
    ("extract", 5, 4):
        "f8c8386ca187db31a15f5170fcd3b9f9de550489dfe65293303eb831eea963d8",
    ("transform", 5, 4):
        "a2920920f96e41218aa62c6d43143db1ad1da78c31a3c69906100f3a63159e14",
    ("extract", 5, 5):
        "7327c6c23330a15b51a4388222628adbee0265354a938c2f3d34e6c6af7a265a",
    ("transform", 5, 5):
        "84f989056dfedb12c8206b503ba91d67ebf84c4267ad7aba36e11015d7688495",
    ("extract", 5, 6):
        "6551489328385c767ceb75c5b5df41ac483f2b2d35c3dcad1a2a88d05835c108",
    ("transform", 5, 6):
        "93570cdcef58dc4b6be212910eed6e90ab7199b50ef6e12442c6d97391ab8e70",
    ("extract", 5, 7):
        "b59641d4b3bdc3234a0c72ae997d8594c47ea47bb75d6f06443d1fbec33a12a2",
    ("transform", 5, 7):
        "6216b27c31faeaccfd7db375b1f25d50f9ec47196b18f78584fd85b49fa07bab",
    ("extract", 5, 8):
        "a4680014158338adf536fec705f9471304c0c9595433e469c32e2a3c9dfe8a6b",
    ("transform", 5, 8):
        "ab90e296fa19e92a5e313a99c1979af2b62212eef2bdb877a02d7eb424e68bb0",
    ("extract", 5, 9):
        "a5bd32edd9d61f26c24f6b8c8e48df52734e3c8b3fa252e79d23e64ac2d18635",
    ("transform", 5, 9):
        "0b36b29df3f40655963f2351f13db1828e88cda6e2830437600ef6f44416a10d",
    ("extract", 6, 0):
        "4d364b4853aad033781a804d4c386118ac39fe6b159a6dead55a9ef40272c63f",
    ("transform", 6, 0):
        "6029fb1d2472f7f262d88a5254b1b0103c3925b87a57cfb634b3b1b31b4eda77",
    ("extract", 6, 1):
        "7fe4926cc2777cb33d25b1363e20d324a87bc6e1e34d3663ebe98fe7fe5748a7",
    ("transform", 6, 1):
        "f1516ae444457ac111ce4a744de43eb5e0d55fcc85ad096cdb995faac7b31a6d",
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
        "ffd94a54b811f2a462c17c36e24199bbfd83beef61f77f3bd02de056292066ba",
    (4, 1):
        "0c09c3914ae901ac395a6f8834654d4cae6ff7cc79b15d18fba5a72837fb8d37",
    (4, 2):
        "fbef59c63306170385094185442ee290806d8b99d81a35cdd1f006d1bc7dc6c5",
    (4, 3):
        "1cb61e0ff843443c3142e92f72cb12c7be0431d14d5e3680c1f097760f787956",
    (4, 4):
        "b11d7c75e1aa95353609fa43ceecadf4657cea2592cb058a35a861ced382e1e5",
    (4, 5):
        "a1eb7a17991a3754c297f01c8080eb15dd38122b786ba80c3493e7ea637b84cc",
    (5, 0):
        "dfa1bf3a29487bfb3b0dfb1142d34f5400d03736bab0910f78809df3273a3d61",
    (5, 1):
        "5403bdfc5b3820e0aceb14a53488889741775d4ceb25e292d5d3d527ce5151f9",
    (5, 2):
        "559f29e05596e41e8f3a044b12f07d06ff34827434552f40558504dfbb5c6058",
    (5, 3):
        "aa586cbbcf34b57d40ed03e1a49b674bf9088d40a6ec8a9d2e0060ffeb50bc61",
    (5, 4):
        "aa0899e62c79981eff0d01eea6c6c39f2b796ebb79d39ba3a7d2ffadd78beb56",
    (5, 5):
        "c8373491979ed87aecf189aabbcd91f343c5dd645f326af07a828c592396f356",
    (5, 6):
        "8a611d3f46f6853a2dcafc71451ada041fcb8828177eff65c5a558203e282363",
    (5, 7):
        "fc598bb965193aca05c7dfb2dcca62b25c0ca48a5a4f3973b1968412fdea5be4",
    (5, 8):
        "298c0b93edb8e46b20c1b8bfb610142d9588c8d128a33dc7a6046a1f0f7b078a",
    (5, 9):
        "86cdc761a78ef89addfbb26d37d37c37b4efa036a85938f7ace1fd89ed7cc633",
    (6, 0):
        "f47520f980ad794d48297c7bc7fe9685836dfeded1ebecbc9a62b291edf368fe",
    (6, 1):
        "3297a5620fbae9c6c12a729afc17a525a95039125bd7893c308d91938b92f4a5",
}

CASES = sorted({(n, theta) for _cmd, n, theta in CLI_SHA256})


@pytest.mark.parametrize("n,theta", CASES)
def test_cli_output_bytes_unchanged(n, theta, tmp_path, capsys, monkeypatch):
    # the transform pins were recorded when transform wrote one row per
    # pattern, so they hold on documents written by that reference
    monkeypatch.setattr(cli, "transform", reference_transform)
    capsys.readouterr()
    assert cli.main(["build", "--n", str(n), "--theta", str(theta)]) == 0
    out = capsys.readouterr().out
    assert indented_sha256(out) == BUILD_SHA256[(n, theta)], \
        ("build", n, theta)
    path = tmp_path / "scheme.json"
    path.write_text(out)
    for cmd in ("extract", "transform"):
        capsys.readouterr()
        assert cli.main([cmd, "--scheme", str(path)]) == 0
        out = capsys.readouterr().out
        assert indented_sha256(out) == CLI_SHA256[(cmd, n, theta)], \
            (cmd, n, theta)


@pytest.mark.parametrize("n,theta", CASES)
def test_merged_transform_bytes(n, theta, tmp_path, capsys):
    path = tmp_path / "scheme.json"
    assert cli.main(["build", "--n", str(n), "--theta", str(theta),
                     "--out", str(path)]) == 0
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


def _source_docs():
    docs = [load_json(name) for name in (
        "k3_scheme.json", "star4_scheme.json", "two_per_server.json",
        "star_center_heavy.json")]
    return docs + [build_scheme(3, theta).to_json() for theta in (1, 2)]


SOURCE_DOCS = _source_docs()


@st.composite
def mutated_schemes(draw):
    """A source scheme with a few rows replaced by random summations.

    File ids are mostly valid; now and then one names a file the graph
    does not have, which both analyses must reject the same way.
    """
    doc = draw(st.sampled_from(SOURCE_DOCS))
    doc = {**doc, "queries": {srv: [dict(row) for row in rows]
                              for srv, rows in doc["queries"].items()}}
    nfiles = len(doc["graph"]["edges"])
    term = st.tuples(st.sampled_from(list(range(nfiles)) * 8 + [nfiles]),
                     st.integers(1, doc["L"] + 1), st.sampled_from((1, -1)))
    edits = draw(st.lists(st.tuples(st.sampled_from(sorted(doc["queries"])),
                                    st.integers(0, 99),
                                    st.lists(term, max_size=3)),
                          max_size=3))
    for srv, pick, terms in edits:
        rows = doc["queries"][srv]
        if rows:
            rows[pick % len(rows)]["terms"] = [list(t) for t in terms]
    return DeterministicScheme.from_json(doc)


def _outcome(fn, scheme):
    try:
        return fn(scheme)
    except ParameterError as exc:
        return ("ParameterError", str(exc))


@settings(max_examples=300, deadline=None)
@given(mutated_schemes())
def test_analyze_agrees_with_reference(scheme):
    got = _outcome(analyze, scheme)
    want = _outcome(reference_check, scheme)
    if isinstance(want, tuple):  # both must reject the same file id
        assert got == want
        return
    report, extraction = got
    assert report == want
    if report.ok:
        assert extraction == reference_extract(scheme)


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
