"""Run outputs pinned byte for byte.

Each digest is the SHA-256 of a run's level-2 ``trace.tsv`` followed by its
``report.json``, exactly as ``percept run --trace-level 2`` writes them.  A
change that keeps behaviour must keep every digest; a change that means to
alter behaviour must say so and re-record them.
"""

import hashlib
import json

import pytest

from helpers import BRIGADE, tiled_brigade
from percept.cli import write_report, write_trace
from percept.controller import Controller
from percept.model_base import build_model_base

BRIGADE_DIGESTS = {
    1: "6f65ce153ccd210fdf04c5f1ff2fd902c70f1b407a8f809d03a83fd9576bec6b",
    2: "fab5aa58fbf665395a311d2eee77280b5882ae75a173a1a77d3d0b5b4859b9a5",
    3: "44f720dc42bb010c0d28b72d5b9612536c3edc8f391c3558a02b7cc50c67fa39",
    4: "ff519960509d3836ddede01fb409b806cc3a3eddf6b3e41726683205027d6af2",
    5: "5acf55d5690ce3054e833492a4421a91811d0ee41b47c445a037ee5749f2adcd",
    6: "68f1c5c93ebdfe2e2082627f05b09d6efef27de635f77eac77fe079e45f1c870",
    7: "4b782526e6a624cf4371bb0a448305f73783366e7119db301d9770721a689bb1",
    8: "26144f08b90b1d73c2d5a732e875bb09aa1d14c8070921b2e2ad6b2cee81ec5a",
    9: "6ba87a3eb75e4bc09b7198543805c88397ec25b939c55b87393d86f5bdc277d7",
    10: "136023a21faea490e1249d5620bcd883fe1e901bf249df855c58e0003cdb9fd6",
    11: "7758bc041b0d3fb9c07723cb7ca15b6f40ab6ab2570a104cffacdd35400c78fe",
    12: "43e7810ae3e6fff2d192cf7d5e1f5d9b4403f0b6929b30b7e876656627cd5042",
    13: "a9637296d3ca5ca8a90b9ad761a7aaaa132c8f6a017f0ca096a22968612b5706",
    14: "ccf5d9689fee61aba7bbc31c1e730c780e7b8e86101d9f85a728c9a6b53b3130",
    15: "22437c0893c7f06ac5b59ec63973cd67d84f1d5c7ed168d458f9628fca5a50d8",
    16: "a9e821457a2acb37b8383e8c65452144dd648c61152a5b86dd2ee9cff87a758d",
    17: "5d2fd6082a31ad8243055d6822ea5bab1e7e1044d2ac632e0e3fbe55be408209",
    18: "781e1e80cf819453e070d82c4dd30f5d11a635c6ecf5a0a2d2083d28c029706c",
    19: "8a93ea924bd5bc58703232afa45315a36a11b0bf3288dcc36317b9c50d9cee33",
    20: "2f40094d3bf85fcbe7ec4dd7004ae0de048acaf49736ee4fd20b057eba8d21b7",
    21: "1be38388a2b89eccc7a3bcfd89d0c5e5d59d11facd9d7c85c8a7f783d493e695",
    22: "af23eff9a057478316db0b966b492383cc6bd642c0177bb7989e01e8e5dbad2e",
    23: "c11e925309a4b89cb320208f5ea2b604f0bf741d3db30441cb63328746b0ee45",
    24: "d2edc771162f3d72be32b056337bde7b7460ae4012ea9f2b04eb3506ef2aa600",
    25: "dcede77e358565ded310bc7891daf42c653debd7ca80609a5232764c7363d09c",
    26: "60616c24587838c31ef1919af19c9509cb6e1d42131e94ea31b025d43b026851",
    27: "0e5b8466296fad7e18f52f0343dc8fc6fdabaaca9c802756a19e1c1a8a919388",
    28: "c1e1a9f753daccef4e8251b6ecb710c714886b1835800220e6bb359dff5b7afd",
    29: "82e06c5d0a5b1dd575c68eabc931f8e68d879612f2956e1f52868d02d448591e",
    30: "1151c474ad1ce7de068f1e17e8ed7a16d3b9144f9a9f46a3283e28488e609590",
    31: "1a289676113a885e8627bc01daa49786ccbe57b5602dcfdaba48861e550ad77d",
    32: "085442e9d1b41a7aed58faf4748750a1d138f0b72c0be8b33e86a7bfeaad49b5",
    33: "928d38ebd14e1e7a01b9f7cbfbf939453e3d474244df1b088b07ab2c9ff461e2",
    34: "6d8246511a051d3fb3dd79b2849c93a9172942c498c5c5d7560a0973c24b743f",
    35: "5e705bdc31c32a4fb49fe5a1c824ffa756612f11f18ffd7770ef21766a6a39db",
    36: "a5126102c9aef2bdf12959e4a0623ad3ebac4bdeefbb93cf07eecaae9c40101c",
    37: "b6b668f85bad38123c33e6459ed9ee4b0525032f4c6f9cc40d6501e5e502d4e3",
    38: "9e8a4e63ba2647ee830c6c49374095b4244d2a5af939c3e1851906facd87056d",
    39: "4c89a5ba8921dd8e11eab84ee207f5586ac1f1f68f03038c8fcbb5433fb35bb4",
    40: "e8b579b3ddd3074d09f9ca4fb549a2deeae4523a45ce697bf1eca232e980cefb",
    41: "29fa6fa3b8fdf282ac079bd8097dbf7e0b6db7a05ec5e2efd4160eea7738a1fd",
    42: "70093b408d3a2f6ce726c8bbb226019be3e9df0eb66e0f0c30ba7a27ea60586b",
    43: "d63398fe070d4f1c261bae31f53ae94885542547f37eec384d91f7e173481eed",
    44: "bf00f8d121878a195f690867f2f78e16d5f34d6b88cd9b7a815548ca3be1bd8e",
    45: "d2178d07f5bedb380131d75229596b63ec1ed94838083e82e101262f49b766d9",
    46: "c7df753bc05bbd63251e50494c2bf3813df98ffe6b634ac3fb2774ee2d955b46",
    47: "f612a590fdeff6fdfd9c9b2c3cd3340eb30ab1e9973bd8a9db1c37aebff981d4",
    48: "2760529092a89539481f61ff183596ad03e889a53a2f6b4b88e5f788b7a0f6a3",
    49: "1843eecd89589f045c5a98af3e3c24431a5ece3a61c3d958348bcea8559f6695",
    50: "b38c37b8161bf8b54578c6a03291820609a56f127c57f374897fe0cbc810a6df",
}

# brigade seeds under the second value mode, with a wall that ends every run
EXPECTED_ABS_CHANGE_DIGESTS = {
    1: "17b2404d252d5812038d470fe6465f0ed6ba4f0009fdbaa02a4fe43f27e57d8f",
    2: "8c875a9de8fbf9a3af606e399cb86cc90fdb64e75e8a237374dc5388f2ed42ce",
    3: "d3b2cd09a81d3c47db3ec00accd6ddb9f3e7f3595304ef5ffd93db4dcd30c9d3",
    4: "762e0685c590456e66925f36fbed3589df98d100a1ce32ba6c15bd2885a14475",
    5: "d95a46a321f219674dccd4225fc1ac9cfd9b5aa605d9305c91bf40a12e7a8bce",
    6: "d6b14bd112a9e33ea3f4fb5190cc1d51afc460de5d8d2d76bc672a7243fd5d91",
    7: "540116ca7cfc0e1751db2e173c810f777b5e4f04df529c3a3570c8597482942a",
    8: "13c13dc84b8a9bbb6d7daa0914477958079a060465e29e5994c0aef76a70715e",
    9: "163d5de43d11287314b838f2dc4dcc9d926fca1b9e0a2285fb54f163c49aa769",
    10: "de9b05a6b15630e5ddb906347bccb52c1b0ca42cf4166a520e09cc38c95b31ee",
    11: "5565fbc40246b1ee57ce79582d8410e55b83d857df25a33395f7a35b2fb5588a",
    12: "e48e3bdeace372c162e8a80f97e600cb6b1cbecdd3e92e309e763c3c1fbdb786",
    13: "024cf018f15784161dac94fcedb56aa30f433e2f89ee9fb6752d894b72527a95",
    14: "12523b2a1048dd7ea5c145c1f3d97834a893e73eee54bdddf663d6d8e5012415",
    15: "c67abb024a2fc40f9e74b701901bcae10bca44a1f612839ddcb7249bb9ad5d34",
    16: "2b6d6410c167baec7e08b971f2f94b7305908323613d78cf8ed987ecc66aed93",
    17: "ffc9bba5d0292a5a16686ff0b44c9fdb90b4adb3a1f95d25d98731c988820c86",
    18: "f5346882e13349d487018c73a80b06ef60dece671a27c305f611fec2e1bd9811",
    19: "101dc7f5d1673ef8c969fb988d814198509ee042930a54096bc617567889793a",
    20: "654343cfb904ff4cd1d22444788e47aca20d2ec27fef0a25a8e24c1f5670f403",
}

TILED_8_DIGESTS = {
    7: "de7c0067fcf07fc792fabd85a7a713ebc750381fd6ac7f7955a1eff454b002d0",
}


def run_digest(raw: dict, seed: int, tmp_path, **overrides) -> str:
    report = Controller(build_model_base(raw), seed=seed, **overrides).run()
    write_trace(tmp_path / "trace.tsv", report, level=2)
    write_report(tmp_path / "report.json", report)
    data = (tmp_path / "trace.tsv").read_bytes() + (tmp_path / "report.json").read_bytes()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def brigade_raw():
    return json.loads(BRIGADE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", sorted(BRIGADE_DIGESTS))
def test_brigade_report_pinned(seed, brigade_raw, tmp_path):
    assert run_digest(brigade_raw, seed, tmp_path) == BRIGADE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(EXPECTED_ABS_CHANGE_DIGESTS))
def test_brigade_expected_abs_change_pinned(seed, brigade_raw, tmp_path):
    digest = run_digest(
        brigade_raw, seed, tmp_path, value_mode="EXPECTED_ABS_CHANGE", max_wall=6000
    )
    assert digest == EXPECTED_ABS_CHANGE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(TILED_8_DIGESTS))
def test_tiled_8_report_pinned(seed, tmp_path):
    assert run_digest(tiled_brigade(8), seed, tmp_path) == TILED_8_DIGESTS[seed]
