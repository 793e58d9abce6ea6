"""Golden data-path digests: a calibration stays byte-identical.

Every service time the traffic engine uses, and every figure and claim,
comes from one run of the data path: ``build_pair_setup`` (or
``build_fanout_setup``) and ``Invoker.invoke``.  These digests pin that
path's complete output, so bookkeeping changes around it (how charges are
built and folded, how a ledger window is summed) cannot move a figure.

Each case is fingerprinted as the ``repr`` of the workflow's aggregate
``TransferMetrics`` (its ``breakdown`` and ``node_seconds`` key order
included) together with the cluster ledger's ``breakdown()``,
``syscalls``, ``context_switches`` and peak memory after the invoke.  The
perfbench workloads at a tenth of their size pin the same path as the
traffic engine drives it.

The digests were recorded before that bookkeeping was rewritten for speed
(frozen ``Charge`` records built through their dataclass constructor, one
filtered pass per window total).  ``sum()`` became compensated in Python
3.12, which moves the last bits of some float totals, so each digest is
recorded twice: once for Python < 3.12 (3.9 and 3.11 agree) and once for
>= 3.12 (3.12 and 3.13 agree).
"""

import hashlib
import sys
from typing import List, Tuple

import pytest

from perfbench.workloads import WORKLOADS, summary_digest
from repro.experiments.environment import (
    INTER_NODE_MODES,
    INTRA_NODE_MODES,
    build_fanout_setup,
    build_pair_setup,
)
from repro.payload import Payload

_SIDE = ">=3.12" if sys.version_info >= (3, 12) else "<3.12"

#: Payload sizes around the page (4 KiB) and chunk (64 KiB) boundaries.
PAYLOAD_SIZES = (1, 4095, 4096, 65536, 65537, 300000, 1 << 20)

#: Every valid (mode, internode) pair.
MODE_PAIRS: Tuple[Tuple[str, bool], ...] = tuple(
    [(mode, False) for mode in INTRA_NODE_MODES] + [(mode, True) for mode in INTER_NODE_MODES]
)

FANOUT_DEGREE = 3

#: Fraction of each perfbench workload's simulated duration run here.
SCALE = 0.1


def _fingerprint(setup, payload_bytes: int) -> str:
    result = setup.invoker.invoke(setup.workflow, Payload.virtual(payload_bytes))
    ledger = setup.cluster.ledger
    return repr(
        (
            result.aggregate,
            ledger.breakdown(),
            ledger.syscalls,
            ledger.context_switches,
            ledger.peak_memory_bytes(),
        )
    )


def _digest(fingerprints: List[str]) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode("utf-8")).hexdigest()


def pair_digest(mode: str, internode: bool) -> str:
    """One fresh pair setup per payload size, as each calibration builds."""
    return _digest(
        [
            _fingerprint(build_pair_setup(mode, internode=internode), size)
            for size in PAYLOAD_SIZES
        ]
    )


def fanout_digest(mode: str, internode: bool) -> str:
    return _digest(
        [
            _fingerprint(build_fanout_setup(mode, FANOUT_DEGREE, internode=internode), size)
            for size in PAYLOAD_SIZES
        ]
    )


def workload_digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name](seed, SCALE)
    workload.setup()
    return summary_digest(workload.execute())


def _case_id(case: Tuple[str, bool]) -> str:
    mode, internode = case
    return "%s-%s" % (mode, "inter" if internode else "intra")


PAIR_DIGESTS = {
    "<3.12": {
        ("roadrunner-user", False): "30de205353dd6411a5a55b957cddeb92ba94bbaa49d4a34825e472086ba8a399",
        ("roadrunner-kernel", False): "416098920b64ef5117a87eca894cfa554e73bc364c20ac519a6fc21930b3bde4",
        ("runc-http", False): "78e655cab1c624f20f92a91a5a3b33e4feb00880ddc4aa2f88207e9a53e7a8bf",
        ("wasmedge-http", False): "72d063bca504f69a1419f7e75000adbb7bf71a28d53818ca94dfdedab87c9b15",
        ("roadrunner-network", True): "a95a9297aa0d0aa3a29f243749618087e94cead359cd291b0b16118890b9967f",
        ("runc-http", True): "bf3e83b50edb5a4dca24aeaf05417ca6cc221916214461774fa07d9a0796ba7d",
        ("wasmedge-http", True): "98ee1b29a0d160f00c577329e1bd50120a561ae767ccd1806f7cb0ec8d0f64b9",
    },
    ">=3.12": {
        ("roadrunner-user", False): "0f880b82352302a84d50214895b8d87307b39e7e0383dcfbfe3a0ab5b8cfd63c",
        ("roadrunner-kernel", False): "020e05a3adb51269e972b33374809c4761a79368ac2148975de539df0f2700e2",
        ("runc-http", False): "692966c06be3df8f60b09d0c87eb37c9b7bf773fafaa71dd9ba20ccbaa2d29d2",
        ("wasmedge-http", False): "4a062b4fb76cb685cb7ab2f160ccdfb8b2e27a2b34afe19d07b0e910bcc602df",
        ("roadrunner-network", True): "42f63b2c6bc161732086ce34ef6669fee4645f84091d140ccb31ed879db3b738",
        ("runc-http", True): "782cfb67a2a30d8e0f634a9a460de146c9b761c4410ab39dc124868aeff06328",
        ("wasmedge-http", True): "74b357776075e7eb4535fa4e0a02608fa63a43f989f039d0a6a2f25c8714f2b9",
    },
}

FANOUT_DIGESTS = {
    "<3.12": {
        ("roadrunner-user", False): "e52b326a53e000c0fc76ca6be06ff54bd071de2aea8686e5983ff41ed8580b2a",
        ("roadrunner-kernel", False): "824606f05bb4ac20fc6d699cb4174b0bc53bf415901ea8191b713dc59ef49538",
        ("runc-http", False): "bc1d07114aafe450030f4920a42e328611310e0fb55a28105890f55ef7e4e7a9",
        ("wasmedge-http", False): "df061d364e6e9a92be6cab52168548894bfb3b0a0be406e792e936d072e085cf",
        ("roadrunner-network", True): "53b10de544591a40ac8850cd19e0da2e64f4114826d503e8488ea19620516f15",
        ("runc-http", True): "09e674b3886b42e5893d5ff53c2ede33df8f132d6b9d47afccdcbb91b2c07670",
        ("wasmedge-http", True): "8a9d70b62a1f4cf2723b3c3c3757202d28077741320f3813c8b4b23c1d646634",
    },
    ">=3.12": {
        ("roadrunner-user", False): "a7ef60b3ffd690ae5f930ca43bd4657f341e05d60ea361d56015eb0c5c9feabe",
        ("roadrunner-kernel", False): "d1bce391d0c08aee1d794decbc503ef543a788e8e361d394625e048e752f1dd7",
        ("runc-http", False): "e204653b9dd01b7164d84bdd2ceb9f4dbb9b5f18b407f655d5e118d4518aebc8",
        ("wasmedge-http", False): "88278ebc2a1247d177986addc7b1b56a3d3e45cbd09f9ee8ed59217ae9259c5a",
        ("roadrunner-network", True): "57b9d3364e75f8474145cbd727585b7564b203b4370f9f9a43f625bf7f45ff6f",
        ("runc-http", True): "1a65f269ba6913672a5c29de432c886ffe537c3a3453945e973499a089a1ecfd",
        ("wasmedge-http", True): "eb9bc4c1acae4aca31a7edc96c968c97d21e41c6cf7eab5c7ed2a180af908998",
    },
}

WORKLOAD_DIGESTS = {
    "<3.12": {
        ("contended", 7): "6ddb31799f364c65f3bf63aead9890b89edbfcc29c7e13a22739e69bcd845912",
        ("contended", 11): "b5436d6cb00293a059bcc894cbc8c4702014ffd1ad21f7f7d89a6b61a458bf25",
        ("federated", 7): "eec05b825450e967fa035943bbdc16b234e7b8dbf337149b4be7325cf68d1eee",
        ("federated", 11): "f1ac2827dd5fed9c16e169315bf2422434b0088c408873edf0c9b0e764f967cd",
        ("steady", 7): "b196f2237c19973b8b47236dff3be80d1ab50ddfaeb496200e71554917104975",
        ("steady", 11): "81ebcd8ecad4696514e5dd86f978a8c3690d646b1b049f465b626419c0dbf044",
    },
    ">=3.12": {
        ("contended", 7): "8ab07780d8586cbaeed03fdd574d01d00f73cad79bc877ea7ef3af094eb99112",
        ("contended", 11): "a4ffafdf6936bffd6720eb3ecc90dde7b45207b92225156db1a0f42bb782d4f0",
        ("federated", 7): "2f4ebb54cb0ddce96bde5b3d942e4533c6d9939557e58147c34a84ad58ab09c7",
        ("federated", 11): "000b6adcc726c4dc1fa0ae46d3173a82cbd9a13f26b6e89043e257f737cca443",
        ("steady", 7): "b58f4a1d6a2ddfc08e35d67586e4f6ebffe766be58af69ecd2773e1d2c81b98a",
        ("steady", 11): "81ebcd8ecad4696514e5dd86f978a8c3690d646b1b049f465b626419c0dbf044",
    },
}


@pytest.mark.parametrize("case", MODE_PAIRS, ids=_case_id)
def test_pair_setup_matches_the_golden_digest(case):
    assert pair_digest(*case) == PAIR_DIGESTS[_SIDE][case]


@pytest.mark.parametrize("case", MODE_PAIRS, ids=_case_id)
def test_fanout_setup_matches_the_golden_digest(case):
    assert fanout_digest(*case) == FANOUT_DIGESTS[_SIDE][case]


@pytest.mark.parametrize("seed", (7, 11))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_the_golden_digest(name, seed):
    assert workload_digest(name, seed) == WORKLOAD_DIGESTS[_SIDE][(name, seed)]
