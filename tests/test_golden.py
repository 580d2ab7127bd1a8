"""Whole-run traces pinned byte for byte.

Each config below is run end to end and written with ``cli.emit`` in both
formats; the SHA-256 of every file must match the digest pinned here.  A
refactor is checked against these pins, not against a rerun of itself, so
a change that moves a digest must say why.  To print the digests of the
current code (for instance after an intended trace change)::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile

import pytest

from qdnsim.cli import emit
from qdnsim.engine import Protocol, RunConfig, SessionSpec, WaxmanSpec, run
from qdnsim.topology import NetworkKind

SMALL = WaxmanSpec(n_infra=12, target_avg_degree=3.0, area_side=50.0)


def _config(protocol, network, **overrides):
    fields = dict(
        seed=11, protocol=protocol, network=network, topology=SMALL,
        sessions=10, n_slots=40,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def _staggered():
    return [
        SessionSpec(qubits=60 + 25 * i, start_slot=3 * i,
                    initial_window=None if i % 2 else 4)
        for i in range(8)
    ]


CONFIGS = {
    "tele": lambda: _config(Protocol.TELE, NetworkKind.TELE),
    "tele_halving": lambda: _config(Protocol.TELE, NetworkKind.TELE,
                                    capacity=90),
    "ew": lambda: _config(Protocol.EW, NetworkKind.TELE, capacity=90),
    "fra": lambda: _config(Protocol.FRA, NetworkKind.TELE, capacity=90),
    "tele_staggered": lambda: _config(Protocol.TELE, NetworkKind.TELE,
                                      sessions=_staggered(), capacity=120),
    "tag_relay": lambda: _config(Protocol.TAG, NetworkKind.TAG_RELAY,
                                 n_slots=30),
    "tag_switch_lossy": lambda: _config(Protocol.TAG, NetworkKind.TAG_SWITCH,
                                        p=0.7),
    "tag_relay_staggered": lambda: _config(Protocol.TAG,
                                           NetworkKind.TAG_RELAY,
                                           sessions=_staggered()),
}

#: Pinned from the code before the two-pass reservation core was shared.
GOLDEN = {
    "ew": {
        "ew_pools.csv":
            "ca375b4b4b407c592eb51de3e1b74ef2dac840cf27be7bad72cc2741ce752708",
        "ew_pools.ndjson":
            "a9a83f07740a1d1f861e357041fd3bb1281ff13b2d7b48b975b436f098982044",
        "ew_sessions.csv":
            "48beefcf619d47f44e4bb54a7c555cd7db3e9716e58b475b3bc8c18082058c4f",
        "ew_sessions.ndjson":
            "f5b1f87f519c0dbc4c7f8b7528dd4da9c810dea908f4e766158e194cf3033ab5",
        "ew_summary.csv":
            "74b065e8c54601bb24f8d08e65535108f6f687c2ccddc315eeec4fcfb790eea3",
        "ew_summary.ndjson":
            "7f207bbe66026233521799987bcaf9a55cc3b804567593efbe57946657dec638",
    },
    "fra": {
        "fra_pools.csv":
            "4c8c7ce4d48876c115d6dcf2f307647e7ca586803653d8c3e2f28aa5c6f56372",
        "fra_pools.ndjson":
            "16d3fde390be4ee0176db03c87ab2c34a33d91751ad61a130467fe738e8b82e6",
        "fra_sessions.csv":
            "0330d2851f87ece16d4578fe663f9b7ab3220240161239f4d9d17460ba53240c",
        "fra_sessions.ndjson":
            "0cd1942547b100e69cd6224e4736388d8f37e1f8a7afcdb7638ffdf939d9eecd",
        "fra_summary.csv":
            "e30a23f87424c528b91718cc1aa77ad40f96ebc412af4db216b6c588a6ab185e",
        "fra_summary.ndjson":
            "9b14ef68e9b4e51755db968c577f27ddf43129d70f9fc3a768159be5a0801c91",
    },
    "tag_relay": {
        "tag_relay_pools.csv":
            "a751d167afd78414c2d94beb6a599d5b920db8f7122286d6be90f2bf723f15e3",
        "tag_relay_pools.ndjson":
            "8c90235fd821321437df8a3b2036eedb357a77b7c11f2af46985bf310e03f9bf",
        "tag_relay_sessions.csv":
            "0c3b273e25f18d9e074012b3558f32b771ddd4717f13f76b375364badda95a74",
        "tag_relay_sessions.ndjson":
            "0e73f6a631870316501b2af9df467cb56952e9fad01e6f6095ef2bb4e2142d6a",
        "tag_relay_summary.csv":
            "378678fa2354196bc3ba75044854b542e81c740b7b81a0fd23cde499fab58112",
        "tag_relay_summary.ndjson":
            "70e6d49c4e27698951c8c14fa4d7434a77e66fac9877f682faa65e46d3aa3227",
    },
    "tag_relay_staggered": {
        "tag_relay_staggered_pools.csv":
            "f1b7f75f4052dfecea67ff5d6432a74c34f5a6078104f7301f484d572e850511",
        "tag_relay_staggered_pools.ndjson":
            "f3bb03ce8d6e4b7eccf13f51338591e0c924df1ee8977bcda6ece677ab7eefee",
        "tag_relay_staggered_sessions.csv":
            "878b09b0b721a40244b194ae6a008cf1448ffa708e6565317ddd2e90928eae42",
        "tag_relay_staggered_sessions.ndjson":
            "1544ce68a3cdd1310161036921ef3835da8928793ea881a2c20adffbd363a608",
        "tag_relay_staggered_summary.csv":
            "137f8119c9eabaee0fa5f0fc5c0c454dcc9f16f14ee89d82e04cfd91305a704c",
        "tag_relay_staggered_summary.ndjson":
            "4ba56a71903f94168f4a40e67e8dd71775fcc39f72a83fc0993f51e8f735a5f2",
    },
    "tag_switch_lossy": {
        "tag_switch_lossy_pools.csv":
            "005018418cfe2553ba1d57241cbca47023ec375dc29a1c87772bec61668e8530",
        "tag_switch_lossy_pools.ndjson":
            "b401ab6e644b9a469498ceefb66ee63b439fe8a3464b7843a7691870b4a0e47e",
        "tag_switch_lossy_sessions.csv":
            "f7d56848aab15f9d5c6b66ab192dd0da1788380326f90df8f50587d84d7fb6f5",
        "tag_switch_lossy_sessions.ndjson":
            "37fd5b0871ff622bccbbe9b986e7dbfaf72d728cacaaf355e696f5582cbde6b6",
        "tag_switch_lossy_summary.csv":
            "150a9f710b50b23994789a3b46ca74117143947933767629d081cec440f9d14f",
        "tag_switch_lossy_summary.ndjson":
            "87f074f452d9f00cadc668b885d4a01ccf1027470f1e69a88cc10d4236661d2a",
    },
    "tele": {
        "tele_pools.csv":
            "be98847bc556df89b603d6dbd3cb5e29871186e305ec3c71eae8bc95885b678e",
        "tele_pools.ndjson":
            "864ffb9752bf906ab279b79a79c28e9e8f6f80a89ddf5be5c4d389f6621f76c2",
        "tele_sessions.csv":
            "b3c49d82bf6f62419093b5d5833b3491edf8c5def1b95740ecf956df91be9f9e",
        "tele_sessions.ndjson":
            "0749435eb2f758af54f41c614fd4854df8deb476af55a7235a9c51753fcca5f9",
        "tele_summary.csv":
            "bea878c3728bc7515e1296d7ee132e272e4f34db0d3b10271e8181ba18562ab5",
        "tele_summary.ndjson":
            "fdd15ea8ca3692ddca9dcff417a901e35d97874ca16d00ff7b3e4480f51a8039",
    },
    "tele_halving": {
        "tele_halving_pools.csv":
            "e414075ef98edc23cb29e9a1e9864e2a2e46c15a6b20e35f97ded11076ec4f54",
        "tele_halving_pools.ndjson":
            "f59eec781ffa7c392eb08f89898ca8548c107a51caeedac2dd8d7c982b5531d3",
        "tele_halving_sessions.csv":
            "92ada03ba153a60230764b943b7b635250986382c9fe8a30f2b326dd24326500",
        "tele_halving_sessions.ndjson":
            "af3017747e0fdfe6521d919668e3d13807b84e8e36500fba8c727a0ee99f61b7",
        "tele_halving_summary.csv":
            "5b71bacbcf8028f26f035d0bf8aee7fe3fa58ae71fac39be87e3aa19c361527e",
        "tele_halving_summary.ndjson":
            "21e520942979318ed277e5e97bb98f677f0927642dbc0f7c80347cca7ae43b5c",
    },
    "tele_staggered": {
        "tele_staggered_pools.csv":
            "3768cb794e97e8a82e002ecba66a4d38c1dc89428a03d3eb1e3474e043cc175e",
        "tele_staggered_pools.ndjson":
            "1ec698ba9a06199b21565144bb8f0c8fbbe0f0f98d7e05e677e009192b3997b7",
        "tele_staggered_sessions.csv":
            "d7bb1a8a54e832f8cd252cf37ec99d11019edefdc68f61a9511ef8d16290e64b",
        "tele_staggered_sessions.ndjson":
            "45f77598f6a6bd8de1d47b6361d106a4361f0cf58ea298a988f63612ba1ab989",
        "tele_staggered_summary.csv":
            "87a68e1ae4ee276d561be39c2dbb28a3735ca4631c0e58c3784233914ae3885c",
        "tele_staggered_summary.ndjson":
            "f53fa6287b29fdaf6016e309450f216be369372c544c16c14a4be35c6fd3a254",
    },
}


def digests(name):
    """SHA-256 of every file ``emit`` writes for one config."""
    result = run(CONFIGS[name]())
    with tempfile.TemporaryDirectory() as out:
        paths = emit(result, out, name, ["tabular", "records"])
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths
        }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_pinned_digests(name):
    assert digests(name) == GOLDEN[name]


if __name__ == "__main__":
    json.dump({name: digests(name) for name in sorted(CONFIGS)},
              sys.stdout, indent=4, sort_keys=True)
    print()
