"""Whole-run traces pinned byte for byte.

Each config below is run end to end and written with ``cli.emit`` in both
formats; the SHA-256 of every file must match the digest pinned here.  The
``appendix_e`` preset (seeds 0 and 1, both formats) is pinned the same way,
and every other preset, in ``preset_digests.json``, at the seeds
``PRESET_SEEDS`` lists: two seeds where a summary table averages over
seeds, so that its means are pinned over more than one run.  A refactor
is checked against these pins, not against a rerun of itself, so a change
that moves a digest must say why.  To print the digests of the current
code (for instance after an intended trace change)::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from qdnsim.cli import emit, run_preset
from qdnsim.engine import (PoolRow, Protocol, RunConfig, SessionRow,
                           SessionSpec, WaxmanSpec, run)
from qdnsim.presets import get_preset
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
    "tag_relay_lossy": lambda: _config(Protocol.TAG, NetworkKind.TAG_RELAY,
                                       n_slots=30, p=0.7),
    # Small pools fill the relay queues, so back-pressure is exercised.
    "tag_relay_staggered_lossy": lambda: _config(Protocol.TAG,
                                                 NetworkKind.TAG_RELAY,
                                                 sessions=_staggered(),
                                                 p=0.6, capacity=150),
    # Sessions that start and finish at different slots: fair shares and
    # surplus releases over a changing active set.
    "ew_staggered": lambda: _config(Protocol.EW, NetworkKind.TELE,
                                    sessions=_staggered(), capacity=90),
    "fra_staggered": lambda: _config(Protocol.FRA, NetworkKind.TELE,
                                     sessions=_staggered(), capacity=90),
}

#: Cases added after ``test_trace_rows_hold_plain_ints_and_fixed_words``;
#: it lists them last, so its parameter ids keep their numbers.
LATER = ["ew_staggered", "fra_staggered"]

#: Pinned from the code before the two-pass reservation core was shared; the
#: two lossy relay cases from the code before hop state became counts per
#: round; the two staggered EW and FRA cases from the code before
#: reservation became one array pass.
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
    "ew_staggered": {
        "ew_staggered_pools.csv":
            "968d2c6ae99fa6c590908bc044049efef204016c01352122a73d8cb4ca46f248",
        "ew_staggered_pools.ndjson":
            "87990505f8458192323f5f35c5412b24b81ca4cfdcd9036bb93133dd69851367",
        "ew_staggered_sessions.csv":
            "0dcdecbc2c28bab30b6f1343ab7f7fde4a15e5f6f725fe70645a44e0fc70e18b",
        "ew_staggered_sessions.ndjson":
            "d7f7e5b46fc2d38c7c2a7cf821f2c14f2599bc7fae6697ca2fb3d6ab8e64387b",
        "ew_staggered_summary.csv":
            "0281dec9ea990ed49cd1aeb88a7cad03c5e0cc30b5c0dd02175918fbdbebbade",
        "ew_staggered_summary.ndjson":
            "ef8c6b81ecc79f5a84b0ecccdeef827379e3b325d4a16f2ed8f2f2adfb3d4985",
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
    "fra_staggered": {
        "fra_staggered_pools.csv":
            "c012325068e1c04cfd973283f08fee1e056717ae5b07fc630c3064e8084ea3b5",
        "fra_staggered_pools.ndjson":
            "016f8a983713aeed0e133db537c2762c18701d478fee756e4b56ef99c10c69e4",
        "fra_staggered_sessions.csv":
            "f4dfb6673ecec125f127a16a338597a1ce774107439b6a8977964c3b88ff50df",
        "fra_staggered_sessions.ndjson":
            "3d36488dce151d90a89a5f21221c7c5ef3184dad1021544c32b72a72133fbf34",
        "fra_staggered_summary.csv":
            "a1d785a69a335f4fb6760b57705733f8671cf2e7e3c28a4e93f5a4270bd623af",
        "fra_staggered_summary.ndjson":
            "7b89abbdd70c21e3d704b4ddb69bd574d6ebba81c7b807e8d6bed7af7ce0614d",
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
    "tag_relay_lossy": {
        "tag_relay_lossy_pools.csv":
            "586b770e9230e42f6e39a42e65c57a8e17f645cbfa0e906be7531073fab2325b",
        "tag_relay_lossy_pools.ndjson":
            "03d081b0facf33f3b7d479c759df0488857b0a0069cc7dc9300ac32e22e32869",
        "tag_relay_lossy_sessions.csv":
            "1608ffeab110d5d1dcbc0ada53d308123e0b5d39954ddae4f393e9b25ee9503d",
        "tag_relay_lossy_sessions.ndjson":
            "e72c7764dd6a4e8a0c271cf336dde2f30c7267a69712e392acb0d9695be592d3",
        "tag_relay_lossy_summary.csv":
            "50114bbbcc386c821bbf4573269b49e591b159550097429bfd10f61736507a6c",
        "tag_relay_lossy_summary.ndjson":
            "5e35abeffa5c93487af8e25fe59b6c4824dcec8d602876ca6f2f03f04a85a14e",
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
    "tag_relay_staggered_lossy": {
        "tag_relay_staggered_lossy_pools.csv":
            "82a32c5420cd952a3b1d014f7f8a68cd150eab7cfa3e46eda93c2cdccb2c0985",
        "tag_relay_staggered_lossy_pools.ndjson":
            "0a4fc8fe1ed827f71869a01c4674b022aad79a40a035d9be3d36ce19b6e325fa",
        "tag_relay_staggered_lossy_sessions.csv":
            "284d36528c6e549d6b609917c50d4966714cbb22afdaa7eb65fb229abe66d21b",
        "tag_relay_staggered_lossy_sessions.ndjson":
            "3b8d0414f69440879507b60ad2048a92bc88b5bbff40266650af9313128e054e",
        "tag_relay_staggered_lossy_summary.csv":
            "4ec2ca133c6237628f10ef13aaec13699a5be0aa82b12e9fc917fda0d061989f",
        "tag_relay_staggered_lossy_summary.ndjson":
            "b0ea38ee0215f33885cd46a98fbd93c27730cf3e20a9253b054e255fde728837",
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


#: Pinned from the code before the slot loop made one pass per session.
APPENDIX_E_GOLDEN = {
    "appendix_e/tag_seed0_pools.csv":
        "d2f3d4d82fc460d059d99d93d300bacba4046bd7c89301babe98efcc5896e494",
    "appendix_e/tag_seed0_pools.ndjson":
        "c1b09e0f839e7c709a9e585120391d6e3c58ca5f9da9ca9471c06fb050e82909",
    "appendix_e/tag_seed0_sessions.csv":
        "10605995f8d002e736fbda2385feedbbdbc679662736beae00b55fe705f4f8c9",
    "appendix_e/tag_seed0_sessions.ndjson":
        "f27241b4a8df534bbbab6e43e3e7de6a63ab6bb04465569684615a3ba5038478",
    "appendix_e/tag_seed0_summary.csv":
        "9dfd01f7e94e991814af0e751f18f7f3852bf2113751e60b0ccf7302efb3464d",
    "appendix_e/tag_seed0_summary.ndjson":
        "0cd1ac6b494231dea2f6b45caad31721232c0291a5ef6c693324abc1a333baa7",
    "appendix_e/tag_seed1_pools.csv":
        "d2f3d4d82fc460d059d99d93d300bacba4046bd7c89301babe98efcc5896e494",
    "appendix_e/tag_seed1_pools.ndjson":
        "c1b09e0f839e7c709a9e585120391d6e3c58ca5f9da9ca9471c06fb050e82909",
    "appendix_e/tag_seed1_sessions.csv":
        "10605995f8d002e736fbda2385feedbbdbc679662736beae00b55fe705f4f8c9",
    "appendix_e/tag_seed1_sessions.ndjson":
        "f27241b4a8df534bbbab6e43e3e7de6a63ab6bb04465569684615a3ba5038478",
    "appendix_e/tag_seed1_summary.csv":
        "9dfd01f7e94e991814af0e751f18f7f3852bf2113751e60b0ccf7302efb3464d",
    "appendix_e/tag_seed1_summary.ndjson":
        "95608e6f4bb9d73790b8b17b1b5a53d666504b4957ca49f96889ebef6e43129e",
    "appendix_e/tele_seed0_pools.csv":
        "8ddaaad6d75212ff6eee03ede6899ad37d8f1478e508ef275fe84d1349e468bc",
    "appendix_e/tele_seed0_pools.ndjson":
        "eeca7beac82df7c4d930b912a674adfe25a1d88218695812407dc606a785a2c3",
    "appendix_e/tele_seed0_sessions.csv":
        "fc0d76b03d34ac1152d8b32dc27cb8453482f65eda3153b94977ef1ee69130f8",
    "appendix_e/tele_seed0_sessions.ndjson":
        "bec9f24bb5e8294c392216b1fdf748e0a7abb2ae51e5f61df525da197f7489cc",
    "appendix_e/tele_seed0_summary.csv":
        "a03edfd548b62a55e6878e68c6febbb38bcb6afb0b945ef04e0731ba2958198a",
    "appendix_e/tele_seed0_summary.ndjson":
        "4276ee51266eb5bc82e31058e49571e11fc809109dd5c4c77ef4774c1438b440",
    "appendix_e/tele_seed1_pools.csv":
        "8ddaaad6d75212ff6eee03ede6899ad37d8f1478e508ef275fe84d1349e468bc",
    "appendix_e/tele_seed1_pools.ndjson":
        "eeca7beac82df7c4d930b912a674adfe25a1d88218695812407dc606a785a2c3",
    "appendix_e/tele_seed1_sessions.csv":
        "fc0d76b03d34ac1152d8b32dc27cb8453482f65eda3153b94977ef1ee69130f8",
    "appendix_e/tele_seed1_sessions.ndjson":
        "bec9f24bb5e8294c392216b1fdf748e0a7abb2ae51e5f61df525da197f7489cc",
    "appendix_e/tele_seed1_summary.csv":
        "a03edfd548b62a55e6878e68c6febbb38bcb6afb0b945ef04e0731ba2958198a",
    "appendix_e/tele_seed1_summary.ndjson":
        "db1a2b1915ef35b7600790a38e190b6a436aa18284ac08e6d4d3f5fb66efeffb",
    "appendix_e_summary.csv":
        "e5737ac53b3501321b151aeb4c1b8a3e9b0702b28ca8e128577fc020e6884528",
    "appendix_e_summary.ndjson":
        "d36a915445f92110d4c32ee61380ab1643b158e0fe8721f5bb6cc780948b646f",
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


#: Pinned from the code before pools and prices came from one builder;
#: ``net_size_sweep`` and ``tradeoff_prob`` at seeds 1 and 2 from the code
#: before each preset run was reduced to its table row as it finished.
PRESET_GOLDEN = json.loads(
    (Path(__file__).with_name("preset_digests.json")).read_text())

#: The seeds each preset of ``PRESET_GOLDEN`` is pinned at.
PRESET_SEEDS = {"net_size_sweep": [1, 2], "tradeoff_prob": [1, 2],
                "tradeoff_slot": [1], "workload_sweep": [1]}


def preset_digests(name, seeds):
    """SHA-256 of every file ``qdnsim preset name --seeds seeds`` writes in
    both formats, keyed by path under the output directory."""
    with tempfile.TemporaryDirectory() as out:
        paths = run_preset(name, seeds, out, ["tabular", "records"])
        return {
            path.relative_to(out).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths
        }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_pinned_digests(name):
    assert digests(name) == GOLDEN[name]


#: The only values a trace's str fields may hold.
TRACE_WORDS = {"phase": {"-", "SS", "CA"},
               "pool": {"send", "receive", "transit"}}


def row_type_faults(rows, row_type):
    """Fields whose value is not exactly an ``int`` (a ``bool`` or a numpy
    integer is not) or not one of the fixed words.  ``cli.emit`` fills a
    line template with ``%d`` and bare words, which matches ``csv`` and
    ``json`` output only for such values."""
    types = get_type_hints(row_type)
    faults = set()
    for row in rows:
        for field, value in zip(row_type._fields, row):
            if types[field] is int:
                if type(value) is not int:
                    faults.add((field, type(value).__name__))
            elif value not in TRACE_WORDS[field]:
                faults.add((field, value))
    return faults


def appendix_e_configs():
    return [(f"appendix_e/{run_.label}", run_.config)
            for run_ in get_preset("appendix_e").build([0, 1])]


@pytest.mark.parametrize(
    "name, config",
    [(name, CONFIGS[name]()) for name in sorted(CONFIGS) if name not in LATER]
    + appendix_e_configs() + [(name, CONFIGS[name]()) for name in LATER])
def test_trace_rows_hold_plain_ints_and_fixed_words(name, config):
    result = run(config)
    assert result.session_rows and result.pool_rows
    assert row_type_faults(result.session_rows, SessionRow) == set()
    assert row_type_faults(result.pool_rows, PoolRow) == set()


def test_row_type_faults_flags_bools_numpy_ints_and_unknown_words():
    rows = [SessionRow(0, 0, 0, 4, True, 4, np.int64(2), "XX", 0, 0, 0, 0)]
    assert row_type_faults(rows, SessionRow) == {
        ("congested", "bool"), ("delivered", "int64"), ("phase", "XX")}
    assert row_type_faults([PoolRow(0, 1, "idle", 2.0, 4)], PoolRow) == {
        ("pool", "idle"), ("reserved", "float")}


def test_appendix_e_preset_matches_pinned_digests():
    assert preset_digests("appendix_e", [0, 1]) == APPENDIX_E_GOLDEN


@pytest.mark.parametrize("name", sorted(PRESET_GOLDEN))
def test_preset_matches_pinned_digests(name):
    assert preset_digests(name, PRESET_SEEDS[name]) == PRESET_GOLDEN[name]


if __name__ == "__main__":
    current = {name: digests(name) for name in sorted(CONFIGS)}
    current["appendix_e"] = preset_digests("appendix_e", [0, 1])
    current.update((name, preset_digests(name, PRESET_SEEDS[name]))
                   for name in sorted(PRESET_GOLDEN))
    json.dump(current, sys.stdout, indent=4, sort_keys=True)
    print()
