"""Determinism regression tests.

The parallel campaign executor relies on one correctness contract: a
simulation is a pure function of (configuration, seed, trace).  Two fresh
:class:`~repro.sim.simulator.Simulator` instances fed the same inputs must
produce bit-identical cycles, statistics and energy, otherwise serial and
parallel sweeps (and store-resumed sweeps) would disagree.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.memory.address import DEFAULT_LAYOUT, AddressLayout
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec
from repro.workloads.suites import EXTENDED_BENCHMARKS, benchmark_profile
from repro.workloads.synthetic import generate_trace

CONFIGURATIONS = [
    SimulationConfig.base_1ldst(),
    SimulationConfig.base_2ld1st(),
    SimulationConfig.malec(),
]


@pytest.mark.parametrize("config", CONFIGURATIONS, ids=lambda c: c.name)
def test_fresh_simulators_reproduce_identical_results(config, small_trace):
    first = Simulator(config).run(small_trace, warmup_fraction=0.25)
    second = Simulator(config).run(small_trace, warmup_fraction=0.25)

    assert first.cycles == second.cycles
    assert first.instructions == second.instructions
    assert first.loads == second.loads
    assert first.stores == second.stores
    assert first.stats == second.stats
    assert first.energy.cycles == second.energy.cycles
    assert set(first.energy.structures) == set(second.energy.structures)
    for name, item in first.energy.structures.items():
        other = second.energy.structures[name]
        assert item.dynamic_pj == other.dynamic_pj
        assert item.leakage_pj == other.leakage_pj


def test_regenerated_traces_are_identical():
    profile = benchmark_profile("mcf")
    first = generate_trace(profile, instructions=1200)
    second = generate_trace(profile, instructions=1200)
    assert len(first) == len(second)
    assert first.to_bytes() == second.to_bytes()


def test_explicit_seed_matches_profile_default():
    # The campaign executor passes the trace seed explicitly; this must be
    # indistinguishable from the default-seed path every other harness uses.
    profile = benchmark_profile("gzip")
    implicit = generate_trace(profile, instructions=800)
    explicit = generate_trace(profile, instructions=800, seed=profile.seed)
    assert implicit.to_bytes() == explicit.to_bytes()


#: sha256 of each profile's 2000-instruction ``.rtrc`` bytes.  The goldens
#: simulate only a few profiles; a change to the generator's RNG call order,
#: record encoding or compute-record defaults shows up here for all of them.
TRACE_DIGESTS = {
    "gzip": "f5e9d500daa71f963f463c04774db8f6cef553b363fe4b5d1b6f56c5445c1fb7",
    "vpr": "a358fe65e950cc56b6597966b972ac313302419ceea6d1e86010c7f016db2bec",
    "gcc": "eb3510e35b83f84d47da524f9f0e361ed151ed073ca8c90f829a7e552b5ba052",
    "mcf": "268ac3c0d4cbeb3662d94adc68107f956884e6db9c1896bdf5a725f3f84391dd",
    "crafty": "ec5364289e9a7a3abe0a75f10273abc391ab377bc968b6a05a244b32926cf838",
    "parser": "7d450843de942c2534b886442717e5acc2b23b8fc4a4ba0acf5c8e714d47cd8b",
    "eon": "3189f0467a5ffe2d3b1b2f8912e70dd362f2097f2d8f579a960bcf39ffe08ccc",
    "perlbmk": "fac076d39e3a02b3e716327d257f0b1a2ed7c6a97a4f17c8346af579aa43d4ec",
    "gap": "ee1118e6f4c883b43f2b3542c57c2896b44fa86986454aa488271b6c2c8a8c1a",
    "vortex": "0899500abd4d5fe322ae05c762e478e3067ba458bc3367e2e59aaf8841331116",
    "bzip2": "827242275bf859565b32bafaca29886c3a048c9764e3e9af2473949d978354b0",
    "twolf": "ef8fb90ee238f8560046d2bc054545c0a10978ccd43385db61f9c2d51d8c8b39",
    "wupwise": "1f4067ca3b7205f8ee5fcc75ccd4e49a89677765b63beb0799378ee77a89e473",
    "swim": "612b2b70ab3ce3f0d6638eac3ec249938db2668dfa9e7fd2e69ccdc2fb1d8bb0",
    "mgrid": "a4c478acb2380b3c5f50313c6b7b873c3fad3c25899900478776cb5f4c9629c0",
    "applu": "06cf46454d3368f67d04cf91a1bfa6a5572872e7483af11524ec3b26f34499e7",
    "mesa": "a590755c892f9091b84c3388ddcb0119a77c194ad646d2e0dbed40025c697c0f",
    "galgel": "fe7a2c8b24f4708b5024273829edae217d96d8fcaaac9aab1f4aad5600088efa",
    "art": "17a7ec313da09d9c3544b016877e94a50e2f160366a53ee1b75175f9d198ad3a",
    "equake": "411d57c9ae30fe44fad7090e8124b46e65bc08b27cbc7f6951a33f7a74a1cf16",
    "facerec": "3ec72df6954b6d03a43359e575a351ce66981e53f4933cfc9dda8aa3eca365ab",
    "ammp": "8876b06433289dc6012310532c4a3063f0786f36a56fc2506b232a60f11f35ed",
    "lucas": "53c005b75b2e79af4e2ecaa8ba085680571d9c23cb9c8929e258fd962d631368",
    "fma3d": "2cba3e39b459badf5c6635ee5faa7432400fa105c3e59bc2bb901b49b62ab11b",
    "sixtrack": "1ea4a80231bbdbc608da167fcccdce034563262776bdef3e1fa6fb2f4c780452",
    "apsi": "eaf5f9b361665c0f562c946b95d2374d777c9a0a111c394df76b95c51ac108c9",
    "cjpeg": "acddcb98600a7af8da646401af0465cb2cfd135ed2b5f3618b7abe282fd4660a",
    "djpeg": "191ba3d4409e7bc057f5faea6267dd4d21d47e9aa34725bae1940f9aec070f2a",
    "h263dec": "4c218c365a55dbfea4383ad05c2fce2424aaad489a348825cf8bcd7d8ba035e6",
    "h263enc": "b5ac9f1d1a15d69fd51f4aca72f104cc82006bfc9d4e1c9d671575d4175ab694",
    "h264dec": "69b38fe6ee934484ae8b3e5c02ceabe3150695244336fc371bba87777227e582",
    "h264enc": "64c9f1a6f5f4e4269d5d3accf47f5d0224f1e22b1e6a5855c5e676d43c6655e6",
    "jpg2000dec": "120fa0a8ab89440a2d385a37459eba13b72e9280f5eeb531c28183500b8f8cff",
    "jpg2000enc": "afb5e74eb684a922dcd39f1c31e3d9cdcac65d92ba0677fcdd8e37243bd4b135",
    "mpeg2dec": "947a926dffd5620648f659ddfbdf53759246ea2302685e8cc035c77e3d31a192",
    "mpeg2enc": "72be17d8561e52c2c2fd2612889ad471b30bea32bdf08c1f48ea065224e8a072",
    "mpeg4dec": "1497488bf3aedfa437642ed009aaf083af1813f829f7619c85e4aac63e7221da",
    "mpeg4enc": "4fbafb1a1518cd71425c7ca541f6e15d553ab283c3ee8ce21965157393034f2c",
    "ptrchase": "ea21841e9d4b627df03bf0cfde5effad893e270f6c6bcab362de2d3b23b1965d",
    "streamwrite": "eadef2bfed7154e4837d6c11b40b5becd511bc692acbb155036d2bb7585043e1",
    "tlbthrash": "40bc4c94e034248f212e397c1e60b323ff3585bb7097ffd028b5a655a9b05e18",
    "depchase": "f1af27a5280d446db164ec7ec2a42a4217ceb7b56d0ccf9eeb7ce0ad17b04d85",
    "mlpladder": "bad76a982515122135a02cdc916d28e95614bf50ca460d91fb076400a707a775",
}


def test_every_profile_has_a_pinned_digest():
    assert tuple(TRACE_DIGESTS) == tuple(SEEDED_DIGESTS) == tuple(EXTENDED_BENCHMARKS)


@pytest.mark.parametrize("name", EXTENDED_BENCHMARKS)
def test_synthetic_trace_bytes_are_pinned(name):
    payload = generate_trace(benchmark_profile(name), instructions=2000).to_bytes()
    assert hashlib.sha256(payload).hexdigest() == TRACE_DIGESTS[name]


#: sha256 of the ``.rtrc`` bytes of fig4-sim's traces (the perfbench workload:
#: six profiles at 20,000 instructions), at trace seeds ``profile.seed + 0``
#: and ``profile.seed + 3`` (campaign seeds 0 and 3).
FIG4_SIM_DIGESTS = {
    ("gzip", 0): "ad73a9101151145b85b0405245312992948d7423e376df4b2d01abf35b88160f",
    ("gzip", 3): "5dca56a1cfd35d217119ab950ade56b2519d41950b0b5d6bafecb2c6acb759e2",
    ("gcc", 0): "bffa7c8626ae24c5c90409f34bf27edfdcb2c2044119b4c5980cc81eedd65df6",
    ("gcc", 3): "44f4fbef5507f33f0da8b365d9420d4691b860d3e39eb26840551c890c6cad9a",
    ("mcf", 0): "0a656dfe1f8f10e15f7e2f025fef825cd60d421afa1ec24fb2e1047b3ee1288c",
    ("mcf", 3): "f93b754679e84fd82b01de7e0f8e3725507b4df270278e1e4840fde0a5278a08",
    ("swim", 0): "8c7fb3a571e9e7c6f23c6aa6213342a9fd0e4d4e82465f56eb6a986d704e634e",
    ("swim", 3): "3a8b9bdf2b9d08b06045fcf9ec6c0831ed33eda5113fb254ed729d616898391f",
    ("art", 0): "4338874b0e129f38ced68bb661131a395db1074cc441af3b838bc3fdaef07bb3",
    ("art", 3): "bd003c0ba94417563e1e28ea1a19b8ac9b6e872354825d990c0125a6c5d856a8",
    ("djpeg", 0): "0b5f10eb2682218a41f4287fb523d26a255d67506438c789136498f248b856ab",
    ("djpeg", 3): "c6dba98a9952dd139d3c269c412f755fcda034f3954f2a30324026a1ded9abfc",
}

#: sha256 of every profile's 777-instruction trace at seed 12345: a length
#: and a seed that no profile uses by default.
SEEDED_DIGESTS = {
    "gzip": "881003481067a5d4741020bd95155b5da3c5571f420bf1d8713d9b8a8fe57292",
    "vpr": "296bcb732c36997ad9a94f47aaa5837a3fa9c7e887a0375d1ec31f1f6dda5296",
    "gcc": "d85a7d1c337e30f0a1fc67bd45914ab856e6fc2e9c8b1bc5740f6517d406f22a",
    "mcf": "2151744480b32cbe92319c3a4a3086a2b2b8af61bd4b53c12c0a79f3ffda893a",
    "crafty": "c31d6364a5421ecb1e23c8de5d5abf0062215b68646ae6507d34af9fe0f4278d",
    "parser": "f2cfb9a24ab4afc27c905d421c6ecb90448e6f751cd0ffd5fa9d96a9d5d4f267",
    "eon": "e296d4e8fda8d42a89f00a3ec6efbf4af3e56f49688e6f6988557abdf071c7a4",
    "perlbmk": "ff1b7ecdbc55d06974e7af3f861ba375a0596b6f28e3ac9baf575a66559f7390",
    "gap": "5cfa5f070616b22d07ea2433562a20c7698746c52673767ce46c37c54e0e52bf",
    "vortex": "be6218945a68db87d70d2afd55482784c060074e2b61d49ebfacbd8f15289395",
    "bzip2": "8b7008442ea080afd7a7117c3c624d3c4e30c5fa7d537fc17999d0e8b1f48383",
    "twolf": "1ec3843ec8cb7c9b4b2cb95039b3e083b5418e5716aea1abaab4d520611af812",
    "wupwise": "5c1ff25818c10897fcb3f03aa41dc8192bdda4ced87206553099d9cc9d59eb6e",
    "swim": "9e9b8dc0d459198d9a6cb4038a3d9574b4e56d12e8a7607e4de588e9a9e56b10",
    "mgrid": "8a39e6f7d92a024019e828af6a6c8fe47a5d14b0500cd8d173495d1d38da8e9e",
    "applu": "932bf1961bce8d9642225f05d95edf38658391c569ce4c48b6e06d8498f9851d",
    "mesa": "b1553aad68e250bb7c7dddbd419d6cf7544a9fb326908ccb8a4de632c9d33c87",
    "galgel": "5c5272425cd5d1507c690237b4912a58745cb80c25f099f64bc921d1cb4dfb36",
    "art": "e03aabe499e8dc4419ce8b949575942002b56ff561bbd05a879ebaf83dd9ac9e",
    "equake": "99f7666a71b15d8e7eb4af92eb1724bb79aa63d50f71094a6ba6db397b1789de",
    "facerec": "ee49c6e6b2fc538ed23f3f4b8739f162dc4c163d5d61b63eafd0e6d3b963250a",
    "ammp": "5d6f8a42fd853ccc3975789500288da1d8f9fbd4bfe93138a73b450e573f4799",
    "lucas": "15fce95952c94ab537caa31e436d041e1dcff9f44425c06221a41fd393f2bc9a",
    "fma3d": "18c6bc153ad94e28fcf3499a3f876ea1ceee5fd68d1dcecb1473324b3b4d22e0",
    "sixtrack": "0bddb9ddc0ba8e03018ad78935b151f61d904989036ecc9750c80d5df3f4d5b8",
    "apsi": "ddbe63ef80628bf70c855626bd02363423797016bec4121a8e3ab9fb54187192",
    "cjpeg": "9c6d7f12ebb5a701ae49473efddc8e42f6167ef02f2e9c32640539c85507131f",
    "djpeg": "eedb3f321907cb8b26ab000b4b93bbc06ad933ca533b87cae09313fa3ec3702c",
    "h263dec": "b1be227024fe354150145b9118c4b5b7cc57e80f671d1e1857d7178347d2cac6",
    "h263enc": "54b3eb25c6481393ee8e626f72cf755d3445a70c68f26844ec12b4ad04e137ca",
    "h264dec": "ebb7d79ad85fbfe25be4f35ae9d0926ef4a10ba30c1c6195c9f9364a5cfc6eef",
    "h264enc": "b6ab8fdd210beeabac365730784003c7c73881aeb2100f4116247964817c3a9f",
    "jpg2000dec": "5013920c989b88c950361c9a067c04c3b9deaf0335870a89b33b0137044ff293",
    "jpg2000enc": "f9e2afffbbc5b990d1ac72be0518be7fe24783a3a922206dc2f26aa84ea269f7",
    "mpeg2dec": "146bd980f460b7d55b6c25e2dacc8cd495aae47f3152d973f2ebd7021323c520",
    "mpeg2enc": "b8e3e41dede24c0989daf2bcdc4b052c02c30aee4cdd926ee9e97fc37b40beeb",
    "mpeg4dec": "0861d7eac01ee09cbfc775519fe684c8e49bae6ee3b8046011c201f6cc0f5e1f",
    "mpeg4enc": "324731d123721ce0989d0ea7e6f8a7180d33b77dce0eaf73d18b9abe6ce1bc70",
    "ptrchase": "fbdab410162b241d9948c3d5cc9db5b9eedd67a28926b13e8ce40c2b595d4c4a",
    "streamwrite": "d32ad094f4ecba76aa4a013b2be9a24649f7ec5ca85c711f512d56981de0878e",
    "tlbthrash": "b4997c86642db01956e06bc25a04b677dfbe3635d059cfe8731f8564980d33da",
    "depchase": "2b7a8cdc1ba1ffb642418356cb808b5abf0b5197cb13167a92d9ac799584db03",
    "mlpladder": "e5cd2ab9a6ef1946bbfe678f987fa238a0038ed310c206248c4340643391ec41",
}


@pytest.mark.parametrize("name, offset", FIG4_SIM_DIGESTS)
def test_fig4_sim_trace_bytes_are_pinned(name, offset):
    profile = benchmark_profile(name)
    trace = generate_trace(profile, instructions=20_000, seed=profile.seed + offset)
    assert hashlib.sha256(trace.to_bytes()).hexdigest() == FIG4_SIM_DIGESTS[name, offset]


@pytest.mark.parametrize("name", EXTENDED_BENCHMARKS)
def test_seeded_trace_bytes_are_pinned(name):
    payload = generate_trace(benchmark_profile(name), instructions=777, seed=12345).to_bytes()
    assert hashlib.sha256(payload).hexdigest() == SEEDED_DIGESTS[name]


@pytest.mark.parametrize(
    "streams, layout, message",
    [
        # A backward stride walks the offset below the page start.
        (
            (StreamSpec(StreamKind.SEQUENTIAL, stride_bytes=-8),),
            DEFAULT_LAYOUT,
            "page offset -8 outside the page",
        ),
        # A stride past the page size leaves the offset beyond the page.
        (
            (StreamSpec(StreamKind.SEQUENTIAL, stride_bytes=8192),),
            DEFAULT_LAYOUT,
            "page offset 4608 outside the page",
        ),
        # 18 address bits hold 64 pages; the first stream region starts at 64.
        (
            (StreamSpec(StreamKind.POINTER_CHASE),),
            AddressLayout(address_bits=18),
            "page id 0x42 outside the address space",
        ),
    ],
    ids=["negative-stride", "stride-past-page", "page-id-past-layout"],
)
def test_generator_rejects_what_it_cannot_compose(streams, layout, message):
    profile = BenchmarkProfile(name="bad", suite="TEST", streams=streams)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_trace(profile, instructions=3000, layout=layout)
