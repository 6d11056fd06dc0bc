"""Determinism regression tests.

The parallel campaign executor relies on one correctness contract: a
simulation is a pure function of (configuration, seed, trace).  Two fresh
:class:`~repro.sim.simulator.Simulator` instances fed the same inputs must
produce bit-identical cycles, statistics and energy, otherwise serial and
parallel sweeps (and store-resumed sweeps) would disagree.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
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
    assert tuple(TRACE_DIGESTS) == tuple(EXTENDED_BENCHMARKS)


@pytest.mark.parametrize("name", EXTENDED_BENCHMARKS)
def test_synthetic_trace_bytes_are_pinned(name):
    payload = generate_trace(benchmark_profile(name), instructions=2000).to_bytes()
    assert hashlib.sha256(payload).hexdigest() == TRACE_DIGESTS[name]
