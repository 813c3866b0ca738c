"""Golden digests of every workload's trace.

The trace is the input of every experiment, so its bytes are pinned
here: the SHA-256 of ``addresses``, ``kinds`` and ``instructions``
(concatenated in that order, as int64 / int8 / int64), followed for the
Olden workloads by the int8 pointer flags, for all 18 workloads at
scale 0.02 on both input sets (calibrated seeds and seed 5).

The literals were computed from the per-reference generators
(``SpecModel.accesses()`` materialised by ``trace_to_arrays``, and the
Olden recorder) before the vectorised SPEC path existed; a change that
moves any of them changes every result built on that workload.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.workloads import WORKLOAD_NAMES, workload
from repro.olden import olden_benchmark

SCALE = 0.02

#: workload, seed, references, sha256
_GOLDEN = """
164.gzip   None  40000 85c04872cbae8e6d7a2e13691cbc9bc1925a5f58b979026b9a86bbb5feb90d98
164.gzip   5     40000 dae5573f80624b8813cd710dc28d0b98a62958fb22784d287ee13e5d6b747b11
171.swim   None 120000 254aea095df479e9cc84ca90123217300ec4edd99f07a5926164e0553023dbcb
171.swim   5    120000 a2b697dc0d5f60191fda21c12816459ac94e8c28c932a8495c12e5c1d05aacce
172.mgrid  None 100000 031fe5074e9efb5fb954bb65fcfe9f2f1f73a9ef2cf8ba6b9d714d547421d54d
172.mgrid  5    100000 3ddb0169a3f79d4a08c3ccd072ec23fbc8dce6a7402b4ef3e088257631b1d4a4
175.vpr    None  40000 ef68e34a3adc5d40f48b1cc920904adac4518da0fb4e4f3db5a17bc07bbdba4f
175.vpr    5     40000 ada9c65fd58ad5a4a4d0a9c518557db2298dba455492bd8380cfbbb4b507eb2b
176.gcc    None  40000 00d8f236c3e647a70bdef80d750d30c9ddcad1073a4b627532fac87b3903ddf8
176.gcc    5     40000 e86e16932cd296724895dbb52d3ad79570bd840bca0ade3ca0a2abb8571aad0d
179.art    None  80000 6943c6112c7200cf9da7d4ca3e84882b3091e50928c079f59a13797c8a7fab92
179.art    5     80000 7334b350d774fb7d5bb83af1c3b37f5d507a09ea3922c24118ed06c8ded8b601
181.mcf    None  80000 c36784733e78bb07f7a371a6a15237ae499e217713ded99b6398957a73cbf86e
181.mcf    5     80000 a7494ba631975f266856c6decda5bab0355bc2155aef6b025e0581b385a29ee0
186.crafty None  40000 df5999a6f56cdef39ccd36355e192cd8353f13d083a9db1d9c4a7a1d7e06b7f7
186.crafty 5     40000 81f00a63f67655fe630e6e2629281890c15b02110a822ec7146f860994e741be
188.ammp   None  80000 a38020d349977dcdab6c9a09647b4f18f97983cac07bb385c55c54e157c2b54d
188.ammp   5     80000 a90e0bd9c8b1a15ea05fe107551c214dcfbe68f9de88b3234407c36902aea2e0
197.parser None  40000 b41ada1a47fd9f7bacc5e752c0e80766f1b51ade88f833c6682d93949f438b6b
197.parser 5     40000 03a116d3c891b0eb2e00050916f3bd81feaf040e40d0dfca3f66f222fac3dae9
255.vortex None  40000 315d8c1595042b25df6d51f89678d44c29d308dbf74a8c608f01e962ce21d478
255.vortex 5     40000 1749590a5034bbecafc346d1d0f809468e004fc2224ffcf065dd20a637de33c7
256.bzip2  None  80000 2be2010c7ed16b49058083c956eaffc0de51a76fa2911469d4c4cbbe9ae8fab6
256.bzip2  5     80000 98fc7f8b384350d0695e17d0a5113676d6c7418c7c8aba1aee8652350d3b4437
300.twolf  None  40000 9e15084381cb7358ddb6ee9f710639289c4d5a715973cad88e69e5bc49dbebd6
300.twolf  5     40000 049b40916fd7e2f78e0d0e948881d1cd60b25b1cf72c6a674f943b0f77b0d024
bh         None  20876 e1cd8eb0b31c32e924e0a3370edbd956a13fc1a1f8527bbb15306c1fbdf1ded5
bh         5     21567 daa48cc7e427f36f84109739639ee268e27492e46e404f21117d6c1c03816e9c
bisort     None 274325 b016a566fd77b4849f2c50dcad6a02862aa1a79eb81bdbe139eadaee09cc43f5
bisort     5    274065 19e2cf1dc047884b9045b03b9361768168cf599d1b826c079076a6a5102a5434
em3d       None 113664 6b4504d7bc185f31ee91e1fe5a2688bd8acfb5a22674d2d73c6728b56275ab96
em3d       5    113664 2f9762158a5fa84fc1149cdc25f887e3452437d0f557b3840bd5dfee3dc048f0
health     None 172745 f276db67cf9effdcb06d555bb12d013da24118471d43f7606c8db375c407696d
health     5    173479 f695d13d34ba0fa578f31cceabd199f8f3a0fecc993e0c8732c69aee6c59728b
mst        None  32621 fd8133f09f193612236b0df4cba6b07d8572ef5fb802acff4ee8d3d1fc1b5f39
mst        5     32642 62f9cec7cbd04ef1e880385448fb16689ef4bcfaa41f92b4305638ae25faaf3b
"""

GOLDEN = {
    (name, None if seed == "None" else int(seed)): (int(references), digest)
    for name, seed, references, digest in (
        line.split() for line in _GOLDEN.strip().splitlines()
    )
}


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(array.tobytes())
    return sha.hexdigest()


def test_every_workload_is_pinned():
    assert {name for name, _seed in GOLDEN} == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("seed", (None, 5))
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_trace_digest(name, seed):
    references, expected = GOLDEN[(name, seed)]
    spec = workload(name, scale=SCALE, seed=seed)
    arrays = spec.arrays()
    assert [a.dtype for a in arrays] == [np.int64, np.int8, np.int64]
    assert len(arrays[0]) == references
    if not spec.is_olden:
        assert digest(*arrays) == expected
        return
    # The recorder's own buffers, pointer flags included; the arrays
    # Table 2 consumes (through the on-disk memo) must be the same.
    trace = olden_benchmark(name, scale=SCALE, seed=seed)
    recorded = trace.arrays()
    flags = np.fromiter(
        (flag for _access, flag in trace.accesses_with_pointer_flags()),
        dtype=np.int8,
        count=len(trace),
    )
    assert digest(*recorded, flags) == expected
    for got, want in zip(arrays, recorded):
        assert np.array_equal(got, want)
