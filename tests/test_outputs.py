"""CLI output is pinned byte for byte: the README examples and
`verify --suite all --seed 0` must print exactly what they printed when
these digests were recorded.  A change that alters any of them fails here;
if the change is intended, the digest is updated in the same commit and
the reason given in CHANGES.md."""

import hashlib

import pytest

from orbitcodes.cli import main

PINNED = [
    (["classify", "--field", "2", "--n", "2"], 0,
     "12edebcbd339031a1e810e0a62ea921fdbc1336476f4bb3fcf6656fb4c5509d0"),
    (["classify", "--field", "2", "--n", "2", "--format", "json"], 0,
     "6d191042059cc345a85cadd01d2200d87bf59bab97972ed7b3a8217a91ee1706"),
    (["classify", "--field", "2", "--n", "2", "--format", "csv"], 0,
     "a8cdea1054aae4319a8a4b19aef9871da3d9287598dc477e14f3e5ad3e5bbb55"),
    (["code", "--field", "2", "--n", "3", "--divisors", "1,1,0,1", "--subspace", "1,0,0"], 0,
     "7e653046b1a1a9dabd7be155008b924b4cc37aac27717f9b08c91fd116a3ce13"),
    (["code", "--field", "2", "--n", "5", "--divisors", "1,1,0,1;1,1,1",
      "--subspace", "1,0,0,0,0;0,0,0,1,0"], 0,
     "6fa18e96263cb2f6fa981e5b2762e4ddab4b05ec7961c5611403f998887f1ff8"),
    (["verify", "--suite", "all", "--seed", "0"], 0,
     "1eed0fcbe4b0d6e2a8a206240415cee7b9519fcbb13b7441e95f55c68c7acb96"),
    (["verify", "--suite", "bounds", "--trials", "20"], 0,
     "3c602c71ef5a67fac1a7460b0fb2ebc8d57abdea6b1ddd469cbf9d48338928b0"),
    # a fullrank_coprime mismatch: exit 1, with the FAIL line's values dict
    (["verify", "--suite", "bounds", "--seed", "8"], 1,
     "421f10d31172b35c8c618ce0a98a8ad1092f26f7ba7f62d042556c6c233fca13"),
    (["verify", "--suite", "rcf", "--seed", "1"], 0,
     "219bcde5d840d28214eeeaa5d3d1a5183a09ee3b069eeccd3bb08625ff0f1c03"),
    (["verify", "--suite", "bounds", "--seed", "1"], 0,
     "cdbe01331dabca1c5c752628cb55d68f9b485279b3aba5f52c402142c9c062ab"),
    (["classify", "--field", "2", "--n", "12"], 0,
     "5b53e6218ff1f9ad28fc29b55ea4dae75ae49854115a4ec969c39cc1eaaa5ff5"),
    (["classify", "--field", "3", "--n", "6"], 0,
     "6dd60e7fd428138ebf85e21515c41596ebb68c69c42fa6e9424a1284252b38db"),
    (["classify", "--field", "2^2", "--n", "5"], 0,
     "993e2a49cede8ba23dca1e7efabd96704b8235bdd0d42aa77a86f327430bad97"),
    (["classify", "--field", "2^2", "--n", "3", "--format", "csv"], 0,
     "8e7061ddeff9df68ccff241e8d04c9155fe18b63d9d23a90f319b1ef25b2b717"),
    (["classify", "--field", "2^2", "--n", "3", "--format", "json"], 0,
     "0856aaad0917e1caa944a4b96b4d9e1ec04387a8d03ff31bdb00de4214a17879"),
    (["classify", "--field", "3", "--n", "3", "--format", "csv"], 0,
     "998066d6170fbbacb79e6ef387337d2a6d73d8bac7f7fa0cca899aad0e14a584"),
    # orders 11 and 33 have too few irreducibles for the code-order scan:
    # their generators come from minimal polynomials of a primitive root
    (["classify", "--field", "2", "--n", "10"], 0,
     "e6d39bdacc5e4107b4ea2cbccbebfece27eb5a3d8da06d07b484ad362e5cb93f"),
    (["classify", "--field", "2", "--n", "10", "--format", "json"], 0,
     "e3f4cdbc0f3ee5587d6230ce82847ea7280c2e212fbb219fc570fed716162eff"),
    (["classify", "--field", "2", "--n", "10", "--format", "csv"], 0,
     "662b6d075095d1776e23283ec67e8e09eca712ea63f1691f47cb209c9dd35390"),
    (["code", "--field", "2", "--n", "5", "--divisors", "1,1,0,1;1,1,1",
      "--subspace", "1,0,0,0,0;0,0,0,1,0", "--format", "csv"], 0,
     "c053caef6d84f138b4f0d30f1e260d7a19ee822cc7cbc4f217d36c25f20365a2"),
    (["code", "--field", "2", "--n", "5", "--divisors", "1,1,0,1;1,1,1",
      "--subspace", "1,0,0,0,0;0,0,0,1,0", "--format", "text"], 0,
     "1c5815266acb7cdd874d35db4af3c545ca0f44b89a183444ec54ccacb2ec86a0"),
    # a singleton code: min_distance is null in JSON and None in text
    (["code", "--field", "2", "--n", "2", "--divisors", "1,0,1", "--subspace", "1,0;0,1"], 0,
     "f1394a2c4e8c306d780f88c3fa6f0fdbf5157c215d955a4da0232360150f5793"),
    (["code", "--field", "2", "--n", "2", "--divisors", "1,0,1", "--subspace", "1,0;0,1",
      "--format", "text"], 0,
     "c80e3fca313e70f24e0be410bd0c4e573409438c5862775f06fd809cbbebe535"),
    (["examples"], 0,
     "2d0e9932078655305ac830bde5efe46376c5d94362234394aefe5944203988ed"),
    # one Singer code report per field: a primitive p and a random U
    (["code", "--field", "2", "--n", "12", "--divisors", "1,1,0,0,1,0,1,0,0,0,0,0,1",
      "--subspace", "1,0,0,0,0,1,1,0,1,0,0,1;0,1,0,0,1,0,1,1,1,1,1,1;0,0,1,1,0,1,0,1,1,0,1,0",
      "--format", "json"], 0,
     "6c5201da6105c0826e6ec1f91819250c2fc2cf3c2edd4b510e910de115c653a1"),
    # the scalars F_4* fix every F_4-subspace, so |C| = 4095 / 3 = 1365
    (["code", "--field", "2^2", "--n", "6", "--divisors", "2,1,1,0,0,0,1",
      "--subspace", "1,0,1,2,3,1;0,1,1,2,3,0", "--format", "json"], 0,
     "e79103d113e1ade0926938156ec1b73e92fa429045aeb30d69c01b0149413c3d"),
    (["code", "--field", "3", "--n", "7", "--divisors", "1,2,1,0,0,0,0,1",
      "--subspace", "1,0,2,0,1,0,2;0,1,1,2,0,2,0", "--format", "json"], 0,
     "9cfb56dd9c925d1f99a0e112c403b18a26df9a7210076db9f1fd0ef727ad71e5"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", PINNED, ids=[" ".join(argv) for argv, _, _ in PINNED]
)
def test_cli_output_is_byte_identical(capsys, argv, exit_code, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)
