"""Pinned SHA-256 digests of the checkpoints of fixed small searches.

A search with ``checkpoint_every=1`` appends a checkpoint line after every
cycle; each case below reads the file through ``on_cycle`` and hashes the
last line's body in the one-snapshot layout of version 3 files
(``SWAPCKPT 3``, newline, body, newline), so the digests pinned for that
format still pin every body byte.  Any change to the search loop, the
mutation operators, the cell encoding or the checkpoint writer that is
meant to be exact must leave every digest unchanged.  The cases cover the three ``reg`` modes (auto, None and an
explicit bell), an assembly with a reduction and a head, and 5-node cells
that always cross over.
"""

import hashlib
import zlib

import pytest

from swapnas.cells import AssemblyConfig
from swapnas.evolution import SearchConfig, run_search
from swapnas.metric import RegularisationParams

_BASE = dict(
    population=6,
    cycles=8,
    mutation_times=3,
    batch="gauss:8x3x5x5",
    nodes=4,
    assembly=AssemblyConfig(depth=1, stem_channels=3),
)

CASES = {
    "reg-auto": SearchConfig(**{**_BASE, "seed": 21}),
    "reg-none": SearchConfig(**{**_BASE, "seed": 22, "reg": None}),
    "bell-reduction-head": SearchConfig(
        **{
            **_BASE,
            "seed": 27,
            "reg": RegularisationParams(mu=0.004, sigma=0.002),
            "assembly": AssemblyConfig(depth=2, stem_channels=3, reductions=(1,), head=True),
        }
    ),
    "nodes5-crossover": SearchConfig(
        **{**_BASE, "seed": 24, "nodes": 5, "crossover_prob": 1.0, "cycles": 6}
    ),
}

EXPECTED = {
    "bell-reduction-head": [
        "29e3c426691970a039d69cabcf9e69ab4208b2520c3301c6c1fa3df03f548efd",
        "5740c136fd7481fe81548bfe6738a02caa34a6f89ed54284bfa0b84ba27cdcd0",
        "b1d64eb5bf477be3fa3ae5701bea20b943673ce1782375cca98dae747e4cc6d6",
        "e7aa30602720fbe01708e80ff9781bcbb75a7fcfc976a887194aed18012e7bde",
        "a3757952d22d55874d80bd939dfaa35208eeada43d6fde69919cbb58c739d7ba",
        "1beb2b87004473218b1757483d2c5305fbf11c8c16ea0598363310a95524bbd0",
        "7bcd2512a39ea1ffdbf4504676c20a86e3c6d45e8a33badac1a684cb58038659",
        "8416849aad522ef212e6845a285c395655568ae0483c8e167b7aec538e7484b4",
    ],
    "nodes5-crossover": [
        "6f520cbd512b8f623df68f263c204c4b61e2f9c92079059f00a65e9551ca958c",
        "69795ee596902153f3f49c4db11a8f6a69d9ee514b285109f152cc379dd6c3e5",
        "316bb55c284104fff9a2c7816acac7b4e2ee5fcf05631baeaede6109847ac09d",
        "f86b8d1c2842790d3f1f3a1b0676dd504eeba8b3e08c17b57d87450eebef67a0",
        "4758879996efff5fbeeae619d67b001aea280f88b8338a39e6f16f45ea8ec076",
        "0d3efb7d2fea65c2b6d5c8978c225f256f32bd426ae2c1fc3aaccb74d2fb76e7",
    ],
    "reg-auto": [
        "6b9e7df75d03310765b8f9f3d27299bd3b353146e03c51bfc41847a7ee42273b",
        "8265fef7c1f4300b2c3b942c90839b3a4715f67ba802b574ba01fe409072548e",
        "af1906ef2d16918f1b12c8412510e670ab904e8c75715c69b94d6014c9925358",
        "850b8abc7e951662e603ee934e2afe94bbdacdae25c97a48c41e9b178818df99",
        "b32acb3c029a98089d1020164f299e63d73f6181cead1216b9f41a424bdc8803",
        "8be4f35b86a6c50bf8dc3e14bdd6c04c4a9bce9ffa2b64f149079c09ec180095",
        "45afc6f8a7abf92dd70e958c2c13676ddd833c84ebb6e04d8097ef968db1dad9",
        "42e271d2a8e48ec2439bb797114ede86af30054a5ed266a1bdec1d6489efdac0",
    ],
    "reg-none": [
        "89de71bac80879098d90860260b9c6daabfa34e67c6e84c51886b715bd3fa2f4",
        "8e18e7407781ae48801564286773d85b78cbe3e0237a9ddd007081855b1e6d8e",
        "4b842711792dc04ef455b16d27896e59eed0ba6852d4ac86ad0afaa824bb541e",
        "9cd7793b6515358a116bb5a93a6956b1177fe2aadec9e4b796047f3ee2312cab",
        "fa7561e0df22103cbaa9cec1d663f0d44174a426b1fa8c416244df01fe34abdc",
        "580b2bf757b40cdd23ad704461435b5239970c86d1655f29b3b4bbe228f3dc1f",
        "1541a1b107ed10c3fa60f04ffaaae6cfd55811a91c761bdfd464f8001c14ad2e",
        "b737674e81503dc02be6fd58808bf83ed59a9732da8b58c977f9648452542fce",
    ],
}


def last_body(path) -> bytes:
    """The body of the checkpoint file's last line, its checksum checked."""
    *_, line = path.read_bytes().rstrip(b"\n").split(b"\n")
    crc, body = line.split(b" ", 1)
    assert crc == b"%08x" % zlib.crc32(body)
    return body


def checkpoint_digests(cfg: SearchConfig, path) -> list[str]:
    digests = []

    def read(cycle, population, best):
        digests.append(hashlib.sha256(b"SWAPCKPT 3\n" + last_body(path) + b"\n").hexdigest())

    run_search(cfg, checkpoint_path=path, checkpoint_every=1, on_cycle=read)
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_bytes_are_pinned(tmp_path, name):
    cfg = CASES[name]
    digests = checkpoint_digests(cfg, tmp_path / "search.ckpt")
    assert len(digests) == cfg.cycles
    assert digests == EXPECTED[name]
