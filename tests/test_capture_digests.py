"""Pinned SHA-256 digests of activation captures and weights.

Any change to graph assembly, weight drawing or the capturing forward pass
that is meant to be exact must leave every digest below unchanged.  The
cases cover NB201-like stacks, reductions, heads, MLPs with and without a
head, standardisation on and off, and a graph with no scored layer.
"nb201-full" runs the benchmark's assembly on 32x32 maps, where every 3x3
conv gathers and multiplies its window matrix in two or more blocks.  The
"pool-" cases pin the degenerate maps an avg-pool edge can read: Wx1 maps,
whose pool output has height 1, and a single sample on 1xH maps, where
numpy flags a conv's NHWC-strided output as Fortran-contiguous.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from swapnas.cells import AssemblyConfig, CellMatrix, NodeSpec, nb201_like_assembly, random_cell
from swapnas.network import build_network, forward_capture, gaussian_batch, network_from_nodes

UNSCORED = (
    NodeSpec("input", "input"),
    NodeSpec("pool", "avg-pool", (0,), kernel=3, padding=1),
    NodeSpec("skip", "skip", (1,)),
    NodeSpec("sum", "skip", (1, 2)),
    NodeSpec("gpool", "global-pool", (3,)),
    NodeSpec("head", "dense", (4,), units=5),
)


# Three 3x3 conv edges, a 1x1 conv, a pool and a skip.
FULL_CELL = CellMatrix([[0, 1, 1, 2], [0, 0, 1, 3], [0, 0, 0, 4], [0, 0, 0, 0]])


def _cell_case(cell_seed, assembly, dims, weight_seed):
    return lambda: build_network(random_cell(4, cell_seed), assembly, weight_seed, dims[0]), dims


def _mlp_case(units, head_units, in_features, seed):
    """Scored dense layers of ``units`` on (features, 1, 1) inputs, then an unscored head if asked."""
    nodes = [NodeSpec("input", "input")]
    nodes += [NodeSpec(f"dense{i}", "dense", (i,), units=u, scored=True) for i, u in enumerate(units)]
    nodes += [NodeSpec("head", "dense", (len(units),), units=head_units)] if head_units else []
    return lambda: network_from_nodes(tuple(nodes), seed, in_features), (in_features, 1, 1)


# name -> (network factory, batch dims (C, W, H))
CASES = {
    "nb201-a": _cell_case(1, nb201_like_assembly(depth=5, stem_channels=4), (3, 9, 9), 11),
    "nb201-b": _cell_case(2, nb201_like_assembly(depth=5, stem_channels=4), (3, 8, 7), 12),
    "nb201-c": _cell_case(3, nb201_like_assembly(depth=3, stem_channels=6), (2, 10, 10), 13),
    "stack": _cell_case(4, AssemblyConfig(depth=2, stem_channels=5), (3, 6, 6), 14),
    "reduction-head": _cell_case(
        5, AssemblyConfig(depth=3, stem_channels=4, reductions=(1,), head=True), (3, 9, 7), 15
    ),
    "head": _cell_case(6, AssemblyConfig(depth=1, stem_channels=3, head=True, head_units=7), (1, 5, 5), 16),
    "mlp": _mlp_case([5, 9, 4], 0, 6, 17),
    "mlp-head": _mlp_case([8, 3], 2, 4, 18),
    "unscored": (lambda: network_from_nodes(UNSCORED, seed=19, in_channels=3), (3, 6, 5)),
    "nb201-full": (lambda: build_network(FULL_CELL, nb201_like_assembly(), 21, 3), (3, 32, 32)),
    "pool-wx1": (lambda: build_network(FULL_CELL, AssemblyConfig(depth=2, stem_channels=4), 22, 3), (3, 7, 1)),
    "pool-1xh-s1": (
        lambda: build_network(FULL_CELL, AssemblyConfig(depth=2, stem_channels=4, reductions=(1,)), 23, 3),
        (3, 1, 6),
    ),
}
# Batches have 11 samples, except for the cases named here.
N_SAMPLES = {"pool-1xh-s1": 1}

EXPECTED = {
    ("head", True): (
        "9699db35e6ab5e9e46d17fe88472aa0333a482d5e8ce111cc036f5fa55c041ea",
        "a9f79fdad330ca3b6228c04b41124a96ef44087f5db925adeb4a4c55bcc9e4e6",
    ),
    ("head", False): (
        "29259bbd315cd227acf0e11d5159f7b93b01c9c35a90eb44178367a72e4d31a5",
        "a9f79fdad330ca3b6228c04b41124a96ef44087f5db925adeb4a4c55bcc9e4e6",
    ),
    ("mlp", True): (
        "e6e6384460e486c4ef0e1f3d6bc1dffb8f85e395176b0d6eb8debd91b7634347",
        "047dd43ca732965f598af2dfe234f40f896959c00d7a92b61d3267e00402b7f1",
    ),
    ("mlp", False): (
        "0ebd875c5bbbd64e6e779836d9e2ec1903c593c817fd30463ee318951f2df2d1",
        "047dd43ca732965f598af2dfe234f40f896959c00d7a92b61d3267e00402b7f1",
    ),
    ("mlp-head", True): (
        "ebee91e68925876754e57bb5b33fbacf7be1b56e20ce6741b33d691bfa574a59",
        "ab1c39f66309bba4c0bc318b4ae0aeb46864c4e6bdc760c536c443477835df05",
    ),
    ("mlp-head", False): (
        "0b5af18b311144abf83f98105906682fa355641c77e70f3b547ff16fb51c29ee",
        "ab1c39f66309bba4c0bc318b4ae0aeb46864c4e6bdc760c536c443477835df05",
    ),
    ("nb201-a", True): (
        "1c32cc0a6ad2888332895c18da6f6807b99856d697b79229f18342e6368c9727",
        "eeaa759ebbe379c2ece4f9d7b8093f975c4df3c2bd404a003bc078c32b6fdce6",
    ),
    ("nb201-a", False): (
        "fcd25160fa0b2f7055eac13625c66dc03a28a320b8a4c53383730bec42f020e9",
        "eeaa759ebbe379c2ece4f9d7b8093f975c4df3c2bd404a003bc078c32b6fdce6",
    ),
    ("nb201-b", True): (
        "b8024f6ca5b33cc5438d604fd86bb4c9e9643a526f8be44563502223bf913dd9",
        "56798582c2ffaa27e61ff3ddf3e8a0429a3b8a9523abdf87fd580d8b6295eb66",
    ),
    ("nb201-b", False): (
        "d11e9f85edee154241988f0f2000efc9a61117b3d7adb0f34a5bd968ea3c3a92",
        "56798582c2ffaa27e61ff3ddf3e8a0429a3b8a9523abdf87fd580d8b6295eb66",
    ),
    ("nb201-c", True): (
        "cdc6b6e9ce79c7664a949870059f7935369c70e61fb7354ae49570b171f259ed",
        "90168f02d8d57d759789d513f4d93023827668772a3a2d361eb6070148e34814",
    ),
    ("nb201-c", False): (
        "1940a6f5d72e0c0102e20ec767f66de058cd32454029c5bab2d18b8d57b6187c",
        "90168f02d8d57d759789d513f4d93023827668772a3a2d361eb6070148e34814",
    ),
    ("nb201-full", True): (
        "c5d2ede9cdb1219509c48c7c39d0cfc67ce809841994c839c933bbfb4e9920e7",
        "a7c11684efffb6c40983f60c41319b731ea1ad50a6d1fceeb01d4b39a25bda13",
    ),
    ("nb201-full", False): (
        "38bd9d7811738539a4f5ed3321cca7268525dc413ec2c1c6d4c8d9cd4ed2e1a9",
        "a7c11684efffb6c40983f60c41319b731ea1ad50a6d1fceeb01d4b39a25bda13",
    ),
    ("pool-1xh-s1", True): (
        "2377909986be0a8534c476e18ca6fae0d5d606d8b61c8bbf5be31960b50e48fe",
        "f58832bf9d03f1c3b84f56abca52a32a679d3f1f190703394055f67e9a0560c4",
    ),
    ("pool-1xh-s1", False): (
        "43fb30ef58c92301beb4e256fcc93e40ff497c6f30202b564e6cd86e949c74e3",
        "f58832bf9d03f1c3b84f56abca52a32a679d3f1f190703394055f67e9a0560c4",
    ),
    ("pool-wx1", True): (
        "ba8bda74d59da76203a82670a944fde36936e8f53aae06d2366f1f3d1d02fb0c",
        "d91595580fe5933972f116d9f3ec43936dd167b100189d61858dd386b6d3e260",
    ),
    ("pool-wx1", False): (
        "c7d5f99a27e1f196460f586b412c238e10bee5786d6374ad6308a3e1ce980438",
        "d91595580fe5933972f116d9f3ec43936dd167b100189d61858dd386b6d3e260",
    ),
    ("reduction-head", True): (
        "3fdc1ab1106038a13c83c206a6a2fbbce43e2368ee92f096b583eccd14e8df99",
        "cfebfde022a11afbbb8dab4675004866611bd713e4a031ab28a672d7c3cf01df",
    ),
    ("reduction-head", False): (
        "07f1b843d8c52165105421adbf757dfa360af7504a6343471d0517d94863d186",
        "cfebfde022a11afbbb8dab4675004866611bd713e4a031ab28a672d7c3cf01df",
    ),
    ("stack", True): (
        "401aabae7620bc4fac9e0c40148bd32d51df6c76910d5981ea7b68a2cac20bd7",
        "b5301da2d1550ea626eadfd247e19806496a7b84161e48604b7e3a68e1a4cde9",
    ),
    ("stack", False): (
        "46432121344d2dfa5a31fdaacac99266cee874254772bd6274ec19025de7c478",
        "b5301da2d1550ea626eadfd247e19806496a7b84161e48604b7e3a68e1a4cde9",
    ),
    ("unscored", True): (
        "da4d5f23b53ac36db8fa37192394d2699cb4ce678bc097a38b252c4ab1c74081",
        "f8d9c79088f2b0af857a4b06fa508933a50794b13bbf7ca1a3f9fc456a80509e",
    ),
    ("unscored", False): (
        "da4d5f23b53ac36db8fa37192394d2699cb4ce678bc097a38b252c4ab1c74081",
        "f8d9c79088f2b0af857a4b06fa508933a50794b13bbf7ca1a3f9fc456a80509e",
    ),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        if arr is None:
            h.update(b"none;")
            continue
        h.update(f"{arr.dtype.str}{arr.shape};".encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("standardise", [True, False], ids=["std", "raw"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_capture_and_weight_digests(name, standardise):
    make_net, dims = CASES[name]
    net = replace(make_net(), standardise=standardise)
    batch = gaussian_batch(N_SAMPLES.get(name, 11), dims, seed=20)
    capture = forward_capture(net, batch)
    got = (_digest(capture.packed_rows), _digest(*net.weights))
    assert got == EXPECTED[name, standardise]


def test_unscored_graph_gives_an_empty_capture():
    net = network_from_nodes(UNSCORED, seed=19, in_channels=3)
    capture = forward_capture(net, gaussian_batch(11, (3, 6, 5), seed=20))
    assert capture.packed_rows.shape == (0, 2)
    assert capture.n_values == 0
