"""Byte-level CLI transcript: exit code, stdout, stderr and every file left in
the working directory, for each subcommand, pinned by SHA-256 digests.

Each invocation runs in its own directory holding the input files below, so
paths in the output are relative and the digests do not depend on where the
test runs.  A change to any byte of any output fails the invocation's case.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from lsnc.cli import main
from lsnc.fixtures import load_grid
from lsnc.gridio import dumps_grid
from lsnc.latin import Grid

from conftest import QAM8_POINTS, with_cell

INPUTS = {
    "qam8.json": json.dumps([{"re": p.real, "im": p.imag} for p in QAM8_POINTS]),
    "good.json": dumps_grid(load_grid("qam8_rect_ls")),
    "bad.json": dumps_grid(with_cell(load_grid("qam8_rect_ls"), 1, 1, 2)),
    "pfls.json": dumps_grid(load_grid("qam8_rect_pfls")),
    "rect.json": dumps_grid(load_grid("hall_rect")),
    "blocked.json": dumps_grid(Grid.from_lists([[1, 0], [0, 2]])),
    "empty9.json": dumps_grid(Grid.from_lists([[0] * 9] * 9)),
    "high.json": dumps_grid(Grid.from_lists([[5, 0, 0], [0, 0, 0], [0, 0, 0]])),
}

# Written only for the invocations that name them, so that the files, and so
# the digests, of every other invocation stay as they were.
NAMED_INPUTS = {
    "clash.json": dumps_grid(Grid.from_lists([[1, 1], [0, 0]])),
}

TRANSCRIPT = [
    ("fade-states --signal qam:4",
     "43cc3bb93005e80ee73e25d55e6f8c191c49e83b024b4dae14a8d2f1aba5b587"),
    ("fade-states --signal psk:8 --json states.json",
     "7692646bced5877abae4db0dfbbfb3a59705c77b23046337f976f62a26d258b9"),
    ("fade-states --signal pam:4",
     "672a53dffefcaccbb884ce4b3b826b2ea215b1e2c68809504df2f4a23ef8328f"),
    ("fade-states --signal psk:6",
     "eddba47a3719d07e8871a65319458e7e10165b02584e3e2bb5de4f0da7d1c5eb"),
    ("fade-states --signal psk:16",
     "075dc9e9a9d4150db000cbcaa8f07a07050e02150420b325b7cade8ee599bd12"),
    ("fade-states --signal psk:4",
     "6afb28611471e5e44f3b076a50a912849434836f3640135f885a84d2949da546"),
    ("constraints --signal qam:4 --fade 0.5+0.5j",
     "e967bf5915d74a91cdd68a07d907e1f7b7e0c27ebbe87f5bc3e197277958b93e"),
    ("constraints --signal qam:4 --fade 0.5+0.5j --json",
     "e8a7bb748ff2b08bbdcefeffb8934964dbc531f9a12e92b0cc5bc3401c6667a8"),
    ("constraints --signal psk:8 --fade psk:1,3",
     "c5cf20a3cc6c4885ac30693c6fde1c858450c4a1b1458031886da278c0221e7f"),
    ("constraints --signal custom:@qam8.json --fade -0.5-0.5j --json",
     "af9c29c7afca43ff3fe4596bc594abaf693add11311febc410faf50fb21f0408"),
    ("constraints --signal psk:8 --fade nan",
     "2ceab29848e60f9e4db1fce8aa3a5a7b8a802dc5a6c85199857076999374115d"),
    ("graph --signal qam:4 --fade 0.5+0.5j --dot g.dot --json g.json",
     "a0b41b44c527b53e3fa279ba21316fad1fd6320bbab73298e40a693891edb23f"),
    ("graph --signal psk:8 --fade psk:2,4 --vital --json v.json",
     "490aad88de59bd103c66be3d0c2feab637420c19c4894ce13654190228620129"),
    ("graph --signal qam:16 --fade -1-1j --dot g.dot --json g.json",
     "f050d3f7df014ebb58002e1706036bffe98f66376d651082d3839063390361b0"),
    ("graph --signal qam:64 --fade 0.5+0.5j --vital --json v.json",
     "bca65f53b1ab01847ce7f738613178a2e7c16ae9d4b5a1c45e97f5610d03a1bb"),
    ("chromatic --signal qam:4 --fade 0.5+0.5j",
     "afac810ee93ad5aeeebb193c45936b7b0e890c20e3337f6b57e80714645c1105"),
    ("chromatic --signal qam:4 --fade 0.5+0.5j --vital-only",
     "adc821d254aea9a93979e0597410c51396281ba88d3a7104fdb3d7e2ab392299"),
    ("chromatic --signal psk:8 --fade psk:1,3 --vital-only",
     "4b4a216ae11395453bab9021eb96998e54add73f68f0a52148cdca00f58da300"),
    ("chromatic --signal qam:16 --fade 0.5+2.5j --budget 5",
     "38f9304a4502b71d3a153b4e27c2d626914c5be756c30762c77c0dde456a6737"),
    ("chromatic --signal qam:4 --fade psk:1,2",
     "ee6709799254860c0fd64c550f728293878b5690463a40fdee0f13e0329ca605"),
    ("chromatic --signal qam:16 --fade 0.16666666666666666+0.8333333333333334j --budget 100000",
     "6ea89e377c4c032d7bb89177cbffd8ec6fb2487e503a50dda26e780278ea2c8d"),
    ("chromatic --signal qam:16 --fade -1-1j --budget 2000",
     "c7ceba243e9fb7df40915bc8c75b693c53ad401caa866d9256f3181095977e3e"),
    ("latin --signal qam:4 --fade 0.5+0.5j",
     "fef7a42c40399e775caa5f5fe94d7d21d399c1d8be07a85082bcad1f47e98d80"),
    ("latin --signal qam:4 --fade 0.5+0.5j --json ls.json",
     "e9067f4aa55d13f7767d25ca230c6077cc7a39e9fef8e47823dc3a1002341c11"),
    ("latin --signal pam:4 --fade -2",
     "b632e861bfdac89b762913a9cd2ff812acfacf5b1f9d1a2545ff86f910908825"),
    ("latin --signal qam:16 --fade 0.5+2.5j --budget 5",
     "38f9304a4502b71d3a153b4e27c2d626914c5be756c30762c77c0dde456a6737"),
    ("latin --signal qam:16 --fade -1-1j --budget 2000",
     "89d0c7cf01b907ec508b0aea7982f9bedee1e7acc402fff9ae415f96b757bdd7"),
    ("verify --latin good.json --signal custom:@qam8.json --fade -0.5-0.5j",
     "4b710a2b0d9f269348e5bc086fb39a90cd34b1ad8cd5f82a22634d21ef87f51c"),
    ("verify --latin bad.json --signal custom:@qam8.json --fade -0.5-0.5j",
     "519620d7afe010d50e81955772cb9df3d6db116590b197524fff1a9a20ecdaf1"),
    ("verify --latin pfls.json --signal custom:@qam8.json --fade -0.5-0.5j",
     "3d7789405d94f27e830c715385b4c920c594f3cda23261a13c5ac77a4fefa8a6"),
    ("verify --latin pfls.json --signal custom:@qam8.json --fade -0.5-0.5j --allow-partial",
     "bab5f31f52920d29afb0f551821995f0d84f40a76035c2dcfa41bfeb1e2d8c36"),
    ("verify --latin nope.json --signal qam:4 --fade 1+0j",
     "fa674a5fce70e4a48723ec45e495e323711705d7cadadc582339f1b0fc766704"),
    ("verify --latin rect.json --signal psk:8 --fade psk:1,3",
     "b07cf8fb524302d97368d107c0aa191f6b59bd1827bd19571a4d34d69e5aaaf0"),
    ("complete --partial rect.json --symbols 4",
     "a185326988f9f2633946c8a3f83722d3d3ede536e6f41f7a7cd9e00ec5b8203b"),
    ("complete --partial rect.json --symbols 4 --json done.json",
     "76362ab961a4565a2f231eef3a9072e5e63dd193881ba7bcd1d7b9653d53af47"),
    ("complete --partial blocked.json --symbols 2",
     "4b13e6a44cbf87f1e1bcecf4531e60fbfd8136e814d8845a3a24c9e080c60e17"),
    ("complete --partial empty9.json --symbols 9 --budget 3",
     "818eac7212387d42a03ac75788ad9026caafeac10de0bdf19f5864ecea68209f"),
    ("complete --partial high.json --symbols 3",
     "02e49bbb4286186b95ca5ce4bcb0fffee11cde34df69797d8b1e6b6692f2d5b1"),
    ("complete --partial high.json --symbols 1000000000",
     "cc1ba832f9931c5e439b213a9ad0403f300a2dde69cbbf9462ac91819b57a105"),
    ("complete --partial empty9.json --symbols 1000000000",
     "48bd4c09e5fe484eaad0a11d6cb31871761187506102f35747cdab94e93acd41"),
    ("complete --partial empty9.json --symbols 1000000000 --budget 3",
     "818eac7212387d42a03ac75788ad9026caafeac10de0bdf19f5864ecea68209f"),
    ("complete --partial clash.json --symbols 1",
     "a70d8869513442909fd295b1d0f6239612f480e556e0dde343c68cc38fa7fd78"),
    ("complete --partial rect.json --symbols 0",
     "7497f06350e5bc7274d8308bdb7963fb96f85bef88ff2d23e1bca033365de47f"),
    ("complete --partial rect.json --symbols -3",
     "613991e944ab5f82cfa7928a9d0d62e51a969f34f6cf20bcbd80024191e2eb60"),
    ("psk-sweep --m 8",
     "8eb875d6fe01cba49b5a53e972f203d99fe4eab970685e7ce2a62f15ee86b74e"),
    ("psk-sweep --m 8 --out sweep",
     "ea961daf79c2821df44d9f7326710a7483659a02d5f0e420bf6ea1dba0eef173"),
    ("psk-sweep --m 4",
     "2b9255ed03f1dc3887c1ea3dcbffe8b48d040a5475fe80f137c4d4d02e3061c5"),
    ("clique --signal qam:4 --fade -1-1j",
     "e8d9a50754aedce845b054ca4759da5ffa9b37fc7b2ce0112a1ff641049956e0"),
    ("clique --signal qam:16 --fade 0.5+0.5j --json",
     "c49c2f7273f7f1be2a025f1e7f61852acb319d90b765ff84501be670286ad0ff"),
    ("clique --signal qam:4 --fade 0.3j",
     "8a587b5bce8feb52cd80c57a93a64e06822865c2b2e2077e74d51e7ffee5ff0b"),
    ("clique --signal psk:8 --fade -1-1j",
     "f84f957e2cfc66c3f8bc366f16c13317448268fe62d8535f2ac335ba58051956"),
    ("mindist --signal qam:4 --fade 0.5+0.5j",
     "dde41353808c58c1bbe3cd035421fecc58ae8a2b498733e797916ee602f1c7a2"),
    ("mindist --signal psk:8 --fade psk:1,3",
     "da0664da72e9cfe102ba48373561629fc37ca9e143c7409e826809bf4e1651c8"),
    ("mindist --signal qam:4 --fade 0.25+0.1j",
     "b6f9d50721a2e1fdec98c132a3d522810c08dee9a29b294553bc997da2904488"),
    ("mindist --signal hex:7 --fade 1+0j",
     "fd3cd1b61bb68ccd67143639d0d02a3e652d99d6f5f3a79a895c1f647a9e4c62"),
    ("mindist --signal qam:4 --fade 1e308+1e308j",
     "3d3b26cf3febeb9766ab989ffcae2c7b5f0e1b714daa76d2a2619a67c633a0b7"),
    # PSK at exact states, off every state, and past the float range
    ("constraints --signal psk:6 --fade -2 --json",
     "c75678b8caf8f627886bb718b67edf9c2fbe39368f44690ffb3d2aaac079a79c"),
    ("mindist --signal psk:16 --fade psk:3,1",
     "3a1ff91f039809674fe13b027b93a8160f536ebfb282e661c88d076ca5e41cfc"),
    ("mindist --signal psk:8 --fade 0",
     "6f7aaef5ee72f2c16daa1dd2d2313a0812f1dc996c91c88d1a5da0d7fb8e4922"),
    ("constraints --signal psk:8 --fade 0.4142135723730951",
     "849b0b55588eb290df3c0db48bbe9cee6c20c74fe758c5089f42bc1e8c995847"),
    ("mindist --signal psk:8 --fade inf",
     "e83b18fa7407bcaf7a76a9cde59617296f556b67b8fd3e7b18df26a54b97be08"),
    ("mindist --signal psk:8 --fade 1e308+1e308j",
     "c5712bff3315a257ffc071a985cb67e1f5aa32ef9bef00b19f08b11408d03226"),
    # 64-QAM block lookup and exact effective constellations
    ("clique --signal qam:64 --fade -1-1j",
     "8f362e379a012f3f46170893f681a528fa9059aa191037d4fa2e65f771660da5"),
    ("mindist --signal qam:64 --fade -1-1j",
     "f3285ce03823782c8d78c4c15089547a539b89a6d2b59f64ed45b48340b72ec3"),
    ("mindist --signal qam:16 --fade 0.5+0.5j",
     "10fc96d86c2ec0f7667d2da7437cad3ae6b38de7853707359523afd7c0cd3721"),
    # effective constellations off every singular state: the float path
    # (PSK) and the exact closest-pair sweep over all 256 points (16-QAM)
    ("mindist --signal psk:8 --fade 0.7+0.2j",
     "e382b8087ba96225c02638247b976312d8a70a356c766e233c38b1e52d4b29eb"),
    ("mindist --signal qam:16 --fade 0.37+0.11j",
     "85a7cac009c38e3499f6420b1767694f9313633423c5f8a36ba2e2051d829561"),
]


def run(cmd: str) -> tuple[int, str, str]:
    """Write the inputs to the working directory and run one invocation there."""
    named = {name: text for name, text in NAMED_INPUTS.items() if name in cmd.split()}
    for name, text in {**INPUTS, **named}.items():
        Path(name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(cmd.split())
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str, workdir: Path) -> str:
    h = hashlib.sha256(f"{code}\n{out}\0{err}\0".encode())
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(workdir).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("cmd,sha256", TRANSCRIPT, ids=[cmd for cmd, _ in TRANSCRIPT])
def test_cli_transcript(cmd, sha256, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    assert digest(*run(cmd), tmp_path) == sha256
