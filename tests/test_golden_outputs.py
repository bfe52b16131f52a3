"""Golden outputs: the README CLI examples and the benchmark's exhaustive
searches with their edge cases, byte for byte.

Each command runs through ``cli.main`` in a fresh directory; the SHA-256
digests of its stdout and of every file it writes must equal the recorded
ones. A change that alters an output on purpose updates the digest here and
says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

from reconfig import cli

# command -> digest of its stdout; commands run in this order, so later ones
# read the files of earlier ones
COMMANDS = {
    "construct comp-path --n 7 --out p7":
        "f9857960734bd472d3e6dfeeca11be1c0ac02ed53035097b2008dfbd50a266a1",
    "construct circulant --p 41 --s 1,5":
        "cca30998b161345480ad57fadc3418f3c95568e2b37d20419ca845e832a23cfb",
    "construct k3 --budget 47":
        "38ab4772e5ddd6991358177e9a18ba7da57115dbd3dd92bd3cc88d9ae88c60bc",
    "construct k3 --budget 31 --out k31":
        "6ece91e99d41fde0b89ab274303c2ddaa65fac05d349cc214e22b8e1e1746dbb",
    "construct general --k 5 --budget 200":
        "5d72271f1f26e382e4930a3a05b96669814d5346b3c9638960a43b40b796a345",
    "construct general --k 6 --budget 300 --out g6":
        "6658ba251387dd41338f4dabed482bd7c2ef08be0a3a012a1d2b4292f513625c",
    "construct comp-path --n 4 --out p4":
        "f187d05ccd11b957db0ccfec42c2cff714263994ff8717de7aa737182e9b0db0",
    "construct triple p4.edges --k 2 --from 0,1 --to 2,3 --p 73 --out t73":
        "2fb5f44042a5beba4d80ecfe0a6682c019b9d537370c95c54033c5f15c57f67f",
    "construct triple p4.edges --k 2 --from 0,1 --to 2,3 --p 107 --out t107":
        "ec73d3bf6b28d00d533dcb2e0f5f1865b3cd1b465f53912c68abd3b351545194",
    "construct iterate-toll --steps 2":
        "27be921d246e6b1738372b9d196e774b4001f24bda5fbcd497718b43d72cebef",
    "diameter p7.edges --k 2 --rule tj":
        "a14842e95fa6ca529d792015d6b8dc6e2c121fcf9f6c65e31096e0ac438ee7c8",
    "decide2 p7.edges --from 0,1 --to 5,6 --algo both":
        "91263c30f1a466e9945da792e1da1d368d2e80494f2774e18e234071a686209b",
    "search --n 5 --k 2 --exhaustive":
        "533e5c5bc9b44cae7b4fbadc75804b04307aedde2ac408a18e1fccfe1f8c5205",
    "search --n 7 --k 2 --rule tj --exhaustive":
        "7cdc8a38184418bfef95eb1f30f27135313bdb6a0c4516db149ea6b54fe07d98",
    "search --n 7 --k 3 --rule tj --exhaustive":
        "d979a40ff5f2373bf6d5430ba5d65727d47e187f57e20fa6590e7e435b8da7ce",
    "search --n 7 --k 2 --rule ts --exhaustive":
        "c014ebdc64fff71d5d3af8f8072613824cecf4f40abb10456358781680ff59bb",
    "search --n 6 --k 2 --rule tj --exhaustive":
        "8d8d3c3f868ec9b1a32f2d7850d565c0d3639ead62673289b1d13ccf3251331a",
    "search --n 6 --k 3 --rule tj --exhaustive":
        "aa3c9ad5a280ef0351a889cd5672b24ebbdce402d95e18216e7a0230fd26ed63",
    "search --n 6 --k 2 --rule ts --exhaustive":
        "da9114cdfafc02b2ff9f9328acad5332623d57070e5d87f83d0370979bf7196d",
    "search --n 7 --k 8 --exhaustive":
        "28fa4306e40d767daa9ec7da4dc20ecfd11a587386ab72adebea8413e7c0d505",
    "search --n 0 --k 1 --exhaustive":
        "af3d91bb642dca2b93a889e777f0404a0603b4bcab47100b9d78daf1f40c9d1f",
    "search --n 1 --k 1 --exhaustive":
        "47bb59f64bde44e3bc60a86c6516e50d2d1ca39989a03a2d974f542b67c9f8ce",
    "search --n 2 --k 0 --exhaustive":
        "1ee11dda741b84343a20b7c9521cf59853c95d337eeaabc90477fe0a0168208c",
    "--seed 1 search --n 20 --k 3 --random 20":
        "08bdf3167398501b3a8e2f08f123debcc2e7f201aed4e6a8e4827aac26ad2e66",
    "verify circulant-structure --p 17 --s 1":
        "a1850d18f4a8cb3d3952c517884de14362e7c870cc606d705d0143e0b3f122b7",
    "verify circulant-structure --p 41 --s 1,5":
        "611a2da15fccdf53ca3c1d30183759f97fee5430f710b7730515c592bce0743d",
    "verify 63-free --p 41 --s 1,5":
        "a6da848533ba9dac003c6432ea2e54780b9975e814bbd535a6acc8c710aa57c3",
    "verify claim-inter --budget 47":
        "89394a4b23af559f3c09e4726d0e4f7673485898c13ffda4f21741491dc3be0b",
    "apset odd --n 100 --mod 8":
        "78e54736f9e963a01fc09967f69fc3cc3005c20720ff1738d2d1f9bd451b41dc",
}

# file written by COMMANDS -> digest of its bytes
FILES = {
    "construct_circulant.edges": "fb6ad3a1a8b4d71e0e07a5eef8e4d80b992c16d1ad9ad7c850d9a664515f631d",
    "construct_circulant.report.json": "da7be3e61012997b8604bccfcb09d29b5dfa1a2ef33662218036d1d8b0dfd096",
    "construct_general.edges": "86bb09939e10e2c3cd26a8ddf0fe2fe31b3eab2045bcff3cd0af3ebb8a2d4bd2",
    "construct_general.report.json": "3502fe438f7d77ea8e353bdab116bebc00c7077a0beea33856c964bb7b21a9bc",
    "construct_iterate-toll.edges": "e5f881cf3371bc5ca9698739dc16e9b575021c595a20be765892022086088546",
    "construct_iterate-toll.report.json": "593d6bf840a0596e0cb14b9f5a0e4b03ce0f1b494975190158f66bb5917bf21e",
    "construct_k3.edges": "939caf08b53cd73c10d8be23df4ed370ef5e6cb455b4c9fea4148076de6b6a76",
    "construct_k3.report.json": "2fd09610dcaba2712836dbaf5993b4a32d6925a415a38f5a09caec3836a320ff",
    "g6.edges": "c275f351c0ef77b21bac21d97dba1afddf576ea311bc37f826ce7f9e1dafc353",
    "g6.report.json": "db1a197764b3afb466ebdc76de5291aad3c63cf6ad6b1914a1db60b4cbb50bb8",
    "k31.edges": "76916ba2c4e6e57755a4117d0f53f20962b4d1f12b4354b44ead5236b2baaf57",
    "k31.report.json": "2160c3ae4bd49ed1926e3a96310b2012147a6008934e4ea184d6646d00d863a4",
    "p4.edges": "ad20828b580bbd23df415a1af3054bda2bdbca7767d849b786c7ca9bde69ea35",
    "p4.report.json": "0f666b60494e0e4b23ff30ad19626e9e05e1ed7ac1a582a399450107d244d981",
    "p7.edges": "88d9131000032834901358775d64a731ee83adecce1c0dde09fee6e5c18989cf",
    "p7.report.json": "279a6f87ace1cc6224d8dfb41593aa80882baa61f0a9b3409ce821a65046320f",
    "t107.edges": "398b18fba7545e16f609e1630ac872d319eea76b1ede77453dd6f421ceaf7654",
    "t107.report.json": "809ca44f31d0c7491d897a95b18972c7021bd8ddba1df858aceda8263b4bb95d",
    "t73.edges": "831460d50c0cb13ce34ca2ee851fdcf0f64b8ffd09a67276921f78c4c6b35792",
    "t73.report.json": "e1169aa0fe2d76ada0cbea6251ecaa1fa7a1d1fe15c0c2410483157c833bdd76",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_examples() -> tuple[dict, dict]:
    """Digests of the stdout of every command in COMMANDS, run in order in
    the working directory, and of every file there afterwards."""
    outputs = {}
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(shlex.split(command))
        assert code == cli.EX_OK, (command, code)
        outputs[command] = _digest(out.getvalue().encode())
    files = {path.name: _digest(path.read_bytes()) for path in sorted(Path().iterdir())}
    return outputs, files


def test_readme_examples_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs, files = run_examples()
    assert outputs == COMMANDS
    assert files == FILES
