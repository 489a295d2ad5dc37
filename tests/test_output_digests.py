"""Report bytes that must never move: sha256 digests of CLI outputs.

The census report holds only the multiplicity formula and the agreement flag,
and the reference cases are closed forms, so their bytes do not depend on how
the program computes its cross-checks. A change that moves any of them is a
defect, not a declared break. The verify report's layout (each row's id,
description and tolerance, in order) is locked the same way; its residuals
depend on the BLAS build and are left out.
"""

import hashlib
import json

import pytest

from rffqudit import cli
from rffqudit.reference import REFERENCE_CASES

CENSUS = {
    2: ("b0f200463afedb3b335bccac0c3e21697369a86dc6eaac1946cad9260ed77a1c",
        "1484971bf799fbdb8706f12eb0f6b26803a3d603b29ec2c33c2636c8aca5ff09"),
    3: ("6a7dfb6404036da63f97525ca04055cf6bc28492586dbc233127a0c52adcb2ab",
        "f2176ebe3863af3881dc9f22900caa219f2cc538c4f2c4b77140f9b9f6f1e7d7"),
    4: ("72680e749e250f75478e81b8fc19f36bd46a0d9889da22e1eaa0ad37c71cc522",
        "48bb358710d1ee52ac8fefc578e6924739f2fd99e61ab86698f327a71bd25841"),
    5: ("3f3a9ff97523059c9ed75fb8438ecf688871415fb678df03f894a65c6a9e2bfc",
        "106806081b1d195aa59dd9b25470770bb8dd0997ba4740d2ff496c551b942075"),
    6: ("c00b5ed161c78087e372b033d8775b715c92bd0544c995cfb06b31c3a0b65e0f",
        "78986a0a69db31f3599f1cfbc5da8249d9527554f48548721d8ef2f1d2a7ea32"),
    7: ("5dda155d463432ea7af88acde1898c34f0c79dbf81700f43909b85de852514ac",
        "0b504954094654e7d6f44966526ad18baf1a9979444fb672e175d4fd558bc39b"),
    8: ("adbd49c75795fd21f7b53d3ccfcb77f6b42c476a0e73d271d2fe432ce956048b",
        "2cb4b2f19555d857dcab190338f4f40c773c96862fb021ac32396efafe5cdb9d"),
    9: ("beadd31df5d41f1f60cae0e1e009e77b45f2fed9d150ae5861e298f81e2c453a",
        "ed300f99674ea382573d9a2b81e670c61706d5b069d6f59f832be205570cff13"),
    10: ("1aab0191800d6698b3d271b0883996f05eef1a9e909703402f14f422c68a7ba0",
         "3e9cf8a7c0d4f90eebfe340ac073b8c86b9de698dd364daec9686b932775c50d"),
}

REFERENCE = {
    "n3-pauli": "435b82b54801cd3bdfa1d181918cf85d120c5a2058a9e617c9ca83f234b3200d",
    "n3-q": "4b2086caafd213f310e689badea6c3a21d877f0d0a571b7bd5f203af2f04b50f",
    "n3-trine": "81c28534d28f2fe514c04f0743def0e430f40b35e552c33bca6ca383adab0e34",
    "n4-akl": "5099ae7e416322c3970215c0b88fc97befb198b7b61592450c134de22b38d156",
    "n4-cg-proj": "02db4854ce2acefa44ba647d0614ebe18b62d1db93e01aff392d8eef40941355",
    "n4-hws": "cd3fa39507bd909fc3b0bd12da9bd48c1e8b5e36c49a533f7cd4f77a2ec6dd54",
    "n4-pauli": "4d798d0cf5604ac83df11ddef0ce7451c02da6ad10927eeebaa413786edfba0f",
    "n4-q": "fbcf2b488c2113f7cbb5c2f449d17b8d2ed632c2fb0a6b3593bba7b7e6fe4091",
    "n4-sector-projectors":
        "50cf39abeb65ad2f032fec9e3a09b38ad929cf3230e2ebe4f3c2df1d50734a30",
    "n4-singlet-proj": "702693adcfad275c9be1f2c25f0dedd470a40df0e2276cb08b9cc19bb6c3bb15",
}


def _digest(capsys, *argv) -> str:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", sorted(CENSUS))
def test_census_bytes_are_fixed(capsys, n):
    json_digest, csv_digest = CENSUS[n]
    assert _digest(capsys, "census", "--n", str(n)) == json_digest
    assert _digest(capsys, "census", "--n", str(n), "--format", "csv") == csv_digest


def test_reference_digests_cover_every_case():
    assert set(REFERENCE) == set(REFERENCE_CASES)


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_reference_bytes_are_fixed(capsys, case):
    assert _digest(capsys, "reference", "--case", case) == REFERENCE[case]


VERIFY_LAYOUT = "a249b7021c25a112d45686da1586d71d5d437813e86f6ebb35bf04865d537d4e"


def test_verify_layout_is_fixed(capsys):
    code = cli.main(["verify", "--suite", "all", "--n-range", "3..7", "--seed", "7"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0 and len(checks) == 90
    layout = "".join(f"{c['id']}\t{c['description']}\t{c['tolerance']!r}\n" for c in checks)
    assert hashlib.sha256(layout.encode("utf-8")).hexdigest() == VERIFY_LAYOUT
