"""Golden stdout digests for a fixed corpus of CLI invocations.

Each case pins the exit code and the sha256 of the exact stdout bytes, so a
refactor that changes any report byte fails here.  Input files are written
with fixed contents into the working directory and passed by relative path,
because the path is echoed in the report's ``source`` field.
"""

import hashlib
import json
from contextlib import redirect_stdout

import pytest

from mzvkit.cli import main


def sparse_values(cells, entries):
    """Row-major values with the given {cell: value} entries and zeros elsewhere."""
    return [entries.get(cell, "0") for cell in range(cells)]


MEASURE_FILES = {
    # integer four-term kernel measures
    "kernel-3-1-2.json": {"p": 3, "n": 1, "r": 2,
                          "values": ["5", "20", "8", "-7", "9", "5", "5", "-7", "9"]},
    "kernel-5-1-1.json": {"p": 5, "n": 1, "r": 1,
                          "values": ["-8", "-7", "-7", "-7", "-7"]},
    # rational values, outside the kernel: only `moments` and `check-cosets --perturb` accept it
    "rational-2-1-2.json": {"p": 2, "n": 1, "r": 2,
                            "values": ["1/3", "-2", "0", "5/7"]},
    # rational values whose denominators 3, 6 and 9 are divisible by p = 3
    "rational-3-2-1.json": {"p": 3, "n": 2, "r": 1,
                            "values": ["1/3", "2/9", "0", "-1", "5/6", "0", "7", "-2/9", "4"]},
    # one four-term kernel basis vector at (3, 2, 4): 9 nonzero cells of 6561
    "basis-3-2-4.json": {"p": 3, "n": 2, "r": 4, "values": sparse_values(6561, {
        374: "1", 1194: "1", 1265: "-1", 2014: "1", 2085: "-1", 2834: "1", 2905: "-1",
        2996: "-1", 3726: "-1"})},
}

CASES = [
    (("kernel", "--p", "2", "--level", "1", "--depth", "1"), 0,
     "17cfba5d596320f9fabd081e60cbc47e81a694d0a9c3d932afec624f511392df"),
    (("kernel", "--p", "3", "--level", "1", "--depth", "2"), 0,
     "15954baeffa4f9301b2283ec153f4424456c3cf470b6e958e9a928edea0fe8d9"),
    (("kernel", "--p", "5", "--level", "1", "--depth", "1"), 0,
     "770efb9c9e4aaf7bf96a16e10cfa88cc9f809f8b519867e5d88d1d897a6dbb8b"),
    # 4096 cells and 2178 basis vectors: 116 MB of stdout
    (("kernel", "--p", "2", "--level", "4", "--depth", "3"), 0,
     "0721f89e239641a178516e4c61ec8949ae222bc0aa22fda65ec23b7f94d5aee5"),
    (("vanish", "--p", "3", "--level", "1", "--depth", "2", "--seed", "9"), 0,
     "319c5c4b179793979215c68c28fe0741507b0c063f2d387664a8b859f0e55238"),
    (("vanish", "--p", "2", "--level", "2", "--depth", "3", "--seed", "4", "--exp-cap", "5"), 0,
     "e2f6afac1eb379be794e94802af6d28b9064f37a0721a96bfc2141388c0e0200"),
    (("vanish", "--in", "basis-3-2-4.json"), 0,
     "2f995eca4df9188437faacbf878850f6f4990140487cf71254fb372cb3bf6c24"),
    (("vanish", "--in", "kernel-3-1-2.json"), 0,
     "562168eb8add770b2e8992f71e6f137f020ab507514c5e30454259df66700550"),
    (("certificate", "1,2,4", "--p", "2"), 0,
     "6d9676698f04ed28e6663369ec8e62d5d165bbf712bd5d30402cb8d5ad903c19"),
    (("certificate", "2,1,4", "--p", "5"), 0,
     "1ba955b0bdd38dea294b1d4fa07b72974897b287b6b8ae11d662f0b3586483f6"),
    # the largest admitted final exponent, and an even one near it (the q = 1
    # term filed under q = 2)
    (("certificate", "1,200", "--p", "2"), 0,
     "5310e829ff690d08abb50a8989031550809a8a24f344656a5f1f352ef0d4d061"),
    (("certificate", "1,198", "--p", "3"), 0,
     "eb37db649151026fd7e4fdc384f597d27fe0cb94c20df62913964818776c634d"),
    # a 0 exponent is a valid word
    (("certificate", "0,3", "--p", "3"), 0,
     "793280166a6e5c083fd74bb5e717764fc11c9df21cdfc460fa8c132cf7095f1f"),
    (("check-rhombus", "--p", "5", "--level", "1", "--depth", "2", "--seed", "1"), 0,
     "ef810107dce803ee398c7d9cecff295e7c7002fd698eb857d2b199d3987e0879"),
    (("check-rhombus", "--p", "2", "--level", "1", "--depth", "3", "--seed", "2"), 0,
     "735cb11f24af52045dd7c7aa4165e73e9420acd1e9e5ebbd5c30a354a1636438"),
    (("check-cosets", "--p", "3", "--level", "1", "--depth", "1", "--seed", "0", "--perturb"), 1,
     "54a20fcdec00e48f40a1653ccc183a61e37351d8b1f268f8d796052b08a715c0"),
    (("check-cosets", "--p", "2", "--level", "2", "--depth", "2", "--seed", "3", "--exp-cap", "4"), 0,
     "feca8cfeb4a304e64e7dc4d9879aca361e11962007156d451bdd4314aae5eb42"),
    (("check-cosets", "--in", "kernel-3-1-2.json", "--exp-cap", "3"), 0,
     "b19a97f383e13293fa1beca9dcfaa2d0b1cba26b7c8bd2fcff14e3cf2d583db0"),
    (("check-cosets", "--in", "kernel-5-1-1.json", "--perturb"), 1,
     "96a5029a2d614415049a3afeef563f4eabfc0d0a8aae5c141c70b3ed3ae81be5"),
    (("moments", "--p", "2", "--level", "2", "--depth", "1", "--seed", "4", "--exp-cap", "4"), 0,
     "c9437673106ac67e542ca171f14c872c539a740ff254a44f66abbacc4108936e"),
    (("moments", "--p", "3", "--level", "2", "--depth", "3", "--seed", "2", "--exp-cap", "9"), 0,
     "5dfe21fc5c470fe55a25b6292a9653d046e9f6b6c338622d37c8361c2069da8e"),
    (("moments", "--in", "rational-2-1-2.json", "--exp-cap", "3"), 0,
     "3e4a7efc33c47fa7894d4c7d5c44d7972e37f927018999966c4424d3c436be2e"),
    (("moments", "--in", "kernel-5-1-1.json", "--exp-cap", "5"), 0,
     "33b3ee966bc599bf6f318612ad09b0011d6102823c6cb9eee0277e963553a122"),
    (("check-cosets", "--p", "5", "--level", "1", "--depth", "2", "--seed", "7", "--exp-cap", "3"), 0,
     "38df6fca3f3e9195c87aaf4a8d1fa563a42680f7f1144752b00f2709026a0d1a"),
    # modulus exponents 1 and 3, with 4 residues per coordinate in each coset at exponent 1
    (("check-cosets", "--p", "2", "--level", "3", "--depth", "2", "--seed", "1"), 0,
     "c6e0d47780c7b1679e02b590444604caefb006602104bede7047feaab07d4923"),
    # a Fraction-valued measure through the coset sweep, and a level-0 measure (one coset)
    (("check-cosets", "--in", "rational-2-1-2.json", "--perturb"), 0,
     "0cefb6a9a7b36e04a39479d19b61b3c8362486f3a347ba9b61d303fdf68f50da"),
    (("check-cosets", "--p", "3", "--level", "0", "--depth", "2", "--seed", "0"), 0,
     "f95f9b2fbfda0a9abc99951ba50658252e34284c90a4722cd93493500abf6706"),
    # p divides the denominators: valuations from -2 to 1 against threshold 2, 5 of 48 checks pass
    (("moments", "--in", "rational-3-2-1.json", "--exp-cap", "5"), 0,
     "fc3d9296dcaff320bd0ddf8c950ff40c5bf947aba105af376da103136e18c30b"),
    (("check-cosets", "--in", "rational-3-2-1.json", "--perturb", "--exp-cap", "3"), 1,
     "7c276c360482e5c18d3aeba94c1f65e9b08105da40d33a96d703d8f7831971d7"),
    # no odd word at cap 0, so an empty `checks` list; a single moment row
    (("vanish", "--in", "kernel-3-1-2.json", "--exp-cap", "0"), 0,
     "f1d60f59d9c824764f801c1b91de2cb4e49dd2fd37121d73f4e66a2372446720"),
    (("moments", "--in", "kernel-5-1-1.json", "--exp-cap", "0"), 0,
     "e88bdba36344157888278756cc94243736dae7aa3e2eab93cb304c8e4e044459"),
    # cap-scale moment tables: many first exponents over a wide table (97, 1, 2),
    # and a long depth-one column (2, 13, 1)
    (("moments", "--p", "97", "--level", "1", "--depth", "2", "--seed", "0", "--exp-cap", "40"), 0,
     "d03d2d7cc6b3895f7a63ee485273ee30e5863c98f9598bbb71b9ba91993ed519"),
    (("moments", "--p", "2", "--level", "13", "--depth", "1", "--seed", "0", "--exp-cap", "60"), 0,
     "1cff19873288e142d3abc74bea9cd61f57de18d7b2f2b9da7fd38c0466e6000e"),
    # a cap-scale coset sweep on a kernel measure: 861 words at 9 409 cosets, 8.1 million checks
    (("check-cosets", "--p", "97", "--level", "1", "--depth", "2", "--seed", "0", "--exp-cap", "40"), 0,
     "1c4da76b902555d3f090cb8f3dbf15950ec7b16742254da443b166c8b43175f4"),
    (("report", "--p", "3", "--level", "1", "--depth", "1", "--seed", "5", "--degree", "4"), 0,
     "d5d8f0ce5afb3158e4a4cb27a0691a483b9c8aee0befb5a56c7f6c2ed82c21a2"),
    (("report", "--p", "5", "--level", "1", "--depth", "1", "--seed", "2", "--degree", "3"), 0,
     "cd8b5a6a357bc04ed513ff0ceb81f89d900ae5b05fb649c9bf96a556c4a7df30"),
    (("report", "--p", "2", "--level", "1", "--depth", "3", "--seed", "1", "--degree", "4", "--exp-cap", "3"), 0,
     "caaccf8f601f26cfb5ddc0a28f8e6c0ade4f81eaec799a560e5806642370659d"),
]


class HashingStream:
    """A stdout that keeps only the sha256 of the ASCII bytes written to it,
    so a 116 MB report is not held in memory."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("ascii"))
        return len(text)


def run(argv):
    out = HashingStream()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.sha.hexdigest()


def file_digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 16):
            sha.update(chunk)
    return sha.hexdigest()


@pytest.fixture
def measure_dir(tmp_path, monkeypatch):
    for name, data in MEASURE_FILES.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MZV_CAP", raising=False)


@pytest.mark.parametrize("argv,exit_code,digest", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_stdout_matches_golden_digest(measure_dir, argv, exit_code, digest):
    assert run(argv) == (exit_code, digest)


# every case but the 116 MB kernel report, which the case above covers
OUT_CASES = [case for case in CASES
             if case[0] != ("kernel", "--p", "2", "--level", "4", "--depth", "3")]


@pytest.mark.parametrize("argv,exit_code,digest", OUT_CASES,
                         ids=[" ".join(c[0]) for c in OUT_CASES])
def test_out_file_holds_the_golden_stdout(measure_dir, argv, exit_code, digest):
    """``--out FILE`` leaves stdout and the exit code as they are, and FILE
    holds the same bytes."""
    assert run((*argv, "--out", "report.json")) == (exit_code, digest)
    assert file_digest("report.json") == digest


@pytest.mark.parametrize("argv", [
    ("vanish", "--in", "kernel-3-1-2.json"),
    ("report", "--p", "3", "--level", "1", "--depth", "1", "--seed", "5", "--degree", "4"),
])
def test_out_into_a_missing_directory_exits_2_before_any_output(measure_dir, argv, capsys):
    assert main([*argv, "--out", "missing/report.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
