"""Byte identity of the CLI's output on a fixed corpus of fast argv.

Each argv runs in process, in an empty working directory, so an
``--out`` path is relative and the same on every run.  Its record is
the report text with every ``total_s`` and ``elapsed_s`` value set to
0, the stderr text and the SHA-256 of each file the run wrote; DIGESTS
pins its exit code and the SHA-256 of that record.  A change to any
report byte, message, exit code or exported byte fails here.

The corpus covers all five commands: the tower and its witnesses, the
hypercube at m = 1..12, one-block and two-block ``--gens`` sets drawn
once with a fixed seed (ten of them drawn to sum to zero, so K > 0) at
the default budget and at ``--exact-budget 3``, every export format,
every verify suite, and the benchmark's ``cover`` shapes with W drawn
at each shape's classical distance, plus refused argv.

After a deliberate change, regenerate the table with
``PYTHONPATH=src python tests/test_report_digests.py`` and paste its
output over DIGESTS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cayleycss import cli

#: argv: (exit code, SHA-256 of the run's record).
DIGESTS = {
    'witness --n 3':
        (0, '30237cd8e80f74ab0a4d9bf22e9b9454e21b8d927f1b4b7039c1df8a4e9aa782'),
    'witness --n 5':
        (0, '433eb0573a1d21ac0d4f62c695461f52fae308c59099791a313d7367351a7d59'),
    'witness --n 7':
        (0, 'b7423de3c2cbac33f2637ee2793ce5eb588aaa50dbd636361490f1483c21757f'),
    'witness --n 9':
        (0, '2021b6827412150f93f802fb4ebc149f4a830ddfbb978b4fe932131175200be0'),
    'witness --n 11':
        (0, '6b1fccc28c2945a330374089e9b15a72b5cf2db6a3026e0cfcb9c2a796c3dffa'),
    'witness --n 13':
        (0, 'e1083912860ddd16b8e77f0145f67cd0ec5da98a1ff495b2c9da4d291b63f2aa'),
    'witness --n 15':
        (0, 'd8912dab225b6b9f1d5a38db83e8381e01432c226df82d21a82c67df29400bba'),
    'witness --n 23':
        (0, 'c232e71fdf2843db35d3a9fdce1fd9b06a854eb8ded0b9fc1deed165d2a8d852'),
    'witness --n 4':
        (2, '3efeee9d966e5e6a056e376fa886a524c39c5506c37fe5001547e0a34c907cf7'),
    'witness --n 25':
        (4, 'bfe68e16097fbe31afa6ef5c548105916c54e829e993472a738b0bbd24f1f35b'),
    'witness --n 5 --family custom':
        (2, 'd71f803f4e69b9674e659196579448709e174bac74e14edcc7257433024074a8'),
    'params --family repetition --n 3':
        (0, 'beaee0ed62e9e9fb17c9f14cf27df88a2675f05711f31fbfbf43e5416c236ae1'),
    'params --family repetition --n 5':
        (0, 'd2e2602efc9d06dba099289d1773d1c6eacc66c761bdb775fd7e3a9ca295d9e3'),
    'params --family repetition --n 7':
        (0, 'ef09e8dfa01930b0194970f50c0b6781e2033f15f13ae4b67169c28c582f22d8'),
    'params --family repetition --n 9':
        (0, '00967bcbdbabc18166faf7b5f9a83781d0351ca97929c93ba4a5bc39b6d79692'),
    'params --family repetition --n 11':
        (0, '23f743da1d7e134b65b1ddfa14499d960dc0aca8d06efc875c71d1c4505d85d4'),
    'params --family repetition --n 13':
        (0, '828cd0c95819a885c24dd3baa51da03784a4f49c43b18045833a61a4712ac42e'),
    'params --family repetition --n 5 --exact-budget 8':
        (0, '00186ba5801d6516f68b15f5fbedea1366c792ad760f44f36ede994a2b7c7bd1'),
    'params --family repetition --n 3 --exact-budget 0':
        (0, '21918d656589c108542e6f65cd5cce96fd575349b852f8416268cdb63aaaa4d3'),
    'params --family repetition --n 4':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --family repetition --n 5 --m 7 --gens 1111111':
        (2, '2ad171adf2c0411f9c7209e774ca7a09dbcc0daf2451a75e67ec34f8da4f7441'),
    'params --family hypercube --m 1':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --family hypercube --m 2':
        (0, '5219386e955027671a036b60e0b0d7de8b1c47a2cb664c1300991c6c9a2a007d'),
    'params --family hypercube --m 3':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --family hypercube --m 4':
        (0, '3cf31766fa64fb8a8615bf3cb4c855a31061a9424059284e31fa78f515ac8da2'),
    'params --family hypercube --m 5':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --family hypercube --m 6':
        (0, '251c5cbd7991b508abcbde351fe3bf0d64c5a6d63ce6a11815067e00dea0dc62'),
    'params --family hypercube --m 7':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --family hypercube --m 8':
        (0, '8b19209692e709f1130d4bc931d4584cedfe1ee058872d08fb90aedc66e3ba1b'),
    'params --family hypercube --m 9':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --family hypercube --m 10':
        (0, '5d98e18654109115d6b7b0cc2a4ba682695fbbb04f7701b19c26f5d7de3a0638'),
    'params --family hypercube --m 11':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --family hypercube --m 12':
        (0, '64a9a4f9aa4a516e427ab93a0568f57081ad8b03563deaff06197737c98636f9'),
    'params --family hypercube --n 6':
        (0, '29c4614b6d36e94fc0de5666ac429a68c198c1bafedf64c38f941448e1fbe9c4'),
    'params --family hypercube --n 4 --m 6':
        (2, '0083859625bb0609d7c6f7ed2e48c39ad84c85ee86f598d46849e7b29b1d3481'),
    'params --m 6 --gens 100110,010110,001111,111111':
        (4, '761af704070e62191f84ab01ddafe2c927f1c03cf7854951c8b74dea4eef8524'),
    'params --m 6 --gens 100110,010110,001111,111111 --exact-budget 3':
        (4, '96015102730e891945b4d7bf833b637068280a3aa70a917226d13d63f785f425'),
    'params --m 3 --gens 010,110,011,111':
        (0, 'b72d46154ca659698011f8d86d0b4e2942417ae02a9036a3ba5a55e83ce14bf0'),
    'params --m 3 --gens 010,110,011,111 --exact-budget 3':
        (4, '1c51ada3c9879d2650a77b1b31024df2be2eb8b754b5d251422358e79cc8310d'),
    'params --m 4 --gens 1000,0100,0101,1101,1011,1111':
        (0, '31f9a96caa6cc2d3912ef7640b4c8d401b2f8c55a3727a902aa57787c6cede96'),
    'params --m 4 --gens 1000,0100,0101,1101,1011,1111 --exact-budget 3':
        (4, '43ed4c7252f444c537862c866b0fa1935085cd25d762c65bf08ef8ee4c20cc07'),
    'params --m 4 --gens 1000,0100,1010,0110,1001,0101,0011,1111':
        (0, '72d10aaa6d2dda98a9d7df68fdc77853d89216d11dd4123fbf75905bab53af20'),
    'params --m 4 --gens 1000,0100,1010,0110,1001,0101,0011,1111 --exact-budget 3':
        (4, '0ca5657116ecf29364bd81d30d253b08e1799ea0a47b86043f552df22ff6b022'),
    'params --m 6 --gens 100000,110100,010010,011010,001001,010101':
        (4, '90b478caa32eadf69a0b3ddbc2bd6cb66050768206f1895e661d2b34fc186455'),
    'params --m 6 --gens 100000,110100,010010,011010,001001,010101 --exact-budget 3':
        (4, 'dc1fe2af4ad03a947ad46bb8f24be3d41f4e5219a2492f7f53d8ba6279e46e6c'),
    'params --m 5 --gens 11000,01110,11101,01011':
        (0, '287dbb5afc2a17a6e21d938392a6ed4b6d5d3e29fb269f2651191ead0516e8f4'),
    'params --m 5 --gens 11000,01110,11101,01011 --exact-budget 3':
        (4, '09bfc6480306a421e23c8ceb5e5ca8ad2e0922795b660a1ded1c84388507541c'),
    'params --m 4 --gens 1000,1100,1010,0110,1001,1101,0011,1111':
        (0, '848efc4ffd227ba3f9d777c2fd6ba76133f20e186632099d0c7c93ddedee4926'),
    'params --m 4 --gens 1000,1100,1010,0110,1001,1101,0011,1111 --exact-budget 3':
        (4, '0ca5657116ecf29364bd81d30d253b08e1799ea0a47b86043f552df22ff6b022'),
    'params --m 4 --gens 1000,0110,1001,0111':
        (0, '15c36e673d3b11088b32db4a195fb11cdbc1948a9af0a7e4b3aabfb8ab27aed3'),
    'params --m 4 --gens 1000,0110,1001,0111 --exact-budget 3':
        (4, '0ca5657116ecf29364bd81d30d253b08e1799ea0a47b86043f552df22ff6b022'),
    'params --m 4 --gens 1000,0100,1011,0111':
        (0, 'f7139d35817b9b37ac9ba953dd52c6bd1b7b020002d83b3d252d77650cf59951'),
    'params --m 4 --gens 1000,0100,1011,0111 --exact-budget 3':
        (4, '1c51ada3c9879d2650a77b1b31024df2be2eb8b754b5d251422358e79cc8310d'),
    'params --m 6 --gens 111000,111110,000001,000111':
        (0, '5eeb98736e1422854c213c62b607d6f91343e15a548e761ef42e0b8ca7a50d54'),
    'params --m 6 --gens 111000,111110,000001,000111 --exact-budget 3':
        (4, '09bfc6480306a421e23c8ceb5e5ca8ad2e0922795b660a1ded1c84388507541c'),
    'params --m 3 --gens 100,010,001,111':
        (0, 'b578180186209f563a3a9fad76edbef6f9f2d2669f3167bbf83691036cd1c349'),
    'params --m 3 --gens 100,010,001,111 --exact-budget 3':
        (0, 'b8fe84ee9fc00b5f08551e4dbfa1ba459dbd8799ffcb323fc7c4ec779270cb18'),
    'params --m 5 --gens 01000,11100,10110,11111':
        (0, '054766687f746fd43f71c7cb57414a5f0b5342bf3f9cce85d75259e17c030a33'),
    'params --m 5 --gens 01000,11100,10110,11111 --exact-budget 3':
        (0, '91fe030f9966945524428c0fd13cb9400610575e4caee3794029889379075534'),
    'params --m 6 --gens 100000,011100,011010,001110,001101,100011':
        (0, '8bf35a6634976c5448b78980a58be6bcd034d070176f1707f7fef9fa01f447d9'),
    'params --m 6 --gens 100000,011100,011010,001110,001101,100011 --exact-budget 3':
        (0, '50738f31e90534f20247fabf436603896011906c8aaa547518dca20574b20ca7'),
    'params --m 6 --gens 110100,010011,001011,101111':
        (0, 'c839cd749ba62bcbd04d7a36e19189d0b4249ef808870f7f04546ec2e8cacf61'),
    'params --m 6 --gens 110100,010011,001011,101111 --exact-budget 3':
        (0, '02aa0ad817131ba6fdd26967cf4acb6c00b37e7707e3590ef296c133a5eb0931'),
    'params --m 6 --gens 000100,110001,011001,010101,001101,110111':
        (0, 'e2918fa278e636f18199d0cef52422a0ee6f7205978af819df166e00d7827300'),
    'params --m 6 --gens 000100,110001,011001,010101,001101,110111 --exact-budget 3':
        (0, '8274de7a46e28f3c1e66b99014f76b233f0a40bc1edd40eef0c578bdd07e54b8'),
    'params --m 4 --gens 0100,0010,1101,1011':
        (0, '239d359a21b485efbe453a028b0c02552428334635682ee6b45c8071354aa460'),
    'params --m 4 --gens 0100,0010,1101,1011 --exact-budget 3':
        (4, '1c51ada3c9879d2650a77b1b31024df2be2eb8b754b5d251422358e79cc8310d'),
    'params --family custom --m 4 --gens 1100,0011 --n 9':
        (2, '5fc14b3ef0dcce1fe9f8a1e3bb32bcec47c88b6efc872cb54bc2981a2f77dcc0'),
    'params --m 3 --gens 100,010,001':
        (2, 'b538819ef90043b7bc73f367b5da82dc39ec2c1eb03c68b7f24314cf8a39ba31'),
    'params --m 3 --gens 110,110':
        (2, '3c476a149d9ce4199e08db54638ae3fe1e9ffb8e4f66b46aba0a93e8add54f01'),
    'build --family repetition --n 5 --format alist --out m.alist':
        (0, '91b6a8cf8c73f8f664258115ee9a6871e4e98de981fee52cbf1ee89691690ede'),
    'build --family repetition --n 5 --format mtx --out m.mtx':
        (0, 'a6f43b430a9a80c94eaed0247d298496078a5d8013c400c89beb55036cf973bc'),
    'build --family repetition --n 5 --format bin --out m.bin':
        (0, '2f71c091c77795264166e5e7afba33fe0ffa0ebf5a9881c4a39f9ac943346d24'),
    'build --family repetition --n 5 --format json --out m.json':
        (0, '5ee5a94f941179271102ae859e9af91ca910d0cd8cdc99c066f7fdb7a0a0502a'),
    'build --family hypercube --m 4 --format json --out h.json':
        (0, '24480ba2101d13b0bf25d2b5cce2629ece14ac5bd5f6d2475fc0312f307eb614'),
    'build --m 4 --gens 1100,0110,0011,1001 --format alist --out c.alist':
        (0, 'a5a85142c6ce5a33968506cc7a88160ff2079b73839a8ee6f78381426edbd24b'),
    'build --family z2n-torus --n 3 --format mtx --out t.mtx':
        (0, '5e32afaf7fd395a71067f2b71633de97826b92a58f491c7ce7bee547bb69e573'),
    'build --family repetition --n 3':
        (2, 'a381f35e4ce86904ffe0ca4a78cd19c1c35546ad1bd4edce5d8c0f5dd25ae4b3'),
    'verify --suite all --n 3..9':
        (0, 'dd1a0d8232cee06f9314b787afbda1ce66c06e5a0edae365ee995773b0c94d69'),
    'verify --suite all --n 3..5 --seed 7':
        (0, '85cf88998a386a1c9a7e0d7cc9abe060aca4519844d6ed7bb8b3e7afa9eee516'),
    'verify --suite recursion --n 3..7':
        (0, 'b77670943c6565add9bd8d27fe0c1e376f064e668852ac553b0aa100a0d9fb79'),
    'verify --suite dimension --n 3..7':
        (0, 'a96b79456d7701115a805c6781011543305a1af90855d42d988873db91e1e72c'),
    'verify --suite distance --n 3..7':
        (0, '15deee173397b27656d745af0c2a58e6dc82852630e1ab3014937a1d1c223ee6'),
    'verify --suite cover --n 3..7':
        (0, 'e6b462cd6efc34a6952c8621b3c1386859da993b3a746a4f779cf32b5fb61de8'),
    'verify --suite local-sum --n 3..7':
        (0, 'dcdb8c1bf798b607c9ea6af952e17a12cfa5409334adbba3aaf127da0813a357'),
    'verify --suite conjugation --n 3..7':
        (0, '2bc75c9b47b59f882dc8a253b4b5394c620ee7c864ff21da097429352bbb9a24'),
    'verify --suite bipartite --n 3..7':
        (0, '335ddbe9b8ebe9c9fd9379a250dc76f00672edf39c4f9b90f1f4ceedddcc0ac9'),
    'verify --suite algebra --n 3..7':
        (0, 'a2ccffcf36acdc25a5e5804036b8d3b3bf7a46f0781293165bfeb16b45490262'),
    'verify --suite cover --m 5 --gens 11111':
        (0, 'b5050400597b7e027c071781175b9cc437cd25e6cce15e3850e8a339bcc624da'),
    'verify --suite distance --n 3..7 --exact-budget 8':
        (4, '4b73cb8c792b39c65d6603e6c7ab51e7c206ebe537a04b28b1b49973a67a6478'),
    'verify --suite all --n 2..5':
        (2, 'd79ba3e68191da7385ac22db64b36dae6ef380263f09672aa40eec51fd8a6032'),
    'verify --suite all --n 3..17':
        (4, 'f98588ef0cfcc8d39d4fa40f72f08f0e62c54ca8908f3bd2f2c5f12c44b6490e'),
    'cover --m 6 --gens 100101,011110 --radius 1':
        (0, '53aac48134b5b52e653a175c4f815af7dd7817d529c81b5b8584ba5844824534'),
    'cover --m 6 --gens 100101,011110':
        (0, 'ea7f7e37ff20b0dd4438deb6181bca7a764098d3d87e045a0db1fc431f30cdb3'),
    'cover --m 6 --gens 110100,100110,111011 --radius 1':
        (0, 'a3860c874d76840336850005d3b4fee94d7a779af14f0f17bcf62be3a5d0a006'),
    'cover --m 6 --gens 110100,100110,111011':
        (0, '2ca5b505119441cfda29eba7a1dfa60b9c31b46e887de9c98ce7edb7b0f0ad92'),
    'cover --m 7 --gens 1001100,1010100 --radius 1':
        (0, '3a18dd6b825533dfd877d2202b1a0921f032041ed925cb716b415dc4c420f457'),
    'cover --m 7 --gens 1001100,1010100':
        (0, '68c3be96d2ebc6a5709e07ecf5569efe1bbfe517bd395dfd2d9f7a8ce2c76aa2'),
    'cover --m 5 --gens 00111,01011,10110,01101 --radius 1':
        (0, '9273fd5b25e776c881e02de3714cc643fab8ca17dc03bf3923f09e4581058216'),
    'cover --m 5 --gens 00111,01011,10110,01101':
        (0, '28deb008511f646f6eb96d40fb81faa01540d2746be9f3de6f14d3cf302b84a9'),
    'cover --m 7 --gens 1011011,0001111 --radius 1':
        (0, '31d006b69fe794d403b08713bc2703dab372151a850746a310d9b5ef0d98ed72'),
    'cover --m 7 --gens 1011011,0001111':
        (0, 'bce5d9cc6477ce74015b5329fba9f98dbc8daf3c87471f5bd751323ffc4b8b33'),
    'cover --m 8 --gens 01101001 --radius 1':
        (0, 'a6f6c334a2a72c722e2213913db2dc0d30092cd6bad6c78982eb8bcdf6014a86'),
    'cover --m 7 --gens 1111001,0111110 --radius 2':
        (0, 'b9d38f7271dda8d26a41ab9a18a8fb4bd3eb4a623095d693b421decb1528f71d'),
    'cover --m 7 --gens 1111001,0111110':
        (0, '951b2d2d47ef8a888f2a668c8c1d2ab05d1c9218272674283ef5b4770dfb4f9f'),
    'cover --m 8 --gens 11111111 --radius 3':
        (0, 'fabe8186f1397d9c5b2396dd39af504e7dd231190f7cf1b9297ce487e8160956'),
    'cover --m 9 --gens 011111101 --radius 4':
        (3, '926e2d607bd714629b5c1a17fd5ff6bb773ecfc15ccb06634e0157e70f7c9aa9'),
    'cover --m 9 --gens 011010111,101111100 --radius 3':
        (3, '8031de55bc6d7dc0c3b08df99c122949b0573c784bb8e3e2838a3cc6e0e08e50'),
    'cover --m 10 --gens 1111111110 --radius 5':
        (3, '9b8c359584ac5b115fa1784af948906ab8d80be218bbdb63d8a54f5756234ece'),
    'cover --m 5 --gens 11111':
        (0, '566fc961591c1e6625ef3e41b8b6762a1dcf956b0b425b59db715f65afe67053'),
    'cover --m 5 --gens 11111 --radius 3':
        (3, '46d956c9f26edb9bcbe3d73b85b5886ae24cb0cd731eff55f86093c5cf59d45d'),
    'cover --m 4 --gens 1000':
        (2, '4ae25e34ccf31e5d9a3c2853df3f021e92f9eb50c0cd576e7d089e20105b1894'),
}

_TIMING = re.compile(r'("(?:total_s|elapsed_s)": )[-0-9.e]+')


def record(argv: str, workdir: Path) -> tuple[int, str]:
    """Run argv from ``workdir`` and digest what it printed and wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(workdir.iterdir())}
    text = json.dumps({
        "stdout": _TIMING.sub(r"\g<1>0", out.getvalue()),
        "stderr": err.getvalue(),
        "written": written,
    })
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(DIGESTS))
def test_report_matches_its_digest(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("CAYLEY_CSS_THREADS", raising=False)
    monkeypatch.chdir(tmp_path)
    assert record(argv, tmp_path) == DIGESTS[argv]


if __name__ == "__main__":
    os.environ.pop("CAYLEY_CSS_THREADS", None)
    lines = []
    for argv in DIGESTS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            lines.append(f"    {argv!r}:\n        {record(argv, Path(tmp))!r},")
    sys.stdout.write("\n".join(lines) + "\n")
