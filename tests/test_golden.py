"""Golden pins: SHA-256 of every file that the figure presets and a set of sweeps write.

Each case runs the CLI in-process into an empty directory and hashes every
file it leaves there: CSVs and SVGs byte for byte, manifests with the
wall-clock ``duration_s`` removed.  A change to any digit, header, file name
or manifest key of these outputs fails the pin.
"""
import hashlib
import json

import pytest

from pmcorr.cli import main

PRESETS = ("fig2", "fig3", "fig4", "fig5", "figD", "figE")
SCENARIOS = {
    "defaults": [],
    "coherent": ["--ell0", "inf", "--gamma", "3", "--lambda", "3e12", "--t", "2e-5"],
}
SWEEPS = {
    "purity-time-log": ["--target", "purity", "--axis", "time", "--min", "1us", "--max", "1ms",
                        "--points", "7", "--log", "--lambda", "1e15", "--gamma", "5"],
    "purity-gamma": ["--target", "purity", "--axis", "gamma", "--min", "-150", "--max", "150",
                     "--points", "7", "--lambda", "1e22", "--t", "1us"],
    "gamma-gamma": ["--target", "gamma", "--axis", "gamma", "--min", "-20", "--max", "20",
                    "--points", "9", "--lambda", "1e20", "--t", "1us", "--ell0", "inf"],
    "gamma-time-log": ["--target", "gamma", "--axis", "time", "--min", "1e-7", "--max", "1e-4",
                       "--points", "6", "--log", "--lambda", "1e22", "--gamma", "-35"],
    "lambda-lambda-from-zero": ["--target", "lambda", "--axis", "lambda", "--min", "0",
                                "--max", "1e16", "--points", "5", "--t", "50us",
                                "--gamma", "-10"],
    "lambda-lambda-log": ["--target", "lambda", "--axis", "lambda", "--min", "1e10",
                          "--max", "1e20", "--points", "6", "--log", "--t", "2e-5",
                          "--gamma", "3", "--format", "svg"],
    "lambda-time-log": ["--target", "lambda", "--axis", "time", "--min", "1us", "--max", "1ms",
                        "--points", "5", "--log", "--temperature", "0.442", "--ell0", "inf"],
}

CASES = {
    **{f"{preset}-{name}": ["figures", "--preset", preset, "--outdir", "@OUT@", "--quiet", *flags]
       for name, flags in SCENARIOS.items() for preset in PRESETS},
    "fig4-defaults-svg": ["figures", "--preset", "fig4", "--outdir", "@OUT@", "--quiet",
                          "--format", "svg"],
    **{f"sweep-{name}": ["sweep", *flags, "--out", "@OUT@/sweep.csv", "--quiet"]
       for name, flags in SWEEPS.items()},
}


def run_case(argv, outdir):
    """Run one case into `outdir`; return {file name: SHA-256} of what it wrote."""
    assert main([a.replace("@OUT@", str(outdir)) for a in argv]) == 0
    digests = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            assert manifest.pop("duration_s") >= 0.0
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


GOLDEN = {
    'fig2-defaults': {
        'fig2a.csv': '48443ca2a60ec76e286c3b5a6ae0222699af284ff889a3e3d9c05dc768ae7291',
        'fig2a.csv.manifest.json': '694e2e2d207758d877a8694416509233f4a947a9ad7acbf694f37f6236562dd7',
        'fig2b.csv': 'cedac5a3870e3db8e6f33c8fdb4ee774843859fdcf1b5e80f78cf5b0218de91f',
        'fig2b.csv.manifest.json': '694e2e2d207758d877a8694416509233f4a947a9ad7acbf694f37f6236562dd7',
        'fig2c.csv': '48af8071be265e7534cc3ec429d68c1dc5f058ee6c075a46af18269ad74e6679',
        'fig2c.csv.manifest.json': '694e2e2d207758d877a8694416509233f4a947a9ad7acbf694f37f6236562dd7',
        'fig2d.csv': 'b68410589c83fbf56556f9c573905b96326c9b5cc629fb8f17cbd2cd91cad976',
        'fig2d.csv.manifest.json': '694e2e2d207758d877a8694416509233f4a947a9ad7acbf694f37f6236562dd7',
    },
    'fig3-defaults': {
        'fig3a.csv': '6c27b611f39b19d65707e2da128b9f90b941ebd8c50e7a556bf2799e3dfedcf1',
        'fig3a.csv.manifest.json': '7c355cee7436bd35eafd9e34dba569b036262791a40194f00bf246fbdb45b687',
        'fig3b.csv': '51bfd72333b4496f3c5c8d360ed69be713fd0e59fdbddeeab23d79ad84b8692d',
        'fig3b.csv.manifest.json': '7c355cee7436bd35eafd9e34dba569b036262791a40194f00bf246fbdb45b687',
    },
    'fig4-defaults': {
        'fig4a.csv': '97bc327c1c381f7a9ffedcfe5ec6df4f1035fbad23ce1dff3a2a5034e2a02ea3',
        'fig4a.csv.manifest.json': '5ad73f072be1561d43ba1d7623507715689f31a0cbc72e0bc74d2003f4ef0355',
        'fig4b.csv': '405cff53672064455ae34c445711a77c1876b3ea6c7b7cffc3792ba04107e835',
        'fig4b.csv.manifest.json': '5ad73f072be1561d43ba1d7623507715689f31a0cbc72e0bc74d2003f4ef0355',
    },
    'fig5-defaults': {
        'fig5_curve.csv': 'f97d60f81d68dd15e6201051ac51b7814225ab5a312078d0b705d059cd2522fc',
        'fig5_curve.csv.manifest.json': '82b0719ad8d7fe8a4db0b569ecaa69dc174a82e269a0a88e8e4ea39499c3bde6',
        'fig5_points.csv': 'e2461badabf8f8b940bb4b7c3632a23561fda19e91ae22a5ac34baf3433849e1',
        'fig5_points.csv.manifest.json': '82b0719ad8d7fe8a4db0b569ecaa69dc174a82e269a0a88e8e4ea39499c3bde6',
    },
    'figD-defaults': {
        'figD_grid.csv': 'bdfed4a77b6de37b9b69d5a2fb358b87630114496d23c0d70b444a11fef0a7d4',
        'figD_grid.csv.manifest.json': '40dc020722da1ac65e66ffdec1f01d15c201ace721a0cc5c6fc7b0f39bfc0153',
    },
    'figE-defaults': {
        'figE.csv': '2dc03241ca4973f01e1c2e6b02b7eaba0982cb25ab5c2d34783195212084954e',
        'figE.csv.manifest.json': 'ab2c85428b3f67c0607cad02b719de3162067cbcf152c5af81ce8dcdef9bb3bd',
    },
    'fig2-coherent': {
        'fig2a.csv': '9f79993b826951012283507967120281b26a9f0c23d29769390e73e0fa165bf2',
        'fig2a.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
        'fig2b.csv': '120b1bcec649a3cde805dc696d29cee94a2db76124de18ad7c2e71877975cf7f',
        'fig2b.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
        'fig2c.csv': '79001853d00e78f7ba921763ce92b0c8a68facc3c5319d938e6018a17a22d764',
        'fig2c.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
        'fig2d.csv': 'fb47869d3a6ea816613f0375d680f1fa1d90f68077d55779f904e889d744cd79',
        'fig2d.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
    },
    'fig3-coherent': {
        'fig3a.csv': 'f504a98eb0a0039cb98e1d2984c1bedf7bc34db539942326aa2204dcb9333b45',
        'fig3a.csv.manifest.json': 'fba2dbebb2e1c26e3f8d477436b6d2385056ef1f7708ce7f427a133356d0f1f2',
        'fig3b.csv': '69014c50cbbda4a71ee3a2813a2bf5ab1201a7b8866a96d20fc3a5e590b13716',
        'fig3b.csv.manifest.json': 'fba2dbebb2e1c26e3f8d477436b6d2385056ef1f7708ce7f427a133356d0f1f2',
    },
    'fig4-coherent': {
        'fig4a.csv': '7891f2849f7a084b7a1a7bf70305c24e679feb5d6a1833858c36aa79ccc5c606',
        'fig4a.csv.manifest.json': 'afc33d93368d59e8dc23a2a3da838fc3daa0cfa2d9e2951840b7c3fe7a1a5af1',
        'fig4b.csv': '3feaee057bec568e4bb5b680ca1c1687bb5647bfe3f9b4c529cc189bfd865fb9',
        'fig4b.csv.manifest.json': 'afc33d93368d59e8dc23a2a3da838fc3daa0cfa2d9e2951840b7c3fe7a1a5af1',
    },
    'fig5-coherent': {
        'fig5_curve.csv': 'f97d60f81d68dd15e6201051ac51b7814225ab5a312078d0b705d059cd2522fc',
        'fig5_curve.csv.manifest.json': '14adf54954cb0777550327acb6850893eebf012f9c64b539ebff3c04572e6e55',
        'fig5_points.csv': 'd04c121cfce28f573d9faa720eb4a8845599462896a35bbddf105f8758334a18',
        'fig5_points.csv.manifest.json': '14adf54954cb0777550327acb6850893eebf012f9c64b539ebff3c04572e6e55',
    },
    'figD-coherent': {
        'figD_grid.csv': '5b140c9aff13173c935eea7bc431084f1ff623b8caa8d412dcf5fa2a6e403069',
        'figD_grid.csv.manifest.json': 'bae1d172a92cefd7f30a77fcefdb6038f571e784bb843775a80ab1db003860b1',
    },
    'figE-coherent': {
        'figE.csv': '692d5ee7d654dc7c266b039401c6111adf6d02dbb9db7c5b93dacc5340d7d0b2',
        'figE.csv.manifest.json': '54a3ec537a1ad5dfd04aa0b3bdf0c206516f048d8e952bf33bbb52343c7b475f',
    },
    'fig4-defaults-svg': {
        'fig4a.csv': '97bc327c1c381f7a9ffedcfe5ec6df4f1035fbad23ce1dff3a2a5034e2a02ea3',
        'fig4a.csv.manifest.json': '5ad73f072be1561d43ba1d7623507715689f31a0cbc72e0bc74d2003f4ef0355',
        'fig4a.svg': '2dff909021c4e3f5df48a03e06f0f5bacf8f9f75938ba87d456124d1771a4c77',
        'fig4b.csv': '405cff53672064455ae34c445711a77c1876b3ea6c7b7cffc3792ba04107e835',
        'fig4b.csv.manifest.json': '5ad73f072be1561d43ba1d7623507715689f31a0cbc72e0bc74d2003f4ef0355',
        'fig4b.svg': '9bbdf6b7ddec0b88cb9d164f11eb65f76d330f036f49c50a2c3f1b2edc7fc59d',
    },
    'sweep-purity-time-log': {
        'sweep.csv': '18bec635c59da80db47cac2045f7310eb0ef4823645efeccf7cb62550a0964c4',
        'sweep.csv.manifest.json': '87e39d97f0374debe51155d31bfea6f022af6c36844046e714f66c7cb2273c9c',
    },
    'sweep-purity-gamma': {
        'sweep.csv': 'aa9bf96e355dda5a813d98b4a33a813a9d8b9ccadbd2ef9d25bb5044ffdbd310',
        'sweep.csv.manifest.json': '31503c73bf3055f8b65df41c588dd542f3186d4a4c137e6acf4869a8e31615d1',
    },
    'sweep-gamma-gamma': {
        'sweep.csv': '817b91271b592808a8529310980cc404c3b13b9759612bf405c8999edcde5987',
        'sweep.csv.manifest.json': 'bd65ecba7062a082b9e504c1f4ffcc6f1407f2711ae90c33623305a6d9892b66',
    },
    'sweep-gamma-time-log': {
        'sweep.csv': 'c215658d9dd4cc35038ba977f8e1ae1ad6f0557bb025973c2ca1fa8784ed8d60',
        'sweep.csv.manifest.json': '0c9dda180fe34423eae543c95cf6ef7cc1eeae8153afa6cd8fc5b487f34f41f3',
    },
    'sweep-lambda-lambda-from-zero': {
        'sweep.csv': '3be0db9ae97ed07f37c260159c386278443a312eb1716991276c2ef5a456f572',
        'sweep.csv.manifest.json': 'd93d4df8ae5b1ae1d9fb5082c3b5d1ddf9229b217b650ff1656bc2eed7759909',
    },
    'sweep-lambda-lambda-log': {
        'sweep.csv': '3cb93c8041caf77de0d6dd689481e8c9b2381512c163b2b32d7206b0df4eae1b',
        'sweep.csv.manifest.json': '70264a052219790bb13501a40dc95c753309dfbe5466cd509fb7329987593b38',
        'sweep.svg': '97ebf6948f9ab6015981c2bc309975b0d188746ea29b9dfedf55de085b7e1521',
    },
    'sweep-lambda-time-log': {
        'sweep.csv': '7ba2ec06bcefb124a0713242b0e6bb969dfa1d70a1171be0bfc5ff8d974bcbf6',
        'sweep.csv.manifest.json': 'ff844976de477f2a65fbe9d8baaba03453189ef71629022db2a5ab72adcd1f8b',
    },
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_output_is_pinned(case_id, tmp_path):
    assert run_case(CASES[case_id], tmp_path) == GOLDEN[case_id]
