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
        'fig2b.csv': '4a00ff77300063605b2689b768e701179b83a58cc83d2952a7ef721667d80833',
        'fig2b.csv.manifest.json': '694e2e2d207758d877a8694416509233f4a947a9ad7acbf694f37f6236562dd7',
        'fig2c.csv': '4b5be9663f03f2a5c8fe4483e96ed44f049d4d46c6a4257ac9e217185edb6acd',
        'fig2c.csv.manifest.json': '694e2e2d207758d877a8694416509233f4a947a9ad7acbf694f37f6236562dd7',
        'fig2d.csv': 'f9ef787c5f919ace39da160891873e8725f5a169953168950393c3c1843ce4be',
        'fig2d.csv.manifest.json': '694e2e2d207758d877a8694416509233f4a947a9ad7acbf694f37f6236562dd7',
    },
    'fig3-defaults': {
        'fig3a.csv': '90ea71fe486b8a7af73298f26d3f9621b1a3559f38ae8a81dd91fe02223413e8',
        'fig3a.csv.manifest.json': '7c355cee7436bd35eafd9e34dba569b036262791a40194f00bf246fbdb45b687',
        'fig3b.csv': '6745b2d29f130bf8689016c0c683ee8e0545f43d5ab434793714c56376d5d340',
        'fig3b.csv.manifest.json': '7c355cee7436bd35eafd9e34dba569b036262791a40194f00bf246fbdb45b687',
    },
    'fig4-defaults': {
        'fig4a.csv': '0cb61e489d08c7b2034927f882db814bf2199662c3a5523b0c016c3dbc060def',
        'fig4a.csv.manifest.json': '5ad73f072be1561d43ba1d7623507715689f31a0cbc72e0bc74d2003f4ef0355',
        'fig4b.csv': '9b56860948bfa2daacc3206736d81e0ce14834b74082ec5c454787cea4d55b9b',
        'fig4b.csv.manifest.json': '5ad73f072be1561d43ba1d7623507715689f31a0cbc72e0bc74d2003f4ef0355',
    },
    'fig5-defaults': {
        'fig5_curve.csv': 'f97d60f81d68dd15e6201051ac51b7814225ab5a312078d0b705d059cd2522fc',
        'fig5_curve.csv.manifest.json': '82b0719ad8d7fe8a4db0b569ecaa69dc174a82e269a0a88e8e4ea39499c3bde6',
        'fig5_points.csv': 'e2461badabf8f8b940bb4b7c3632a23561fda19e91ae22a5ac34baf3433849e1',
        'fig5_points.csv.manifest.json': '82b0719ad8d7fe8a4db0b569ecaa69dc174a82e269a0a88e8e4ea39499c3bde6',
    },
    'figD-defaults': {
        'figD_grid.csv': '04a60987da18ab527b9850f1b0c60f519b30ae921a6fed7cba43d0c31e6c06c5',
        'figD_grid.csv.manifest.json': '40dc020722da1ac65e66ffdec1f01d15c201ace721a0cc5c6fc7b0f39bfc0153',
    },
    'figE-defaults': {
        'figE.csv': '86be321e137906490243fd15605b6c2f805351b36b1110da95acef738cce11ef',
        'figE.csv.manifest.json': 'ab2c85428b3f67c0607cad02b719de3162067cbcf152c5af81ce8dcdef9bb3bd',
    },
    'fig2-coherent': {
        'fig2a.csv': '9f79993b826951012283507967120281b26a9f0c23d29769390e73e0fa165bf2',
        'fig2a.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
        'fig2b.csv': '5b9cd300b81b5db50535c119a75b3b5deaf8f81a0729f5cc3dd1aef5649332cf',
        'fig2b.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
        'fig2c.csv': '06e0da2a29d2880483ce29c162d5c7be1c8752485e7df7e054696b3ba6775e09',
        'fig2c.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
        'fig2d.csv': '25a5dbf8ceb13f6a6a5e4d38040e36a0d4784df94891b67f7dea9c7e9f0036b4',
        'fig2d.csv.manifest.json': '87fc6555f81cb7f861479f239d3996ec5ca5ad7fc12d4a5bca360cfed0bcd558',
    },
    'fig3-coherent': {
        'fig3a.csv': '8e292647bb0e6373c2a09f6ff1320468d52e0786519289099818a40ad60bec95',
        'fig3a.csv.manifest.json': 'fba2dbebb2e1c26e3f8d477436b6d2385056ef1f7708ce7f427a133356d0f1f2',
        'fig3b.csv': '2fe40a0fd2c6abb376b6238199e642f8c493a0e81824a6386a83d8d8ee1b05e8',
        'fig3b.csv.manifest.json': 'fba2dbebb2e1c26e3f8d477436b6d2385056ef1f7708ce7f427a133356d0f1f2',
    },
    'fig4-coherent': {
        'fig4a.csv': '9ba623f14ae1e8311b157f8621a0764cfd60db093f9eb4d13cda919c542b08c3',
        'fig4a.csv.manifest.json': 'afc33d93368d59e8dc23a2a3da838fc3daa0cfa2d9e2951840b7c3fe7a1a5af1',
        'fig4b.csv': 'c5ebdd6678bdc4fbe70e355b799497023acbcc10a4925bc16c0cc936edfee30c',
        'fig4b.csv.manifest.json': 'afc33d93368d59e8dc23a2a3da838fc3daa0cfa2d9e2951840b7c3fe7a1a5af1',
    },
    'fig5-coherent': {
        'fig5_curve.csv': 'f97d60f81d68dd15e6201051ac51b7814225ab5a312078d0b705d059cd2522fc',
        'fig5_curve.csv.manifest.json': '14adf54954cb0777550327acb6850893eebf012f9c64b539ebff3c04572e6e55',
        'fig5_points.csv': 'd04c121cfce28f573d9faa720eb4a8845599462896a35bbddf105f8758334a18',
        'fig5_points.csv.manifest.json': '14adf54954cb0777550327acb6850893eebf012f9c64b539ebff3c04572e6e55',
    },
    'figD-coherent': {
        'figD_grid.csv': 'f820723418adf050086a6b29b10cf6ce922024549f6da6db67f19edb21a57ec8',
        'figD_grid.csv.manifest.json': 'bae1d172a92cefd7f30a77fcefdb6038f571e784bb843775a80ab1db003860b1',
    },
    'figE-coherent': {
        'figE.csv': '361e4b46f9c8bdabb10e2e1df3867ec47931213df7f45fa64617f733ae74edee',
        'figE.csv.manifest.json': '54a3ec537a1ad5dfd04aa0b3bdf0c206516f048d8e952bf33bbb52343c7b475f',
    },
    'fig4-defaults-svg': {
        'fig4a.csv': '0cb61e489d08c7b2034927f882db814bf2199662c3a5523b0c016c3dbc060def',
        'fig4a.csv.manifest.json': '5ad73f072be1561d43ba1d7623507715689f31a0cbc72e0bc74d2003f4ef0355',
        'fig4a.svg': '2dff909021c4e3f5df48a03e06f0f5bacf8f9f75938ba87d456124d1771a4c77',
        'fig4b.csv': '9b56860948bfa2daacc3206736d81e0ce14834b74082ec5c454787cea4d55b9b',
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
        'sweep.csv': '73b114959649cb087b02a291f80cb294216e015a52ef3018a084426b88089ce8',
        'sweep.csv.manifest.json': 'bd65ecba7062a082b9e504c1f4ffcc6f1407f2711ae90c33623305a6d9892b66',
    },
    'sweep-gamma-time-log': {
        'sweep.csv': 'ebb927d1c4fcc9451fa68b06cc528d10432585fef7db0541da592f617c570a99',
        'sweep.csv.manifest.json': '0c9dda180fe34423eae543c95cf6ef7cc1eeae8153afa6cd8fc5b487f34f41f3',
    },
    'sweep-lambda-lambda-from-zero': {
        'sweep.csv': '2a515c836195849a8327c1310a37d654a22a30da79729cb91b3fd92747aa66b2',
        'sweep.csv.manifest.json': 'd93d4df8ae5b1ae1d9fb5082c3b5d1ddf9229b217b650ff1656bc2eed7759909',
    },
    'sweep-lambda-lambda-log': {
        'sweep.csv': '7e6694ebad71be0c5659e0fd3e6e3cce765b01699b56b67db2ad91bb20d39469',
        'sweep.csv.manifest.json': '70264a052219790bb13501a40dc95c753309dfbe5466cd509fb7329987593b38',
        'sweep.svg': '97ebf6948f9ab6015981c2bc309975b0d188746ea29b9dfedf55de085b7e1521',
    },
    'sweep-lambda-time-log': {
        'sweep.csv': '827a901ecc96518b879fcbf5e0e1a82b60600d6c716ff5143e4115f95a72309c',
        'sweep.csv.manifest.json': 'ff844976de477f2a65fbe9d8baaba03453189ef71629022db2a5ab72adcd1f8b',
    },
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_output_is_pinned(case_id, tmp_path):
    assert run_case(CASES[case_id], tmp_path) == GOLDEN[case_id]
