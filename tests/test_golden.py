"""Golden differential test: CLI output over a fixed synthetic corpus.

Every JSON document (without ``generated_at``) and every SVG written by
``analyze`` and ``cohort`` under a few threshold settings, and every report
written by ``synth``, is hashed and compared with digests recorded from a
reference build.  Refactors that must
not change output keep this test green; a change that alters output on
purpose has to re-record the table (run this file directly to print it).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from papertrail.cli import main
from papertrail.ingest import serialize_report
from papertrail.synth import conscientious_spec, generate, papermill_spec

TMP_TOKEN = "<TMP>"

ANALYZE_RUNS = {
    "default": [],
    "reported-h": ["--prefer-reported-h"],
    "loose": ["--r-min", "-0.5", "--growth-window", "3"],
}
COHORT_RUNS = {
    "default": [],
    "i-max": ["--i-max", "0.5"],
}


def write_corpus(root: Path) -> list[str]:
    """Write the reports and the cohort manifest; returns the report names."""
    profiles = {}
    for seed in range(6):
        profiles[f"pm{seed}"] = generate(papermill_spec(seed))
        profiles[f"co{seed}"] = generate(conscientious_spec(seed))
    profiles["co40y"] = generate(conscientious_spec(11, n_years=40, start_year=1975))
    # a plausible but wrong reported h, and an impossible one
    profiles["co0"] = replace(profiles["co0"], reported_h=3)
    profiles["pm0"] = replace(profiles["pm0"], reported_h=10 ** 6)
    for name, profile in profiles.items():
        (root / f"{name}.tsv").write_bytes(serialize_report(profile))

    lines = serialize_report(generate(papermill_spec(6))).decode("utf-8").splitlines()
    lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\t2.5"
    (root / "badcell.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    names = [*profiles, "badcell"]
    manifest = [f"{name.upper()}\t{name}.tsv" for name in names]
    manifest.insert(3, "GONE\tmissing.tsv")
    manifest.insert(7, "no tab on this line")
    (root / "cohort.manifest").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    return names


# the default spec of each archetype, and the 60-year synth-write benchmark profile
SYNTH_RUNS = {
    "conscientious": ["--archetype", "conscientious"],
    "papermill": ["--archetype", "papermill"],
    "conscientious-wide": ["--archetype", "conscientious", "--seed", "1", "--n-years", "60",
                           "--peak-rate", "400", "--start-year", "1960"],
    "papermill-wide": ["--archetype", "papermill", "--seed", "1", "--n-years", "60",
                       "--peak-rate", "400", "--start-year", "1960"],
}


def _digest(path: Path, root: Path) -> str:
    if not path.exists():
        return "absent"
    text = path.read_text(encoding="utf-8").replace(str(root), TMP_TOKEN)
    if path.suffix == ".json":
        document = json.loads(text)
        document.pop("generated_at")
        text = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_corpus(root: Path) -> dict[str, str]:
    """Run every configuration over the corpus; returns {output key: digest or exit code}."""
    names = write_corpus(root)
    results: dict[str, str] = {}
    for run, extra in ANALYZE_RUNS.items():
        out = root / "analyze" / run
        out.mkdir(parents=True)
        for name in names:
            key = f"analyze/{run}/{name}"
            results[f"{key}.exit"] = str(main([
                "analyze", str(root / f"{name}.tsv"), *extra,
                "--json", str(out / f"{name}.json"), "--svg", str(out / f"{name}.svg"),
            ]))
            for suffix in (".json", ".svg"):
                results[key + suffix] = _digest(out / (name + suffix), root)
    for run, extra in COHORT_RUNS.items():
        out = root / "cohort" / run
        out.mkdir(parents=True)
        key = f"cohort/{run}"
        results[f"{key}.exit"] = str(main([
            "cohort", str(root / "cohort.manifest"), *extra,
            "--json", str(out / "cohort.json"), "--svg-dir", str(out / "figs"),
        ]))
        results[f"{key}/cohort.json"] = _digest(out / "cohort.json", root)
        for svg in sorted((out / "figs").glob("*.svg")):
            results[f"{key}/{svg.name}"] = _digest(svg, root)
    return results


def run_synth(root: Path) -> dict[str, str]:
    """Write every synth report in both formats; returns {output key: digest or exit code}."""
    results: dict[str, str] = {}
    for run, argv in SYNTH_RUNS.items():
        for fmt in ("tsv", "csv"):
            out = root / f"{run}.{fmt}"
            key = f"synth/{run}.{fmt}"
            results[f"{key}.exit"] = str(main(["synth", *argv, "--format", fmt, "-o", str(out)]))
            results[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    return results


GOLDEN: dict[str, str] = {
    'analyze/default/pm0.exit': '0',
    'analyze/default/pm0.json': '3c24a2dd89fd2429938cf6db5f65a844ea1910f4d2d49f8a12a0a31381e143bc',
    'analyze/default/pm0.svg': '9ac847218af254ceb2284af5d7a09e70d7924411b7e9f06c522f6aec3ec5194c',
    'analyze/default/co0.exit': '0',
    'analyze/default/co0.json': 'fdd692c9dfab49b6e5ceb30e9ce213f3b6cb3fd1eb96ca505405e196ae9ae676',
    'analyze/default/co0.svg': 'b9743571192e701b3c9bd478b9b0f472f996222c48094335bda71e0294c0641f',
    'analyze/default/pm1.exit': '0',
    'analyze/default/pm1.json': 'e38f9d90804e3d3d1c2433b6ac7732e760c6836235a27e7917714f269d7730a0',
    'analyze/default/pm1.svg': '71217a0fbf1503b8b1051d0552b9b9ce05dd26988ce96442b376bf3fc66823ba',
    'analyze/default/co1.exit': '0',
    'analyze/default/co1.json': 'd16790ded005701d56b82563aa3a5bdc56f94bb5f06a745c24b00108b47d22ae',
    'analyze/default/co1.svg': '8b61f5f377164e3abbe8c681ba407be38c1eeac14d996d5e32d6daa0677e12f5',
    'analyze/default/pm2.exit': '0',
    'analyze/default/pm2.json': 'eeaa07e542cd7b20deec88764c91454f4aac34738a575da18efa6fa48a889f5c',
    'analyze/default/pm2.svg': 'cb71c608be03b5c4935eb93224b6a849603d45341df97f19705ba3099b831a2c',
    'analyze/default/co2.exit': '0',
    'analyze/default/co2.json': 'c11eef28f08c8f921c3a57a527d93df19ca5ff931afa184d9394eb1afe633da9',
    'analyze/default/co2.svg': '67573e3035c373d4b8cba31739f269531b83759d3a54c57118783eb302bacc44',
    'analyze/default/pm3.exit': '0',
    'analyze/default/pm3.json': 'b3982f232fb563edcbd012fbebab8d519b24fa41c985d7c6f31edd3e2f517dc5',
    'analyze/default/pm3.svg': '5f47c833c011498c85dd1a20b1d0fe073a2f1b057d763fc69a76292966b4570a',
    'analyze/default/co3.exit': '0',
    'analyze/default/co3.json': '69478d081c45c2c2b2acc45c1d7b9bb5ea3b93ef538572c55e1e4e21dabca5b1',
    'analyze/default/co3.svg': 'c2d40db1e36b4195fd1e0223804466f1f0d2aeb41f337e132985fca0aa00abe3',
    'analyze/default/pm4.exit': '0',
    'analyze/default/pm4.json': '080d8069a9e18af8099773bf7a941271ca11f8f63e1cf4783ac7aef497359929',
    'analyze/default/pm4.svg': '50eb67ef69f37507db76e1ebd09ecfe26c63ab64eefc9bcddc3bd0e0932229df',
    'analyze/default/co4.exit': '0',
    'analyze/default/co4.json': '191b988b45857f94afd56af153cbb70dc94d819b423c7184151db0a682d238ab',
    'analyze/default/co4.svg': '90a5111bfb02167859b15984f424632d10e96b7287287a88238f6867cc663bdb',
    'analyze/default/pm5.exit': '0',
    'analyze/default/pm5.json': '2abe48583692ea882cf80b7ccb50405e7b787028f39ba0fedf08781907e7439c',
    'analyze/default/pm5.svg': '8199daf62128e837d90a51a6563439f95f1b12b1839741d21dcc50a8724e9fe3',
    'analyze/default/co5.exit': '0',
    'analyze/default/co5.json': 'eaa5a53c48c79d9d7c8e9648914ec78dd20b1df4e05362e49052d12e660f5185',
    'analyze/default/co5.svg': '4e73e43ef493a32900b1076b514bf48cc841e78a9d42675f5f91c6aa11732a21',
    'analyze/default/co40y.exit': '0',
    'analyze/default/co40y.json': '53764cb39f30e097b18be46d4ffb45fe52136a3312eb7dddd035b093ca71ab50',
    'analyze/default/co40y.svg': 'b7f79d9e214f26555c0ce37add29a6a8480c46d621042086dba7d15ddc1a9347',
    'analyze/default/badcell.exit': '1',
    'analyze/default/badcell.json': 'absent',
    'analyze/default/badcell.svg': 'absent',
    'analyze/reported-h/pm0.exit': '0',
    'analyze/reported-h/pm0.json': '59a503b20ffa28d508c0dd32f0f8c2b545c7e275c220b7559e7220ae7c127e49',
    'analyze/reported-h/pm0.svg': '9ac847218af254ceb2284af5d7a09e70d7924411b7e9f06c522f6aec3ec5194c',
    'analyze/reported-h/co0.exit': '0',
    'analyze/reported-h/co0.json': '089520b133cfcfe4d9bfc43cb94e154a7a470037e30ecc19a078c3304755e9e0',
    'analyze/reported-h/co0.svg': '6d41733f0fd66769de6e33b1501d8634bb1db603f250f11abd1d55005806c5e0',
    'analyze/reported-h/pm1.exit': '0',
    'analyze/reported-h/pm1.json': 'e38f9d90804e3d3d1c2433b6ac7732e760c6836235a27e7917714f269d7730a0',
    'analyze/reported-h/pm1.svg': '71217a0fbf1503b8b1051d0552b9b9ce05dd26988ce96442b376bf3fc66823ba',
    'analyze/reported-h/co1.exit': '0',
    'analyze/reported-h/co1.json': 'd16790ded005701d56b82563aa3a5bdc56f94bb5f06a745c24b00108b47d22ae',
    'analyze/reported-h/co1.svg': '8b61f5f377164e3abbe8c681ba407be38c1eeac14d996d5e32d6daa0677e12f5',
    'analyze/reported-h/pm2.exit': '0',
    'analyze/reported-h/pm2.json': 'eeaa07e542cd7b20deec88764c91454f4aac34738a575da18efa6fa48a889f5c',
    'analyze/reported-h/pm2.svg': 'cb71c608be03b5c4935eb93224b6a849603d45341df97f19705ba3099b831a2c',
    'analyze/reported-h/co2.exit': '0',
    'analyze/reported-h/co2.json': 'c11eef28f08c8f921c3a57a527d93df19ca5ff931afa184d9394eb1afe633da9',
    'analyze/reported-h/co2.svg': '67573e3035c373d4b8cba31739f269531b83759d3a54c57118783eb302bacc44',
    'analyze/reported-h/pm3.exit': '0',
    'analyze/reported-h/pm3.json': 'b3982f232fb563edcbd012fbebab8d519b24fa41c985d7c6f31edd3e2f517dc5',
    'analyze/reported-h/pm3.svg': '5f47c833c011498c85dd1a20b1d0fe073a2f1b057d763fc69a76292966b4570a',
    'analyze/reported-h/co3.exit': '0',
    'analyze/reported-h/co3.json': '69478d081c45c2c2b2acc45c1d7b9bb5ea3b93ef538572c55e1e4e21dabca5b1',
    'analyze/reported-h/co3.svg': 'c2d40db1e36b4195fd1e0223804466f1f0d2aeb41f337e132985fca0aa00abe3',
    'analyze/reported-h/pm4.exit': '0',
    'analyze/reported-h/pm4.json': '080d8069a9e18af8099773bf7a941271ca11f8f63e1cf4783ac7aef497359929',
    'analyze/reported-h/pm4.svg': '50eb67ef69f37507db76e1ebd09ecfe26c63ab64eefc9bcddc3bd0e0932229df',
    'analyze/reported-h/co4.exit': '0',
    'analyze/reported-h/co4.json': '191b988b45857f94afd56af153cbb70dc94d819b423c7184151db0a682d238ab',
    'analyze/reported-h/co4.svg': '90a5111bfb02167859b15984f424632d10e96b7287287a88238f6867cc663bdb',
    'analyze/reported-h/pm5.exit': '0',
    'analyze/reported-h/pm5.json': '2abe48583692ea882cf80b7ccb50405e7b787028f39ba0fedf08781907e7439c',
    'analyze/reported-h/pm5.svg': '8199daf62128e837d90a51a6563439f95f1b12b1839741d21dcc50a8724e9fe3',
    'analyze/reported-h/co5.exit': '0',
    'analyze/reported-h/co5.json': 'eaa5a53c48c79d9d7c8e9648914ec78dd20b1df4e05362e49052d12e660f5185',
    'analyze/reported-h/co5.svg': '4e73e43ef493a32900b1076b514bf48cc841e78a9d42675f5f91c6aa11732a21',
    'analyze/reported-h/co40y.exit': '0',
    'analyze/reported-h/co40y.json': '53764cb39f30e097b18be46d4ffb45fe52136a3312eb7dddd035b093ca71ab50',
    'analyze/reported-h/co40y.svg': 'b7f79d9e214f26555c0ce37add29a6a8480c46d621042086dba7d15ddc1a9347',
    'analyze/reported-h/badcell.exit': '1',
    'analyze/reported-h/badcell.json': 'absent',
    'analyze/reported-h/badcell.svg': 'absent',
    'analyze/loose/pm0.exit': '0',
    'analyze/loose/pm0.json': '62a2ec8d3a8b309c38c4def2dc6de7087c88d3fa23ed1ce60ebd0349eb0e7e7c',
    'analyze/loose/pm0.svg': '9ac847218af254ceb2284af5d7a09e70d7924411b7e9f06c522f6aec3ec5194c',
    'analyze/loose/co0.exit': '0',
    'analyze/loose/co0.json': 'aea73b4c322e3f1b98f65b6a5d7dd879cacdcb4b829cef892a0c8de6df3ab645',
    'analyze/loose/co0.svg': 'd4944408e69bc593c16851d20393493d1f38bdba328f888f102cfe720e622084',
    'analyze/loose/pm1.exit': '0',
    'analyze/loose/pm1.json': 'fd0929ddd6d68bc16cb4e9fa360b7831cd72a46d38d3abbce4d1fc00fe3ba6dd',
    'analyze/loose/pm1.svg': '71217a0fbf1503b8b1051d0552b9b9ce05dd26988ce96442b376bf3fc66823ba',
    'analyze/loose/co1.exit': '0',
    'analyze/loose/co1.json': '95162c4127cfc09d226aa2a083e6c96bbe9bd6684e73a5b25499c44df3f49d24',
    'analyze/loose/co1.svg': 'dd3bc91a1e3de91a161359339bf0dab9e8c9844384b5e205bf4e58828e1942f1',
    'analyze/loose/pm2.exit': '0',
    'analyze/loose/pm2.json': '08d30697aa342932229cf81aa3ea23d69f77eca120035254ecce1aaaa0b51d13',
    'analyze/loose/pm2.svg': 'cb71c608be03b5c4935eb93224b6a849603d45341df97f19705ba3099b831a2c',
    'analyze/loose/co2.exit': '0',
    'analyze/loose/co2.json': '44d1837a91b849b6fb08d0a405ae676910e9ecaa5b7cdd4bb5a18f59b341be8a',
    'analyze/loose/co2.svg': '3952ea8c6c3810a34972900b07e75d27e12a31b30b8faeb0ba11ebd2481c6737',
    'analyze/loose/pm3.exit': '0',
    'analyze/loose/pm3.json': 'ca3d1ab59f04abe2ccc1491d7fa4707e2f008bbebd57409c804a096a89477681',
    'analyze/loose/pm3.svg': '5f47c833c011498c85dd1a20b1d0fe073a2f1b057d763fc69a76292966b4570a',
    'analyze/loose/co3.exit': '0',
    'analyze/loose/co3.json': 'eb80be4cfc3187bb06e3fd9e42692644bc6cd0473fdd634362c7fe141d33afab',
    'analyze/loose/co3.svg': 'be81517b9d28d36efb5f34a4c371a1c33113ecfc845510843741b2ba1383c0dd',
    'analyze/loose/pm4.exit': '0',
    'analyze/loose/pm4.json': '85fc1024dac2de4a90e73e9aac080707057c55cd952e3fe369e88ec45c27e602',
    'analyze/loose/pm4.svg': '50eb67ef69f37507db76e1ebd09ecfe26c63ab64eefc9bcddc3bd0e0932229df',
    'analyze/loose/co4.exit': '0',
    'analyze/loose/co4.json': '354d8d1047b8f737bb20c3b8048e367ab550aef60b089b75ec1c797dfc6e9209',
    'analyze/loose/co4.svg': '40f964c6dcf5df810cebeafd5f2368976c9ac0669652a845daa2686203214c16',
    'analyze/loose/pm5.exit': '0',
    'analyze/loose/pm5.json': 'bbef9fd9c26cc5288751dadcf03fe338748d9748d481f8ba7d50e2f66d7b9846',
    'analyze/loose/pm5.svg': '8199daf62128e837d90a51a6563439f95f1b12b1839741d21dcc50a8724e9fe3',
    'analyze/loose/co5.exit': '0',
    'analyze/loose/co5.json': '2db23796c8e4e9f3f995ebd62638a9d96bab4a50b35b37549d9d0896fe6ea306',
    'analyze/loose/co5.svg': '1ef9ad74582a571687f7edd1eff84cbbb310538ceb67cf04705211ace952ced7',
    'analyze/loose/co40y.exit': '0',
    'analyze/loose/co40y.json': '636a91978dc1ed43e32232539180c37f61619cd99d18792f7c296935203b75b0',
    'analyze/loose/co40y.svg': 'b7f79d9e214f26555c0ce37add29a6a8480c46d621042086dba7d15ddc1a9347',
    'analyze/loose/badcell.exit': '1',
    'analyze/loose/badcell.json': 'absent',
    'analyze/loose/badcell.svg': 'absent',
    'cohort/default.exit': '0',
    'cohort/default/cohort.json': '55d5de66f2a04b28e8c412081624261203a81e8636a1164cdb49b3e7bf7ba189',
    'cohort/default/i_vs_p_powerfit.svg': 'ee00141b1381b216f570fc8ab20c3d52567ee10228793e379a7deaaaaca0eb52',
    'cohort/default/i_vs_r.svg': '0d867c67a6e92f23269463429bf3524813a6c482d3c245e94bf009de32ac1c52',
    'cohort/default/i_vs_r_bubble.svg': 'fa84e1f54b8450ce41bcf8c7be7cad451578c163bcd7d5c21805977e526ce01e',
    'cohort/default/m_vs_p_linfit.svg': '76201f93e1e71ff16f5f6b425a44af2afd3e57d530a9549802501b0e5e2a9888',
    'cohort/i-max.exit': '0',
    'cohort/i-max/cohort.json': '94380965a0d26aede1ee1ec1b7401b75e5486f6925d7e9066064e19ccb277aa2',
    'cohort/i-max/i_vs_p_powerfit.svg': 'ee00141b1381b216f570fc8ab20c3d52567ee10228793e379a7deaaaaca0eb52',
    'cohort/i-max/i_vs_r.svg': '4e7fd7358c555dd23c8b880ba1b0f531c09623522c33b3dc6c37cdfd45c46f70',
    'cohort/i-max/i_vs_r_bubble.svg': '35bca4720fcceda75bb782191c6ac738efb5aee93169ed0ac86c3f92f7d2ca26',
    'cohort/i-max/m_vs_p_linfit.svg': '76201f93e1e71ff16f5f6b425a44af2afd3e57d530a9549802501b0e5e2a9888',
}

GOLDEN_SYNTH: dict[str, str] = {
    'synth/conscientious.tsv.exit': '0',
    'synth/conscientious.tsv': '384f35e498c1e4ae259b6a85ee280633169199a764d295cf83a162b8e18847ee',
    'synth/conscientious.csv.exit': '0',
    'synth/conscientious.csv': 'bacf8d65cb4250099c6538bdd8fa2f347da9ea253c538d2ea8b00a110f18f01b',
    'synth/papermill.tsv.exit': '0',
    'synth/papermill.tsv': '4494e1bd432b73e5c3b1a20643cdaa120339077f9d8e0486b0d3abc0d1324c3f',
    'synth/papermill.csv.exit': '0',
    'synth/papermill.csv': 'c7f0cd0382221784016d8d316603f8c32e01a7128219c7fb84a765681f80a9c3',
    'synth/conscientious-wide.tsv.exit': '0',
    'synth/conscientious-wide.tsv': '89d753becfcb5319283c22e57cce354fdf8ef7416037ef6f99ebec7dfb69e5e4',
    'synth/conscientious-wide.csv.exit': '0',
    'synth/conscientious-wide.csv': 'f4d26f6a5fe9c1aba8c87987c62cc92ac5ac4992b58bd6d6cb17b72412112485',
    'synth/papermill-wide.tsv.exit': '0',
    'synth/papermill-wide.tsv': 'f120973d1d7a871ea07ae92175c09f16df909d03e46929eb46260d484b51b52b',
    'synth/papermill-wide.csv.exit': '0',
    'synth/papermill-wide.csv': 'adfbdad4cb67e329de2169b982ded07652264da1ed9143cd7e5c34174a16cb68',
}


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_corpus(root)


def test_outputs_match_golden_digests(corpus_run):
    _, results = corpus_run
    changed = sorted(key for key in GOLDEN.keys() | results.keys()
                     if GOLDEN.get(key) != results.get(key))
    assert not changed, f"{len(changed)} outputs differ from the recorded digests: {changed}"


def test_corpus_exercises_the_error_paths(corpus_run):
    root, results = corpus_run
    assert results["analyze/default/badcell.exit"] == "1"
    assert results["analyze/default/badcell.json"] == "absent"
    document = json.loads((root / "cohort" / "default" / "cohort.json").read_text())
    assert len(document["points"]) == 13
    assert len(document["diagnostics"]) == 3


def test_synth_reports_match_golden_digests(tmp_path):
    results = run_synth(tmp_path)
    changed = sorted(key for key in GOLDEN_SYNTH.keys() | results.keys()
                     if GOLDEN_SYNTH.get(key) != results.get(key))
    assert not changed, f"{len(changed)} reports differ from the recorded digests: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in run_corpus(Path(tmp)).items():
            print(f"    {key!r}: {value!r},", file=sys.stdout)
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in run_synth(Path(tmp)).items():
            print(f"    {key!r}: {value!r},", file=sys.stdout)
