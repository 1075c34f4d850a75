"""Every golden case of tests/golden.py, run in one child process, and the
comparison that another numpy or BLAS build gets."""

import os
import subprocess
import sys

import golden


def test_every_cli_case_matches_its_golden_output():
    proc = subprocess.run(
        [sys.executable, golden.__file__], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(f"{len(golden.CASES)} cases match\n")


def _scaled(text, factor):
    """`text` with every number that is not an integer token multiplied
    by `factor`, printed to 17 digits."""
    return golden.NUMBER.sub(
        lambda m: m[0] if m[0].lstrip("-+").isdigit() or m[0] in ("nan",
                                                                 "inf")
        else f"{float(m[0]) * factor:.17g}", text)


def test_another_build_compares_numbers_to_the_stated_tolerance():
    want = golden.stored("correlate_markov_invariant")
    text = want["files"]["correlation.csv"]
    moved = _scaled(text, 1 + 1e-12)
    assert moved != text
    near = {**want, "files": {"correlation.csv": moved}}
    far = {**want, "files": {"correlation.csv": _scaled(text, 1 + 1e-7)}}
    assert golden.differences("c", near, want, exact=False) == []
    assert golden.differences("c", near, want, exact=True) == [
        "c: files/correlation.csv differs first at line 2"]
    assert golden.differences("c", far, want, exact=False) == [
        "c: files/correlation.csv differs first at line 2"]


def test_another_build_compares_the_text_between_numbers_exactly():
    want = golden.stored("spectrum_swap")
    assert golden.texts_match(want["stdout"], want["stdout"])
    assert golden.texts_match("r_ess = 0.5; 1e-13", "r_ess = 0.5; 0")
    assert not golden.texts_match("r_ess = 0.5", "r_ess: 0.5")
    assert not golden.texts_match("2 of 4", "2 of  4")
    assert not golden.texts_match("gap=nan", "gap=0")
    changed = {**want,
               "stdout": want["stdout"].replace("unit circle", "unit disc")}
    assert golden.differences("s", changed, want, exact=False) == [
        f"s: stdout {changed['stdout']!r}, golden {want['stdout']!r}"]
