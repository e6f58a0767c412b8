"""Every command of the manifest grid still finds and outputs what
``contract_manifest.json`` records (see ``contract_manifest.py``)."""

import json
import os
import platform
import subprocess
import sys
import tempfile

import pytest

import contract_manifest


@pytest.fixture(scope="module")
def manifest():
    return contract_manifest.load()


@pytest.fixture(scope="module")
def entries():
    with tempfile.TemporaryDirectory() as tmp:
        return dict(contract_manifest.outcomes(tmp))


def test_manifest_verdicts_and_exit_codes_hold(manifest, entries):
    # portable across builds: the grid, each exit code, verdict and error type
    assert list(entries) == list(manifest["entries"])
    moved = {
        name: entry
        for name, entry in entries.items()
        if {**entry, "sha256": None} != {**manifest["entries"][name], "sha256": None}
    }
    assert not moved


def test_manifest_digests_hold(manifest, entries):
    found, recorded = contract_manifest.fingerprint(), manifest["fingerprint"]
    if found != recorded:
        pytest.skip(f"verdicts compared, digests not: build {found}, manifest {recorded}")
    moved = [name for name, entry in entries.items() if entry != manifest["entries"].get(name)]
    assert not moved


def test_changes_name_each_added_removed_or_moved_entry():
    old = {
        "kept": {"exit": 0, "error": None, "sha256": "a"},
        "gone": {"exit": 0, "error": None, "sha256": "b"},
        "moved": {"exit": 0, "error": None, "verdicts": [["AC1", "x", True]], "sha256": "c"},
    }
    new = {
        "kept": old["kept"],
        "moved": {"exit": 1, "error": None, "verdicts": [["AC1", "x", False]], "sha256": "d"},
        "new": {"exit": 2, "error": "ConfigError", "sha256": "e"},
    }
    assert contract_manifest.changes(old, new) == [
        "removed: gone",
        "moved (exit, verdicts, sha256): moved",
        "added: new",
    ]
    assert contract_manifest.changes(new, new) == []


def test_fingerprint_tells_blas_kernels_apart():
    # OpenBLAS picks its kernel per process; under another kernel 148 of the
    # manifest's digests move while numpy's SIMD targets stay the same
    kernel = contract_manifest.blas_kernel()
    if platform.machine() not in ("x86_64", "AMD64") or kernel is None:
        pytest.skip(f"no OpenBLAS kernel name on this build ({platform.machine()}, {kernel})")
    other = "Prescott" if kernel == "Haswell" else "Haswell"
    tests = os.path.dirname(os.path.abspath(contract_manifest.__file__))
    code = (
        f"import json, sys; sys.path.insert(0, {tests!r}); import contract_manifest;"
        " print(json.dumps(contract_manifest.fingerprint()))"
    )
    env = {**os.environ, "OPENBLAS_CORETYPE": other}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    found = json.loads(child.stdout)
    assert found["blas_kernel"] == other and found != contract_manifest.fingerprint()
