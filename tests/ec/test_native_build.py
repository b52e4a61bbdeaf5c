"""Build, cache and fallback of the native GF(256) kernel (DESIGN.md §13).

Loading happens once per process, at the first use of a region kernel
or of ``galois.KERNEL``, so the properties that matter — importing
decides nothing; a missing compiler leaves a working numpy path and
exactly one warning; processes racing on an empty cache all end up
native on one published file — are asserted on fresh interpreters with
``HOME`` pointed at an empty directory.
"""

import hashlib
import logging
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro import EmulatedTestbed, FastPRPlanner, make_codec
from repro.cluster import StorageCluster
from repro.ec import _native, galois

REPO = Path(__file__).resolve().parents[2]

needs_native = pytest.mark.skipif(
    galois.KERNEL == "numpy", reason="native kernel not built on this host"
)


def fresh_interpreter(home: Path, code: str, *argv: str) -> subprocess.Popen:
    """``python -c code argv...`` with ``home`` as its (cache) home."""
    env = dict(os.environ, HOME=str(home))
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def star_repair_digest(workdir: Path) -> str:
    """Run one RS(9,6) star repair; hash every repaired chunk's bytes."""
    cluster = StorageCluster.random(
        14, 12, 9, 6, num_hot_standby=2, seed=5, chunk_size=48 * 1024 + 13
    )
    stf = max(cluster.storage_node_ids(), key=cluster.load_of)
    cluster.node(stf).mark_soon_to_fail()
    plan = FastPRPlanner(seed=0).plan(cluster, stf)
    assert any(round_.reconstructions for round_ in plan.rounds)
    digest = hashlib.sha256()
    with EmulatedTestbed(
        cluster, make_codec("rs(9,6)"), workdir=workdir
    ) as testbed:
        testbed.load_random_data(seed=6)
        testbed.execute(plan)
        testbed.verify_plan(plan)
        for action in plan.actions():
            digest.update(
                testbed.stores[action.destination].read(action.stripe_id)
            )
    return digest.hexdigest()


def test_no_compiler_means_numpy_one_warning_same_bytes(tmp_path):
    code = (
        "import shutil, sys, pathlib\n"
        "shutil.which = lambda *args, **kwargs: None\n"
        "import repro.cli\n"
        "from repro.ec import galois\n"
        "assert galois._KERNEL is None, 'importing loaded the kernel'\n"
        "from tests.ec.test_native_build import star_repair_digest\n"
        "print(galois.KERNEL)\n"
        "print(star_repair_digest(pathlib.Path(sys.argv[1])))\n"
    )
    home = tmp_path / "home"
    home.mkdir()
    child = fresh_interpreter(home, code, str(tmp_path / "child"))
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    kernel, digest = stdout.split()
    assert kernel == "numpy"
    warnings = [line for line in stderr.splitlines() if "GF(256)" in line]
    assert len(warnings) == 1, stderr
    assert "no C compiler" in warnings[0]
    assert digest == star_repair_digest(tmp_path / "here")


@needs_native
def test_eight_importers_race_on_an_empty_cache(tmp_path):
    code = "from repro.ec.galois import KERNEL; print(KERNEL)"
    children = [fresh_interpreter(tmp_path, code) for _ in range(8)]
    outputs = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0] * 8, outputs
    assert [out.strip() for out, _ in outputs] == [galois.KERNEL] * 8
    cache = tmp_path / ".cache" / "fastpr-repro"
    assert [path.suffix for path in cache.iterdir()] == [".so"]


class TestCacheTrust:
    def test_group_writable_file_is_refused(self, tmp_path):
        planted = tmp_path / "gf256.so"
        planted.write_bytes(b"")
        planted.chmod(0o660)
        with pytest.raises(PermissionError, match="writable"):
            _native._require_private(planted, stat.S_IFREG)
        planted.chmod(0o600)
        _native._require_private(planted, stat.S_IFREG)

    def test_symlinked_directory_is_refused(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        link = tmp_path / "link"
        link.symlink_to(real)
        with pytest.raises(PermissionError):
            _native._require_private(link, stat.S_IFDIR)

    def test_world_writable_home_cache_falls_back_to_tmp(
        self, tmp_path, monkeypatch
    ):
        shared = tmp_path / ".cache" / "fastpr-repro"
        shared.mkdir(parents=True)
        shared.chmod(0o777)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setattr(
            _native.tempfile, "gettempdir", lambda: str(tmp_path / "tmp")
        )
        chosen = _native._cache_dir()
        assert chosen == tmp_path / "tmp" / f"fastpr-repro-{os.getuid()}"
        assert stat.S_IMODE(chosen.stat().st_mode) == 0o700


@needs_native
def test_cached_file_that_does_not_load_is_built_over(
    tmp_path, monkeypatch, caplog
):
    monkeypatch.setenv("HOME", str(tmp_path))
    target = _native._target(_native._SOURCE.read_bytes())
    assert target.parent == tmp_path / ".cache" / "fastpr-repro"
    # what another libc on a shared home, or a truncated write, leaves
    target.write_bytes(b"\x7fELF not really")
    target.chmod(0o700)
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        ffi, lib = _native.load()
    assert caplog.records == []
    assert lib.gf_cpu_level() in (0, 1, 2)
    assert target.stat().st_size > 1000
    assert [path.name for path in target.parent.iterdir()] == [target.name]


@needs_native
def test_compile_error_warns_once_and_leaves_no_temp_file(
    tmp_path, monkeypatch, caplog
):
    broken = tmp_path / "broken.c"
    broken.write_text("int gf_cpu_level(void) { return }\n")
    monkeypatch.setattr(_native, "_SOURCE", broken)
    monkeypatch.setenv("HOME", str(tmp_path))
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        assert _native.load() is None
    assert len(caplog.records) == 1
    assert "exited" in caplog.records[0].getMessage()
    assert list((tmp_path / ".cache" / "fastpr-repro").iterdir()) == []
