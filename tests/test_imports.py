"""Import footprint and package surface: `import srlz` loads no submodule,
each CLI call loads only the modules it runs, and every public name still
resolves."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import srlz
from srlz import cli, verify

PKG_ROOT = str(Path(srlz.__file__).resolve().parents[1])
# what bitio, container and lz_core pull in, and nothing else
CLI_BASE = {"srlz", "srlz.cli", "srlz.bitio", "srlz.bounds", "srlz.container",
            "srlz.lz_core"}


def fresh(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's srlz."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PKG_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=cwd)


def loaded_after(code: str, cwd=None) -> set:
    """The srlz modules in sys.modules after code runs in a new interpreter."""
    proc = fresh(code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in "
                 "sys.modules if m == 'srlz' or m.startswith('srlz.'))), file=sys.stderr)",
                 cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


class TestFootprint:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import srlz") == {"srlz"}

    def test_cli_import_loads_only_the_shared_modules(self):
        assert loaded_after("import srlz.cli") == CLI_BASE

    def test_split_lemma_suite_skips_the_other_suites_modules(self):
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['verify', '--suite', 'split-lemma', '--budget', '50']) == 0")
        assert got == CLI_BASE | {"srlz.verify", "srlz.mdc", "srlz.cond_lz"}

    def test_md_decode_skips_the_region_and_search_modules(self, tmp_path):
        from srlz import mdc
        from srlz.lz_core import Alphabet, Sequence

        seq = Sequence(Alphabet.of_size(3), [i * i % 3 for i in range(90)])
        desc1, desc2, _ = mdc.egc_encode(seq, seq, seq)
        (tmp_path / "md.d1").write_bytes(desc1)
        (tmp_path / "md.d2").write_bytes(desc2)
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['decode', 'md.d1', 'md.d2', '--mode', 'md-egc', '-o', 'out']) == 0",
            cwd=tmp_path)
        assert got == CLI_BASE | {"srlz.mdc", "srlz.cond_lz"}
        assert (tmp_path / "out.check").exists()

    def test_lz_round_trip_loads_only_the_shared_modules(self, tmp_path):
        (tmp_path / "s.bin").write_bytes(b"abracadabra" * 20)
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['encode', 's.bin', '--mode', 'lz', '-o', 's.lzc']) == 0\n"
            "assert main(['decode', 's.lzc', '--mode', 'lz', '-o', 's.out']) == 0",
            cwd=tmp_path)
        assert got == CLI_BASE
        assert (tmp_path / "s.out").read_bytes() == (tmp_path / "s.bin").read_bytes()


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(srlz.__path__)))
def test_each_module_imports_alone(module):
    # with imports inside functions, an import cycle would show only on some paths
    proc = fresh(f"import srlz.{module}")
    assert proc.returncode == 0, proc.stderr


class TestSurface:
    def test_every_public_name_resolves_to_its_definition(self):
        for name in srlz.__all__:
            value = getattr(srlz, name)
            if name in srlz._SUBMODULES:
                assert value is importlib.import_module(f"srlz.{name}")
            else:
                assert value is getattr(importlib.import_module(f"srlz.{srlz._ORIGIN[name]}"),
                                        name)

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from srlz import *", namespace)
        assert set(srlz.__all__) <= set(namespace)
        assert len(srlz.__all__) == len(set(srlz.__all__)) == 53

    def test_dir_lists_every_public_name(self):
        assert set(srlz.__all__) <= set(dir(srlz))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            srlz.nope
        with pytest.raises(ImportError):
            exec("from srlz import nope", {})

    def test_cli_suite_choices_match_the_suites(self):
        assert cli.SUITES == tuple(sorted(verify.SUITES))
        parser = cli.build_parser()
        for name in verify.SUITES:
            assert parser.parse_args(["verify", "--suite", name]).suite == name
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--suite", "nope"])
