"""Import footprint and package surface: `import srlz` loads no submodule,
each CLI call loads only the modules it runs (its own command module among
them) and never `dataclasses`, `inspect` or `hashlib`, and every public name
still resolves."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import srlz
from srlz import cli, cmd_verify, verify

PKG_ROOT = str(Path(srlz.__file__).resolve().parents[1])
# what bitio, container and lz_core pull in, and nothing else
CLI_BASE = {"srlz", "srlz.cli", "srlz.bitio", "srlz.container", "srlz.lz_core"}
# standard modules that no CLI path may load: dataclasses alone pulls in inspect
# and generates its methods with exec on every fresh start; hashlib loads
# OpenSSL's _hashlib, about 3.5 MiB of RSS and 3 ms in a bare interpreter, which
# is why the container checksum is zlib.crc32 (zlib is loaded at start-up)
SLOW_STDLIB = ("dataclasses", "inspect", "hashlib", "_hashlib")
# one module per subcommand, holding its flags and its body
COMMAND_MODULES = {f"srlz.cmd_{name}" for name in cli.COMMANDS}


def fresh(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's srlz."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PKG_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=cwd)


def loaded_after(code: str, cwd=None) -> set:
    """The srlz modules in sys.modules after code runs in a new interpreter,
    plus any of SLOW_STDLIB, so that an exact comparison also rules those out."""
    proc = fresh(code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in "
                 "sys.modules if m == 'srlz' or m.startswith('srlz.') "
                 f"or m in {SLOW_STDLIB!r})), file=sys.stderr)",
                 cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


@pytest.fixture
def inputs(tmp_path):
    """A source file and one container of each leaf mode and of sr, all over it."""
    from srlz.cond_lz import cond_encode
    from srlz.lz_core import Sequence, lz_encode
    from srlz.sr_codec import sr_encode

    raw = b"abracadabra" * 20
    x = Sequence.from_bytes(raw)
    (tmp_path / "s.bin").write_bytes(raw)
    (tmp_path / "s.lzc").write_bytes(lz_encode(x).to_bytes())
    (tmp_path / "s.cnd").write_bytes(cond_encode(x, x).to_bytes())
    (tmp_path / "s.src").write_bytes(sr_encode(x, x, x).to_bytes())
    return tmp_path


class TestFootprint:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import srlz") == {"srlz"}

    def test_cli_import_loads_only_the_shared_modules(self):
        assert loaded_after("import srlz.cli") == CLI_BASE

    @pytest.mark.parametrize("code", [
        "import srlz.cli",
        *(f"from srlz.cli import main\ntry:\n    main({argv!r})\n"
          "except SystemExit as exc:\n    assert exc.code in (0, 2)"
          for argv in (["--help"], ["nope"], [])),
    ], ids=["import", "help", "unknown-subcommand", "no-arguments"])
    def test_command_modules_load_only_for_a_parser(self, code):
        # a call that names no subcommand builds the full parser, whose help
        # and usage list all five subcommands; the import alone loads none
        want = COMMAND_MODULES if "main" in code else set()
        assert loaded_after(code) & COMMAND_MODULES == want

    def test_split_lemma_suite_skips_the_other_suites_modules(self):
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['verify', '--suite', 'split-lemma', '--budget', '50']) == 0")
        assert got == CLI_BASE | {"srlz.cmd_verify", "srlz.verify", "srlz.mdc", "srlz.cond_lz"}

    def test_entropy_suite_skips_the_conditional_codec(self):
        # the scan counts plain phrases only: cond_lz is for converse and sandwich
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['verify', '--suite', 'entropy-ineq']) == 0")
        assert got == CLI_BASE | {"srlz.cmd_verify", "srlz.verify", "srlz.empirics",
                                  "srlz.bounds"}

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
        assert got == CLI_BASE | {"srlz.cmd_decode", "srlz.mdc", "srlz.cond_lz"}
        assert (tmp_path / "out.check").exists()

    def test_lz_round_trip_loads_only_the_shared_modules(self, inputs):
        # encode reports the parse's code-length bound, so it loads bounds
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['encode', 's.bin', '--mode', 'lz', '-o', 'r.lzc']) == 0\n"
            "assert main(['decode', 'r.lzc', '--mode', 'lz', '-o', 's.out']) == 0",
            cwd=inputs)
        assert got == CLI_BASE | {"srlz.cmd_encode", "srlz.cmd_decode", "srlz.bounds"}
        assert (inputs / "s.out").read_bytes() == (inputs / "s.bin").read_bytes()

    @pytest.mark.parametrize("argv, extra", [
        ("'s.lzc', '--mode', 'lz'", set()),
        ("'s.cnd', '--mode', 'cond', '--side-info', 's.bin'", {"srlz.cond_lz"}),
        ("'s.src', '--mode', 'sr'", {"srlz.cond_lz", "srlz.sr_codec"}),
    ], ids=["lz", "cond", "sr"])
    def test_decode_skips_bounds(self, inputs, argv, extra):
        got = loaded_after(
            f"from srlz.cli import main\nassert main(['decode', {argv}, '-o', 's.out']) == 0",
            cwd=inputs)
        assert got == CLI_BASE | {"srlz.cmd_decode"} | extra
        assert (inputs / "s.out").read_bytes() == (inputs / "s.bin").read_bytes()

    def test_analyze_loads_bounds_only(self, inputs):
        got = loaded_after("from srlz.cli import main\nassert main(['analyze', 's.bin']) == 0",
                           cwd=inputs)
        assert got == CLI_BASE | {"srlz.cmd_analyze", "srlz.bounds"}

    def test_sr_encode_of_given_reproductions(self, inputs):
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['encode', 's.bin', 's.bin', 's.bin', '--mode', 'sr', "
            "'-o', 'r.src']) == 0",
            cwd=inputs)
        assert got == CLI_BASE | {"srlz.cmd_encode", "srlz.bounds", "srlz.cond_lz",
                                  "srlz.regions", "srlz.sr_codec"}

    def test_md_region(self, inputs):
        got = loaded_after(
            "from srlz.cli import main\n"
            "assert main(['region', 'md', 's.bin', 's.bin', 's.bin']) == 0",
            cwd=inputs)
        assert got == CLI_BASE | {"srlz.cmd_region", "srlz.bounds", "srlz.cond_lz", "srlz.mdc",
                                  "srlz.regions"}


def test_no_module_imports_dataclasses():
    # records are plain classes with __slots__; see SLOW_STDLIB
    for path in Path(srlz.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


def _module_imports(tree: ast.Module):
    """(bound name, line) of every module-level import, `if TYPE_CHECKING:` included."""
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            body.extend(node.body)
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _referenced_names(tree: ast.Module) -> set:
    """Every name the module reads, quoted annotations such as -> "Sequence" included."""
    nodes = list(ast.walk(tree))
    notes = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for note in filter(None, notes):
        for leaf in ast.walk(note):
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                nodes.extend(ast.walk(ast.parse(leaf.value, mode="eval")))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(Path(srlz.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_every_import_is_used(path):
    # no linter runs on this tree, so this test stands in for an unused-import check
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _module_imports(tree)
              if name not in used]
    assert not unused


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
        assert len(srlz.__all__) == len(set(srlz.__all__)) == 52

    def test_dir_lists_every_public_name(self):
        assert set(srlz.__all__) <= set(dir(srlz))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            srlz.nope
        with pytest.raises(ImportError):
            exec("from srlz import nope", {})

    def test_cli_suite_choices_match_the_suites(self):
        assert cmd_verify.SUITES == tuple(sorted(verify.SUITES))
        # argparse's choices are the only check a suite name gets
        assert set(cmd_verify.READS) == set(cmd_verify.SUITES)
        parser = cli.build_parser()
        for name in verify.SUITES:
            assert parser.parse_args(["verify", "--suite", name]).suite == name
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--suite", "nope"])
