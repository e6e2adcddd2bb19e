"""Whole-program representation: symbol table, aliases, call graph."""

from pathlib import Path

from repro.analysis.engine import ModuleSource
from repro.analysis.program import Program, dotted_name

FIXTURES = Path(__file__).parent / "fixtures"


def _program(tmp_path, **files):
    """Build a Program from named sources, pinned via the module pragma."""
    modules = []
    for module_name, source in files.items():
        path = tmp_path / (module_name.replace(".", "_") + ".py")
        path.write_text(f"# repro-lint: module={module_name}\n{source}")
        modules.append(ModuleSource.parse(path))
    return Program.build(modules)


class TestSymbolTable:
    def test_functions_and_classes_indexed_by_qualname(self, tmp_path):
        program = _program(
            tmp_path,
            **{
                "repro.demo.alpha": (
                    "def helper():\n"
                    "    return 1\n"
                    "class Widget:\n"
                    "    def spin(self):\n"
                    "        return helper()\n"
                ),
            },
        )
        assert "repro.demo.alpha.helper" in program.functions
        assert "repro.demo.alpha.Widget.spin" in program.functions
        assert "repro.demo.alpha.Widget" in program.class_index
        assert program.functions["repro.demo.alpha.Widget.spin"].is_method

    def test_global_statement_marks_rebinding(self, tmp_path):
        program = _program(
            tmp_path,
            **{
                "repro.demo.rebind": (
                    "TOKEN = None\n"
                    "def set_token(value):\n"
                    "    global TOKEN\n"
                    "    TOKEN = value\n"
                ),
            },
        )
        fi = program.functions["repro.demo.rebind.set_token"]
        assert fi.global_decls == {"TOKEN"}
        # the declared global is rebound, not a new local
        assert "TOKEN" not in fi.local_names


class TestAliasResolution:
    def test_cross_module_import_canonicalizes(self, tmp_path):
        program = _program(
            tmp_path,
            **{
                "repro.demo.base": "def work():\n    return 0\n",
                "repro.demo.client": (
                    "from repro.demo.base import work as w\n"
                    "def run():\n"
                    "    return w()\n"
                ),
            },
        )
        fi = program.functions["repro.demo.client.run"]
        assert [c.callee for c in fi.calls] == ["repro.demo.base.work"]

    def test_reexport_chain_is_chased(self, tmp_path):
        program = _program(
            tmp_path,
            **{
                "repro.demo.impl": "def deep():\n    return 0\n",
                "repro.demo": "from repro.demo.impl import deep\n",
                "repro.demo.user": (
                    "from repro.demo import deep\n"
                    "def go():\n"
                    "    return deep()\n"
                ),
            },
        )
        fi = program.functions["repro.demo.user.go"]
        assert [c.callee for c in fi.calls] == ["repro.demo.impl.deep"]


class TestCallGraph:
    def test_self_method_call_resolves_to_class_method(self, tmp_path):
        program = _program(
            tmp_path,
            **{
                "repro.demo.cls": (
                    "class Engine:\n"
                    "    def start(self):\n"
                    "        return self._spin()\n"
                    "    def _spin(self):\n"
                    "        return 1\n"
                ),
            },
        )
        start = program.functions["repro.demo.cls.Engine.start"]
        assert [c.callee for c in start.calls] == [
            "repro.demo.cls.Engine._spin"
        ]

    def test_bind_args_maps_positional_and_keyword(self, tmp_path):
        program = _program(
            tmp_path,
            **{
                "repro.demo.bind": (
                    "def callee(first, second=None):\n"
                    "    return first\n"
                    "def caller():\n"
                    "    return callee(1, second=2)\n"
                ),
            },
        )
        caller = program.functions["repro.demo.bind.caller"]
        callee = program.functions["repro.demo.bind.callee"]
        (site,) = caller.calls
        bound = program.bind_args(site.node, callee)
        assert sorted(bound) == ["first", "second"]

    def test_nested_function_attributed_to_parent(self, tmp_path):
        program = _program(
            tmp_path,
            **{
                "repro.demo.nested": (
                    "_LOG = []\n"
                    "def outer():\n"
                    "    def inner():\n"
                    "        _LOG.append(1)\n"
                    "    return inner\n"
                ),
            },
        )
        outer = program.functions["repro.demo.nested.outer"]
        inner = program.functions["repro.demo.nested.outer.inner"]
        assert inner.nested
        # the *parent* owns the nested body's calls
        assert [c.callee for c in outer.calls] == ["repro.demo.nested._LOG.append"]
        assert not inner.calls


class TestHelpers:
    def test_dotted_name(self):
        import ast

        expr = ast.parse("a.b.c", mode="eval").body
        assert dotted_name(expr) == "a.b.c"
        call = ast.parse("f()", mode="eval").body
        assert dotted_name(call) is None

    def test_real_package_builds(self):
        # the whole src tree must build a program without errors
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        modules = [
            ModuleSource.parse(p)
            for p in sorted(src.rglob("*.py"), key=lambda p: p.as_posix())
            if "__pycache__" not in p.parts
        ]
        program = Program.build(modules)
        assert "repro.harness.cli.main" in program.functions
        assert len(program.modules) == len(modules)
