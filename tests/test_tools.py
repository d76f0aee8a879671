import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "X = '''not a\n"
        "docstring'''\n"
        "\n"
        "class A:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        "        return 1   # a trailing comment\n"
    )
    assert _code_lines().count(source) == (14, 5)
