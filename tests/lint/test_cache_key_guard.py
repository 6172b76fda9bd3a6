"""Acceptance guard for RPR002: deleting any result-affecting entry
from the real ``canonical_key`` spec dict must make the lint fail.

The test performs AST surgery on a copy of ``harness/runner.py`` --
removing one spec entry at a time -- and asserts the cache-key rule
reports the regression.  This proves the rule protects every key the
production cache depends on, not just the ones it was written against.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import lint_paths

RUNNER = Path(__file__).parents[2] / "src" / "repro" / "harness" / "runner.py"


def _canonical_spec_dict(tree: ast.Module) -> ast.Dict:
    """The spec dict literal inside canonical_key()."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "canonical_key":
            dicts = [n for n in ast.walk(node) if isinstance(n, ast.Dict)]
            assert dicts, "canonical_key() lost its spec dict literal"
            return max(dicts, key=lambda d: len(d.keys))
    raise AssertionError("canonical_key() not found in runner.py")


def _spec_keys() -> list[str]:
    tree = ast.parse(RUNNER.read_text())
    spec = _canonical_spec_dict(tree)
    return [k.value for k in spec.keys if isinstance(k, ast.Constant)]


SPEC_KEYS = _spec_keys()


def test_spec_covers_the_full_result_surface():
    """The production key covers the documented 12 result inputs."""
    assert set(SPEC_KEYS) >= {
        "model",
        "config",
        "progress",
        "seed",
        "acc_profile",
        "phases",
        "sample_strips",
        "sample_steps",
        "sim_seed",
        "memory_engine",
        "nodes",
        "partition",
    }


def test_unmodified_runner_is_rpr002_clean(tmp_path):
    """Control: unparse alone must not introduce RPR002 findings."""
    tree = ast.parse(RUNNER.read_text())
    copy = tmp_path / "runner.py"
    copy.write_text(ast.unparse(tree) + "\n")
    report = lint_paths([copy], select=["RPR002"])
    assert report.findings == []


@pytest.mark.parametrize("victim", SPEC_KEYS)
def test_deleting_spec_key_fails_lint(victim, tmp_path):
    tree = ast.parse(RUNNER.read_text())
    spec = _canonical_spec_dict(tree)
    survivors = [
        (k, v)
        for k, v in zip(spec.keys, spec.values)
        if not (isinstance(k, ast.Constant) and k.value == victim)
    ]
    assert len(survivors) == len(spec.keys) - 1
    spec.keys = [k for k, _ in survivors]
    spec.values = [v for _, v in survivors]
    copy = tmp_path / "runner.py"
    copy.write_text(ast.unparse(ast.fix_missing_locations(tree)) + "\n")

    report = lint_paths([copy], select=["RPR002"])
    assert report.findings, f"deleting {victim!r} went undetected"
    assert any(f"'{victim}'" in f.message for f in report.findings)


def test_unkeyed_session_config_field_fails_lint(tmp_path):
    """A new SessionConfig knob must reach the key, or the lint fails."""
    source = RUNNER.read_text()
    anchor = "    workload_cache: bool | str = True\n"
    assert anchor in source
    copy = tmp_path / "runner.py"
    copy.write_text(
        source.replace(anchor, anchor + "    dither: int = 0\n", 1)
    )
    report = lint_paths([copy], select=["RPR002"])
    assert any(
        "SessionConfig field 'dither'" in finding.message
        for finding in report.findings
    )
