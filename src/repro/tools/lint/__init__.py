"""reprolint — domain-invariant static analysis for this reproduction.

Run it from the CLI::

    repro lint src benchmarks
    repro lint src --format json
    repro lint src --format sarif > lint.sarif
    repro lint src --baseline tools/lint_baseline.json
    repro lint src --rules RL001,RL013
    repro lint --list-rules

or programmatically::

    from repro.tools.lint import lint_paths

    report = lint_paths(["src"])
    for finding in report.findings:
        print(finding.render())

The analyzer is two-pass: per-module rules (RL001–RL010, RL015, RL016)
run over each file during pass 1 — whose parse + findings are memoized
in a content-hash summary cache — and project-wide rules (RL012, RL013)
analyze the assembled :class:`ProjectContext` in pass 2.  RL011 and
RL014 are retired ids: the first was folded into RL015, the second went
with the last epoch-versioned memo it policed.

Suppress a finding in place with a trailing comment, naming the rule
(on any physical line the flagged statement spans)::

    except BaseException as exc:  # reprolint: disable=RL006

Register a function with the kernel-hot registry (RL015)::

    def sample_once(self) -> float:  # reprolint: hot
"""

from repro.tools.lint.engine import (
    Finding,
    LintReport,
    ModuleContext,
    Rule,
    apply_baseline,
    display_path_for,
    iter_python_files,
    lint_file,
    lint_paths,
    load_baseline,
)
from repro.tools.lint.project import (
    ModuleSummary,
    ProjectContext,
    ProjectRule,
    SummaryCache,
    lint_project,
    summarize_module,
)
from repro.tools.lint.project_rules import ALL_PROJECT_RULES, default_project_rules
from repro.tools.lint.rules import (
    ALL_RULES,
    RULES_BY_ID,
    default_rules,
    registry,
    rules_for_ids,
)

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "Finding",
    "LintReport",
    "ModuleContext",
    "ModuleSummary",
    "ProjectContext",
    "ProjectRule",
    "RULES_BY_ID",
    "Rule",
    "SummaryCache",
    "apply_baseline",
    "default_project_rules",
    "default_rules",
    "display_path_for",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "load_baseline",
    "registry",
    "rules_for_ids",
    "summarize_module",
]
