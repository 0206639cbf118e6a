"""Project-wide reprolint rules (pass 2).

These rules see the whole program at once — the :class:`ProjectContext`
assembled from every module's pass-1 summary — and enforce the
cross-module invariants the dynamic suites (golden traces, differential
runs, the replay validator) otherwise catch only after a simulation has
already executed:

* **RL012** — every RNG constructed in the simulation packages must be
  seeded from the scenario seed through a *labelled* stream digest, and
  no two subsystems may share a stream label.  Interprocedural: when the
  seed flows in through a function parameter, every call site of that
  function is tainted.
* **RL013** — every trace event type must map to at least one registered
  validator invariant family (``EVENT_COVERAGE`` in
  ``telemetry/validate.py``), and every counter written into
  ``report.extra`` must appear in the cache-schema field list
  (``EXTRA_FIELDS`` in ``core/cache.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.tools.lint.engine import Finding
from repro.tools.lint.project import (
    ModuleSummary,
    ProjectContext,
    ProjectRule,
    RngSite,
)

#: Packages whose modules participate in the deterministic simulation —
#: the scope RL012 polices (mirrors the per-module rule scoping).
SIM_PACKAGES: Tuple[str, ...] = (
    "core",
    "datacenter",
    "power",
    "placement",
    "telemetry",
    "fuzz",
    "workload",
    "sim",
)

def _site_finding(
    summary: ModuleSummary, site: RngSite, rule: str, message: str
) -> Finding:
    return Finding(
        rule=rule,
        message=message,
        path=summary.path,
        line=site.line,
        col=site.col,
        end_line=site.end_line,
    )


class RngStreamProvenanceRule(ProjectRule):
    rule_id = "RL012"
    title = "RNG streams must be labelled, seed-derived, and unshared"
    rationale = (
        "Replayability holds only if every random draw comes from a "
        "dedicated '{subsystem}:{seed}:...' stream digest of the "
        "scenario seed; an unlabelled or shared stream couples "
        "subsystems so adding a draw in one silently reorders another."
    )
    scoped_packages = SIM_PACKAGES
    skip_test_files = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        registered = self._registered_streams(project)
        label_sites: Dict[str, List[Tuple[ModuleSummary, RngSite]]] = defaultdict(list)
        for summary in project.iter_modules():
            if not self.module_in_scope(summary):
                continue
            if summary.path.endswith("core/seeding.py"):
                # The stream helper itself forwards caller labels.
                continue
            for site in summary.rng_sites:
                if site.kind == "stream":
                    label_sites[site.label or ""].append((summary, site))
                elif site.kind == "unlabeled":
                    yield _site_finding(
                        summary, site, self.rule_id,
                        "RNG seed digest has no subsystem label; derive it "
                        "via stream_digest('<subsystem>', seed, qualifier) "
                        "so the stream is named and auditable",
                    )
                elif site.kind == "forward":
                    yield _site_finding(
                        summary, site, self.rule_id,
                        "RNG stream label must be a string literal at the "
                        "call site (only repro.core.seeding may forward one)",
                    )
                elif site.kind == "opaque":
                    yield _site_finding(
                        summary, site, self.rule_id,
                        "RNG seed cannot be traced to the scenario seed; "
                        "seed it from stream_digest(...) of the scenario "
                        "seed, not an arbitrary value",
                    )
                elif site.kind == "param":
                    yield from self._taint_callers(project, summary, site)
                # "const" and "attr-seed" are accepted as-is.

        # A label names exactly one subsystem's stream family.
        for label in sorted(label_sites):
            sites = sorted(
                label_sites[label], key=lambda e: (e[0].path, e[1].line)
            )
            if registered is not None and label not in registered:
                summary, site = sites[0]
                yield _site_finding(
                    summary, site, self.rule_id,
                    "RNG stream label '{}' is not registered in "
                    "RNG_STREAMS (repro.core.seeding)".format(label),
                )
            first = sites[0]
            for summary, site in sites[1:]:
                if summary.path == first[0].path:
                    # Same module may seed one stream family at several
                    # qualifiers (e.g. per-host repair streams).
                    continue
                yield _site_finding(
                    summary, site, self.rule_id,
                    "RNG stream label '{}' is already used by {}:{}; two "
                    "subsystems must not share a stream".format(
                        label, first[0].path, first[1].line
                    ),
                )

    @staticmethod
    def _registered_streams(project: ProjectContext) -> Optional[Set[str]]:
        found = project.registry("RNG_STREAMS")
        if found is None:
            return None
        _path, entries = found
        labels: Set[str] = set()
        for key, value in entries.items():
            if key:
                labels.add(key)
            else:
                labels.update(value[0])
        return labels

    def _taint_callers(
        self, project: ProjectContext, summary: ModuleSummary, site: RngSite
    ) -> Iterator[Finding]:
        """Flag call sites passing a non-seed value into a seed parameter."""
        if site.param_index < 0:
            return
        for caller in project.iter_modules():
            if caller.parse_error or caller.is_test_file:
                continue
            for call in caller.call_sites:
                if call.callee != site.callee:
                    continue
                if site.param_index < len(call.arg_seedish):
                    seedish = call.arg_seedish[site.param_index]
                elif site.label in call.kwarg_seedish:
                    seedish = call.kwarg_seedish[site.label]
                else:
                    continue  # parameter defaulted — nothing flows in
                if not seedish:
                    yield Finding(
                        rule=self.rule_id,
                        message=(
                            "call passes a value not derived from the "
                            "scenario seed into RNG-seeding parameter "
                            "'{}' of {}()".format(site.label, site.callee)
                        ),
                        path=caller.path,
                        line=call.line,
                        col=call.col,
                    )


class TraceCoverageRule(ProjectRule):
    rule_id = "RL013"
    title = "trace events and report.extra counters must be registered"
    rationale = (
        "An event type no validator family covers (or a counter absent "
        "from the cache schema's field list) is silently unverified "
        "output — regressions in it never fail a replay or cache check."
    )
    scoped_packages = None
    skip_test_files = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        yield from self._check_event_coverage(project)
        yield from self._check_extra_fields(project)

    def _check_event_coverage(self, project: ProjectContext) -> Iterator[Finding]:
        coverage = project.registry("EVENT_COVERAGE")
        events: Dict[str, Tuple[str, int]] = {}
        invariants: Set[str] = set()
        for summary in project.iter_modules():
            if not self.module_in_scope(summary):
                continue
            for tag, line in summary.trace_events.items():
                events.setdefault(tag, (summary.path, line))
            invariants.update(summary.flag_invariants)
        if not events:
            return
        if coverage is None:
            tag_path, line = sorted(events.items())[0][1]
            yield Finding(
                rule=self.rule_id,
                message=(
                    "trace events are defined but no EVENT_COVERAGE "
                    "registry maps them to validator invariant families"
                ),
                path=tag_path,
                line=line,
            )
            return
        registry_path, entries = coverage
        for tag in sorted(events):
            tag_path, line = events[tag]
            if tag not in entries:
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        "trace event '{}' has no registered validator "
                        "invariant family in EVENT_COVERAGE".format(tag)
                    ),
                    path=tag_path,
                    line=line,
                )
        for tag in sorted(entries):
            families, line = entries[tag]
            if tag not in events:
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        "EVENT_COVERAGE entry '{}' names a trace event "
                        "that no producer defines".format(tag)
                    ),
                    path=registry_path,
                    line=line,
                )
                continue
            if not families:
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        "trace event '{}' maps to an empty invariant "
                        "family list".format(tag)
                    ),
                    path=registry_path,
                    line=line,
                )
            if invariants:
                for family in families:
                    if family not in invariants:
                        yield Finding(
                            rule=self.rule_id,
                            message=(
                                "EVENT_COVERAGE maps '{}' to invariant "
                                "family '{}' which no validator flag() "
                                "emits".format(tag, family)
                            ),
                            path=registry_path,
                            line=line,
                        )

    def _check_extra_fields(self, project: ProjectContext) -> Iterator[Finding]:
        registry = project.registry("EXTRA_FIELDS")
        if registry is None:
            return
        registry_path, entries = registry
        declared: Dict[str, int] = {}
        for key, value in entries.items():
            if key:
                declared[key] = value[1]
            else:
                for name in value[0]:
                    declared[name] = value[1]
        written: Dict[str, Tuple[str, int]] = {}
        for summary in project.iter_modules():
            if not self.module_in_scope(summary):
                continue
            for key, line in summary.extra_writes:
                written.setdefault(key, (summary.path, line))
        for key in sorted(written):
            if key not in declared:
                path, line = written[key]
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        "counter '{}' is written into report.extra but "
                        "missing from the EXTRA_FIELDS schema list "
                        "(repro.core.cache)".format(key)
                    ),
                    path=path,
                    line=line,
                )
        for key in sorted(declared):
            if key not in written:
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        "EXTRA_FIELDS declares counter '{}' that no "
                        "producer writes into report.extra".format(key)
                    ),
                    path=registry_path,
                    line=declared[key],
                )


ALL_PROJECT_RULES: Tuple[type, ...] = (
    RngStreamProvenanceRule,
    TraceCoverageRule,
)


def default_project_rules() -> List[ProjectRule]:
    return [cls() for cls in ALL_PROJECT_RULES]
