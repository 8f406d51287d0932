"""Per-stage tracing installed from outside the program.

Wrappers replace module attributes of the vesture package for the length of
one operation. Each wrapper keeps a stack, so a stage's self time is its span
minus the spans of the wrapped stages it called. A stage whose function no
longer exists (for example after a refactor deletes it) is recorded as absent
with zero calls instead of failing the run.
"""
from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute path) in pipeline order
STAGES = (
    ("dressing.dress_grid", "dressing", "dress_grid"),
    ("dressing.dress_point", "dressing", "dress_point"),
    ("dressing.spectral_data", "dressing", "spectral_data"),
    ("dressing.build_system", "dressing", "build_system"),
    ("dressing.solve_system", "dressing", "solve_system"),
    ("dressing.reconstruct_q", "dressing", "reconstruct_q"),
    ("dressing.normalize_det", "dressing", "normalize_det"),
    ("dressing.chi_symmetry_residuals", "dressing", "chi_symmetry_residuals"),
    ("algebra.inv", "algebra", "inv"),
    ("algebra.symspace_components", "algebra", "symspace_components"),
    ("spectral.pole_pair", "spectral", "pole_pair"),
    ("spectral.deck", "spectral", "deck"),
    ("seeds.psi0_at", "seeds", "psi0_at"),
    ("verification.FieldGrid.from_results", "verification", "FieldGrid.from_results"),
    ("verification.hodge_residual", "verification", "hodge_residual"),
    ("verification.locus_mask", "verification", "locus_mask"),
    ("verification.exclusion_mask", "verification", "exclusion_mask"),
    ("verification.refinement_ratios", "verification", "refinement_ratios"),
    ("targets.bl_to_weyl", "targets", "bl_to_weyl"),
    ("targets.ernst_g11", "targets", "ernst_g11"),
    ("targets.ernst_g21", "targets", "ernst_g21"),
    ("targets.kerr_oracle", "targets", "kerr_oracle"),
    ("targets.g21_soliton_family", "targets", "g21_soliton_family"),
    ("cli.parse_config", "cli", "parse_config"),
    # no public function isolates I/O, so the writer and reader stand for it
    ("cli.write", "cli", "_write_output"),
    ("cli.read", "cli", "_load_table"),
    ("cli.main", "cli", "main"),
)

SINGULAR_REASONS = ("branch", "det_a", "condition", "coincident", "chi_audit", "other")

# derived counts, per operation; they must repeat exactly between operations
COUNTS = (
    "dressing.points", "dressing.singular_points",
    *(f"dressing.singular.{r}" for r in SINGULAR_REASONS),
    "verification.excluded_points", "cli.write.bytes", "cli.read.rows",
)


def singular_reason(note: str) -> str:
    """Map a DressedPoint.note onto the reason it was flagged singular."""
    if note.startswith("chi audit failed"):
        return "chi_audit"
    if note.startswith("branch point"):
        return "branch"
    if note.startswith("det A"):
        return "det_a"
    if note.startswith("coincident pole"):
        return "coincident"
    if "condition" in note or "numerically singular" in note or "solve residual" in note:
        return "condition"
    return "other"


class Tracer:
    """Stage spans and counts of one operation."""

    def __init__(self, package) -> None:
        self.package = package
        self.stack: list[list] = []           # [stage, child time] of each open span
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.dress_s = 0.0                    # span of every point dressed
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_failed: set[str] = set()    # stages whose result had an unknown shape
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for key, mod_name, path in STAGES:
            owner = getattr(self.package, mod_name, None)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(key)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(key, raw.__func__))
            else:
                wrapped = self._wrap(key, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, key: str, fn):
        hook = _HOOKS.get(key)

        def wrapper(*args, **kwargs):
            stack = self.stack
            stack.append([key, 0.0])
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                child = stack.pop()[1]
                self.calls[key] += 1
                self.self_s[key] += span - child
                self.total_s[key] += span
                if stack:
                    stack[-1][1] += span
            if hook is not None:
                # the hook's own time is charged to no stage
                t1 = time.perf_counter()
                try:
                    hook(self, args, kwargs, out, span)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    self.hook_failed.add(key)
                if stack:
                    stack[-1][1] += time.perf_counter() - t1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived counts ----------------------------------------------------
    def _count_point(self, res) -> None:
        self.counts["dressing.points"] += 1
        if res.singular:
            self.counts["dressing.singular_points"] += 1
            self.counts[f"dressing.singular.{singular_reason(res.note)}"] += 1

    def metrics(self) -> dict[str, float]:
        """Per-stage calls and self time, and the derived counts."""
        out: dict[str, float] = {}
        for key, _, _ in STAGES:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for key in COUNTS:
            out[key] = self.counts[key]
        points = self.counts["dressing.points"]
        audit_s = self.total_s["dressing.chi_symmetry_residuals"]
        out["dressing.audit_share"] = audit_s / self.dress_s if self.dress_s > 0 else 0.0
        out["dressing.us_per_point"] = 1e6 * self.dress_s / points if points else 0.0
        out["algebra.inv.per_point"] = self.calls["algebra.inv"] / points if points else 0.0
        return out

    def exact_counts(self) -> dict[str, int]:
        """The values that must repeat exactly between identical operations."""
        out = {f"{key}.calls": self.calls[key] for key, _, _ in STAGES}
        out.update({key: self.counts[key] for key in COUNTS})
        return out


def _after_dress_grid(tr: Tracer, args, kwargs, results, span: float) -> None:
    tr.dress_s += span
    for row in results:
        for res in row:
            tr._count_point(res)


def _after_dress_point(tr: Tracer, args, kwargs, res, span: float) -> None:
    # points dressed inside dress_grid are counted from its result
    if all(key != "dressing.dress_grid" for key, _ in tr.stack):
        tr.dress_s += span
        tr._count_point(res)


def _after_exclusion_mask(tr: Tracer, args, kwargs, mask, span: float) -> None:
    tr.counts["verification.excluded_points"] += int(mask.sum())


def _after_write(tr: Tracer, args, kwargs, out, span: float) -> None:
    path = args[0] if args else kwargs["path"]
    if path != "-":
        tr.counts["cli.write.bytes"] += os.path.getsize(path)


def _after_read(tr: Tracer, args, kwargs, table, span: float) -> None:
    tr.counts["cli.read.rows"] += len(table[1])


_HOOKS = {
    "dressing.dress_grid": _after_dress_grid,
    "dressing.dress_point": _after_dress_point,
    "verification.exclusion_mask": _after_exclusion_mask,
    "cli.write": _after_write,
    "cli.read": _after_read,
}
