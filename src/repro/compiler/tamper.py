"""Deliberately mis-scheduled passes proving the containment auditor bites.

The compiler-layer sibling of :mod:`repro.certify.tamper`: an auditor
that never fires is indistinguishable from one that checks nothing, so
these factories build resilience passes with a known, precisely located
containment defect.  The flagship is *late checking*: SW-Dup's
correctness rests on its compare/trap pairs executing **before** the
memory operation they guard, and a scheduler regression that slides a
check past its store turns every detected error at that boundary into a
detected-but-leaked one — memory is corrupted first, the trap fires
second.  The :class:`~repro.gpu.recovery.ContainmentAuditor` exists to
catch exactly this class of bug, and the acceptance tests run a
late-checked kernel through the recovery ladder and assert the auditor
raises :class:`~repro.errors.ContainmentViolation`.

Tampered passes are addressed by a JSON-serializable *spec* (``{"pass":
"swdup-late-check"}``) so a gpu-recovery unit can carry one in its
journaled params, and a failure caught under it reruns from the journal.
Test-only: nothing here is registered in the scheme registry.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from repro.compiler.base import PassResult
from repro.compiler.swdup import CHECKED_OPS, apply_swdup
from repro.errors import CompilationError
from repro.gpu.program import Kernel, KernelWriter


def apply_swdup_late_check(kernel: Kernel) -> PassResult:
    """SW-Dup with every checking pair slid *after* the op it guards.

    Starts from the honest :func:`~repro.compiler.swdup.apply_swdup`
    output, then re-schedules each ``checking``-tagged compare/trap pair
    to execute immediately after its guarded boundary instruction —
    store first, check second.  Detection still happens (same traps,
    same coverage counters), but any store consuming a corrupted value
    commits before the trap: strict read-time containment is broken
    while everything the campaign's outcome bins see stays plausible.
    Checks are never slid across a control-flow merge point, so the
    kernel remains well-formed.
    """
    duplicated = apply_swdup(kernel, check=True).kernel
    writer = KernelWriter(f"{kernel.name}.swdup-late-check")
    labels_at = duplicated.labels_at()
    pending = []
    for index, instruction in enumerate(duplicated.instructions):
        labels = labels_at.get(index, [])
        if labels and pending:
            for check in pending:
                writer.emit(check)
            pending = []
        for label in labels:
            writer.place_label(label)
        if instruction.meta.get("klass") == "checking":
            pending.append(instruction)
            continue
        writer.emit(instruction)
        if pending and instruction.op in CHECKED_OPS:
            for check in pending:
                writer.emit(check)
            pending = []
        elif pending:
            # the guarded op vanished (should not happen); fail safe by
            # emitting the checks rather than dropping detection
            for check in pending:
                writer.emit(check)
            pending = []
    for check in pending:
        writer.emit(check)
    for label in labels_at.get(len(duplicated.instructions), []):
        writer.place_label(label)
    return PassResult(writer.finish())


#: tampered pass name -> factory (the compiler-layer tamper registry;
#: deliberately *not* part of the scheme registry)
TAMPERED_PASSES = {
    "swdup-late-check": apply_swdup_late_check,
}


def compile_tampered(kernel: Kernel,
                     spec: Union[str, Dict[str, Any]]) -> PassResult:
    """Compile ``kernel`` under the tampered pass named by ``spec``.

    ``spec`` is either the pass name or a JSON dict ``{"pass": name}``
    (the form a unit's journaled params carry), so a rerun from the
    journal rebuilds the exact defective binary.
    """
    if isinstance(spec, str):
        spec = {"pass": spec}
    if not isinstance(spec, dict) or "pass" not in spec:
        raise CompilationError(
            f"tamper spec must be a pass name or {{'pass': name}} dict, "
            f"got {spec!r}")
    name = spec["pass"]
    factory = TAMPERED_PASSES.get(name)
    if factory is None:
        raise CompilationError(
            f"unknown tampered pass {name!r}; choose from "
            f"{sorted(TAMPERED_PASSES)}")
    return factory(kernel)
