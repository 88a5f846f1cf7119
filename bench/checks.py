"""Output checks for one replayed instance.

Every workload replays the fixture's recorded script, so every instance
must end the same way: the reference fix of `src/buf.c` selected,
candidates 0-2 applied and 3-4 rejected, the PoC passing for 0 and 1
only, no stage error, and the evaluator marking the instance resolved.
The expected diff is written out here rather than computed with the
package's own diff code.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_DIFF = (
    "diff --git a/src/buf.c b/src/buf.c\n"
    "--- a/src/buf.c\n"
    "+++ b/src/buf.c\n"
    "@@ -10,8 +10,8 @@\n"
    "     size_t len = strlen(src);\n"
    "     size_t i;\n"
    " \n"
    "-    if (len > cap) {\n"
    "-        len = cap;\n"
    "+    if (len >= cap) {\n"
    "+        len = cap - 1;\n"
    "     }\n"
    "     for (i = 0; i < len; i++) {\n"
    "         dst[i] = src[i];\n"
).encode()

# candidate index -> (applied, poc_pass), for the recorded generations
EXPECTED_OUTCOMES = {0: (True, True), 1: (True, True), 2: (True, False),
                     3: (False, False), 4: (False, False)}


def check_instance(instance_dir: Path | str, stage_errors: list,
                   resolved: bool) -> list[str]:
    """Problems with one instance's artifacts; empty when all is well."""
    instance_dir = Path(instance_dir)
    problems = [f"stage error {e['stage']}: {e['error']}"
                for e in stage_errors]
    diff_path = instance_dir / "prediction.diff"
    if not diff_path.is_file():
        problems.append("no prediction.diff")
    elif diff_path.read_bytes() != EXPECTED_DIFF:
        problems.append("prediction.diff differs from the reference fix")
    outcomes_path = instance_dir / "candidates" / "outcomes.json"
    if not outcomes_path.is_file():
        problems.append("no candidates/outcomes.json")
    else:
        outcomes = json.loads(outcomes_path.read_text(encoding="utf-8"))
        found = {o["index"]: (o["applied"], o["poc_pass"]) for o in outcomes}
        if found != EXPECTED_OUTCOMES:
            problems.append(f"candidate (applied, poc_pass) {found}, "
                            f"expected {EXPECTED_OUTCOMES}")
    if not resolved:
        problems.append("evaluate_run did not mark the instance resolved")
    return problems
