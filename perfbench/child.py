"""One cold benchmark pass, in its own interpreter.

    python3 perfbench/child.py MANIFEST RESULT LAUNCH_NS MODE

MODE is ``plain`` (one timed pass) or ``traced`` (one pass with spans
around every traced function).  Set-up runs from LAUNCH_NS, the parent's
``time.monotonic_ns()`` just before it started this process, until
flagrecon is imported and the inputs are read.  Every item goes through
``flagrecon.cli.main`` in process, with stdin fed from the item's input
text and stdout captured; ``analyze`` writes its JSON report into the
pass's directory.  The reference chunk is timed right after set-up, then
between items every SPEED_EVERY_S and after the last one, outside the item
timings; the parent scales set-up by the first chunk and each item by the
chunks just before and after it.  The outputs are checked by the parent,
after this process has ended.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import flagrecon.cli

# Seconds of items between two timings of the reference chunk.
SPEED_EVERY_S = 0.2
# The table the reference chunk reads; it adds this much to peak memory.
REFERENCE_TABLE_BYTES = 2 << 20


def call(argv: list[str], stdin: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = flagrecon.cli.main(argv)
    return {"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def run_item(task: dict, workdir: Path) -> list[dict]:
    if task["kind"] == "scan":
        return [call(["scan", "--max-n", str(task["dim"])], "")]
    if task["kind"] == "analyze":
        argv = ["analyze", "--format", task["fmt"], "--json",
                str(workdir / f"{task['id']}.json"), "-"]
        return [call(argv, task["text"])]
    steps = [call(["deck", "-"], task["text"])]
    for line in steps[0]["out"].splitlines():
        card = line.split()[0]
        steps.append(call(["reconstruct", "--dim", str(task["dim"]), "-"], card))
    return steps


def _faces_and_rows() -> int:
    """Small tuples and frozensets hashed into a dict, then integer row elimination."""
    faces: dict[tuple[int, ...], int] = {}
    for i in range(1200):
        faces[tuple(sorted(frozenset((i % 37, i % 11 + 40, i % 7 + 60))))] = len(faces)
    acc = sum(faces[face] for face in list(faces))
    rows = [[(i * j + 3) % 5 - 2 for j in range(24)] for i in range(24)]
    for c in range(24):
        p = next((r for r in range(c, 24) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, 24):
            if rows[r][c]:
                f, pivot = rows[r][c], rows[c][c]
                rows[r] = [a * pivot - f * b for a, b in zip(rows[r], rows[c])]
    return acc


def reference_chunk(table: bytearray) -> float:
    """Seconds taken by a fixed mix of work: the speed of the machine now.

    The host does not slow every kind of work by the same factor: in its
    slow spells flagrecon's analyses slowed about 8% more than integer and
    bit operations alone.  So the chunk mixes bit operations, reads of
    ``table`` at pseudo-random places (cache and memory contention) and the
    hashing of small tuples and frozensets and integer row elimination that
    flagrecon's complexes and Smith normal form do.  It frees all it builds
    and runs with garbage collection off, so it neither runs nor brings
    forward a collection; it uses no flagrecon code, so the program's
    changes do not move it.
    """
    gc.disable()
    start = time.perf_counter()
    acc = 0
    for mask in range(1, 1 << 11):
        while mask:
            low = mask & -mask
            acc += low.bit_length()
            mask ^= low
    last = len(table) - 1
    x = 1
    for _ in range(10000):
        x = (x * 1103515245 + 12345) & last
        acc += table[x]
    acc += _faces_and_rows() + _faces_and_rows()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> int:
    manifest_path, result_path, launch_ns, mode = sys.argv[1:]
    manifest = json.loads(Path(manifest_path).read_text())
    setup_s = (time.monotonic_ns() - int(launch_ns)) / 1e9
    result: dict = {"setup_s": setup_s}
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = Path(result_path).parent
    items = []
    table = bytearray(range(256)) * (REFERENCE_TABLE_BYTES // 256)
    speed = [reference_chunk(table)]
    last_chunk = time.perf_counter()
    for task in manifest["tasks"]:
        if tracer is not None:
            tracer.item = task["id"]
        t0 = time.perf_counter()
        try:
            record = {"id": task["id"], "steps": run_item(task, workdir)}
        except Exception:
            record = {"id": task["id"], "error": traceback.format_exc()}
        t1 = time.perf_counter()
        record["ms"] = (t1 - t0) * 1000.0
        record["chunk"] = len(speed) - 1
        items.append(record)
        if t1 - last_chunk >= SPEED_EVERY_S or task is manifest["tasks"][-1]:
            speed.append(reference_chunk(table))
            last_chunk = time.perf_counter()
    result["pass_s"] = sum(record["ms"] for record in items) / 1000.0
    result["speed"] = speed
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["items"] = items
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(Path(result_path).with_name("spans.json.gz"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
