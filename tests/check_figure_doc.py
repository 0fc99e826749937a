#!/usr/bin/env python3
"""End-to-end check of a figure bench's document.

Usage:
    check_figure_doc.py BENCH_BINARY MODE WORKDIR

Runs BENCH_BINARY (a figure bench) at tiny settings, uncached, in
MODE (detailed or sampled), with VCA_FIGURE_DIR=WORKDIR. Then reads
the figure document it wrote through scripts/plot_figures.py's loader
and checks that
  - the document has the one fixed shape;
  - every series cell equals the cell of the printed table to its 3
    decimals, with null for "n/a";
  - sampling is empty on a detailed run; on a sampled run every record
    has an upper IPC bound (null = unbounded) not below its lower one,
    and the printed `IPC ± CI` table shows the records' mean IPC.
Exits nonzero with one line per violation.
"""

import math
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "scripts"))
from plot_figures import load_figure  # noqa: E402

DOC_FIELDS = {"bench", "mode", "phys_regs", "series", "sampling",
              "failures"}


def table_after(lines, start, header_word):
    """Rows of a printed table: {label: [cell text]} from the line
    after `start` (the column header, first word `header_word`) to the
    next blank line or line without cells."""
    assert lines[start].split()[0] == header_word, lines[start]
    rows = {}
    for line in lines[start + 1:]:
        if not line.strip() or line.startswith(("==", "sampled IPC")):
            break
        rows[line[:12].strip()] = line[12:].split()
    return rows


def check(stdout, doc, mode):
    errors = []
    if set(doc) != DOC_FIELDS:
        errors.append(f"document fields {sorted(doc)}")
        return errors
    if doc["mode"] != mode:
        errors.append(f"mode {doc['mode']!r}, expected {mode!r}")
    if doc["failures"] != []:
        errors.append(f"failures on a clean run: {doc['failures']}")
    regs = doc["phys_regs"]
    lines = stdout.splitlines()
    title = next(i for i, l in enumerate(lines) if l.startswith("== Fig"))
    slug = lines[title][3:].split(":")[0].lower().replace(" ", "_")
    if doc["bench"] != slug:
        errors.append(f"bench {doc['bench']!r}, title says {slug!r}")
    if lines[title + 1].split()[1:1 + len(regs)] != [str(r) for r in regs]:
        errors.append(f"phys_regs {regs} != table header")
    table = table_after(lines, title + 1, "arch")
    if sorted(table) != sorted(doc["series"]):
        errors.append(f"curves {sorted(doc['series'])} != table rows "
                      f"{sorted(table)}")
        return errors
    for name, values in doc["series"].items():
        printed = ["n/a" if v is None else f"{v:.3f}" for v in values]
        if printed != table[name]:
            errors.append(f"{name}: document {printed} != table "
                          f"{table[name]}")

    records = doc["sampling"]
    ci_line = [i for i, l in enumerate(lines)
               if l.startswith("sampled IPC")]
    if mode == "detailed":
        if records or ci_line:
            errors.append("a detailed run has sampling records or a CI "
                          "table")
        return errors
    if not records or not ci_line:
        errors.append("a sampled run has no sampling records or no CI "
                      "table")
        return errors
    for r in records:
        hi = math.inf if r["ipc_ci_hi"] is None else r["ipc_ci_hi"]
        if hi < r["ipc_ci_lo"]:
            errors.append(f"{r['label']} {r['workload']} "
                          f"@{r['phys_regs']}: IPC interval "
                          f"[{r['ipc_ci_lo']}, {r['ipc_ci_hi']}] ends "
                          f"below its start")
    ci_table = {}
    for line in lines[ci_line[0] + 1:]:
        if not line.strip() or line.startswith("=="):
            break
        ci_table[line[:12].strip()] = line[12:].split()
    for label, cells in ci_table.items():
        for reg, cell in zip(regs, cells):
            at = [r for r in records
                  if r["label"] == label and r["phys_regs"] == reg]
            if not at:
                continue
            ipc = sum(r["ipc"] for r in at) / len(at)
            if cell.split("±")[0] != f"{ipc:.3f}":
                errors.append(f"CI table {label} @{reg}: {cell} does "
                              f"not show the records' mean {ipc:.3f}")
            open_hi = any(r["ipc_ci_hi"] is None for r in at)
            if open_hi != cell.endswith("±inf"):
                errors.append(f"CI table {label} @{reg}: {cell} with "
                              f"an unbounded record: {open_hi}")
    return errors


def main():
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    bench, mode, workdir = sys.argv[1:]
    os.makedirs(workdir, exist_ok=True)
    for f in pathlib.Path(workdir).glob("*.json"):
        f.unlink()
    env = dict(os.environ, VCA_CACHE_DIR="", VCA_WARMUP_INSTS="300",
               VCA_MEASURE_INSTS="3000", VCA_SIM_MODE=mode,
               VCA_FIGURE_DIR=workdir)
    proc = subprocess.run([bench], env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        print(f"{bench} exited {proc.returncode}: {proc.stderr}")
        return 1
    docs = sorted(pathlib.Path(workdir).glob("*.json"))
    if len(docs) != 1:
        print(f"expected one figure document, found {docs}")
        return 1
    errors = check(proc.stdout, load_figure(docs[0]), mode)
    for e in errors:
        print(f"FAIL: {e}")
    if not errors:
        print(f"{docs[0].name}: OK ({mode})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
