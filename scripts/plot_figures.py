#!/usr/bin/env python3
"""Plot the reproduced figures from the figure benches' documents.

Usage:
    mkdir -p figs && VCA_FIGURE_DIR=figs ./build/bench/bench_fig4_regwindow_time
    ... (repeat for the other figure benches, or run them all) ...
    python3 scripts/plot_figures.py figs/

Produces one PNG per figure document (<slug>.json) next to it.
Plotting requires matplotlib; load_figure() needs only the standard
library.
"""

import json
import pathlib
import sys


def load_figure(path):
    """Read one figure document: {"bench", "mode", "phys_regs",
    "series": {curve: [value or None]}, "sampling", "failures"}. A
    None cell is a configuration that cannot operate."""
    with open(path) as fh:
        return json.load(fh)


def plot_file(path: pathlib.Path) -> None:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    doc = load_figure(path)
    fig, ax = plt.subplots(figsize=(6, 4))
    for name, values in doc["series"].items():
        pts = [(x, y) for x, y in zip(doc["phys_regs"], values)
               if y is not None]
        ax.plot([x for x, _ in pts], [y for _, y in pts], marker="o",
                label=name)
    ax.set_xlabel("physical registers")
    ax.set_title(doc["bench"].replace("_", " "))
    ax.legend(fontsize=8)
    ax.grid(True, alpha=0.3)
    out = path.with_suffix(".png")
    fig.tight_layout()
    fig.savefig(out, dpi=130)
    print(f"wrote {out}")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 1
    directory = pathlib.Path(sys.argv[1])
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"no figure documents in {directory}")
        return 1
    for f in files:
        plot_file(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
