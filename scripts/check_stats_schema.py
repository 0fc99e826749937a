#!/usr/bin/env python3
"""Validate a vca-sim --stats-json document against the current schema.

The document schema is versioned by the "schemaVersion" root key
(src/trace/stats_json.hh, kStatsJsonSchemaVersion). This validator
checks the structural contract the downstream tools (vca-explain,
plot scripts, regression tracking) rely on:

  - schemaVersion == 3 and the config/summary root blocks exist with
    the right field types; config.mode names the execution mode;
  - detailed documents (config.mode == "detailed" or absent) carry the
    cpu tree: the hierarchical taxonomy partitions cpu.cycles exactly,
    at the machine level and independently per hardware-thread
    subtree;
  - each flat cycle-accounting bucket equals the sum of its
    machine-level taxonomy leaves (the refinement equalities, e.g.
    mem_stall == dcache + store_drain);
  - intervals (when present) have strictly increasing committed_cum,
    non-negative cycle spans, and a "partial" flag that may only be
    set on the final record;
  - non-detailed documents (config.mode == "sampled" or "simpoint")
    carry a "sampling" block instead of the cpu tree: a well-ordered
    95% CI around mean_cpi, an IPC interval whose upper bound is null
    (unbounded) or at least its lower bound, warmth fractions in
    [0, 1], and exactly `samples` per-sample records;
  - the host group (when present) counts host.sim_cycles_skipped, the
    cycles idle-cycle skipping jumped over, within host.sim_cycles.

Usage:
  check_stats_schema.py FILE.json [FILE2.json ...]
  check_stats_schema.py --selftest

Exit status: 0 when every file validates, 1 on a validation failure,
2 on usage/input errors.
"""

import json
import sys

EXPECTED_VERSION = 3

# Each flat bucket and the machine-level taxonomy leaves it sums.
REFINEMENT = {
    "commit_active": ("retiring",),
    "mem_stall": ("backend_memory.dcache", "backend_memory.store_drain"),
    "exec_stall": ("backend_core.exec", "backend_memory.fill_latency"),
    "rename_freelist": ("backend_core.rename_freelist",
                        "backend_memory.spill_stall"),
    "window_shift": ("bad_speculation.recovery",
                     "backend_memory.window_trap"),
    "frontend": ("frontend_bound.icache", "frontend_bound.fetch"),
}

MODES = ("detailed", "sampled", "simpoint")

SAMPLING_SUMMARY_FIELDS = ("samples", "mean_cpi", "cpi_variance",
                           "ci_lo_cpi", "ci_hi_cpi",
                           "mean_tag_valid_fraction",
                           "mean_bpred_table_occupancy")

SAMPLE_RECORD_FIELDS = ("start_inst", "warm_cycles", "warm_insts",
                        "cycles", "insts", "cpi",
                        "tag_valid_fraction",
                        "bpred_table_occupancy", "phase", "weight")


def fail(errors, msg):
    errors.append(msg)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def flat_leaves(group, skip_threads=True, prefix=""):
    """{dotted leaf name: value} under a taxonomy (sub)group."""
    out = {}
    for name, value in group.items():
        if skip_threads and name.startswith("thread"):
            continue
        if is_num(value):
            out[prefix + name] = value
        elif isinstance(value, dict):
            out.update(flat_leaves(value, False, f"{prefix}{name}."))
    return out


def validate_sampling(doc, where):
    """Validate the non-detailed "sampling" block."""
    errors = []
    sampling = doc.get("sampling")
    if not isinstance(sampling, dict):
        return [f"{where}: non-detailed document is missing the "
                f"sampling block"]
    for key in SAMPLING_SUMMARY_FIELDS:
        if not is_num(sampling.get(key)):
            fail(errors, f"{where}: sampling.{key} is not a number")
    if not isinstance(sampling.get("ci_unbounded"), bool):
        fail(errors, f"{where}: sampling.ci_unbounded is not a "
                     f"boolean")
    if errors:
        return errors
    lo, hi = sampling["ci_lo_cpi"], sampling["ci_hi_cpi"]
    mean = sampling["mean_cpi"]
    if not lo <= mean <= hi:
        fail(errors, f"{where}: CI [{lo}, {hi}] does not bracket "
                     f"mean_cpi {mean}")
    if sampling["cpi_variance"] < 0:
        fail(errors, f"{where}: sampling.cpi_variance is negative")
    # The IPC interval is the CPI one inverted; a CPI lower bound of 0
    # leaves it unbounded above, which JSON writes as null.
    ipc_lo, ipc_hi = sampling.get("ipc_ci_lo"), sampling.get("ipc_ci_hi")
    if not is_num(ipc_lo):
        fail(errors, f"{where}: sampling.ipc_ci_lo is not a number")
    elif ipc_hi is not None and not is_num(ipc_hi):
        fail(errors, f"{where}: sampling.ipc_ci_hi is neither a "
                     f"number nor null")
    elif ipc_hi is not None and ipc_hi < ipc_lo:
        fail(errors, f"{where}: IPC CI [{ipc_lo}, {ipc_hi}] is "
                     f"inverted")
    for key in ("mean_tag_valid_fraction",
                "mean_bpred_table_occupancy"):
        if not 0 <= sampling[key] <= 1:
            fail(errors, f"{where}: sampling.{key} outside [0, 1]")
    if sampling["samples"] == 1 and not sampling["ci_unbounded"]:
        fail(errors, f"{where}: one sample must flag ci_unbounded")
    records = sampling.get("records")
    if not isinstance(records, list):
        fail(errors, f"{where}: sampling.records is not an array")
        return errors
    if len(records) != sampling["samples"]:
        fail(errors, f"{where}: sampling.samples is "
                     f"{sampling['samples']} but records has "
                     f"{len(records)} entries")
    for i, rec in enumerate(records):
        tag = f"{where}: sampling.records[{i}]"
        if not isinstance(rec, dict):
            fail(errors, f"{tag}: not an object")
            continue
        for key in SAMPLE_RECORD_FIELDS:
            if not is_num(rec.get(key)):
                fail(errors, f"{tag}: {key} is not a number")
    return errors


def validate_host(doc, where):
    """Errors in the optional host group (wall-clock, not simulated)."""
    host = doc.get("host")
    if host is None:
        return []
    if not isinstance(host, dict):
        return [f"{where}: host is not a group"]
    skipped = host.get("sim_cycles_skipped")
    if skipped is None:
        return []
    cycles = host.get("sim_cycles")
    if not is_num(skipped) or not is_num(cycles):
        return [f"{where}: host.sim_cycles_skipped and host.sim_cycles "
                f"must be numbers"]
    if not 0 <= skipped <= cycles:
        return [f"{where}: host.sim_cycles_skipped ({skipped}) is not "
                f"within [0, host.sim_cycles == {cycles}]"]
    return []


def validate(doc, where):
    """Return a list of error strings (empty when the doc is valid)."""
    errors = []
    if not isinstance(doc, dict):
        return [f"{where}: document is not a JSON object"]
    errors += validate_host(doc, where)

    version = doc.get("schemaVersion")
    if version != EXPECTED_VERSION:
        fail(errors, f"{where}: schemaVersion is {version!r}, "
                     f"expected {EXPECTED_VERSION}")

    config = doc.get("config")
    mode = "detailed"
    if not isinstance(config, dict):
        fail(errors, f"{where}: missing config object")
    else:
        mode = config.get("mode", "detailed")
        if mode not in MODES:
            fail(errors, f"{where}: config.mode is {mode!r}, "
                         f"expected one of {MODES}")
            mode = "detailed"
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        fail(errors, f"{where}: missing summary object")
    else:
        for key in ("cycles", "insts", "ipc"):
            if not is_num(summary.get(key)):
                fail(errors, f"{where}: summary.{key} is not a number")

    if mode != "detailed":
        errors += validate_sampling(doc, where)
        if "cpu" in doc and not isinstance(doc.get("cpu"), dict):
            fail(errors, f"{where}: cpu is not a group")
        return errors

    cpu = doc.get("cpu")
    if not isinstance(cpu, dict):
        fail(errors, f"{where}: missing cpu stats group")
        return errors
    cycles = cpu.get("cycles")
    if not is_num(cycles):
        fail(errors, f"{where}: cpu.cycles is not a number")
        return errors
    if isinstance(summary, dict) and summary.get("cycles") != cycles:
        fail(errors, f"{where}: summary.cycles ({summary.get('cycles')})"
                     f" != cpu.cycles ({cycles})")

    accounting = cpu.get("cycle_accounting")
    if not isinstance(accounting, dict):
        fail(errors, f"{where}: missing cpu.cycle_accounting group")
        return errors
    taxonomy = accounting.get("taxonomy")
    if not isinstance(taxonomy, dict):
        fail(errors, f"{where}: missing cycle_accounting.taxonomy "
                     f"group")
        return errors
    machine = flat_leaves(taxonomy)
    if sum(machine.values()) != cycles:
        fail(errors, f"{where}: taxonomy leaves sum to "
                     f"{sum(machine.values())}, expected cpu.cycles == "
                     f"{cycles}")
    for name, sub in taxonomy.items():
        if not name.startswith("thread"):
            continue
        if not isinstance(sub, dict):
            fail(errors, f"{where}: taxonomy.{name} is not a group")
            continue
        tsum = sum(flat_leaves(sub, skip_threads=False).values())
        if tsum != cycles:
            fail(errors, f"{where}: taxonomy.{name} leaves sum to "
                         f"{tsum}, expected cpu.cycles == {cycles}")
    for bucket, leaves in REFINEMENT.items():
        parts = sum(machine.get(leaf, 0) for leaf in leaves)
        if accounting.get(bucket) != parts:
            fail(errors, f"{where}: cycle_accounting.{bucket} is "
                         f"{accounting.get(bucket)!r}, but its leaves "
                         f"({' + '.join(leaves)}) sum to {parts}")

    intervals = doc.get("intervals")
    if intervals is not None:
        if not isinstance(intervals, list):
            fail(errors, f"{where}: intervals is not an array")
            return errors
        prev_cum = 0
        for i, rec in enumerate(intervals):
            tag = f"{where}: intervals[{i}]"
            if not isinstance(rec, dict):
                fail(errors, f"{tag}: not an object")
                continue
            for key in ("start_cycle", "end_cycle", "committed",
                        "committed_cum"):
                if not is_num(rec.get(key)):
                    fail(errors, f"{tag}: {key} is not a number")
            cum = rec.get("committed_cum")
            if is_num(cum):
                if cum <= prev_cum:
                    fail(errors, f"{tag}: committed_cum {cum} does "
                                 f"not increase (previous {prev_cum})")
                prev_cum = cum
            if (is_num(rec.get("start_cycle")) and
                    is_num(rec.get("end_cycle")) and
                    rec["end_cycle"] < rec["start_cycle"]):
                fail(errors, f"{tag}: end_cycle precedes start_cycle")
            partial = rec.get("partial")
            if not isinstance(partial, bool):
                fail(errors, f"{tag}: partial flag is not a boolean")
            elif partial and i != len(intervals) - 1:
                fail(errors, f"{tag}: partial on a non-final record")
    return errors


def check_file(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 2
    errors = validate(doc, path)
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    if not errors:
        print(f"{path}: OK (schemaVersion {EXPECTED_VERSION})")
    return 1 if errors else 0


def make_valid_doc():
    leaves = {
        "retiring": 60, "idle": 0,
        "frontend_bound": {"icache": 5, "fetch": 10},
        "bad_speculation": {"recovery": 0},
        "backend_core": {"exec": 10, "rename_freelist": 0},
        "backend_memory": {"dcache": 10, "store_drain": 0,
                           "fill_latency": 0, "spill_stall": 5,
                           "window_trap": 0},
    }
    thread0 = json.loads(json.dumps(leaves))
    return {
        "schemaVersion": 3,
        "config": {"arch": "vca", "regs": 192, "threads": 1,
                   "mode": "detailed"},
        "summary": {"cycles": 100, "insts": 60, "ipc": 0.6},
        "cpu": {
            "cycles": 100,
            "cycle_accounting": {
                "commit_active": 60, "mem_stall": 10, "exec_stall": 10,
                "rename_freelist": 5, "window_shift": 0,
                "frontend": 15,
                "taxonomy": dict(leaves, thread0=thread0),
            },
        },
        "intervals": [
            {"interval": 0, "start_cycle": 0, "end_cycle": 50,
             "committed": 30, "committed_cum": 30, "ipc": 0.6,
             "partial": False},
            {"interval": 1, "start_cycle": 50, "end_cycle": 100,
             "committed": 30, "committed_cum": 60, "ipc": 0.6,
             "partial": True},
        ],
    }


def make_sampled_doc():
    def rec(i, cpi):
        return {"start_inst": 10000 + 10000 * i, "warm_cycles": 3200,
                "warm_insts": 3000, "cycles": int(cpi * 2000),
                "insts": 2000, "cpi": cpi,
                "tag_valid_fraction": 0.4 + 0.1 * i,
                "bpred_table_occupancy": 0.1 + 0.05 * i,
                "phase": -1, "weight": 1.0}
    return {
        "schemaVersion": 3,
        "config": {"arch": "vca", "regs": 192, "threads": 1,
                   "mode": "sampled", "sample_period": 10000,
                   "sample_quantum": 2000},
        "summary": {"cycles": 6100, "insts": 6000, "ipc": 0.9836,
                    "cpi": 1.0167},
        "sampling": {
            "samples": 3, "mean_cpi": 1.0167,
            "cpi_variance": 0.000433,
            "ci_lo_cpi": 0.965, "ci_hi_cpi": 1.068,
            "ci_unbounded": False,
            "ipc_ci_lo": 0.9363, "ipc_ci_hi": 1.0363,
            "mean_tag_valid_fraction": 0.5,
            "mean_bpred_table_occupancy": 0.15,
            "records": [rec(0, 1.0), rec(1, 1.01), rec(2, 1.04)],
        },
    }


def selftest():
    failures = []

    def expect(doc, ok, what):
        errors = validate(doc, what)
        if bool(errors) == ok:
            failures.append(f"{what}: expected "
                            f"{'OK' if ok else 'errors'}, got "
                            f"{errors or 'OK'}")

    expect(make_valid_doc(), True, "valid document")

    doc = make_valid_doc()
    doc["schemaVersion"] = 1
    expect(doc, False, "wrong schemaVersion")

    doc = make_valid_doc()
    doc["cpu"]["cycle_accounting"]["mem_stall"] += 1
    expect(doc, False, "broken flat partition")

    # Moving cycles between two buckets keeps both partitions whole;
    # only the refinement equalities notice.
    doc = make_valid_doc()
    doc["cpu"]["cycle_accounting"]["mem_stall"] += 5
    doc["cpu"]["cycle_accounting"]["rename_freelist"] -= 5
    expect(doc, False, "broken refinement")

    doc = make_valid_doc()
    doc["cpu"]["cycle_accounting"]["taxonomy"]["retiring"] -= 1
    expect(doc, False, "broken taxonomy partition")

    doc = make_valid_doc()
    doc["cpu"]["cycle_accounting"]["taxonomy"]["thread0"]["retiring"] \
        += 3
    expect(doc, False, "broken per-thread taxonomy partition")

    # An all-zero taxonomy partitions nothing.
    doc = make_valid_doc()
    tax = doc["cpu"]["cycle_accounting"]["taxonomy"]

    def zero(group):
        for key, value in group.items():
            if isinstance(value, dict):
                zero(value)
            else:
                group[key] = 0
    zero(tax)
    expect(doc, False, "all-zero taxonomy")

    doc = make_valid_doc()
    doc["intervals"][1]["committed_cum"] = 30
    expect(doc, False, "non-increasing committed_cum")

    doc = make_valid_doc()
    doc["intervals"][0]["partial"] = True
    expect(doc, False, "partial flag on a non-final interval")

    doc = make_valid_doc()
    del doc["intervals"]
    expect(doc, True, "document without intervals")

    doc = make_valid_doc()
    doc["host"] = {"sim_cycles": 100, "sim_cycles_skipped": 61,
                   "sim_seconds": 0.01}
    expect(doc, True, "host group with skipped cycles")

    doc = make_valid_doc()
    doc["host"] = {"sim_cycles": 100, "sim_cycles_skipped": 101}
    expect(doc, False, "more cycles skipped than simulated")

    expect(make_sampled_doc(), True, "valid sampled document")

    doc = make_sampled_doc()
    doc["config"]["mode"] = "simpoint"
    expect(doc, True, "valid simpoint document")

    doc = make_sampled_doc()
    doc["config"]["mode"] = "interleaved"
    expect(doc, False, "unknown config.mode")

    doc = make_sampled_doc()
    del doc["sampling"]
    expect(doc, False, "non-detailed document without sampling")

    doc = make_sampled_doc()
    doc["sampling"]["ci_lo_cpi"] = 1.5
    expect(doc, False, "CI that does not bracket the mean")

    # An inverted IPC interval, as a CPI upper bound once serialized
    # as an IPC upper bound of 0 produced.
    doc = make_sampled_doc()
    doc["sampling"]["ipc_ci_lo"] = 0.2139
    doc["sampling"]["ipc_ci_hi"] = 0
    expect(doc, False, "inverted IPC interval")

    doc = make_sampled_doc()
    doc["sampling"]["ci_lo_cpi"] = 0
    doc["sampling"]["ipc_ci_hi"] = None
    expect(doc, True, "IPC interval unbounded above (null)")

    doc = make_sampled_doc()
    del doc["sampling"]["ipc_ci_lo"]
    expect(doc, False, "missing ipc_ci_lo")

    doc = make_sampled_doc()
    doc["sampling"]["records"].pop()
    expect(doc, False, "records/samples count mismatch")

    doc = make_sampled_doc()
    del doc["sampling"]["records"][0]["cpi"]
    expect(doc, False, "record missing a field")

    doc = make_sampled_doc()
    doc["sampling"]["mean_tag_valid_fraction"] = 1.5
    expect(doc, False, "warmth fraction outside [0, 1]")

    doc = make_sampled_doc()
    doc["sampling"]["samples"] = 1
    doc["sampling"]["records"] = doc["sampling"]["records"][:1]
    expect(doc, False, "n=1 without the ci_unbounded flag")

    doc = make_sampled_doc()
    doc["sampling"]["samples"] = 1
    doc["sampling"]["records"] = doc["sampling"]["records"][:1]
    doc["sampling"]["ci_unbounded"] = True
    doc["sampling"]["ci_lo_cpi"] = doc["sampling"]["mean_cpi"] = 1.0
    doc["sampling"]["ci_hi_cpi"] = 1.0
    expect(doc, True, "n=1 flagged unbounded")

    for msg in failures:
        print(f"selftest: FAILED: {msg}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "--selftest":
        return selftest()
    status = 0
    for path in argv[1:]:
        status = max(status, check_file(path))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
