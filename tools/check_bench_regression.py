#!/usr/bin/env python3
"""Perf-regression gate over BENCH_runtime.json, run by CI bench smoke.

Compares a freshly generated BENCH_runtime.json against the committed
baseline and fails when any machine-normalized throughput ratio drops
by more than the threshold (default 15%). Only ratio metrics are
compared — speedup-vs-reference numbers measured on the *same* run of
the *same* machine — never absolute seconds, so a slower CI runner
cannot fail the gate but a genuinely regressed kernel will.

Rows are matched by (section, shape, isa, threads); rows present in
only one file (a quick run's subset, a tier the runner lacks, thread
counts the runner cannot honestly measure) are skipped. At least one
row must match, otherwise the comparison is vacuous and the gate
fails loudly instead of green-washing. Within a matched row every
baseline metric must be present in the fresh row: a gated ratio that
disappears from the bench fails as missing (the one exception is an
<isa>_vs_scalar_1t summary ratio for a tier the fresh run's
simd.supported lacks).

Escape hatch: set M2X_BENCH_BASELINE_SKIP=1 to skip the comparison
(documented in BUILDING.md — for intentional perf-trajectory resets
where the baseline itself is being recommitted).

Usage:
  tools/check_bench_regression.py --fresh NEW.json \
      [--baseline BENCH_runtime.json] [--threshold 0.15]
"""

import argparse
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# section -> (shape keys, per-row keys, ratio metrics). The shape keys
# identify the outer entry, the row keys identify one measurement in
# its "results" list, and the metrics are the machine-normalized
# ratios compared across runs.
GEMM = (("m", "n", "k"), ("isa", "threads"),
        ("speedup_vs_ref_gemm", "speedup_vs_unpack_gemm"))
PACK = (("rows", "cols"), ("isa", "threads"),
        ("speedup_vs_functional",))
FWD = (("m", "n", "k"), ("threads",), ("speedup_vs_ref",))

# Per-metric overrides of the default --threshold. packed_vs_fp32
# times two single-query attends (packed flash, fp32 oracle) in
# interleaved windows — ~60 us and ~250 us of work at the 256
# context — and still swings run to run: 16 quick runs of one binary
# on one shared 4-vCPU VM spanned 3.66-4.73 at context 256 (a 23%
# drop between two runs) and 4.01-4.83 at 1024. The band still
# catches a real regression: losing the packed attend's advantage
# reads ~1x against a committed ratio of ~5x.
METRIC_THRESHOLDS = {"packed_vs_fp32": 0.25}

# Per-tier GEMM summary ratios: absent (not regressed) when the fresh
# run's machine lacks the tier.
TIER_SUMMARY = {"avx2_vs_scalar_1t": "avx2",
                "avx512_vs_scalar_1t": "avx512"}


def row_index(doc, section, shape_keys, row_keys, metrics):
    """(section, shape..., row...) -> {metric: value}."""
    out = {}
    for entry in doc.get(section, []):
        shape = tuple(entry[k] for k in shape_keys)
        for row in entry.get("results", []):
            key = (section, shape, tuple(row[k] for k in row_keys))
            out[key] = {m: row[m] for m in metrics if m in row}
    return out


def ratio_rows(doc):
    rows = row_index(doc, "gemm", *GEMM)
    rows.update(row_index(doc, "pack_activations", *PACK))
    rows.update(row_index(doc, "forward", *FWD))
    # Per-shape GEMM tier ratios (1 thread, vector vs scalar).
    for entry in doc.get("gemm", []):
        shape = tuple(entry[k] for k in GEMM[0])
        summary = {m: entry[m] for m in TIER_SUMMARY if m in entry}
        if summary:
            rows[("gemm", shape, ("summary",))] = summary
    # Whole-model and decode sections are single rows. Their shape
    # keys carry the full workload (quick mode shrinks the model and
    # the token counts), so a quick run never matches — and never
    # falsely gates against — a full-run baseline row.
    model = doc.get("model", {})
    if "speedup_vs_ref" in model:
        rows[("model",
              (model.get("name"), model.get("batch"),
               model.get("seq_len")),
              (model.get("isa"), model.get("threads")))] = {
                  "speedup_vs_ref": model["speedup_vs_ref"]
              }
    dec = doc.get("decode", {})
    if "packed_vs_fp32_tokens_per_s" in dec:
        rows[("decode",
              (dec.get("model"), dec.get("layers"), dec.get("batch"),
               dec.get("prefill_tokens"), dec.get("decode_steps")),
              (dec.get("isa"), dec.get("threads")))] = {
                  "packed_vs_fp32_tokens_per_s":
                      dec["packed_vs_fp32_tokens_per_s"]
              }
    # Long-context packed_vs_fp32 rows are keyed (context, window_s,
    # isa, threads): the packed flash attend against the fp32 oracle
    # attend of the same run, so runner-speed independent. Quick and
    # full runs share the window length, so quick rows match the
    # full-run baseline; a different window never gates.
    lc = doc.get("long_context", {})
    for row in lc.get("packed_vs_fp32", []):
        rows[("long_context", (row.get("context"), row.get("window_s")),
              (row.get("isa"), row.get("threads")))] = {
                  "packed_vs_fp32": row["ratio"]
              } if "ratio" in row else {}
    # The serving bench (BENCH_serving.json) is likewise one row per
    # run, keyed by the whole Poisson workload + arena geometry so a
    # --quick run can never match a full-run baseline. Both ratios
    # compare the packed and fp32 runs of the same invocation on the
    # same machine, so they are runner-speed independent.
    srv = doc.get("serving", {})
    if "packed_vs_fp32_tokens_per_s" in srv:
        rows[("serving",
              (srv.get("model"), srv.get("layers"),
               srv.get("requests"), srv.get("mean_gap_steps"),
               tuple(srv.get("prompt_tokens", [])),
               tuple(srv.get("gen_tokens", [])),
               srv.get("page_rows"), srv.get("arena_pages"),
               srv.get("max_batch")),
              (srv.get("isa"), srv.get("threads")))] = {
                  m: srv[m]
                  for m in ("packed_vs_fp32_tokens_per_s",
                            "concurrent_vs_fp32_capacity")
                  if m in srv
              }
    return rows


def check_cross_format(fresh_doc, base_doc):
    """Structural + accuracy gate over the cross_format section.

    The section commits one row per packed codec: the GEMM accuracy
    against fp32 (a machine-independent property of the format, so it
    IS compared across runs, unlike the throughput ratios) and decode
    tokens/s (only checked for being positive — absolute speed never
    gates). Rows are emitted in ascending rel_rmse order by the
    bench; the gate re-asserts the ordering so a codec whose kernels
    silently lost accuracy cannot keep its committed rank.
    """
    errors = []
    rows = fresh_doc.get("cross_format", [])
    if len(rows) < 3:
        return [f"cross_format: {len(rows)} format row(s), "
                "need >= 3"]
    prev_rel = None
    for row in rows:
        fmt = row.get("format", "?")
        tps = row.get("decode_tokens_per_s", 0)
        if not tps > 0:
            errors.append(f"cross_format/{fmt}: non-positive "
                          f"decode_tokens_per_s ({tps})")
        rel = row.get("gemm_rel_rmse_vs_fp32")
        if rel is None or not 0 < rel < 1:
            errors.append(f"cross_format/{fmt}: "
                          f"gemm_rel_rmse_vs_fp32 out of (0, 1): "
                          f"{rel}")
            continue
        if prev_rel is not None and rel < prev_rel:
            errors.append(f"cross_format/{fmt}: rows not in "
                          f"ascending rel_rmse order ({rel:.6f} "
                          f"after {prev_rel:.6f})")
        prev_rel = rel
    # Accuracy vs the committed baseline: the operands are fixed in
    # the bench, so rel_rmse only moves if a codec's quantize/decode
    # math changed (vector-tier reassociation is ~1e-6, far below
    # the 1% band).
    base_rows = {r.get("format"): r
                 for r in base_doc.get("cross_format", [])}
    for row in rows:
        b = base_rows.get(row.get("format"))
        if b is None or "gemm_rel_rmse_vs_fp32" not in b:
            continue
        fv, bv = row["gemm_rel_rmse_vs_fp32"], \
            b["gemm_rel_rmse_vs_fp32"]
        if bv > 0 and abs(fv - bv) / bv > 0.01:
            errors.append(
                f"cross_format/{row['format']}: accuracy moved "
                f"{bv:.6f} -> {fv:.6f} (> 1%) — codec math changed")
    if not errors:
        print(f"check_bench_regression: cross_format ok "
              f"({len(rows)} formats, accuracy order "
              + " <= ".join(r['format'] for r in rows) + ")")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True,
                    help="freshly generated BENCH_runtime.json")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline (default: the repo-root "
                         "file matching the fresh doc's bench id — "
                         "BENCH_serving.json for serving_runtime, "
                         "else BENCH_runtime.json)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max fractional drop before failing "
                         "(default 0.15)")
    args = ap.parse_args()

    if os.environ.get("M2X_BENCH_BASELINE_SKIP"):
        print("check_bench_regression: M2X_BENCH_BASELINE_SKIP set "
              "- skipping baseline comparison")
        return 0

    fresh_doc = json.load(open(args.fresh))
    if args.baseline is None:
        name = ("BENCH_serving.json"
                if fresh_doc.get("bench") == "serving_runtime"
                else "BENCH_runtime.json")
        args.baseline = str(REPO / name)
    base_doc = json.load(open(args.baseline))
    fresh = ratio_rows(fresh_doc)
    base = ratio_rows(base_doc)
    fresh_tiers = set(fresh_doc.get("simd", {}).get("supported", []))

    # The runtime bench must carry a valid cross_format section; the
    # serving bench (own baseline file) has none.
    cf_failures = []
    if fresh_doc.get("bench") != "serving_runtime":
        cf_failures = check_cross_format(fresh_doc, base_doc)

    matched = 0
    matched_rows = 0
    failures = []
    for key, base_metrics in sorted(base.items()):
        fresh_metrics = fresh.get(key)
        if fresh_metrics is None:
            continue
        matched_rows += 1
        for metric, base_v in base_metrics.items():
            tag = "/".join(str(p) for p in
                           (key[0], *key[1], *key[2], metric))
            fresh_v = fresh_metrics.get(metric)
            if fresh_v is None:
                tier = TIER_SUMMARY.get(metric)
                if tier is None or tier in fresh_tiers:
                    failures.append(f"FAIL {tag}: missing from the "
                                    "fresh run")
                continue
            if base_v <= 0:
                continue
            matched += 1
            drop = 1.0 - fresh_v / base_v
            threshold = METRIC_THRESHOLDS.get(metric, args.threshold)
            if drop > threshold:
                failures.append(
                    f"FAIL {tag}: {base_v:.3f} -> {fresh_v:.3f} "
                    f"({100 * drop:.1f}% drop > "
                    f"{100 * threshold:.0f}%)")
            else:
                # Per-row delta on success too, so CI logs show
                # exactly what the gate compared and by how much
                # each ratio moved (+ = faster than baseline).
                print(f"  ok {tag}: {base_v:.3f} -> {fresh_v:.3f} "
                      f"({100 * -drop:+.1f}%)")

    failures.extend(cf_failures)
    if matched == 0:
        print("check_bench_regression: no comparable rows between "
              f"{args.fresh} and {args.baseline} - the gate would be "
              "vacuous. Regenerate the baseline on comparable "
              "hardware or set M2X_BENCH_BASELINE_SKIP=1.")
        return 1
    if failures:
        print(f"\n{len(failures)} failure(s): regressions past the "
              f"{100 * args.threshold:.0f}% threshold or missing "
              "metrics:")
        for f in failures:
            print(" ", f)
        print("If the drop is intentional, recommit the baseline "
              "and/or set M2X_BENCH_BASELINE_SKIP=1 for this run "
              "(see BUILDING.md).")
        return 1
    print(f"check_bench_regression: {matched} metric(s) across "
          f"{matched_rows} matched row(s), no regression past the "
          f"{100 * args.threshold:.0f}% threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
