"""How much AP does the score ordering leave on the table?

Re-ranking true-positive scores to perfectly agree (+1) or disagree (-1)
with IoU order gives upper and lower bounds on what score/quality
correlation can contribute.  AP at the matching threshold 0.50 does not
move at all -- the TP/FP pattern is untouched -- while the stricter
thresholds swing visibly.
"""

from corrdet import bound_report, coco_ap, synth


def row(label, ap):
    by_thr = dict(ap.per_threshold)
    return (f"  {label:10s} ap_c {ap.ap_c:.4f}"
            f"   ap_50 {by_thr[0.5]:.4f}   ap_75 {by_thr[0.75]:.4f}")


def main():
    ds = synth(seed=3, knob=0.0)
    base = coco_ap(ds.final_dets, ds.gts)
    plus = bound_report(ds, 1, level="class")
    minus = bound_report(ds, -1, level="class")

    print("class-level re-ranking on a noisy synthetic dataset:")
    print(row("observed", base))
    print(row("+1 bound", plus.ap_after))
    print(row("-1 bound", minus.ap_after))

    same = base.per_threshold[0][1] == plus.ap_after.per_threshold[0][1] == minus.ap_after.per_threshold[0][1]
    print(f"\n  ap_50 identical across all three: {same}")
    print(f"  beta_cls moves {minus.corr_after.beta:+.2f} <= "
          f"{plus.corr_before.beta:+.2f} <= {plus.corr_after.beta:+.2f}")
    print("\nthe +1/-1 gap at ap_75 is the headroom a correlation-aware")
    print("training signal can actually compete for.")


if __name__ == "__main__":
    main()
