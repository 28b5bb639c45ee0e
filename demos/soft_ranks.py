"""Differentiable ranks: from hard sorting to smooth pooling.

Soft ranks come from a regularized projection onto the permutahedron.
Small epsilon reproduces ordinary ranks bit-exactly; large epsilon pools
everything toward the average rank, and in between the ranks move
smoothly, which is what makes gradient descent through them possible.

At the default epsilon = 1, scores in [0, 1] (all but the pair {0, 1})
pool into one block, where the soft ranks are the scores shifted by a
constant.  The Spearman loss sees this from the spread of the scores and
skips the soft ranks: it is 1 - pearson(average_ranks(iou), score) bit for
bit, at any epsilon.
"""

import numpy as np

from corrdet import LossConfig, average_ranks, loss_from_arrays, pearson, soft_rank, soft_rank_vjp


def main():
    v = np.array([0.82, 0.15, 0.47, 0.51])
    print(f"values:          {v}")
    print(f"{'epsilon':>9}  ranks")
    for eps in (1e-4, 0.05, 0.3, 1.0, 10.0):
        r = soft_rank(v, eps)
        print(f"{eps:>9.4f}  {np.round(r.ranks, 3)}")
    print("tiny epsilon gives the hard ranks [4, 1, 2, 3];")
    print("huge epsilon pools everything toward 2.5\n")

    print("Exact ties share their average rank at any epsilon, also where")
    print("v / epsilon is so large that subtracting the hard ranks rounds away:")
    print(f"  soft_rank([5, 1, 5], 1e-4)      -> {soft_rank([5.0, 1.0, 5.0], 1e-4).ranks}")
    print(f"  soft_rank([1e17, 1e17, 0], 1.0) -> {soft_rank([1e17, 1e17, 0.0], 1.0).ranks}\n")

    print("The backward pass against finite differences (eps = 1.0):")
    u = np.array([1.0, -0.5, 2.0, 0.25])
    res = soft_rank(v, 1.0)
    analytic = soft_rank_vjp(res, u)
    h = 1e-6
    fd = np.empty_like(v)
    for i in range(len(v)):
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        fd[i] = (u @ soft_rank(vp, 1.0).ranks - u @ soft_rank(vm, 1.0).ranks) / (2 * h)
    print(f"  analytic: {np.round(analytic, 6)}")
    print(f"  numeric:  {np.round(fd, 6)}")
    print(f"  max abs difference: {np.abs(analytic - fd).max():.2e}\n")

    print("At epsilon = 1, scores in [0, 1] form one block: soft ranks are the")
    print("scores plus a constant, so the Spearman loss is the Pearson loss on")
    print("the IoU ranks against the raw scores, computed without soft ranks:")
    rng = np.random.default_rng(0)
    ious = rng.uniform(0.5, 1.0, 512)
    scores = 0.5 * (ious - 0.5) / 0.5 + 0.5 * rng.uniform(0.0, 1.0, 512)
    res = soft_rank(scores, 1.0)
    shift = res.ranks - scores
    print(f"  blocks: {res.blocks.max() + 1}, ranks - scores spans {np.ptp(shift):.1e}")
    loss = loss_from_arrays(ious, scores, LossConfig("spearman", 1.0)).value
    want = 1.0 - pearson(average_ranks(ious), scores)
    print(f"  {'Spearman loss:':<40} {loss!r}")
    print(f"  {'1 - pearson(average_ranks(iou), score):':<40} {want!r}")
    print(f"  equal bit for bit: {loss == want}")
    huge = loss_from_arrays([0.2, 0.5, 0.9], [0.9, 0.1, 0.5], LossConfig("spearman", 1e17)).value
    print(f"  at epsilon = 1e17 (scores / epsilon below an ulp of the ranks): {huge!r}")


if __name__ == "__main__":
    main()
