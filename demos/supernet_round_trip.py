"""Tour of the weight-sharing supernet's elastic-kernel bookkeeping.

Shows the center-slice geometry, the per-size transformation matrices,
and the extract / train / write-back cycle that keeps every kernel size
consistent with the shared 65-row store.
"""

import numpy as np

from opnas.model import ModelConfig
from opnas.search_space import KERNEL_MENU, BackboneSpec, LayerSpec, autobert_zero_backbone
from opnas.supernet import (
    center_slice,
    init_candidate,
    init_supernet,
    write_back,
)


def main():
    config = ModelConfig(num_layers=4, d_model=32, n_heads=2)
    sn = init_supernet(config, rng=0)

    # ------------------------------------------------------------------
    # every kernel size k reads k centered rows of the same 65-row store
    print("center slices into the 65-row kernel store:")
    for k in KERNEL_MENU:
        sl = center_slice(k)
        print(f"  k={k:>2}: rows [{sl.start}, {sl.stop})")

    # ------------------------------------------------------------------
    # a k-tap layer convolves with T @ S: its k x k transform T times the
    # store's k center rows S; write-back solves T^-1 (T S) back into them
    rng = np.random.default_rng(1)
    k = 9
    sl = center_slice(k)
    spec = BackboneSpec((LayerSpec.conv(k),) * config.num_layers)
    kernel, transform = "layer0.conv.kernel", f"layer0.conv.transform.{k}"
    flanks_before = np.delete(sn.store[kernel], np.r_[sl], axis=0)
    before = init_candidate(sn, spec)
    trained = {kernel: before[kernel] + 0.05 * rng.normal(size=before[kernel].shape),
               transform: np.eye(k) + 0.2 * rng.normal(size=(k, k))}
    write_back(sn, trained)
    after = init_candidate(sn, spec)
    print(f"\nk={k} round trip: |extracted T @ S - trained T @ S| max "
          f"{np.abs(after[transform] @ after[kernel] - trained[transform] @ trained[kernel]).max():.2e}")
    print(f"layer versions after one write-back: {sn.versions}")

    # only the k centered rows moved; the flanks belong to larger sizes
    flanks_after = np.delete(sn.store[kernel], np.r_[sl], axis=0)
    print(f"store rows outside [{sl.start}, {sl.stop}) unchanged: "
          f"{bool((flanks_before == flanks_after).all())}")

    # ------------------------------------------------------------------
    # a candidate pulls its whole parameter set out of the supernet, as
    # read-only views that build_model copies once
    spec = autobert_zero_backbone(4)
    params = init_candidate(sn, spec)
    kinds = [layer.kind for layer in spec.layers]
    print(f"\ncandidate layers {kinds}: {len(params)} parameter arrays, "
          f"{sum(p.size for p in params.values())} scalars")
    for name in sorted(params)[:6]:
        print(f"  {name}: {params[name].shape}")
    print("  ...")


if __name__ == "__main__":
    main()
