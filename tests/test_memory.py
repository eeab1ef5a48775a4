"""Memory held by a stage and by a loaded model, read with tracemalloc (numpy reports its
array buffers to it). Each measurement follows a warm-up call, so first-call caches
inside numpy and Python do not count."""

import contextlib
import io
import math
import tracemalloc

import numpy as np

from xckit.attribution import integrated_gradients
from xckit.cli import main
from xckit.io_formats import load_model, save_model
from xckit.synth import SceneSpec, build_toy_model


@contextlib.contextmanager
def traced():
    """Yields a dict whose "current" and "peak" bytes, counted from the block's start,
    are filled in when the block ends."""
    out = {}
    tracemalloc.start()
    try:
        yield out
        out["current"], out["peak"] = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_attribute_peak_does_not_grow_with_the_store(tmp_path):
    # attribute holds one frame's pseudo-image at a time: 30 more frames may add their
    # records to its peak, but not 30 pseudo-images
    stores = {n: str(tmp_path / f"store{n}") for n in (10, 40)}
    peaks = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for n, store in stores.items():
            assert main(["synth", "--out", store, "--frames", str(n), "--seed", "0"]) == 0
        for i, n in enumerate((10, 10, 40)):  # the first call is the warm-up
            with traced() as mem:
                assert main(["attribute", "--frames", stores[n], "--jobs", "1",
                             "--out", str(tmp_path / f"attribs{i}")]) == 0
            peaks[n] = mem["peak"]
    pseudo_bytes = 4 * math.prod(build_toy_model(SceneSpec().grid).input_shape)  # float32
    assert peaks[40] - peaks[10] < 10 * pseudo_bytes, (peaks, pseudo_bytes)


def test_integrated_gradients_leaves_no_weight_copies(tmp_path):
    # float64 copies are made per array on first float64 use, and dense backward casts
    # only the columns it gathers, so an IG call copies no dense weight
    model = build_toy_model(SceneSpec().grid)
    path = str(tmp_path / "model.json")
    save_model(path, model)
    x = np.random.default_rng(0).random(model.input_shape)
    targets = [0, 7, 21]
    integrated_gradients(model, x, targets, steps=8)  # the warm-up
    with traced() as mem:
        loaded = load_model(path)
        integrated_gradients(loaded, x, targets, steps=8)
    f32_bytes = sum(layer.weight.nbytes + layer.bias.nbytes
                    for layer in loaded.layers if hasattr(layer, "weight"))
    assert mem["current"] < 1.5 * f32_bytes, (mem["current"], f32_bytes)
