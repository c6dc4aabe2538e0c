"""Fig 7 — iteration speed of local dataloaders (img/s, higher better).

Paper setup: 50,000 randomly generated 250x250x3 JPEG images on local
disk, one epoch through each loader on a p3.2xlarge, no model.  Scaled
default: N=200 at 96x96.  Expected shape: deeplake and ffcv lead,
squirrel/webdataset next, one-file-per-sample "pytorch" folder loader
last.

Wall-clock img/s on a shared few-core box is reported, not asserted: what
the test pins is deterministic — every loader delivers all N samples per
epoch, and Deep Lake fetches each chunk from storage once.
"""

from collections import Counter

import numpy as np
import pytest

import repro
from benchmarks.conftest import print_table, scaled
from repro.baselines import (
    FFCVLoader,
    ImageFolderLoader,
    SquirrelLoader,
    WebDatasetLoader,
    squirrel_like,
    webdataset_like,
    write_beton,
)
from repro.workloads import imagenet_like
from repro.workloads.builders import build_image_classification_dataset, \
    write_imagefolder

N = scaled(200, minimum=40)
RES = 96
BATCH = 16
WORKERS = 4
_RESULTS = {}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """All format layouts of the same synthetic corpus, built once."""
    root = tmp_path_factory.mktemp("fig7")
    pairs = list(imagenet_like(N, seed=0, base=RES, ragged=False))
    write_imagefolder(str(root / "folder"), N, seed=0, base=RES,
                      ragged=False)
    webdataset_like.write_shards(str(root / "wds"), pairs,
                                 samples_per_shard=64)
    write_beton(str(root / "d.beton"), pairs)
    from repro.compression import compress_array

    squirrel_like.write_shards(
        str(root / "sq"),
        # jpeg-in-msgpack layout: all loaders pay the same decode cost
        ({"image": compress_array(im, "jpeg"), "label": lb}
         for im, lb in pairs),
        records_per_shard=64,
        compress=False,
    )
    ds = build_image_classification_dataset(
        str(root / "dl"), N, seed=0, base=RES, ragged=False,
        max_chunk_size=1 << 20,
    )
    return {"root": root, "ds": ds}


def _epoch(iterator) -> int:
    count = 0
    for batch in iterator:
        labels = batch.get("label", batch.get("labels"))
        count += len(np.atleast_1d(labels))
    return count


def _run(name, benchmark, make_iter, rounds=3):
    def epoch():
        return _epoch(make_iter())

    count = benchmark.pedantic(epoch, rounds=rounds, iterations=1,
                               warmup_rounds=1)
    # each loader's best round: one round on a shared box is a coin toss
    _RESULTS[name] = N / benchmark.stats.stats.min
    assert count == N


def test_loader_deeplake(benchmark, corpora, monkeypatch):
    # a fresh handle: the writer's decoded cache holds every chunk it wrote
    ds = repro.load(str(corpora["root"] / "dl"), read_only=True)
    storage, gets = ds.storage, Counter()
    get = storage._get

    def counting_get(key, start, end):
        if start is None and end is None:
            gets[key] += 1
        return get(key, start, end)

    monkeypatch.setattr(storage, "_get", counting_get)
    _run(
        "deeplake", benchmark,
        lambda: ds.dataloader(batch_size=BATCH, shuffle=True, seed=0,
                              num_workers=WORKERS),
    )
    chunks = {key for key in storage._all_keys() if "/chunks/" in key}
    assert len(chunks) > 1
    # every round, the warm-up included, and every worker: one GET a chunk
    assert {key: n for key, n in gets.items() if "/chunks/" in key} == (
        dict.fromkeys(chunks, 1)
    )


def test_loader_ffcv(benchmark, corpora):
    path = str(corpora["root"] / "d.beton")
    _run(
        "ffcv", benchmark,
        lambda: FFCVLoader(path, num_workers=WORKERS,
                           seed=0).iter_batches(BATCH),
    )


def test_loader_webdataset(benchmark, corpora):
    path = str(corpora["root"] / "wds")
    _run(
        "webdataset", benchmark,
        lambda: WebDatasetLoader(path, shuffle_buffer=64,
                                 seed=0).iter_batches(BATCH),
    )


def test_loader_squirrel(benchmark, corpora):
    path = str(corpora["root"] / "sq")
    _run(
        "squirrel", benchmark,
        lambda: SquirrelLoader(path, num_workers=WORKERS,
                               seed=0).iter_batches(BATCH),
    )


def test_loader_pytorch_folder(benchmark, corpora):
    path = str(corpora["root"] / "folder")
    _run(
        "pytorch", benchmark,
        lambda: ImageFolderLoader(path, num_workers=WORKERS,
                                  seed=0).iter_batches(BATCH),
    )


def test_zz_fig7_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_RESULTS) < 5:
        pytest.skip("run the whole file to get the report")
    rows = [
        {"loader": name, "img_per_s": round(rate, 1)}
        for name, rate in sorted(_RESULTS.items(), key=lambda kv: -kv[1])
    ]
    print_table(
        f"Fig 7 | local dataloader iteration, {N} x {RES}^2 JPEG, "
        f"batch={BATCH}, workers={WORKERS} (higher=better)",
        rows,
        note="paper: deeplake > ffcv > squirrel/webdataset > pytorch folder "
             "(wall clock on this box: reported, not asserted)",
    )
    # every loader ran its epochs over all N samples (asserted per loader)
    assert set(_RESULTS) == {
        "deeplake", "ffcv", "webdataset", "squirrel", "pytorch"
    }
