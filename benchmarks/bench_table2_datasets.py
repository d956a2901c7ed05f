"""Table II: dataset characteristics.

Regenerates the dataset inventory (length, feature count, context
count) from the registry and checks it against the paper's values.
"""

from __future__ import annotations

from _harness import render_table, save_bench_json, save_table

from repro.streams.datasets import PAPER_DATASETS, dataset_info, make_dataset

#: (length, n_features, n_contexts) as printed in the paper's Table II.
PAPER_TABLE2 = {
    "AQTemp": (24000, 25, 6),
    "AQSex": (24000, 25, 6),
    "Arabic": (8800, 10, 10),
    "CMC": (1473, 8, 2),
    "QG": (4010, 63, 10),
    "UCI-Wine": (6498, 11, 2),
    "RBF": (30000, 10, 6),
    "RTREE": (30000, 10, 6),
    "STAGGER": (30000, 3, 3),
    "HPLANE-U": (30000, 10, 6),
    "RTREE-U": (30000, 10, 6),
}


def build_table2() -> str:
    rows = []
    for name in PAPER_DATASETS:
        spec = dataset_info(name)
        stream = make_dataset(name, seed=0, segment_length=10, n_repeats=1)
        paper_len, paper_feat, paper_ctx = PAPER_TABLE2[name]
        assert spec.paper_length == paper_len
        assert stream.meta.n_features == paper_feat
        assert stream.meta.n_concepts == paper_ctx
        rows.append(
            [
                name,
                str(spec.paper_length),
                str(spec.n_features),
                str(spec.n_contexts),
                str(spec.n_classes),
                spec.drift_type,
            ]
        )
    return render_table(
        "Table II: dataset characteristics",
        ["Dataset", "Length", "#features", "#contexts", "#classes", "drift"],
        rows,
        notes=(
            "Length/#features/#contexts match the paper exactly; #classes "
            "and the dominant drift type (Table IV segmentation) are "
            "properties of the generative stand-ins (see the "
            "repro.streams.realworld module docstring)."
        ),
    )


def test_table2_dataset_characteristics(benchmark):
    content = benchmark.pedantic(build_table2, rounds=1, iterations=1)
    save_table("table2_datasets.txt", content)
    save_bench_json("table2_datasets")
    assert "STAGGER" in content
