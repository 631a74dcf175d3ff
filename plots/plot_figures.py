#!/usr/bin/env python3
"""Plot the reproduced figures from the JSON the bench binaries write.

Usage:
    mkdir -p figdata
    for b in fig6_kernel_bandwidth fig7_pack_unpack fig8_vs_memcpy2d \\
             fig9_pcie_pingpong fig10_pingpong fig11_vector_contig \\
             fig12_transpose; do
      ./build/bench/bench_$b --benchmark_out=figdata/bench_$b.json \\
          --benchmark_out_format=json
    done
    python3 plots/plot_figures.py figdata out

Produces one PNG per paper figure in `out/`. Every series is loaded
before matplotlib is imported, so a missing file or benchmark fails
even where matplotlib is not installed.
"""
import json
import os
import sys

# One entry per PNG: the bench whose JSON it reads, the y metric (virtual
# "ms" per iteration or the "gbps" counter) and its (series, label) lines.
# A series is a benchmark name up to its last argument: fig8's
# "BM_Fig8_kernel_d2d/8192" plots the block sizes of the 8192-block panel.
FIGURES = [
    dict(bench="bench_fig6_kernel_bandwidth", png="fig6_kernel_bandwidth.png",
         title="Fig 6: GPU memory bandwidth of packing kernels",
         xlabel="matrix order N", metric="gbps",
         lines=[("BM_Fig6_C_cudaMemcpy", "C (cudaMemcpy)"), ("BM_Fig6_V", "V"),
                ("BM_Fig6_T", "T"), ("BM_Fig6_T_stair", "T-stair")]),
    dict(bench="bench_fig7_pack_unpack", png="fig7_pack_unpack.png",
         title="Fig 7: pack+unpack time of the datatype engine",
         xlabel="matrix order N", metric="ms", logy=True,
         lines=[("BM_Fig7_V_d2d", "V-d2d"), ("BM_Fig7_T_d2d", "T-d2d"),
                ("BM_Fig7_T_d2d_pipeline", "T-d2d-pipeline"),
                ("BM_Fig7_T_d2d_cached", "T-d2d-cached"),
                ("BM_Fig7_V_d2d2h", "V-d2d2h"), ("BM_Fig7_V_cpy", "V-cpy")]),
    dict(bench="bench_fig8_vs_memcpy2d", png="fig8_vs_memcpy2d.png",
         title="Fig 8: vector kernel vs cudaMemcpy2D (8192 blocks)",
         xlabel="block size (bytes)", metric="gbps", logx=True,
         lines=[("BM_Fig8_kernel_d2d/8192", "kernel d2d"),
                ("BM_Fig8_mcp2d_d2d/8192", "cudaMemcpy2D d2d"),
                ("BM_Fig8_kernel_d2h_zero_copy/8192",
                 "kernel d2h (zero-copy)"),
                ("BM_Fig8_mcp2d_d2h/8192", "cudaMemcpy2D d2h")]),
    dict(bench="bench_fig9_pcie_pingpong", png="fig9_pcie_bandwidth.png",
         title="Fig 9: PCI-E bandwidth of the ping-pong",
         xlabel="matrix order N", metric="gbps",
         lines=[("BM_Fig9_C", "C"), ("BM_Fig9_V", "V"), ("BM_Fig9_T", "T")]),
] + [
    dict(bench="bench_fig10_pingpong", png=f"fig10{panel}.png",
         title=f"Fig 10({panel[0]}): ping-pong", xlabel="matrix order N",
         metric="ms", logy=True,
         lines=[(f"BM_Fig10_{topo}_{t}{impl}", f"{t}{label}")
                for impl, label in (("", ""), ("_MVAPICH", " mvapich"))
                for t in ("V", "T")])
    for panel, topo in (("a_sm_1gpu", "SM_1GPU"), ("b_sm_2gpu", "SM_2GPU"),
                        ("c_ib", "IB"))
] + [
    dict(bench="bench_fig11_vector_contig", png="fig11_vector_contig.png",
         title="Fig 11: vector <-> contiguous ping-pong",
         xlabel="matrix order N", metric="ms", logy=True,
         lines=[("BM_Fig11_SM_VtoC", "SM (ours)"),
                ("BM_Fig11_SM_VtoC_MVAPICH", "SM (mvapich)"),
                ("BM_Fig11_IB_VtoC", "IB (ours)"),
                ("BM_Fig11_IB_VtoC_MVAPICH", "IB (mvapich)")]),
    dict(bench="bench_fig12_transpose", png="fig12_transpose.png",
         title="Fig 12: matrix transpose ping-pong",
         xlabel="matrix order N", metric="ms", logy=True,
         lines=[("BM_Fig12_SM_Transpose", "SM (ours)"),
                ("BM_Fig12_SM_Transpose_MVAPICH", "SM (mvapich)"),
                ("BM_Fig12_IB_Transpose", "IB (ours)")]),
]

YLABEL = {"ms": "ms (virtual)", "gbps": "GB/s"}
TIME_UNIT_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def load(path):
    """{benchmark name without google-benchmark's suffixes: metrics}."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        # "BM_X/2048/iterations:1/manual_time" -> "BM_X/2048"
        name = "/".join(p for p in b["run_name"].split("/")
                        if ":" not in p and not p.endswith("_time"))
        out[name] = {"ms": b["real_time"] * TIME_UNIT_MS[b["time_unit"]],
                     "gbps": b["GB/s"]}
    return out


def series(data, prefix, metric, path):
    """(x, y) points of every `prefix/<x>` benchmark, sorted by x."""
    pts = sorted((float(name[len(prefix) + 1:]), m[metric])
                 for name, m in data.items()
                 if name.startswith(prefix + "/")
                 and "/" not in name[len(prefix) + 1:])
    if not pts:
        sys.exit(f"{path}: no {prefix}/* benchmarks")
    return pts


def main():
    data_dir = sys.argv[1] if len(sys.argv) > 1 else "figdata"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "plots/out"
    loaded = {}
    for fig in FIGURES:
        path = os.path.join(data_dir, fig["bench"] + ".json")
        if path not in loaded:
            loaded[path] = load(path)
        fig["curves"] = [(label, series(loaded[path], prefix, fig["metric"],
                                        path))
                         for prefix, label in fig["lines"]]
    print(f"loaded {len(FIGURES)} figures from {len(loaded)} files "
          f"in {data_dir}/")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required to draw them: pip install matplotlib")

    os.makedirs(out_dir, exist_ok=True)
    for fig in FIGURES:
        f = plt.figure()
        ax = f.gca()
        for label, pts in fig["curves"]:
            ax.plot([x for x, _ in pts], [y for _, y in pts], marker="o",
                    label=label)
        ax.set_title(fig["title"])
        ax.set_xlabel(fig["xlabel"])
        ax.set_ylabel(YLABEL[fig["metric"]])
        if fig.get("logx"):
            ax.set_xscale("log")
        if fig.get("logy"):
            ax.set_yscale("log")
        ax.legend()
        ax.grid(True, alpha=0.3)
        f.tight_layout()
        f.savefig(os.path.join(out_dir, fig["png"]), dpi=140)
        plt.close(f)
        print(f"  {fig['png']}")
    print(f"plots written to {out_dir}/")


if __name__ == "__main__":
    main()
