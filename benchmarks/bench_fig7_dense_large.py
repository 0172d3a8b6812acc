"""Figure 7 — denser graph (Twitter) and large graph (DBLP, 1M nodes).

Figure 7(a) varies the group size on the Twitter profile (the paper's
densest graph, avg degree ~43): "our KTG-VKC-DEG algorithm outperforms
KTG-VKC significantly".  Figure 7(b) varies the social constraint on
the large DBLP profile: "KTG-VKC-DEG-NLRNL shows good scalability on
the large graph, while KTG-VKC-NL is very slow ... with a large social
constraint" (the NL index pays on-demand expansion when k exceeds its
stored depth).
"""

from __future__ import annotations

import pytest

from conftest import register_bench_meta, run_point

register_bench_meta("fig7_dense_large", figure="7", title="dense (Twitter) and large (DBLP) graphs")
from repro.workloads.sweep import DEFAULTS

#: The large profile runs at a reduced scale to keep index build cost
#: inside the bench budget; it is still the largest graph in the suite.
LARGE_SCALE = 0.35
DENSE_SCALE = 0.35


@pytest.mark.parametrize(
    "algorithm", ["KTG-VKC-NLRNL", "KTG-VKC-DEG-NLRNL"]
)
@pytest.mark.parametrize("p", [3, 4, 5])
def test_fig7a_twitter_group_size(benchmark, algorithm, p):
    run_point(
        benchmark,
        "twitter",
        algorithm,
        scale=DENSE_SCALE,
        keyword_size=DEFAULTS["keyword_size"],
        group_size=p,
        tenuity=1,  # denser graph: k=1 keeps the grid feasible
        top_n=DEFAULTS["top_n"],
    )


@pytest.mark.parametrize(
    "algorithm", ["KTG-VKC-NL", "KTG-VKC-NLRNL", "KTG-VKC-DEG-NLRNL"]
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fig7b_dblp_large_social_constraint(benchmark, algorithm, k):
    run_point(
        benchmark,
        "dblp-large",
        algorithm,
        scale=LARGE_SCALE,
        keyword_size=DEFAULTS["keyword_size"],
        group_size=DEFAULTS["group_size"],
        tenuity=k,
        top_n=DEFAULTS["top_n"],
    )

