"""The paper's reference numbers and operator tables, transcribed.

These are the values every printed number of ``hswit verify`` and
``hswit report`` is checked against.  They are written out here rather
than read from hswit, so the check does not trust hswit's own copy.
"""

from __future__ import annotations

import oracle

ENTRIES = ("ghz3", "w3", "ghz4", "w4", "cl4", "mds")
DEFAULT_MDS_R = 0.5
THRESHOLD_R = 1.0 / 3.0

BELL = {
    "ghz3": {"XXX": 1, "XYY": -1, "YXY": -1, "YYX": -1},
    "w3": {"ZXX": 1, "XZX": 1, "XXZ": 1, "ZZZ": -1},
    "ghz4": {
        "XXXX": 1, "YYYY": 1, "XXYY": -1, "XYXY": -1,
        "XYYX": -1, "YXXY": -1, "YXYX": -1, "YYXX": -1,
    },
    "w4": {
        "ZZZZ": -3, "ZZXX": 0.5, "ZXZX": 0.5, "ZXXZ": 0.5, "XZXZ": 0.5, "XZZX": 0.5,
        "XXZZ": 0.5, "ZZYY": 0.5, "ZYZY": 0.5, "ZYYZ": 0.5, "YZYZ": 0.5, "YZZY": 0.5,
        "YYZZ": 0.5,
    },
    "cl4": {
        "XYXY": 1, "XYYX": 1, "YXXY": 1, "YXYX": 1,
        "XXZI": 1, "XXIZ": 1, "YYZI": -1, "YYIZ": -1,
    },
}


def witness_kernel(name: str, mds_r: float = DEFAULT_MDS_R) -> dict[str, float]:
    """The operator G whose product-state maximum is alpha."""
    if name == "ghz3":
        return {**BELL["ghz3"], "ZZI": 1}
    if name == "w3":
        return {**BELL["w3"], "YYI": 1}
    if name == "ghz4":
        return {**BELL["ghz4"], "ZZZZ": 1}
    if name in ("w4", "cl4"):
        return dict(BELL[name])
    if name == "mds":
        return {"XXX": mds_r, "YYY": mds_r, "ZZZ": mds_r}
    raise KeyError(name)


def state_matrix(name: str, mds_r: float = DEFAULT_MDS_R):
    return {
        "ghz3": lambda: oracle.ghz_matrix(3),
        "w3": lambda: oracle.w_matrix(3),
        "ghz4": lambda: oracle.ghz_matrix(4),
        "w4": lambda: oracle.w_matrix(4),
        "cl4": oracle.cluster4_matrix,
        "mds": lambda: oracle.mds_matrix(mds_r),
    }[name]()


def expected(name: str, mds_r: float = DEFAULT_MDS_R) -> dict[str, float]:
    """Every number the paper gives for one entry."""
    table = {
        "ghz3": dict(beta_cl=2, beta_qu=4, pcrit_bell=1 / 2, alpha=1, trace_g_rho=5,
                     witness_value=-4, pcrit_witness=1 / 5),
        "w3": dict(beta_cl=2, beta_qu=3, pcrit_bell=2 / 3, alpha=1, trace_g_rho=11 / 3,
                   witness_value=-8 / 3, pcrit_witness=3 / 11),
        "ghz4": dict(beta_cl=4, beta_qu=8, pcrit_bell=1 / 2, alpha=1, trace_g_rho=9,
                     witness_value=-8, pcrit_witness=1 / 9),
        "w4": dict(beta_cl=5, beta_qu=6, pcrit_bell=5 / 6, alpha=3, trace_g_rho=6,
                   witness_value=-3, pcrit_witness=1 / 2),
        "cl4": dict(beta_cl=4, beta_qu=8, pcrit_bell=1 / 2, alpha=2, trace_g_rho=8,
                    witness_value=-6, pcrit_witness=1 / 4),
    }
    if name == "mds":
        r = mds_r
        return dict(alpha=r, trace_g_rho=3 * r * r, witness_value=r - 3 * r * r,
                    pcrit_witness=1 / (3 * r), threshold_r=THRESHOLD_R)
    return {k: float(v) for k, v in table[name].items()}
