"""The benchmark suite: one spec per row of the paper's Tables 1/2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import minic_sources as S


@dataclass(frozen=True)
class PaperRow:
    """The paper's published numbers for one benchmark (for comparison)."""

    code_lines: int
    hli_kb: int
    hli_per_line: int
    total_tests: int
    tests_per_line: float
    gcc_pct: int
    hli_pct: int
    combined_pct: int
    reduction_pct: int
    speedup_r4600: float
    speedup_r10000: float


@dataclass(frozen=True)
class BenchmarkSpec:
    """One runnable benchmark program."""

    name: str
    suite: str
    source: str
    is_float: bool
    input_text: str = ""
    entry: str = "main"
    paper: Optional[PaperRow] = None


BENCHMARKS: list[BenchmarkSpec] = [
    BenchmarkSpec(
        name="wc",
        suite="GNU",
        source=S.WC,
        is_float=False,
        input_text=S.WC_INPUT,
        paper=PaperRow(972, 11, 12, 113, 0.12, 35, 18, 18, 50, 1.00, 1.00),
    ),
    BenchmarkSpec(
        name="008.espresso",
        suite="CINT92",
        source=S.ESPRESSO,
        is_float=False,
        paper=PaperRow(37074, 613, 17, 4166, 0.11, 63, 32, 24, 62, 1.00, 1.00),
    ),
    BenchmarkSpec(
        name="023.eqntott",
        suite="CINT92",
        source=S.EQNTOTT,
        is_float=False,
        paper=PaperRow(6269, 99, 16, 399, 0.06, 62, 48, 30, 52, 1.01, 1.05),
    ),
    BenchmarkSpec(
        name="129.compress",
        suite="CINT95",
        source=S.COMPRESS,
        is_float=False,
        paper=PaperRow(2235, 21, 10, 274, 0.12, 20, 14, 14, 34, 1.06, 1.07),
    ),
    BenchmarkSpec(
        name="015.doduc",
        suite="CFP92",
        source=S.DODUC,
        is_float=True,
        paper=PaperRow(25228, 1310, 53, 10992, 0.44, 70, 30, 26, 63, 1.00, 1.03),
    ),
    BenchmarkSpec(
        name="034.mdljdp2",
        suite="CFP92",
        source=S.MDLJDP2,
        is_float=True,
        paper=PaperRow(6905, 121, 18, 3013, 0.44, 58, 13, 9, 85, 1.08, 1.42),
    ),
    BenchmarkSpec(
        name="048.ora",
        suite="CFP92",
        source=S.ORA,
        is_float=True,
        paper=PaperRow(1249, 29, 24, 363, 0.29, 14, 22, 9, 35, 1.00, 1.00),
    ),
    BenchmarkSpec(
        name="052.alvinn",
        suite="CFP92",
        source=S.ALVINN,
        is_float=True,
        paper=PaperRow(475, 7, 15, 48, 0.10, 98, 42, 42, 57, 1.01, 1.02),
    ),
    BenchmarkSpec(
        name="077.mdljsp2",
        suite="CFP92",
        source=S.MDLJSP2,
        is_float=True,
        paper=PaperRow(4865, 109, 23, 2854, 0.59, 62, 14, 9, 85, 1.19, 1.59),
    ),
    BenchmarkSpec(
        name="101.tomcatv",
        suite="CFP95",
        source=S.TOMCATV,
        is_float=True,
        paper=PaperRow(780, 17, 22, 286, 0.37, 67, 10, 5, 93, 1.00, 1.01),
    ),
    BenchmarkSpec(
        name="102.swim",
        suite="CFP95",
        source=S.SWIM,
        is_float=True,
        paper=PaperRow(1124, 76, 69, 872, 0.78, 96, 10, 9, 90, 1.03, 1.04),
    ),
    BenchmarkSpec(
        name="103.su2cor",
        suite="CFP95",
        source=S.SU2COR,
        is_float=True,
        paper=PaperRow(6759, 239, 36, 4192, 0.62, 85, 38, 35, 59, 1.02, 1.08),
    ),
    BenchmarkSpec(
        name="107.mgrid",
        suite="CFP95",
        source=S.MGRID,
        is_float=True,
        paper=PaperRow(1725, 35, 21, 517, 0.30, 71, 64, 60, 15, 1.00, 1.01),
    ),
    BenchmarkSpec(
        name="141.apsi",
        suite="CFP95",
        source=S.APSI,
        is_float=True,
        paper=PaperRow(21921, 442, 21, 22347, 1.02, 36, 29, 24, 33, 1.00, 1.01),
    ),
]


def by_name(name: str) -> BenchmarkSpec:
    for b in BENCHMARKS:
        if b.name == name:
            return b
    raise KeyError(name)


def integer_benchmarks() -> list[BenchmarkSpec]:
    return [b for b in BENCHMARKS if not b.is_float]


def float_benchmarks() -> list[BenchmarkSpec]:
    return [b for b in BENCHMARKS if b.is_float]
