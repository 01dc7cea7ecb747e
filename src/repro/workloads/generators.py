"""Parametric MiniC workload generators.

Used by property tests (random-but-structured programs whose semantics
can be predicted) and by the scaling ablation benchmarks (HLI size as a
function of program shape).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class StencilParams:
    """A 1-D stencil kernel family."""

    arrays: int = 3
    size: int = 64
    iters: int = 4
    radius: int = 1
    dtype: str = "double"


def stencil_program(p: StencilParams) -> str:
    """Generate a stencil program: ``a0`` is updated from its neighbours
    and the other arrays; every array is touched every iteration."""
    names = [f"a{k}" for k in range(p.arrays)]
    decls = "\n".join(f"{p.dtype} {n}[{p.size}];" for n in names)
    reads = " + ".join(
        f"{n}[i - {p.radius}] + {n}[i + {p.radius}]" for n in names[1:]
    ) or "0.0"
    updates = "\n".join(
        f"        {n}[i] = {n}[i] * 0.5 + a0[i] * 0.25;" for n in names[1:]
    )
    return f"""{decls}

int main() {{
    int i, t;
    for (i = 0; i < {p.size}; i++) {{
{chr(10).join(f'        {n}[i] = 0.01 * i + {k}.0;' for k, n in enumerate(names))}
    }}
    for (t = 0; t < {p.iters}; t++) {{
        for (i = {p.radius}; i < {p.size - p.radius}; i++) {{
            a0[i] = ({reads}) * 0.125 + a0[i];
{updates}
        }}
    }}
    return a0[{p.size // 2}] > 0.0;
}}
"""


@dataclass(frozen=True)
class ReductionParams:
    """An integer reduction-chain family (small basic blocks)."""

    arrays: int = 2
    size: int = 64
    stride: int = 1


def reduction_program(p: ReductionParams) -> str:
    names = [f"v{k}" for k in range(p.arrays)]
    decls = "\n".join(f"int {n}[{p.size}];" for n in names)
    sums = "\n".join(
        f"        total = total + {n}[i];" for n in names
    )
    return f"""{decls}
int total;

int main() {{
    int i;
    for (i = 0; i < {p.size}; i++) {{
{chr(10).join(f'        {n}[i] = i * {k + 3};' for k, n in enumerate(names))}
    }}
    total = 0;
    for (i = 0; i < {p.size}; i += {p.stride}) {{
{sums}
    }}
    return total;
}}
"""


def random_affine_loop(
    seed: int, size: int = 32, rng: Optional[random.Random] = None
) -> tuple[str, list[int]]:
    """A random single-loop program over two int arrays with affine
    subscripts, plus the Python-computed expected final array ``dst``.

    The subscripts are generated so every access is in bounds; the second
    return value is the expected content of ``dst`` after the loop, used
    by property tests to cross-validate compilation+execution against a
    direct evaluation.
    """
    rng = rng if rng is not None else random.Random(seed)
    shift_src = rng.randint(-2, 2)
    shift_dst = rng.randint(0, 2)
    scale = rng.randint(1, 3)
    add = rng.randint(-5, 5)
    lo = max(0, -shift_src, -shift_dst)
    hi = min(size, size - shift_src, size - shift_dst)
    src = f"""int src[{size}];
int dst[{size}];

int main() {{
    int i;
    for (i = 0; i < {size}; i++) {{
        src[i] = i * {scale} + {add};
        dst[i] = 0;
    }}
    for (i = {lo}; i < {hi}; i++) {{
        dst[i + {shift_dst}] = src[i + {shift_src}] + dst[i + {shift_dst}];
    }}
    return dst[{size // 2}];
}}
"""
    # reference evaluation
    src_vals = [i * scale + add for i in range(size)]
    dst_vals = [0] * size
    for i in range(lo, hi):
        dst_vals[i + shift_dst] = src_vals[i + shift_src] + dst_vals[i + shift_dst]
    return src, dst_vals
