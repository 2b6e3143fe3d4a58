"""Time one fresh interpreter from import to first call ready.

Run by ``run.py`` once per set-up probe::

    python3 perfbench/setup_probe.py memory-lowp

and prints the elapsed seconds: importing the library, then building what
the workload's first call needs (codes, Clique tables, matching graph).
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(workload: str) -> float:
    if workload == "paper-sweep":
        import sweep_bench
        from repro.codes.rotated_surface import get_code

        distances = {d for _, params in sweep_bench.EXPERIMENTS for d in params.get("distances", ())}
        distances |= {d for _, d in sweep_bench.FIG16_OPERATING_POINTS}
        for distance in sorted(distances):
            get_code(distance)
    else:
        import memory_bench
        from run import memory_workload

        workload = memory_workload(workload)
        code = memory_bench.RotatedSurfaceCode(workload.distance)
        memory_bench.cascade_factory(code, memory_bench.STYPE)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(main(sys.argv[1]))
