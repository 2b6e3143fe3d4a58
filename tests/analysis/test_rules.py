"""Per-rule good/bad fixture tests for the lint rules.

Every bad fixture pins *exactly one* finding with its rule id and line
(the acceptance contract of the linter: seeding a violation yields one
finding with correct coordinates); every good fixture pins zero.  The
module-local rules lint in-memory snippets; KEY001's stale-exclusion check
lints the exclusion list of a scratch copy of the real tree.
"""

from __future__ import annotations

from repro.analysis import lint_paths, lint_source

#: Default virtual locations: kernel scope and non-kernel scope.
KERNEL = "repro/simulation/snippet.py"
OUTSIDE = "repro/experiments/snippet.py"


def findings_of(source: str, rel: str) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in lint_source(source, rel=rel)]


def assert_one(source: str, rel: str, rule: str, line: int) -> None:
    assert findings_of(source, rel) == [(rule, line)]


def assert_clean(source: str, rel: str) -> None:
    assert findings_of(source, rel) == []


class TestDet001GlobalRng:
    def test_np_random_seed_is_flagged(self):
        assert_one("import numpy as np\nnp.random.seed(3)\n", OUTSIDE, "DET001", 2)

    def test_aliasing_does_not_hide_the_call(self):
        assert_one(
            "from numpy import random\nrandom.shuffle([1, 2])\n",
            OUTSIDE,
            "DET001",
            2,
        )
        assert_one(
            "import numpy.random as npr\nnpr.rand(3)\n", OUTSIDE, "DET001", 2
        )

    def test_unseeded_default_rng_is_flagged(self):
        assert_one(
            "from numpy.random import default_rng\nrng = default_rng()\n",
            OUTSIDE,
            "DET001",
            2,
        )

    def test_seeded_default_rng_passes(self):
        assert_clean("import numpy as np\nrng = np.random.default_rng(7)\n", OUTSIDE)

    def test_explicit_generator_machinery_passes(self):
        assert_clean(
            "import numpy as np\n"
            "ss = np.random.SeedSequence(7)\n"
            "rng = np.random.Generator(np.random.PCG64(ss))\n",
            OUTSIDE,
        )

    def test_stdlib_random_is_flagged(self):
        assert_one("import random\nrandom.random()\n", OUTSIDE, "DET001", 2)

    def test_unseeded_stdlib_random_instance_is_flagged(self):
        assert_one("import random\nr = random.Random()\n", OUTSIDE, "DET001", 2)

    def test_seeded_stdlib_random_instance_passes(self):
        assert_clean("import random\nr = random.Random(7)\n", OUTSIDE)

    def test_the_rng_module_itself_is_exempt(self):
        assert_clean("import numpy as np\nnp.random.seed(3)\n", "repro/noise/rng.py")

    def test_local_names_are_not_mistaken_for_the_module(self):
        # A local variable that happens to be called `random` is not an
        # import binding; the alias resolver must return None for it.
        assert_clean("random = object()\nrandom.random()\n", OUTSIDE)


class TestDet002WallClock:
    def test_time_time_in_kernel_scope_is_flagged(self):
        assert_one(
            "import time\n\ndef kernel():\n    return time.time()\n",
            KERNEL,
            "DET002",
            4,
        )

    def test_duration_probes_pass(self):
        assert_clean(
            "import time\nt0 = time.monotonic()\nt1 = time.perf_counter()\n",
            KERNEL,
        )

    def test_outside_kernel_scope_is_out_of_scope(self):
        assert_clean("import time\ntime.time()\n", OUTSIDE)

    def test_bitplane_module_counts_as_kernel_scope(self):
        assert_one("import time\ntime.time()\n", "repro/bitplane.py", "DET002", 2)

    def test_uuid_and_os_urandom_are_flagged(self):
        assert_one("import uuid\nuuid.uuid4()\n", KERNEL, "DET002", 2)
        assert_one("import os\nos.urandom(8)\n", KERNEL, "DET002", 2)

    def test_argless_seedsequence_is_flagged(self):
        assert_one(
            "import numpy as np\nss = np.random.SeedSequence()\n",
            KERNEL,
            "DET002",
            2,
        )

    def test_seeded_seedsequence_passes(self):
        assert_clean("import numpy as np\nss = np.random.SeedSequence(7)\n", KERNEL)


class TestDet003SetOrder:
    def test_for_loop_over_set_call_is_flagged(self):
        assert_one(
            "def f(xs):\n    for x in set(xs):\n        pass\n", KERNEL, "DET003", 2
        )

    def test_for_loop_over_set_literal_is_flagged(self):
        assert_one("for x in {1, 2}:\n    pass\n", KERNEL, "DET003", 1)

    def test_list_over_set_comprehension_is_flagged(self):
        assert_one(
            "def f(xs):\n    return list({x for x in xs})\n", KERNEL, "DET003", 2
        )

    def test_set_union_operands_are_recognised(self):
        assert_one(
            "def f(a, b):\n    for x in set(a) | set(b):\n        pass\n",
            KERNEL,
            "DET003",
            2,
        )

    def test_sorted_set_passes(self):
        assert_clean(
            "def f(a, b):\n"
            "    for x in sorted(set(a)):\n"
            "        pass\n"
            "    return sorted(set(a) | set(b))\n",
            KERNEL,
        )

    def test_outside_kernel_scope_is_out_of_scope(self):
        assert_clean("def f(xs):\n    return list(set(xs))\n", OUTSIDE)


class TestImp001LazyHeavyImports:
    def test_top_level_import_is_flagged_everywhere(self):
        assert_one("import networkx\n", OUTSIDE, "IMP001", 1)
        assert_one("import networkx as nx\n", KERNEL, "IMP001", 1)

    def test_submodule_and_from_forms_are_flagged(self):
        assert_one("import matplotlib.pyplot as plt\n", OUTSIDE, "IMP001", 1)
        assert_one("from matplotlib import pyplot\n", OUTSIDE, "IMP001", 1)
        assert_one("from networkx.algorithms import matching\n", OUTSIDE, "IMP001", 1)

    def test_function_local_import_passes(self):
        assert_clean(
            "def plot():\n    import matplotlib.pyplot as plt\n    return plt\n",
            OUTSIDE,
        )

    def test_type_checking_import_passes(self):
        assert_clean(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import networkx\n",
            OUTSIDE,
        )

    def test_light_imports_pass(self):
        assert_clean("import numpy as np\nfrom pathlib import Path\n", OUTSIDE)


class TestDty001ExplicitDtype:
    def test_dtypeless_zeros_in_kernel_scope_is_flagged(self):
        assert_one("import numpy as np\nbuf = np.zeros(4)\n", KERNEL, "DTY001", 2)

    def test_from_import_alias_is_resolved(self):
        assert_one("from numpy import zeros\nbuf = zeros(4)\n", KERNEL, "DTY001", 2)

    def test_dtype_keyword_passes(self):
        assert_clean(
            "import numpy as np\nbuf = np.zeros(4, dtype=np.uint8)\n", KERNEL
        )

    def test_positional_dtype_passes(self):
        assert_clean("import numpy as np\nbuf = np.zeros(4, np.uint8)\n", KERNEL)

    def test_full_needs_three_positionals(self):
        assert_one(
            "import numpy as np\nbuf = np.full((2, 2), 0)\n", KERNEL, "DTY001", 2
        )
        assert_clean("import numpy as np\nbuf = np.full((2, 2), 0, np.uint8)\n", KERNEL)

    def test_kwargs_splat_is_given_the_benefit_of_the_doubt(self):
        assert_clean(
            "import numpy as np\n\ndef alloc(**kw):\n    return np.zeros(4, **kw)\n",
            KERNEL,
        )

    def test_outside_kernel_scope_is_out_of_scope(self):
        assert_clean("import numpy as np\nbuf = np.zeros(4)\n", OUTSIDE)


class TestPkl001PicklableKernels:
    def test_lambda_kernel_is_flagged(self):
        assert_one(
            "from repro.simulation.shard import run_sharded\n"
            "run_sharded(lambda rng: 0, trials=10)\n",
            OUTSIDE,
            "PKL001",
            2,
        )

    def test_lambda_via_kernel_keyword_is_flagged(self):
        assert_one(
            "from repro.simulation.shard import run_sharded\n"
            "run_sharded(trials=10, kernel=lambda rng: 0)\n",
            OUTSIDE,
            "PKL001",
            2,
        )

    def test_locally_defined_kernel_is_flagged(self):
        assert_one(
            "from repro.simulation.shard import run_sharded\n"
            "\n"
            "def outer():\n"
            "    def kernel(rng):\n"
            "        return 0\n"
            "    return run_sharded(kernel, trials=10)\n",
            OUTSIDE,
            "PKL001",
            6,
        )

    def test_partial_wrapping_a_local_function_is_flagged(self):
        assert_one(
            "import functools\n"
            "from repro.simulation.shard import run_sharded_adaptive\n"
            "\n"
            "def outer():\n"
            "    def kernel(rng, scale):\n"
            "        return 0\n"
            "    bound = functools.partial(kernel, scale=2)\n"
            "    return run_sharded_adaptive(functools.partial(kernel, 2), trials=9)\n",
            OUTSIDE,
            "PKL001",
            8,
        )

    def test_module_level_kernel_passes(self):
        assert_clean(
            "from repro.simulation.shard import run_sharded\n"
            "\n"
            "def kernel(rng):\n"
            "    return 0\n"
            "\n"
            "def main():\n"
            "    return run_sharded(kernel, trials=10)\n",
            OUTSIDE,
        )

    def test_attribute_spelled_runner_is_recognised(self):
        assert_one(
            "from repro.simulation import shard\n"
            "shard.run_sharded(lambda rng: 0, trials=10)\n",
            OUTSIDE,
            "PKL001",
            2,
        )

    def test_lambda_sweep_point_kernel_is_flagged(self):
        assert_one(
            "from repro.simulation.scheduler import SweepPoint\n"
            "point = SweepPoint('p', lambda n, rng: (0, n), trials=10)\n",
            OUTSIDE,
            "PKL001",
            2,
        )

    def test_local_function_sweep_point_kernel_is_flagged(self):
        assert_one(
            "from repro.simulation.scheduler import SweepPoint\n"
            "\n"
            "def outer():\n"
            "    def kernel(n, rng):\n"
            "        return (0, n)\n"
            "    return SweepPoint(point_id='p', kernel=kernel, trials=10)\n",
            OUTSIDE,
            "PKL001",
            6,
        )

    def test_module_level_sweep_point_kernel_passes(self):
        assert_clean(
            "from repro.simulation.scheduler import SweepPoint\n"
            "\n"
            "def kernel(n, rng):\n"
            "    return (0, n)\n"
            "\n"
            "def make(finalize):\n"
            "    def on_complete(result):\n"
            "        return None\n"
            "    return SweepPoint(\n"
            "        'p', kernel, 10, finalize=lambda outcome: outcome,\n"
            "        on_complete=on_complete,\n"
            "    )\n",
            OUTSIDE,
        )


def _line_of(path, needle: str) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    return next(number for number, text in enumerate(lines, 1) if needle in text)


class TestKey001StaleExclusions:
    def test_the_real_exclusion_list_has_no_stale_entries(self, scratch_tree):
        assert lint_paths([scratch_tree / "store/keys.py"]) == []

    def test_entry_naming_no_runner_keyword_is_flagged(self, scratch_tree):
        keys = scratch_tree / "store/keys.py"
        source = keys.read_text(encoding="utf-8")
        anchor = '    "fault_injector": '
        assert anchor in source
        keys.write_text(
            source.replace(
                anchor, '    "retired_knob": "knob that no runner takes",\n' + anchor
            ),
            encoding="utf-8",
        )
        findings = lint_paths([keys])
        assert [(f.rule, f.line) for f in findings] == [
            ("KEY001", _line_of(keys, '"retired_knob"'))
        ]
        assert "retired_knob" in findings[0].message

    def test_deleting_a_knob_leaves_its_entry_stale(self, scratch_tree):
        runner = scratch_tree / "simulation/memory.py"
        source = runner.read_text(encoding="utf-8")
        last_param = (
            "    fault_injector: object | None = None,\n) -> MemoryExperimentResult:"
        )
        assert last_param in source
        runner.write_text(
            source.replace(last_param, ") -> MemoryExperimentResult:"),
            encoding="utf-8",
        )
        keys = scratch_tree / "store/keys.py"
        findings = lint_paths([keys, runner])
        assert [(f.rule, f.line) for f in findings] == [
            ("KEY001", _line_of(keys, '    "fault_injector": '))
        ]
