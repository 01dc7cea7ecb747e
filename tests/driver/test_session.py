"""CompilationSession: cache tiers, corruption fallback, warm-path proof."""

from __future__ import annotations

import pytest

from repro import CompileOptions, compile_source, obs
from repro.backend.ddg import DDGMode
from repro.difftest.diff import build_matrix
from repro.driver.session import (
    CacheCorruption,
    CompilationSession,
    _decode_manifest,
    _encode_manifest,
)
from repro.machine.executor import execute
from repro.obs import trace
from tests.conftest import FIG2_SOURCE, SIMPLE_MAIN

OTHER_SOURCE = "int x;\nint main() { x = 41; return x + 1; }\n"


@pytest.fixture()
def disk_session(tmp_path):
    return CompilationSession(cache_dir=tmp_path / "cache")


def _opcodes(comp) -> dict:
    return {n: [i.op for i in f.insns] for n, f in comp.rtl.functions.items()}


def _dep_stats(comp) -> dict:
    return {n: vars(s) for n, s in comp.dep_stats.items()}


class TestTiers:
    def test_cold_then_memory_hit(self):
        sess = CompilationSession()
        c1 = sess.compile(SIMPLE_MAIN, "simple.c")
        c2 = sess.compile(SIMPLE_MAIN, "simple.c")
        assert (c1.cache_state, c2.cache_state) == ("cold", "memory")
        assert sess.stats.misses == 1
        assert sess.stats.hits_memory == 1
        assert sess.stats.stores == 1
        assert c2.pipeline_stats.cached_prefix == ("parse", "hli-build", "lower")

    def test_disk_hit_across_sessions(self, tmp_path):
        d = tmp_path / "cache"
        CompilationSession(cache_dir=d).compile(SIMPLE_MAIN, "simple.c")
        sess = CompilationSession(cache_dir=d)
        comp = sess.compile(SIMPLE_MAIN, "simple.c")
        assert comp.cache_state == "disk"
        assert sess.stats.hits_disk == 1
        assert sess.stats.misses == 0

    def test_memory_tier_evicts_lru(self, tmp_path):
        sess = CompilationSession(cache_dir=tmp_path / "c", max_memory_entries=1)
        sess.compile(SIMPLE_MAIN, "simple.c")
        sess.compile(OTHER_SOURCE, "other.c")  # evicts simple.c's entries
        assert sess.stats.evictions >= 1
        comp = sess.compile(SIMPLE_MAIN, "simple.c")  # falls through to disk
        assert comp.cache_state == "disk"

    def test_different_sources_do_not_collide(self):
        sess = CompilationSession()
        c1 = sess.compile(SIMPLE_MAIN, "a.c")
        c2 = sess.compile(OTHER_SOURCE, "a.c")
        assert sess.stats.misses == 2
        assert _opcodes(c1) != _opcodes(c2)

    def test_backend_options_share_the_frontend_entry(self):
        # The key excludes back-end knobs: gcc and combined compiles of
        # the same source hit the same cached front end (timing.py's
        # double-compile relies on this).
        sess = CompilationSession()
        sess.compile(SIMPLE_MAIN, "simple.c", CompileOptions(mode=DDGMode.GCC))
        comp = sess.compile(
            SIMPLE_MAIN, "simple.c", CompileOptions(mode=DDGMode.COMBINED, cse=True)
        )
        assert comp.cache_state == "memory"
        assert sess.stats.misses == 1


class TestWarmPathSkipsFrontend:
    def test_span_counts_prove_frontend_skipped(self):
        sess = CompilationSession()
        opts = CompileOptions(mode=DDGMode.COMBINED)
        obs.reset()
        with obs.enabled_scope():
            sess.compile(FIG2_SOURCE, "fig2.c", opts)
            cold_names = [s.name for s in trace.iter_spans()]
            obs.reset()
            comp = sess.compile(FIG2_SOURCE, "fig2.c", opts)
            warm_names = [s.name for s in trace.iter_spans()]
        assert cold_names.count("frontend.parse_and_check") == 1
        assert "analysis.build_hli" in cold_names
        assert "backend.lowering" in cold_names
        # warm: parse, HLI construction, and lowering never run
        assert "frontend.parse_and_check" not in warm_names
        assert "analysis.build_hli" not in warm_names
        assert "backend.lowering" not in warm_names
        # ... and neither does the back end: every function's finished
        # artifacts come from the per-function back-end tier
        assert "backend.mapping" not in warm_names
        assert "backend.schedule" not in warm_names
        assert comp.cache_state == "memory"
        assert all(v == "be:memory" for v in comp.fn_cache_states.values())
        assert comp.pipeline_stats.function_runs["schedule"] == []

    def test_new_backend_knobs_rerun_the_backend(self):
        # A warm front end with unseen back-end options must still run
        # the back-end passes (the be key folds the knobs in).
        sess = CompilationSession()
        opts = CompileOptions(mode=DDGMode.COMBINED)
        obs.reset()
        with obs.enabled_scope():
            sess.compile(FIG2_SOURCE, "fig2.c", opts)
            obs.reset()
            comp = sess.compile(
                FIG2_SOURCE, "fig2.c", CompileOptions(mode=DDGMode.GCC)
            )
            names = [s.name for s in trace.iter_spans()]
        assert "frontend.parse_and_check" not in names
        assert "backend.schedule" in names
        assert comp.cache_state == "memory"
        assert all(v == "fe:memory" for v in comp.fn_cache_states.values())


class TestResultEquivalence:
    @pytest.mark.parametrize(
        "config", build_matrix("quick"), ids=lambda c: c.name
    )
    def test_warm_compile_identical_to_cold_across_matrix(self, config, tmp_path):
        opts = config.to_options()
        cold = compile_source(SIMPLE_MAIN, "simple.c", opts)
        sess = CompilationSession(cache_dir=tmp_path / "c")
        sess.compile(SIMPLE_MAIN, "simple.c", opts)
        warm = sess.compile(SIMPLE_MAIN, "simple.c", opts)
        assert warm.cache_state == "memory"
        assert _opcodes(warm) == _opcodes(cold)
        assert _dep_stats(warm) == _dep_stats(cold)
        if opts.lint:
            assert warm.lint_report is not None
            assert not warm.lint_report.diagnostics


class TestCorruption:
    def _entries(self, sess):
        # manifest + one fe blob + one be blob per function, sharded
        files = sorted(sess.cache_dir.rglob("*.hlic"))
        assert len(files) >= 3
        return files

    def test_bit_flip_degrades_to_cold_compile(self, disk_session):
        ref = disk_session.compile(SIMPLE_MAIN, "simple.c")
        for path in self._entries(disk_session):
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
        fresh = CompilationSession(cache_dir=disk_session.cache_dir)
        comp = fresh.compile(SIMPLE_MAIN, "simple.c")
        assert comp.cache_state == "cold"
        assert fresh.stats.corrupt >= 1
        assert fresh.stats.misses == 1
        assert _opcodes(comp) == _opcodes(ref)
        assert _dep_stats(comp) == _dep_stats(ref)

    def test_corrupt_fn_entry_recompiles_just_that_function(self, disk_session):
        ref = disk_session.compile(SIMPLE_MAIN, "simple.c")
        # corrupt only the manifest-keyed blob? we can't tell blobs apart
        # by name, so flip one file at a time and demand every outcome is
        # a correct compile (cold, incremental, or warm — never wrong)
        for path in self._entries(disk_session):
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
            fresh = CompilationSession(cache_dir=disk_session.cache_dir)
            comp = fresh.compile(SIMPLE_MAIN, "simple.c")
            assert _opcodes(comp) == _opcodes(ref)
            assert _dep_stats(comp) == _dep_stats(ref)

    def test_corrupt_entry_is_evicted_and_rewritten(self, disk_session):
        disk_session.compile(SIMPLE_MAIN, "simple.c")
        for path in self._entries(disk_session):
            path.write_bytes(b"garbage")
        fresh = CompilationSession(cache_dir=disk_session.cache_dir)
        fresh.compile(SIMPLE_MAIN, "simple.c")
        # the cold recompile re-stored valid entries over the bad ones
        comp = CompilationSession(cache_dir=disk_session.cache_dir).compile(
            SIMPLE_MAIN, "simple.c"
        )
        assert comp.cache_state == "disk"

    def _fake_keys(self, comp) -> dict:
        import hashlib

        return {
            n: hashlib.sha256(n.encode()).hexdigest() for n in comp.rtl.functions
        }

    def test_truncated_blob_raises_corruption(self):
        comp = compile_source(SIMPLE_MAIN, "simple.c")
        blob = _encode_manifest(comp, self._fake_keys(comp))
        for cut in (0, 3, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CacheCorruption):
                _decode_manifest(blob[:cut])

    def test_blob_round_trip(self):
        from repro.analysis.builder import FrontEndInfo
        from repro import binfmt

        comp = compile_source(SIMPLE_MAIN, "simple.c")
        fe_keys = self._fake_keys(comp)
        man = _decode_manifest(_encode_manifest(comp, fe_keys))
        assert man.fe_keys == fe_keys
        assert man.source_filename == comp.hli.source_filename
        assert man.globals_layout == comp.rtl.globals_layout
        assert man.init_data == comp.rtl.init_data
        for name, fn in comp.rtl.functions.items():
            assert man.frames[name] == fn.frame
            assert man.frame_sizes[name] == fn.frame_size
        # the front-end chunk rides along encoded; it must still decode
        frontend = binfmt.decode(man.frontend_blob)
        assert isinstance(frontend, FrontEndInfo)
        assert set(frontend.units) == set(comp.rtl.functions)

    def test_codec_fingerprint_mismatch_is_corruption(self):
        comp = compile_source(SIMPLE_MAIN, "simple.c")
        blob = bytearray(_encode_manifest(comp, self._fake_keys(comp)))
        # bytes 6:14 hold the binfmt registry fingerprint — outside the
        # payload checksum, so skew is caught before any decode
        blob[6:14] = bytes(8)
        with pytest.raises(CacheCorruption, match="fingerprint"):
            _decode_manifest(bytes(blob))


class TestZeroPickleWarmPath:
    """The warm path must never unpickle — blobs and wire are binfmt-only."""

    def _poison(self, monkeypatch):
        import pickle

        def boom(*a, **k):  # pragma: no cover - raising is the assertion
            raise AssertionError("pickle.loads called on the warm path")

        monkeypatch.setattr(pickle, "loads", boom)
        monkeypatch.setattr(pickle, "load", boom)

    def test_warm_disk_restore_never_unpickles(self, tmp_path, monkeypatch):
        d = tmp_path / "cache"
        CompilationSession(cache_dir=d).compile(SIMPLE_MAIN, "simple.c")
        self._poison(monkeypatch)
        sess = CompilationSession(cache_dir=d)
        comp = sess.compile(SIMPLE_MAIN, "simple.c")
        assert comp.cache_state == "disk"
        assert all(v == "be:disk" for v in comp.fn_cache_states.values())
        assert execute(comp.rtl, collect_trace=False).ret is not None

    def test_full_warm_hit_never_decodes_the_frontend(self, tmp_path):
        d = tmp_path / "cache"
        CompilationSession(cache_dir=d).compile(SIMPLE_MAIN, "simple.c")
        sess = CompilationSession(cache_dir=d)
        comp = sess.compile(SIMPLE_MAIN, "simple.c")
        # every function came from the finished back-end tier: the fe
        # blobs were never read, the manifest's frontend chunk never
        # decoded — a warm be hit touches exactly one fe-side artifact
        # (the manifest itself)
        assert sess.stats.fe_decodes == 0
        assert sess.stats.frontend_decodes == 0
        assert sess.stats.be_decodes == len(comp.rtl.functions)
        # first attribute access materializes the lazy frontend
        assert comp.frontend.units
        assert sess.stats.frontend_decodes == 1

    def test_lazy_frontend_survives_warm_execution(self, tmp_path, monkeypatch):
        d = tmp_path / "cache"
        cold = CompilationSession(cache_dir=d).compile(SIMPLE_MAIN, "simple.c")
        self._poison(monkeypatch)
        sess = CompilationSession(cache_dir=d)
        warm = sess.compile(SIMPLE_MAIN, "simple.c")
        assert _opcodes(warm) == _opcodes(cold)
        assert warm.rtl.globals_layout == cold.rtl.globals_layout
        # materializing the frontend is also pickle-free
        assert sorted(warm.frontend.units) == sorted(cold.frontend.units)


class TestShardedDisk:
    def test_entries_are_sharded_git_object_style(self, disk_session):
        disk_session.compile(SIMPLE_MAIN, "simple.c")
        files = list(disk_session.cache_dir.rglob("*.hlic"))
        assert files
        for f in files:
            shard = f.parent.name
            assert f.parent.parent == disk_session.cache_dir
            assert len(shard) == 2
            # shard dir + stem reassemble the full 64-hex key
            assert len(shard + f.stem) == 64

    def test_disk_budget_evicts_lru_entries(self, tmp_path):
        d = tmp_path / "cache"
        sess = CompilationSession(cache_dir=d, max_disk_bytes=1)
        sess.compile(SIMPLE_MAIN, "simple.c")
        sess.compile(OTHER_SOURCE, "other.c")
        assert sess.stats.disk_evictions >= 1
        total = sum(f.stat().st_size for f in d.rglob("*.hlic"))
        # only the most recently written entry may survive the budget
        assert len(list(d.rglob("*.hlic"))) <= 1, total

    def test_unbounded_by_default(self, disk_session):
        disk_session.compile(SIMPLE_MAIN, "simple.c")
        disk_session.compile(OTHER_SOURCE, "other.c")
        assert disk_session.stats.disk_evictions == 0
