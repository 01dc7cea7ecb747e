"""CompilationSession: cache tiers, corruption fallback, warm-path proof."""

from __future__ import annotations

import pytest

from repro import CompileOptions, compile_source, obs
from repro.backend.ddg import DDGMode
from repro.difftest.diff import build_matrix
from repro.difftest.incremental import canonical_rtl
from repro.driver.passes import build_pipeline
from repro.driver.session import (
    CacheCorruption,
    CompilationSession,
    _decode_manifest,
    _encode_manifest,
    cache_key,
)
from repro.machine.executor import execute
from repro.obs import trace
from tests.conftest import FIG2_SOURCE, SIMPLE_MAIN

OTHER_SOURCE = "int x;\nint main() { x = 41; return x + 1; }\n"

# a float-initialized global (manifest init_data) and a non-ASCII
# string literal (an RTL string immediate)
STRINGS_SOURCE = """\
float scale = 2.5;
int count = 3;
int twice(int n) {
    return n * 2;
}
int main() {
    printf("héllo, wörld %d\\n", twice(count));
    return count + 1;
}
"""


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

    def test_lost_function_blobs_fail_the_restore_and_fall_back(
        self, disk_session, monkeypatch
    ):
        puts: list[str] = []
        put = disk_session.store.put
        monkeypatch.setattr(
            disk_session.store, "put", lambda key, blob: (puts.append(key), put(key, blob))
        )
        disk_session.compile(CHAIN_SOURCE, "chain.c")
        # a cold compile stores the fe blobs in program order (leaf, mid,
        # other, main), then the manifest, then the be blobs
        assert len(puts) == 9
        assert puts[4] == cache_key(CHAIN_SOURCE, "chain.c", build_pipeline(CompileOptions()))
        disk_session.store.evict(puts[1])  # mid's fe blob
        disk_session.store.evict(puts[6])  # mid's be blob
        sess = CompilationSession(cache_dir=disk_session.cache_dir)
        comp = sess.compile(CHAIN_SOURCE, "chain.c")
        assert comp.cache_state == "incremental"
        assert comp.fn_cache_states == {
            "leaf": "be:memory",  # read from disk by the failed restore
            "mid": "cold",
            "other": "be:disk",
            "main": "be:disk",
        }
        assert canonical_rtl(comp.rtl) == canonical_rtl(
            compile_source(CHAIN_SOURCE, "chain.c").rtl
        )
        # the restore counts leaf's be hit and mid's be miss, then evicts
        # the manifest (corrupt); the fallback counts one miss and, for
        # mid alone, a second be miss and the only fn miss
        assert sess.stats.to_dict() == {
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 1,
            "corrupt": 1,
            "evictions": 0,
            "stores": 1,
            "fn_hits_memory": 0,
            "fn_hits_disk": 0,
            "fn_misses": 1,
            "fn_stores": 1,
            "be_hits_memory": 1,
            "be_hits_disk": 3,
            "be_misses": 2,
            "be_stores": 1,
            "disk_evictions": 0,
            "fe_decodes": 0,
            "be_decodes": 4,
            "frontend_decodes": 0,
        }

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
        from repro.driver.session import _TAG_MANIFEST, _r_chunk, _unframe

        comp = compile_source(SIMPLE_MAIN, "simple.c")
        fe_keys = self._fake_keys(comp)
        blob = _encode_manifest(comp, fe_keys)
        man = _decode_manifest(blob)
        assert man.fe_keys == fe_keys
        assert man.source_filename == comp.hli.source_filename
        assert man.globals_layout == comp.rtl.globals_layout
        assert man.init_data == comp.rtl.init_data
        for name, fn in comp.rtl.functions.items():
            assert man.frames[name] == fn.frame
            assert man.frame_sizes[name] == fn.frame_size
        # exactly two chunks (key table, file-level leftovers): the
        # manifest carries no front-end state
        payload = _unframe(_TAG_MANIFEST, blob)
        _key_table, pos = _r_chunk(payload, 0)
        _file_chunk, pos = _r_chunk(payload, pos)
        assert pos == len(payload)

    def test_codec_fingerprint_mismatch_is_corruption(self):
        comp = compile_source(SIMPLE_MAIN, "simple.c")
        blob = bytearray(_encode_manifest(comp, self._fake_keys(comp)))
        # bytes 6:14 hold the binfmt schema fingerprint — outside the
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
        inputs = [(SIMPLE_MAIN, "simple.c"), (STRINGS_SOURCE, "strings.c")]
        d = tmp_path / "cache"
        for source, filename in inputs:
            CompilationSession(cache_dir=d).compile(source, filename)
        colds = [compile_source(source, filename) for source, filename in inputs]
        self._poison(monkeypatch)
        for (source, filename), cold in zip(inputs, colds):
            sess = CompilationSession(cache_dir=d)
            comp = sess.compile(source, filename)
            assert comp.cache_state == "disk"
            assert all(v == "be:disk" for v in comp.fn_cache_states.values())
            assert comp.rtl.init_data == cold.rtl.init_data
            assert canonical_rtl(comp.rtl) == canonical_rtl(cold.rtl)
            assert execute(comp.rtl, collect_trace=False).ret is not None

    def test_full_warm_hit_never_decodes_the_frontend(self, tmp_path):
        d = tmp_path / "cache"
        CompilationSession(cache_dir=d).compile(SIMPLE_MAIN, "simple.c")
        sess = CompilationSession(cache_dir=d)
        comp = sess.compile(SIMPLE_MAIN, "simple.c")
        # every function came from the finished back-end tier: the fe
        # blobs were never read and the front end never re-ran — a warm
        # be hit touches exactly one fe-side artifact (the manifest)
        assert sess.stats.fe_decodes == 0
        assert sess.stats.frontend_decodes == 0
        assert sess.stats.be_decodes == len(comp.rtl.functions)
        # first attribute access re-runs the front end
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


# main -> mid -> leaf, with `other` on a disconnected branch
CHAIN_SOURCE = """\
int gs0;
int leaf(int a, int b) {
    int r = a * b + 1;
    return r;
}
int mid(int a, int b) {
    int r = leaf(a, b) + a;
    return r;
}
int other(int a, int b) {
    int r = a - b;
    gs0 = r;
    return r;
}
int main() {
    int x = mid(3, 4);
    int y = other(9, 2);
    return x + y + gs0;
}
"""


def _effects(refmod) -> dict:
    """REF/MOD sets by object name (symbols compare by identity)."""

    def names(objs):
        return sorted(f"{type(o).__name__}:{getattr(o, 'name', o)}" for o in objs)

    return {fn: (names(e.ref), names(e.mod)) for fn, e in refmod.items()}


def _frontend_shape(frontend) -> tuple:
    return (
        list(frontend.units),
        {n: [item.item_id for item in u.items] for n, u in frontend.units.items()},
        _effects(frontend.refmod),
    )


class TestLazyFrontEnd:
    """Blobs and session results carry no front-end state: a session's
    compilation re-runs the front end the first time ``frontend`` is
    read, once."""

    def _read_once(self, sess, comp) -> tuple:
        assert sess.stats.frontend_decodes == 0
        shape = _frontend_shape(comp.frontend)
        assert sess.stats.frontend_decodes == 1
        assert _frontend_shape(comp.frontend) == shape
        assert sess.stats.frontend_decodes == 1
        return shape

    def test_cold_compile(self):
        sess = CompilationSession()
        comp = sess.compile(CHAIN_SOURCE, "chain.c")
        assert comp.cache_state == "cold"
        cold = compile_source(CHAIN_SOURCE, "chain.c")
        assert self._read_once(sess, comp) == _frontend_shape(cold.frontend)

    def test_disk_warm_restore(self, tmp_path):
        d = tmp_path / "cache"
        CompilationSession(cache_dir=d).compile(CHAIN_SOURCE, "chain.c")
        sess = CompilationSession(cache_dir=d)
        comp = sess.compile(CHAIN_SOURCE, "chain.c")
        assert comp.cache_state == "disk"
        cold = compile_source(CHAIN_SOURCE, "chain.c")
        assert self._read_once(sess, comp) == _frontend_shape(cold.frontend)

    def test_incremental_edit(self, tmp_path):
        d = tmp_path / "cache"
        CompilationSession(cache_dir=d).compile(CHAIN_SOURCE, "chain.c")
        edited = CHAIN_SOURCE.replace("int r = a * b + 1;", "int r = a * b + 2;")
        sess = CompilationSession(cache_dir=d)
        comp = sess.compile(edited, "chain.c")
        assert comp.cache_state == "incremental"
        assert comp.fn_cache_states["other"] == "be:disk"
        cold = compile_source(edited, "chain.c")
        assert self._read_once(sess, comp) == _frontend_shape(cold.frontend)

    def test_whole_program_unit_uses_linked_effects(self, tmp_path):
        from repro.driver.wpa import compile_whole_program
        from tests.driver.test_wpa import UNITS

        d = tmp_path / "cache"
        compile_whole_program(UNITS, session=CompilationSession(cache_dir=d))
        sess = CompilationSession(cache_dir=d)
        comp = compile_whole_program(UNITS, session=sess).units["main.c"]
        assert comp.cache_state == "disk"
        assert comp.external_effects
        source = dict(UNITS)["main.c"]
        linked = compile_source(source, "main.c", external_effects=comp.external_effects)
        per_file = compile_source(source, "main.c")
        shape = self._read_once(sess, comp)
        assert shape == _frontend_shape(linked.frontend)
        # the linked effects matter: per-file defaults give other REF/MOD
        assert shape[2] != _effects(per_file.frontend.refmod)


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
