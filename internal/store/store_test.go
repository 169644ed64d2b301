package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// synthesizeSC runs a small deterministic synthesis used as test fixture.
func synthesizeSC(tb testing.TB, maxEvents int) *synth.Result {
	tb.Helper()
	m, err := memmodel.ByName("sc")
	if err != nil {
		tb.Fatal(err)
	}
	return synth.Synthesize(m, synth.Options{MaxEvents: maxEvents})
}

func TestDigestNormalization(t *testing.T) {
	base := synth.Options{MaxEvents: 4}
	d1 := Digest("sc", "", base)
	// Engine tuning must not change the address.
	d2 := Digest("sc", "", synth.Options{MaxEvents: 4, Workers: 7, ProgressInterval: 123})
	if d1 != d2 {
		t.Errorf("digest depends on engine tuning: %s vs %s", d1, d2)
	}
	// Explicit defaults hash like omitted defaults.
	d3 := Digest("sc", "", synth.Options{MaxEvents: 4, MinEvents: 2, MaxThreads: 4, MaxAddrs: 3, MaxDeps: 2, MaxRMWs: 1})
	if d1 != d3 {
		t.Errorf("digest distinguishes explicit defaults: %s vs %s", d1, d3)
	}
	// Semantic knobs must change it.
	for name, other := range map[string]string{
		"model":  Digest("tso", "", base),
		"bound":  Digest("sc", "", synth.Options{MaxEvents: 5}),
		"addrs":  Digest("sc", "", synth.Options{MaxEvents: 4, MaxAddrs: 2}),
		"fences": Digest("sc", "", synth.Options{MaxEvents: 4, KeepTrivialFences: true}),
	} {
		if other == d1 {
			t.Errorf("digest ignores %s", name)
		}
	}
	if len(d1) != 64 {
		t.Errorf("digest length = %d, want 64 hex chars", len(d1))
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	res := synthesizeSC(t, 4)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	put, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest(res.Model, res.ModelDigest, res.Options)
	if put.Manifest.Digest != digest {
		t.Fatalf("stored digest %s, want %s", put.Manifest.Digest, digest)
	}

	got, err := s.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}

	if len(rt.Union.Entries) != len(res.Union.Entries) {
		t.Fatalf("union size %d, want %d", len(rt.Union.Entries), len(res.Union.Entries))
	}
	for i, e := range res.Union.Entries {
		r := rt.Union.Entries[i]
		if r.Key != e.Key || r.Size != e.Size {
			t.Fatalf("entry %d: (key,size) = (%s,%d), want (%s,%d)", i, r.Key, r.Size, e.Key, e.Size)
		}
		if litmus.Format(r.Test) != litmus.Format(e.Test) {
			t.Fatalf("entry %d test round-trip mismatch:\n%s\nvs\n%s",
				i, litmus.Format(r.Test), litmus.Format(e.Test))
		}
		if r.Exec.OutcomeString() != e.Exec.OutcomeString() {
			t.Fatalf("entry %d witness mismatch: %q vs %q",
				i, r.Exec.OutcomeString(), e.Exec.OutcomeString())
		}
	}
	if len(rt.PerAxiom) != len(res.PerAxiom) {
		t.Fatalf("per-axiom count %d, want %d", len(rt.PerAxiom), len(res.PerAxiom))
	}
	for name, suite := range res.PerAxiom {
		if got := rt.PerAxiom[name]; got == nil || len(got.Entries) != len(suite.Entries) {
			t.Errorf("axiom %s not round-tripped", name)
		}
	}
	if rt.Stats.Programs != res.Stats.Programs || rt.Stats.Executions != res.Stats.Executions ||
		rt.Stats.ExecutionsFast != res.Stats.ExecutionsFast {
		t.Errorf("stats not round-tripped: %+v vs %+v", rt.Stats, res.Stats)
	}

	// The stored text itself is a fixed point: parse + reformat is
	// byte-identical, so repeated store round-trips cannot drift.
	text := got.Texts[UnionSuite]
	specs, err := litmus.ParseSuite(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if reformatted := litmus.FormatSuite(specs); reformatted != text {
		t.Errorf("stored union text is not a formatting fixed point:\n%q\nvs\n%q", text, reformatted)
	}
}

func TestGetSurvivesReopen(t *testing.T) {
	res := synthesizeSC(t, 4)
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	put, err := s1.Put(res)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(put.Manifest.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Texts[UnionSuite] != put.Texts[UnionSuite] {
		t.Error("union text changed across reopen")
	}
	if _, err := got.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestGetLoadsLegacyBackendManifest: manifests written before the engine
// had a single explore path carry a "backend" provenance field. Such
// entries must keep loading (the field is ignored) rather than turning
// every old cache entry into a miss.
func TestGetLoadsLegacyBackendManifest(t *testing.T) {
	res := synthesizeSC(t, 3)
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	put, err := s1.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", put.Manifest.Digest, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(raw), `"model": "sc",`, `"model": "sc",
  "backend": "sat",`, 1)
	if legacy == string(raw) {
		t.Fatalf("manifest has no model line to anchor the legacy field:\n%s", raw)
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0) // fresh LRU: Get must read the edited manifest
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(put.Manifest.Digest)
	if err != nil {
		t.Fatalf("legacy manifest: %v", err)
	}
	if got.Texts[UnionSuite] != put.Texts[UnionSuite] {
		t.Error("union text changed")
	}
	if _, err := got.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestGetNotFound(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(strings.Repeat("0", 64)); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty store: %v, want ErrNotFound", err)
	}
}

func TestPutRejectsPartialResult(t *testing.T) {
	res := synthesizeSC(t, 3)
	res.Stats.Interrupted = true
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(res); !errors.Is(err, ErrPartialResult) {
		t.Errorf("Put(interrupted) = %v, want ErrPartialResult", err)
	}
}

func TestEvict(t *testing.T) {
	res := synthesizeSC(t, 3)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	put, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	digest := put.Manifest.Digest
	if err := s.Evict(digest); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(digest); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Evict: %v, want ErrNotFound", err)
	}
	if err := s.Evict(digest); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Evict: %v, want ErrNotFound", err)
	}
}

func TestListAndLRUBound(t *testing.T) {
	sc3 := synthesizeSC(t, 3)
	sc4 := synthesizeSC(t, 4)
	s, err := Open(t.TempDir(), 1) // cache holds one entry
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(sc3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(sc4); err != nil {
		t.Fatal(err)
	}
	if n := s.CacheLen(); n != 1 {
		t.Errorf("cache len = %d, want 1 (bounded)", n)
	}
	// The evicted-from-cache entry is still served from disk.
	if _, err := s.Get(Digest("sc", "", synth.Options{MaxEvents: 3})); err != nil {
		t.Fatal(err)
	}
	manifests, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(manifests))
	}
	for _, m := range manifests {
		if m.Model != "sc" || m.EngineVersion != synth.EngineVersion {
			t.Errorf("bad listed manifest: %+v", m)
		}
	}
}

func TestPutFirstWinsOnRaceLeftovers(t *testing.T) {
	// Simulate a lost rename race: the entry dir already exists.
	res := synthesizeSC(t, 3)
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	if second.Manifest.Digest != first.Manifest.Digest {
		t.Errorf("second Put digest %s, want %s", second.Manifest.Digest, first.Manifest.Digest)
	}
	// No staging garbage left behind.
	leftovers, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("tmp dir has %d leftovers", len(leftovers))
	}
}

func BenchmarkStoreGet(b *testing.B) {
	res := synthesizeSC(b, 4)
	dir := b.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	put, err := s.Put(res)
	if err != nil {
		b.Fatal(err)
	}
	digest := put.Manifest.Digest

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Get(digest); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold, err := Open(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := cold.Get(digest); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// memPeer is an in-memory Peer backed by another Store.
type memPeer struct {
	src   *Store
	calls int
}

func (p *memPeer) FetchSuite(_ context.Context, digest string) (*StoredSuite, error) {
	p.calls++
	return p.src.Get(digest)
}

// TestGetThroughPeer: a local miss is served from the peer, persisted
// locally byte-identically, and subsequent reads stay local.
func TestGetThroughPeer(t *testing.T) {
	res := synthesizeSC(t, 4)
	remote, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Put(res); err != nil {
		t.Fatal(err)
	}
	digest := Digest(res.Model, res.ModelDigest, res.Options)

	local, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	peer := &memPeer{src: remote}

	ss, fromPeer, err := local.GetThrough(context.Background(), digest, peer)
	if err != nil {
		t.Fatal(err)
	}
	if !fromPeer || peer.calls != 1 {
		t.Errorf("first read: fromPeer=%t calls=%d, want true/1", fromPeer, peer.calls)
	}
	want, err := remote.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range want.Texts {
		if got := ss.Texts[name]; got != text {
			t.Errorf("peer-fetched suite %q differs from origin bytes", name)
		}
	}

	// Now persisted locally: the peer must not be consulted again, even
	// with a cold in-memory cache.
	local2, err := Open(local.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, fromPeer, err = local2.GetThrough(context.Background(), digest, peer)
	if err != nil {
		t.Fatal(err)
	}
	if fromPeer || peer.calls != 1 {
		t.Errorf("second read: fromPeer=%t calls=%d, want false/1", fromPeer, peer.calls)
	}

	// A digest neither side has propagates ErrNotFound.
	if _, _, err := local.GetThrough(context.Background(), strings.Repeat("0", 64), peer); !errors.Is(err, ErrNotFound) {
		t.Errorf("double miss: %v, want ErrNotFound", err)
	}
	// A nil peer degrades to plain Get.
	if _, _, err := local.GetThrough(context.Background(), strings.Repeat("1", 64), nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("nil peer: %v, want ErrNotFound", err)
	}
}

// badPeer returns a suite under the wrong digest.
type badPeer struct{ ss *StoredSuite }

func (p *badPeer) FetchSuite(context.Context, string) (*StoredSuite, error) { return p.ss, nil }

func TestGetThroughRejectsWrongDigest(t *testing.T) {
	res := synthesizeSC(t, 3)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.GetThrough(context.Background(), strings.Repeat("2", 64), &badPeer{ss: ss})
	if err == nil || !strings.Contains(err.Error(), "wrong digest") {
		t.Errorf("wrong-digest peer response accepted: %v", err)
	}
}

// TestCountersAndDiskBytes: the read-cache tier counters and the on-disk
// gauge move as expected.
func TestCountersAndDiskBytes(t *testing.T) {
	res := synthesizeSC(t, 3)
	s, err := Open(t.TempDir(), 1) // capacity 1 forces LRU eviction
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(res); err != nil {
		t.Fatal(err)
	}
	digest := Digest(res.Model, res.ModelDigest, res.Options)

	if _, err := s.Get(digest); err != nil { // warm (Put cached it): hit
		t.Fatal(err)
	}
	c := s.Counters()
	if c.CacheHits != 1 || c.CacheMisses != 0 {
		t.Errorf("after warm get: %+v, want 1 hit / 0 misses", c)
	}

	// A second entry at capacity 1 evicts the first; re-reading it is a
	// cache miss served from disk.
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	res2 := synth.Synthesize(m, synth.Options{MaxEvents: 3})
	if _, err := s.Put(res2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(digest); err != nil {
		t.Fatal(err)
	}
	c = s.Counters()
	if c.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1", c.CacheMisses)
	}
	if c.CacheEvictions < 1 {
		t.Errorf("CacheEvictions = %d, want >= 1", c.CacheEvictions)
	}

	bytes, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Errorf("DiskBytes = %d, want > 0", bytes)
	}
	if err := s.Evict(digest); err != nil {
		t.Fatal(err)
	}
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= bytes {
		t.Errorf("DiskBytes after evict = %d, want < %d", after, bytes)
	}
}
