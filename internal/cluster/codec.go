package cluster

import (
	"fmt"

	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// WireShardEntry is one shard finding on the wire: the merge coordinates
// (Size, Winner, Within), the axiom memberships, and the store's manifest
// of the entry (key, size, witness relations). The test program itself
// travels in the result's suite text (one litmus test per entry, in entry
// order), so the wire format is the store's entry encoding — the decode
// side rebuilds exactly the synth.Entry a local run would have produced.
type WireShardEntry struct {
	Winner int      `json:"winner"`
	Within int      `json:"within"`
	Axioms []string `json:"axioms"`
	store.EntryManifest
}

// WireShardResult is the upload body of POST /v1/cluster/shards/{d}/result.
type WireShardResult struct {
	ShardDigest   string               `json:"shard_digest"`
	EngineVersion string               `json:"engine_version"`
	Model         string               `json:"model"`
	ModelSource   string               `json:"model_source,omitempty"`
	ModelDigest   string               `json:"model_digest,omitempty"`
	Options       store.RequestOptions `json:"options"`
	Index         int                  `json:"index"`
	Stride        int                  `json:"stride"`
	// SuiteText holds the shard's found tests as litmus text, one test
	// per entry in Entries order.
	SuiteText string           `json:"suite_text"`
	Entries   []WireShardEntry `json:"entries"`
	// EntriesFound and Interrupted carry the two synth.Stats fields
	// StatsManifest leaves out.
	EntriesFound int                 `json:"entries_found"`
	Stats        store.StatsManifest `json:"stats"`
	Interrupted  bool                `json:"interrupted,omitempty"`
}

// EncodeShardResult serializes a shard run for upload.
func EncodeShardResult(shardDigest string, sr *synth.ShardResult) *WireShardResult {
	found := make([]synth.Entry, len(sr.Entries))
	for i, se := range sr.Entries {
		found[i] = se.Entry
	}
	text, ems := store.EncodeEntries(found)
	entries := make([]WireShardEntry, len(sr.Entries))
	for i, se := range sr.Entries {
		entries[i] = WireShardEntry{Winner: se.Winner, Within: se.Within, Axioms: se.Axioms, EntryManifest: ems[i]}
	}
	return &WireShardResult{
		ShardDigest:   shardDigest,
		EngineVersion: synth.EngineVersion,
		Model:         sr.Model,
		ModelSource:   sr.ModelSource,
		ModelDigest:   sr.ModelDigest,
		Options:       store.FromSynthOptions(sr.Options),
		Index:         sr.Shard.Index,
		Stride:        sr.Shard.Stride,
		SuiteText:     text,
		Entries:       entries,
		EntriesFound:  sr.Stats.Entries,
		Stats:         store.FromSynthStats(sr.Stats),
		Interrupted:   sr.Stats.Interrupted,
	}
}

// DecodeShardResult rebuilds the synth.ShardResult from its wire form,
// reparsing each entry's test from the suite text and reattaching its
// witness execution. Engine-version mismatches are rejected outright: a
// shard synthesized by a different engine must never reach a merge.
func DecodeShardResult(w *WireShardResult) (*synth.ShardResult, error) {
	if w.EngineVersion != synth.EngineVersion {
		return nil, fmt.Errorf("cluster: shard result from engine version %q, want %q",
			w.EngineVersion, synth.EngineVersion)
	}
	ems := make([]store.EntryManifest, len(w.Entries))
	for i, we := range w.Entries {
		ems[i] = we.EntryManifest
	}
	found, err := store.DecodeEntries(w.SuiteText, ems)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", w.ShardDigest, err)
	}
	sr := &synth.ShardResult{
		Model:       w.Model,
		ModelSource: w.ModelSource,
		ModelDigest: w.ModelDigest,
		Options:     w.Options.SynthOptions().Normalize(),
		Shard:       synth.ShardSpec{Index: w.Index, Stride: w.Stride},
		Entries:     make([]synth.ShardEntry, len(w.Entries)),
		Stats:       w.Stats.SynthStats(),
	}
	sr.Stats.Entries = w.EntriesFound
	sr.Stats.Interrupted = w.Interrupted
	for i, we := range w.Entries {
		sr.Entries[i] = synth.ShardEntry{
			Size:   we.Size,
			Winner: we.Winner,
			Within: we.Within,
			Axioms: we.Axioms,
			Entry:  found[i],
		}
	}
	return sr, nil
}
