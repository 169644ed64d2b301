package main

import (
	"fmt"

	"memsynth/internal/synth"
)

// Workloads. The names are stable: change requests and compare reports
// cite them.
//
// explore-tso7: tso, MaxEvents=7, MaxAddrs=1, Workers=nproc.
//
//	Chosen as the explore-heavy case. About 90% of CPU goes to exec
//	enumeration, admit Decide and minimal Check, and about 12% to
//	generation plus canon. Fast admissibility does most of its work here
//	(5,036,479 of 6,689,074 candidates are decided without enumeration),
//	so admit and shared-bind work shows here, and canon work should show
//	almost nothing. Expected union: 14 entries from 8432 distinct
//	programs, 1,652,595 enumerated and 5,036,479 fast-decided executions.
//
// front-c11-4: c11, MaxEvents=4, default bounds, Workers=nproc.
//
//	Chosen as the front-end case. Generation plus canon.ProgramKey take
//	about half of CPU and minimality the other half. admit is bypassed
//	because c11 has no algorithm yet, so an admit change must not move
//	this workload; a canon rewrite shows here. Expected union: 20 entries
//	from 14,853 distinct programs out of 21,581 generated. One synthesis
//	takes about 1.1 s, so a run repeats it and reports the median.
//
// serve-mix: an in-process memsynthd (server.New(...).Handler() on a
// loopback listener) over a fresh store with the default 64-entry LRU,
// driven by 2 closed-loop clients on 2 keep-alive connections. A seeded
// draw picks each request:
//
//   - 90% hits: POST /v1/synthesize with format=litmus, drawn from
//     128 distinct cheap requests synthesized during set-up. That is twice
//     the LRU size, so both LRU hits and disk loads occur;
//   - 10% cold writes: DELETE /v1/suites/{d}, then POST
//     /v1/synthesize, drawn from sc@4, tso@4, power@3, c11@3 and scc@3
//     (each 8-30 ms of engine time).
//
//	Chosen because it uses the store for writes beside reads, and the
//	engine as many tiny runs where per-run fixed costs dominate. A gain on
//	the two engine workloads that costs this use shows here.
//
// Predictions: which end-to-end figure each per-layer metric should move,
// and on which workload. Later changes cite these.
//
//	synth.gen.ns, synth.gen.programs_raw        -> synth time on front-c11-4
//	canon.program_key.ns/.calls,
//	canon.dedupe.distinct_ratio                 -> synth time on front-c11-4;
//	                                               barely on explore-tso7
//	canon.key.ns/.calls                         -> minimal executions only:
//	                                               small on every workload
//	minimal.bind.ns, minimal.check.ns/.calls,
//	minimal.check.minimal_ratio                 -> synth time on explore-tso7
//	                                               and front-c11-4
//	admit.bind.ns, admit.decide.ns/.calls,
//	admit.decide.refuted_ratio                  -> synth time on explore-tso7
//	                                               only
//	exec.enumerate.ns (self time, without the
//	visit and RFFilter callbacks)               -> synth time on explore-tso7
//	exec.enumerate.executions/.executions_fast,
//	exec.candidates_{total,enumerated}_per_s    -> stable-meaning explore
//	                                               counters (never redefined)
//	synth.merge.ns                              -> suite assembly through
//	                                               synth.NewSuite
//	synth.alloc_mb, synth.gc_cycles             -> CPU per synthesis and
//	                                               peak_rss_mb
//	synth.stage.*_ns                            -> copied from the untraced
//	                                               run's Stats.Stages; they
//	                                               cross-check the replay
//	store.get_lru.ns, store.get_disk.ns,
//	store.lru_hit_ratio                         -> hit latency on serve-mix
//	store.encode.ns, store.put.ns               -> cold-write latency on
//	                                               serve-mix
//	server.hit_overhead_ns (hit latency minus
//	store.Get time)                             -> hit latency on serve-mix
//	server.synth_runs, server.coalesced         -> read from /metrics
//	trace.overhead_ratio                        -> traced CPU / untraced CPU
//
// In the gated metrics, "synth time" is synth_p50_ms and ops_per_s on the
// engine workloads, and "cold-write latency" synth_p50_ms on serve-mix,
// where ops_per_s carries the whole mix. CPU per synthesis and hit
// latency are reported (synth_cpu_s, hit_p50_ms, hit_p99_ms) but not
// gated.

// reference pins a synthesis output as the seed commit produced it.
// Fields left zero are not checked.
type reference struct {
	Digest   string         // store.DigestModel of the request
	Union    int            // union suite entries
	PerAxiom map[string]int // entries per axiom suite
	// UnionKeys is the SHA-256 of the union entries' canonical keys, one
	// per line, in suite order.
	UnionKeys string
	// Programs counts distinct programs; Candidates counts enumerated
	// plus fast-decided executions. Both are fixed by the model and the
	// bounds, whatever the search strategy.
	Programs   int
	Candidates int
}

// engineRequest is one synthesis request with its pinned output.
type engineRequest struct {
	Model string
	Opts  synth.Options
	Ref   reference
}

func (r engineRequest) String() string {
	return fmt.Sprintf("%s@%d", r.Model, r.Opts.MaxEvents)
}

// engineWorkload is a workload that calls the engine directly.
type engineWorkload struct {
	Main engineRequest
	// Warmup runs during set-up so lazy initialization and allocator
	// growth are paid before timing starts.
	Warmup engineRequest
}

var engineWorkloads = map[string]engineWorkload{
	"explore-tso7": {
		Main: engineRequest{Model: "tso", Opts: synth.Options{MaxEvents: 7, MaxAddrs: 1}, Ref: reference{
			Digest:     "374b43e558b0421ac5b512b370e112f6c0cede036dfd07ccc6026ec1b9042a8b",
			Union:      14,
			PerAxiom:   map[string]int{"causality": 6, "rmw_atomicity": 4, "sc_per_loc": 10},
			UnionKeys:  "404f22ba08df4b9f1c29334b40d0a6176565977be76009f6b6640f67838435e0",
			Programs:   8432,
			Candidates: 6689074,
		}},
		Warmup: engineRequest{Model: "tso", Opts: synth.Options{MaxEvents: 6, MaxAddrs: 1}, Ref: reference{
			Digest:     "bd4b3fd0a541eb2353fb8c6d0ce72f113927520ecae47c7892932da52761d4a2",
			Union:      14,
			PerAxiom:   map[string]int{"causality": 6, "rmw_atomicity": 4, "sc_per_loc": 10},
			UnionKeys:  "404f22ba08df4b9f1c29334b40d0a6176565977be76009f6b6640f67838435e0",
			Programs:   2216,
			Candidates: 370774,
		}},
	},
	"front-c11-4": {
		Main: engineRequest{Model: "c11", Opts: synth.Options{MaxEvents: 4}, Ref: reference{
			Digest:     "48bf6be590aa6ac11ad5698a8435c82e2d87fa29aa6b88365faf056d23d5eb96",
			Union:      20,
			PerAxiom:   map[string]int{"coherence": 12, "no_thin_air": 2, "rmw_atomicity": 4, "sc": 3},
			UnionKeys:  "0ec56dfb81fd1893b35e82ea14c5e4a26fc119d36d7366223a166c92e5ca3f23",
			Programs:   14853,
			Candidates: 119248,
		}},
		Warmup: c11at3,
	},
}

var c11at3 = engineRequest{Model: "c11", Opts: synth.Options{MaxEvents: 3}, Ref: reference{
	Digest:     "f60030425cb3e14d9be140fecbfb7c09cac76223c92ad087ef9374f294edf26f",
	Union:      8,
	PerAxiom:   map[string]int{"coherence": 7, "no_thin_air": 1, "rmw_atomicity": 1, "sc": 0},
	UnionKeys:  "8b59d54696794488a191f2e835c6d9c153adde1463199bb80a9c91d8a416f55f",
	Programs:   612,
	Candidates: 2668,
}}

// coldPool are serve-mix's cold writes, at default bounds otherwise.
var coldPool = []engineRequest{
	{Model: "sc", Opts: synth.Options{MaxEvents: 4}, Ref: reference{
		Digest:     "d9081f77f85465f2ecec1cbeb20907377003cc2e6786a8ea798d37b66db82b5b",
		Union:      20,
		PerAxiom:   map[string]int{"rmw_atomicity": 4, "sc_order": 16},
		UnionKeys:  "46afa990f1de78b0811f895a43cc5a89c1bac45727b67a67815796f7a86e93d7",
		Programs:   219,
		Candidates: 1970,
	}},
	{Model: "tso", Opts: synth.Options{MaxEvents: 4}, Ref: reference{
		Digest:     "4284f1cbd1370809107fd0c328f77e647eda6d58535036bc5a191b9d3b2f9f41",
		Union:      18,
		PerAxiom:   map[string]int{"causality": 10, "rmw_atomicity": 4, "sc_per_loc": 10},
		UnionKeys:  "28db15d5ca730762a6214cabbf839e89971055b77d872748a72ae84d68051762",
		Programs:   250,
		Candidates: 2110,
	}},
	{Model: "power", Opts: synth.Options{MaxEvents: 3}, Ref: reference{
		Digest:     "0fcc11d9e7122ac89a672a7463aa82ddad0c284a737b8e795b6ba4b402729b3b",
		Union:      8,
		PerAxiom:   map[string]int{"no_thin_air": 0, "observation": 0, "propagation": 0, "rmw_atomicity": 1, "sc_per_loc": 7},
		UnionKeys:  "8b59d54696794488a191f2e835c6d9c153adde1463199bb80a9c91d8a416f55f",
		Programs:   521,
		Candidates: 1081,
	}},
	c11at3,
	{Model: "scc", Opts: synth.Options{MaxEvents: 3}, Ref: reference{
		Digest:     "631f0244e8452779002f58d9cf59fe8065851387e2ac4e0bc129b03ee3bc3be1",
		Union:      8,
		PerAxiom:   map[string]int{"causality": 0, "no_thin_air": 0, "rmw_atomicity": 1, "sc_per_loc": 7},
		UnionKeys:  "8b59d54696794488a191f2e835c6d9c153adde1463199bb80a9c91d8a416f55f",
		Programs:   1326,
		Candidates: 2911,
	}},
}

// hitPool returns serve-mix's 128 distinct cheap requests: four fast
// models at MaxEvents=3 crossed with two values each of five bounds. Each
// combination normalizes differently, so each has its own store digest.
func hitPool() []engineRequest {
	var pool []engineRequest
	for _, model := range []string{"sc", "tso", "power", "armv7"} {
		for _, threads := range []int{2, 3} {
			for _, addrs := range []int{1, 2} {
				for _, deps := range []int{1, 2} {
					for _, rmws := range []int{1, 2} {
						for _, fences := range []bool{false, true} {
							pool = append(pool, engineRequest{Model: model, Opts: synth.Options{
								MaxEvents: 3, MaxThreads: threads, MaxAddrs: addrs,
								MaxDeps: deps, MaxRMWs: rmws, KeepTrivialFences: fences,
							}})
						}
					}
				}
			}
		}
	}
	return pool
}

// serve-mix traffic shape: the client count is capped at nproc at run
// time. Each client's requests come in blocks of every cold-pool request
// once plus hitsPerCold hits per cold write, shuffled by the seed: the mix
// is exactly 90/10 and every cold request weighs the same in every run,
// where independent draws would let the costly cold share wander by
// several percent from seed to seed.
const (
	serveClients = 2
	hitsPerCold  = 9
)

// workloadNames lists every workload in BENCHMARK.json order.
var workloadNames = []string{"explore-tso7", "front-c11-4", "serve-mix"}
