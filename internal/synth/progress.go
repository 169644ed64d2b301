package synth

import (
	"sync"
	"time"
)

// Progress event phases. Generate and Explore mark per-size stage
// transitions; Tick is a periodic counter snapshot; Done is the final
// event (emitted exactly once, after merging, including on interruption).
const (
	PhaseGenerate = "generate"
	PhaseExplore  = "explore"
	PhaseTick     = "tick"
	PhaseDone     = "done"
)

// ProgressEvent is one streamed engine observation. Counters are
// cumulative across the whole run and monotonically non-decreasing from
// event to event.
type ProgressEvent struct {
	// Model is the memory model being synthesized.
	Model string
	// Phase is one of PhaseGenerate, PhaseExplore, PhaseTick, PhaseDone.
	Phase string
	// Size is the instruction-count currently being synthesized (the
	// last size started, for ticks; MaxEvents for the done event).
	Size int
	// ProgramsRaw counts generated programs before symmetry dedupe.
	ProgramsRaw int
	// Programs counts distinct canonical programs discovered so far.
	Programs int
	// Executions counts candidate executions enumerated and checked so
	// far.
	Executions int
	// ExecutionsFast counts candidate executions decided by the fast
	// admissibility filter so far without being enumerated.
	ExecutionsFast int
	// Entries counts distinct minimal tests (union suite keys) found.
	Entries int
	// ForbiddenOutcomes counts distinct forbidden (program, outcome)
	// pairs (only meaningful with Options.CountForbidden).
	ForbiddenOutcomes int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Interrupted reports whether the run was cancelled (set on the
	// done event of an interrupted run).
	Interrupted bool
}

// progressSink serializes ProgressEvent delivery: phase events come from
// the coordinating goroutine and ticks from a ticker goroutine, so the
// user callback is guarded by a mutex to guarantee sequential invocation.
// The done flag makes PhaseDone terminal: the ticker goroutine races the
// coordinator's final emit, and a tick that loses that race is dropped
// rather than delivered after the done event.
type progressSink struct {
	mu   sync.Mutex
	fn   func(ProgressEvent)
	e    *engine
	done bool
}

// emit delivers one event built from st, a snapshot of the engine's
// counters. Interrupted is reported on the done event only.
func (p *progressSink) emit(phase string, st Stats) {
	if p == nil || p.fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = phase == PhaseDone
	p.fn(ProgressEvent{
		Model:             p.e.model.Name(),
		Phase:             phase,
		Size:              int(p.e.size.Load()),
		ProgramsRaw:       st.ProgramsRaw,
		Programs:          st.Programs,
		Executions:        st.Executions,
		ExecutionsFast:    st.ExecutionsFast,
		Entries:           st.Entries,
		ForbiddenOutcomes: st.ForbiddenOutcomes,
		Elapsed:           st.Elapsed,
		Interrupted:       p.done && st.Interrupted,
	})
}

// loop emits periodic tick events until stop is closed.
func (p *progressSink) loop(interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.emit(PhaseTick, p.e.stats())
		case <-stop:
			return
		}
	}
}
