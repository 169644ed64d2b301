package canon

import (
	"bytes"
	"encoding/binary"

	"memsynth/internal/litmus"
)

// ProgramKey returns the canonical key of the test alone (ignoring any
// execution): the lexicographically least binary encoding over all thread
// permutations, with addresses and groups renamed in first-use order.
//
// The key is opaque binary, meant only for equality: two programs share it
// exactly when they differ by a thread permutation, an address renaming
// and a group renaming. Under one permutation the encoding is
//
//	threads
//	per thread: group, event count, per event Kind Order Fence Scope addr
//	deps count, (from, to, type) triples sorted in new-ID order
//	RMW count, (read, write) pairs sorted in new-ID order
//
// with every integer a uvarint (one byte each for Kind, Order, Fence and
// Scope), addr = renamed address + 1 and 0 for a fence, so it stays
// injective at any test size. A thread's bytes depend only on the threads
// placed before it, so the search drops a partial permutation as soon as
// its prefix is greater than the best key's.
func ProgramKey(t *litmus.Test) string {
	var s programSearch
	s.init(t)
	s.search(0, 0)
	return string(s.best)
}

// programSearch is the scratch state of one ProgramKey call.
type programSearch struct {
	t     *litmus.Test
	start []int // start[th]: first event ID of thread th
	end   []int // end[th]: one past its last event ID
	perm  []int // perm[newThread] = oldThread; perm[k:] are unplaced
	// groupRep[th] is the lowest thread index with th's scope group;
	// groupRen[rep] is that group's new name + 1, 0 while unnamed.
	groupRep, groupRen []int
	// slot[id] indexes addrRen by the event's address (-1 for fences);
	// addrRen[slot] is the address's new name + 1, 0 while unnamed.
	slot, addrRen []int
	groups, addrs int    // names handed out so far
	newID         []int  // newID[oldID] under the current permutation
	tuples        []int  // dep triples, then RMW pairs, flattened
	cur, best     []byte // best is empty until the first complete key
}

func (s *programSearch) init(t *litmus.Test) {
	s.t = t
	n, events := t.NumThreads(), len(t.Events)
	maxAddr := -1
	for i := range t.Events {
		if a := t.Events[i].Addr; a > maxAddr {
			maxAddr = a
		}
	}
	addrSlots := maxAddr + 1
	if addrSlots > events {
		// Unvalidated input with sparse addresses: renumber them densely.
		addrSlots = events
	}
	tuples := 3 * len(t.Deps)
	if r := 2 * len(t.RMW); r > tuples {
		tuples = r
	}
	ints := make([]int, 5*n+addrSlots+2*events+tuples)
	take := func(k int) []int {
		out := ints[:k:k]
		ints = ints[k:]
		return out
	}
	s.start, s.end, s.perm = take(n), take(n), take(n)
	s.groupRep, s.groupRen = take(n), take(n)
	s.addrRen, s.slot, s.newID = take(addrSlots), take(events), take(events)
	s.tuples = take(tuples)[:0]

	for th := range s.perm {
		s.perm[th], s.groupRep[th] = th, th
		for r := 0; r < th; r++ {
			if t.GroupOf(r) == t.GroupOf(th) {
				s.groupRep[th] = r
				break
			}
		}
	}
	var sparse map[int]int
	for id := len(t.Events) - 1; id >= 0; id-- {
		e := &t.Events[id]
		s.start[e.Thread] = id
		if s.end[e.Thread] == 0 {
			s.end[e.Thread] = id + 1
		}
		switch {
		case e.Addr < 0:
			s.slot[id] = -1
		case maxAddr < events:
			s.slot[id] = e.Addr
		default:
			if sparse == nil {
				sparse = make(map[int]int)
			}
			if _, ok := sparse[e.Addr]; !ok {
				sparse[e.Addr] = len(sparse)
			}
			s.slot[id] = sparse[e.Addr]
		}
	}

	// One byte per Kind/Order/Fence/Scope, uvarints elsewhere; the
	// buffers grow past this only for keys with multi-byte integers.
	size := 1 + 2*n + 5*events + 2 + 3*len(t.Deps) + 2*len(t.RMW)
	buf := make([]byte, 2*size)
	s.cur, s.best = buf[:0:size], buf[size:size]
	s.cur = binary.AppendUvarint(s.cur, uint64(n))
}

// search places a thread at position k, whose first event gets new ID
// next, and recurses; at k == len(perm) it completes the key.
func (s *programSearch) search(k, next int) {
	if k == len(s.perm) {
		s.leaf()
		return
	}
	mark, groups, addrs := len(s.cur), s.groups, s.addrs
	for i := k; i < len(s.perm); i++ {
		s.perm[k], s.perm[i] = s.perm[i], s.perm[k]
		th := s.perm[k]
		s.appendThread(th, next)
		if !s.beaten() {
			s.search(k+1, next+s.end[th]-s.start[th])
		}
		// Forget the names this thread handed out.
		if g := s.groupRep[th]; s.groupRen[g] > groups {
			s.groupRen[g] = 0
		}
		for id := s.start[th]; id < s.end[th]; id++ {
			if a := s.slot[id]; a >= 0 && s.addrRen[a] > addrs {
				s.addrRen[a] = 0
			}
		}
		s.groups, s.addrs, s.cur = groups, addrs, s.cur[:mark]
		s.perm[k], s.perm[i] = s.perm[i], s.perm[k]
	}
}

// appendThread appends thread th's bytes, naming its group and addresses
// on first use and numbering its events from next.
func (s *programSearch) appendThread(th, next int) {
	g := s.groupRep[th]
	if s.groupRen[g] == 0 {
		s.groups++
		s.groupRen[g] = s.groups
	}
	s.cur = binary.AppendUvarint(s.cur, uint64(s.groupRen[g]-1))
	s.cur = binary.AppendUvarint(s.cur, uint64(s.end[th]-s.start[th]))
	for id := s.start[th]; id < s.end[th]; id++ {
		s.newID[id] = next + id - s.start[th]
		addr := 0 // a fence
		if a := s.slot[id]; a >= 0 {
			if s.addrRen[a] == 0 {
				s.addrs++
				s.addrRen[a] = s.addrs
			}
			addr = s.addrRen[a]
		}
		e := &s.t.Events[id]
		s.cur = append(s.cur, byte(e.Kind), byte(e.Order), byte(e.Fence), byte(e.Scope))
		s.cur = binary.AppendUvarint(s.cur, uint64(addr))
	}
}

// beaten reports whether the partial key is already greater than the best
// complete key, so no completion of it can be the least.
func (s *programSearch) beaten() bool {
	return len(s.best) > 0 && bytes.Compare(s.cur, s.best[:min(len(s.cur), len(s.best))]) > 0
}

// leaf appends the dependency and RMW lists under the complete
// permutation and keeps the result if it is the least key so far.
func (s *programSearch) leaf() {
	mark := len(s.cur)
	tp := s.tuples[:0]
	for _, d := range s.t.Deps {
		tp = append(tp, s.newID[d.From], s.newID[d.To], int(d.Type))
	}
	s.appendTuples(tp, 3)
	tp = tp[:0]
	for _, p := range s.t.RMW {
		tp = append(tp, s.newID[p[0]], s.newID[p[1]])
	}
	s.appendTuples(tp, 2)
	if len(s.best) == 0 || bytes.Compare(s.cur, s.best) < 0 {
		s.best = append(s.best[:0], s.cur...)
	}
	s.cur = s.cur[:mark]
}

// appendTuples sorts the flattened width-w tuples and appends their count
// and values.
func (s *programSearch) appendTuples(tp []int, w int) {
	for i := w; i < len(tp); i += w {
		for j := i; j > 0 && lessTuple(tp[j:j+w], tp[j-w:j]); j -= w {
			for c := 0; c < w; c++ {
				tp[j+c], tp[j-w+c] = tp[j-w+c], tp[j+c]
			}
		}
	}
	s.cur = binary.AppendUvarint(s.cur, uint64(len(tp)/w))
	for _, v := range tp {
		s.cur = binary.AppendUvarint(s.cur, uint64(v))
	}
}

func lessTuple(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
