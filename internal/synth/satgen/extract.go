package satgen

import (
	"sort"

	"memsynth/internal/exec"
	"memsynth/internal/rml"
)

// extract converts one rml model of the minimality query into the
// execution representation the engine's checker and canonicalizer consume:
// RF maps each read to its source write (-1 for the initial value), and
// CO[addr] lists the address's writes in coherence order (recovered from
// the strict total order by descending out-degree).
func (enc *progEncoding) extract(m rml.Model) *exec.Execution {
	rfR, coR := m["rf"], m["co"]
	x := &exec.Execution{
		Test: enc.t,
		RF:   make([]int, len(enc.t.Events)),
		CO:   make([][]int, len(enc.writesByAddr)),
	}
	for i := range x.RF {
		x.RF[i] = -1
	}
	for _, r := range enc.reads {
		for _, w := range enc.writesByAddr[enc.t.Events[r].Addr] {
			if rfR.Has(w, r) {
				x.RF[r] = w
				break
			}
		}
	}
	for addr, ws := range enc.writesByAddr {
		if len(ws) == 0 {
			continue
		}
		perm := append([]int(nil), ws...)
		outDeg := func(w int) int {
			d := 0
			for _, u := range ws {
				if u != w && coR.Has(w, u) {
					d++
				}
			}
			return d
		}
		sort.Slice(perm, func(i, j int) bool { return outDeg(perm[i]) > outDeg(perm[j]) })
		x.CO[addr] = perm
	}
	return x
}

// rankDigits maps an execution to its position in exec.Enumerate's visit
// order as a lexicographic digit vector: one digit per read (0 for the
// initial value, then 1+index into the address's writes), then for each
// address the digit trail of forEachPermutation's swap recursion. Sorting
// SAT candidates by this rank lists them in the order the exhaustive
// enumerator visits them, so the two can be compared in sequence.
func rankDigits(x *exec.Execution, enc *progEncoding) []int {
	digits := make([]int, 0, len(enc.reads)+len(enc.t.Events))
	for _, r := range enc.reads {
		ws := enc.writesByAddr[x.Test.Events[r].Addr]
		d := 0
		if src := x.RF[r]; src >= 0 {
			for i, w := range ws {
				if w == src {
					d = i + 1
					break
				}
			}
		}
		digits = append(digits, d)
	}
	for addr, ws := range enc.writesByAddr {
		if len(ws) == 0 {
			continue
		}
		perm := append([]int(nil), ws...)
		for k := 0; k < len(perm); k++ {
			for i := k; i < len(perm); i++ {
				if perm[i] == x.CO[addr][k] {
					digits = append(digits, i-k)
					perm[k], perm[i] = perm[i], perm[k]
					break
				}
			}
		}
	}
	return digits
}

// sortByEnumerationRank orders candidates by exec.Enumerate's visit order.
func sortByEnumerationRank(cands []*exec.Execution, enc *progEncoding) {
	if len(cands) < 2 {
		return
	}
	ranks := make([][]int, len(cands))
	idx := make([]int, len(cands))
	for i, x := range cands {
		ranks[i] = rankDigits(x, enc)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := ranks[idx[a]], ranks[idx[b]]
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
	sorted := make([]*exec.Execution, len(cands))
	for i, j := range idx {
		sorted[i] = cands[j]
	}
	copy(cands, sorted)
}
