package canon_test

import (
	"fmt"
	"strings"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
)

// The original fmt-based canonicalizer, frozen as the oracle for the
// program-key rewrite: oracleKey(t, nil) is the former ProgramKey and
// oracleKey(x.Test, x) must equal Key(x) byte for byte. Do not edit.

func oracleKey(t *litmus.Test, x *exec.Execution) string {
	numThreads := t.NumThreads()
	best := ""
	perm := make([]int, numThreads)
	for i := range perm {
		perm[i] = i
	}
	oracleForEachPerm(perm, func(p []int) {
		enc := oracleEncode(t, x, p)
		if best == "" || enc < best {
			best = enc
		}
	})
	return best
}

func oracleForEachPerm(items []int, visit func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(items) {
			visit(items)
			return
		}
		for i := k; i < len(items); i++ {
			items[k], items[i] = items[i], items[k]
			rec(k + 1)
			items[k], items[i] = items[i], items[k]
		}
	}
	rec(0)
}

func oracleEncode(t *litmus.Test, x *exec.Execution, perm []int) string {
	newID := make([]int, len(t.Events))
	var order []int
	for _, oldTh := range perm {
		for _, id := range t.Thread(oldTh) {
			newID[id] = len(order)
			order = append(order, id)
		}
	}

	addrRename := map[int]int{}
	addrOf := func(a int) int {
		if a < 0 {
			return -1
		}
		if r, ok := addrRename[a]; ok {
			return r
		}
		r := len(addrRename)
		addrRename[a] = r
		return r
	}

	groupRename := map[int]int{}
	groupOf := func(oldTh int) int {
		g := t.GroupOf(oldTh)
		if r, ok := groupRename[g]; ok {
			return r
		}
		r := len(groupRename)
		groupRename[g] = r
		return r
	}

	var b strings.Builder
	for newTh, oldTh := range perm {
		fmt.Fprintf(&b, "T%d,g%d:", newTh, groupOf(oldTh))
		for _, id := range t.Thread(oldTh) {
			e := t.Events[id]
			fmt.Fprintf(&b, "[k%do%df%ds%da%d]",
				e.Kind, e.Order, e.Fence, e.Scope, addrOf(e.Addr))
		}
		b.WriteByte(';')
	}

	b.WriteString("D")
	for _, d := range oracleSortedPairs3(t.Deps, newID) {
		fmt.Fprintf(&b, "(%d,%d,%d)", d[0], d[1], d[2])
	}
	b.WriteString("M")
	for _, p := range oracleSortedPairs2(t.RMW, newID) {
		fmt.Fprintf(&b, "(%d,%d)", p[0], p[1])
	}

	if x == nil {
		return b.String()
	}

	b.WriteString("R")
	for _, id := range order {
		if t.Events[id].Kind != litmus.KRead {
			continue
		}
		src := x.RF[id]
		if src < 0 {
			b.WriteString("(i)")
		} else {
			fmt.Fprintf(&b, "(%d)", newID[src])
		}
	}
	b.WriteString("C")
	inv := make([]int, len(addrRename))
	for old, canon := range addrRename {
		inv[canon] = old
	}
	for canonAddr := 0; canonAddr < len(inv); canonAddr++ {
		oldAddr := inv[canonAddr]
		b.WriteByte('|')
		if oldAddr < len(x.CO) {
			for _, w := range x.CO[oldAddr] {
				fmt.Fprintf(&b, "%d,", newID[w])
			}
		}
	}
	if x.SC != nil {
		b.WriteString("S")
		for _, f := range x.SC {
			fmt.Fprintf(&b, "%d,", newID[f])
		}
	}
	return b.String()
}

func oracleSortedPairs3(deps []litmus.Dep, newID []int) [][3]int {
	out := make([][3]int, 0, len(deps))
	for _, d := range deps {
		out = append(out, [3]int{newID[d.From], newID[d.To], int(d.Type)})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && oracleLess3(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func oracleSortedPairs2(pairs [][2]int, newID []int) [][2]int {
	out := make([][2]int, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, [2]int{newID[p[0]], newID[p[1]]})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && oracleLess2(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func oracleLess2(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func oracleLess3(a, b [3]int) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
