package graph

import "math"

// csr is the frozen compressed-sparse-row view of the candidate graph's
// transition structure — the hot-path representation behind RWR and Resolve.
// It is built once per document from the adjacency lists and then kept in
// sync incrementally: Algorithm 1's rewiring (keepOnly) zeroes the pruned
// edge slots in place instead of compacting, so the row layout never moves
// and no per-invocation rebuild is needed.
//
// Bitwise equivalence with the legacy map-based walker (reference.go) is a
// hard invariant, maintained by three properties:
//
//   - slot order equals adjacency-list insertion order, so the per-row
//     weight totals accumulate in the same float order as the legacy
//     transition() sum — a pruned slot contributes exactly +0.0, which
//     leaves every partial sum bit-identical (all weights are positive, so
//     no partial sum is ever -0.0);
//   - normalized weights are stored as w/rowTotal — the same division the
//     legacy path performs — recomputed lazily only for rows whose edges
//     changed (per-node edge-weight normalizers), never re-derived as
//     w·(1/rowTotal), which would round differently;
//   - the walk loop mirrors the legacy iteration exactly: restart mass
//     first, node order ascending, dangling rows (row total zero) return
//     their mass to the restart node, and the same L∞ convergence check
//     decides the early exit. (The check stays L∞, not L1: switching norms
//     would change iteration counts and break equivalence.)
type csr struct {
	n        int
	rowStart []int32
	arcs     []arc     // hot: (target, normalized weight) pairs, row-major
	w        []float64 // cold: raw edge weights; pruning zeroes slots in place
	dangling []bool    // row total is zero: the walk restarts from there
	dirty    []bool    // row needs renormalization before the next walk
	anyDirty bool

	p, next []float64 // scratch score vectors for the walker
}

// arc is one directed transition slot. The layout mirrors the legacy edge
// struct (16 bytes, one cache stream) so the inner walk loop touches memory
// exactly like the reference row walk — just without rebuilding the rows.
type arc struct {
	to int32
	nw float64 // row-stochastic weight w/rowTotal; 0 for pruned slots
}

// newCSR freezes the adjacency lists into CSR form. Slot order within each
// row is the adjacency insertion order (see the equivalence contract above).
func newCSR(adj [][]edge) *csr {
	n := len(adj)
	nnz := 0
	for _, es := range adj {
		nnz += len(es)
	}
	cs := &csr{
		n:        n,
		rowStart: make([]int32, n+1),
		arcs:     make([]arc, nnz),
		w:        make([]float64, nnz),
		dangling: make([]bool, n),
		dirty:    make([]bool, n),
		p:        make([]float64, n),
		next:     make([]float64, n),
	}
	pos := 0
	for u, es := range adj {
		cs.rowStart[u] = int32(pos)
		for _, e := range es {
			cs.arcs[pos].to = int32(e.to)
			cs.w[pos] = e.w
			pos++
		}
	}
	cs.rowStart[n] = int32(pos)
	for u := 0; u < n; u++ {
		cs.renormalize(u)
	}
	return cs
}

// renormalize recomputes one row's stochastic weights from its raw weights.
// The total accumulates over every slot in order — zeroed (pruned) slots add
// exactly 0.0 — so it is bit-identical to the legacy sum over the compacted
// adjacency list.
func (cs *csr) renormalize(u int) {
	start, end := cs.rowStart[u], cs.rowStart[u+1]
	var total float64
	for s := start; s < end; s++ {
		total += cs.w[s]
	}
	if total == 0 {
		cs.dangling[u] = true
		for s := start; s < end; s++ {
			cs.arcs[s].nw = 0
		}
		return
	}
	cs.dangling[u] = false
	for s := start; s < end; s++ {
		cs.arcs[s].nw = cs.w[s] / total
	}
}

// dropEdge zeroes every slot of the undirected edge u↔v (all parallel copies)
// and marks both rows for renormalization. Idempotent.
func (cs *csr) dropEdge(u, v int) {
	for s := cs.rowStart[u]; s < cs.rowStart[u+1]; s++ {
		if cs.arcs[s].to == int32(v) {
			cs.w[s] = 0
		}
	}
	for s := cs.rowStart[v]; s < cs.rowStart[v+1]; s++ {
		if cs.arcs[s].to == int32(u) {
			cs.w[s] = 0
		}
	}
	cs.dirty[u], cs.dirty[v] = true, true
	cs.anyDirty = true
}

// flush renormalizes every dirty row; rwr calls it before every walk.
func (cs *csr) flush() {
	if !cs.anyDirty {
		return
	}
	for u := 0; u < cs.n; u++ {
		if cs.dirty[u] {
			cs.renormalize(u)
			cs.dirty[u] = false
		}
	}
	cs.anyDirty = false
}

// rwr runs one random walk with restart from node x on the csr's scratch
// vectors and returns the converged score vector, which aliases one of them:
// it is valid until the next walk.
func (cs *csr) rwr(cfg *Config, x int) []float64 {
	cs.flush()
	p, next := cs.p, cs.next
	for i := range p {
		p[i] = 0
	}
	p[x] = 1
	for i := range next {
		next[i] = 0
	}
	restart := cfg.Restart
	arcs, rowStart, dangling := cs.arcs, cs.rowStart, cs.dangling

	for iter := 0; iter < cfg.MaxIters; iter++ {
		next[x] += restart
		for u, pu := range p {
			if pu == 0 {
				continue
			}
			if dangling[u] {
				// Dangling node: restart.
				next[x] += (1 - restart) * pu
				continue
			}
			spread := (1 - restart) * pu
			for _, a := range arcs[rowStart[u]:rowStart[u+1]] {
				next[a.to] += spread * a.nw
			}
		}
		// L∞ convergence probe (see the equivalence contract): "max |d| <
		// Eps" is exactly "no |d| ≥ Eps", so the scan bails at the first
		// exceedance — O(1) until the walk is nearly converged.
		converged := true
		for i, pv := range p {
			if math.Abs(next[i]-pv) >= cfg.Eps {
				converged = false
				break
			}
		}
		for i := range p { // compiles to memclr
			p[i] = 0
		}
		p, next = next, p
		if converged {
			break
		}
	}
	return p
}
