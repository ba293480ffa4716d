package graph

// Regression suite for keepOnly's intended semantics (see its doc comment):
// the in-place mid-iteration mutation must leave the graph in a fully-pruned,
// symmetric state after every call — never a half-pruned one — and must keep
// the CSR mirror consistent with the adjacency lists so no later walk can
// observe a state the legacy path could not reach.

import (
	"testing"
)

// checkSymmetric fails if any edge lacks its same-weight reverse twin.
func checkSymmetric(t *testing.T, g *Graph, ctx string) {
	t.Helper()
	for u, edges := range g.adj {
		for _, e := range edges {
			twins := 0
			for _, back := range g.adj[e.to] {
				if back.to == u && back.w == e.w {
					twins++
				}
			}
			if twins == 0 {
				t.Fatalf("%s: edge %d→%d (w=%v) has no symmetric twin", ctx, u, e.to, e.w)
			}
		}
	}
}

// checkCSRConsistent fails if the CSR mirror disagrees with the adjacency
// lists: every surviving adjacency edge must have a live slot of the same
// weight, surviving weight totals must match, and after a flush the
// normalized rows must equal the legacy transition rows bit-for-bit.
func checkCSRConsistent(t *testing.T, g *Graph, ctx string) {
	t.Helper()
	cs := g.cs
	if cs == nil {
		t.Fatalf("%s: no CSR built", ctx)
	}
	cs.flush()
	for u := range g.adj {
		// Count live slots per target and compare against adjacency.
		liveW := map[int]float64{}
		liveN := 0
		for s := cs.rowStart[u]; s < cs.rowStart[u+1]; s++ {
			if cs.w[s] != 0 {
				liveW[int(cs.arcs[s].to)] += cs.w[s]
				liveN++
			}
		}
		adjW := map[int]float64{}
		for _, e := range g.adj[u] {
			adjW[e.to] += e.w
		}
		if liveN != len(g.adj[u]) {
			t.Fatalf("%s: node %d has %d live CSR slots, %d adjacency edges", ctx, u, liveN, len(g.adj[u]))
		}
		for to, w := range adjW {
			if liveW[to] != w {
				t.Fatalf("%s: node %d→%d CSR weight %v, adjacency %v", ctx, u, to, liveW[to], w)
			}
		}
		// Normalized rows must match the legacy transition computation.
		row := g.transition(u)
		if row == nil {
			if !cs.dangling[u] {
				t.Fatalf("%s: node %d dangling in adjacency but not in CSR", ctx, u)
			}
			continue
		}
		if cs.dangling[u] {
			t.Fatalf("%s: node %d dangling in CSR but not in adjacency", ctx, u)
		}
		ri := 0
		for s := cs.rowStart[u]; s < cs.rowStart[u+1]; s++ {
			if cs.w[s] == 0 {
				continue
			}
			if ri >= len(row) || int(cs.arcs[s].to) != row[ri].to || cs.arcs[s].nw != row[ri].w {
				t.Fatalf("%s: node %d slot %d: CSR (%d, %v) vs transition (%d, %v)",
					ctx, u, s, cs.arcs[s].to, cs.arcs[s].nw, row[ri].to, row[ri].w)
			}
			ri++
		}
		if ri != len(row) {
			t.Fatalf("%s: node %d: %d live CSR slots, %d transition entries", ctx, u, ri, len(row))
		}
	}
}

// TestKeepOnlyPostconditions drives keepOnly through a full pruning
// schedule and asserts that after every single call — not just at the end —
// the graph is symmetric, fully pruned for the touched mention, and mirrored
// exactly in the CSR. A half-applied removal (forward edge gone, reverse
// alive, or a stale CSR slot) fails immediately.
func TestKeepOnlyPostconditions(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	g.ensureCSR()

	for x := 0; x < g.m; x++ {
		keep := -1
		// Alternate between keeping one candidate edge and dropping all.
		if x%2 == 0 {
			for _, e := range g.adj[x] {
				if e.to >= g.m {
					keep = e.to
					break
				}
			}
		}
		g.keepOnly(x, keep)

		ctx := "after keepOnly"
		for _, e := range g.adj[x] {
			if e.to >= g.m && e.to != keep {
				t.Fatalf("%s(%d, %d): text-table edge %d→%d survived", ctx, x, keep, x, e.to)
			}
		}
		checkSymmetric(t, g, ctx)
		checkCSRConsistent(t, g, ctx)
	}
}

// TestKeepOnlyParallelEdges: duplicate candidates create parallel text-table
// edges; keepOnly must remove every copy in both directions atomically.
func TestKeepOnlyParallelEdges(t *testing.T) {
	doc := fig3Doc(t)
	cands := candidatesByValue(doc, 0.5)
	cands = append(cands, cands...) // duplicate every pair
	g := Build(DefaultConfig(), doc, cands)
	g.ensureCSR()

	g.keepOnly(0, -1)
	for _, e := range g.adj[0] {
		if e.to >= g.m {
			t.Fatalf("parallel text-table edge 0→%d survived keepOnly", e.to)
		}
	}
	for u := g.m; u < len(g.adj); u++ {
		for _, e := range g.adj[u] {
			if e.to == 0 {
				t.Fatalf("reverse parallel edge %d→0 survived keepOnly", u)
			}
		}
	}
	checkSymmetric(t, g, "after parallel-edge keepOnly")
	checkCSRConsistent(t, g, "after parallel-edge keepOnly")
}

// TestKeepOnlyIdempotent: re-applying the same pruning is a no-op, on both
// representations.
func TestKeepOnlyIdempotent(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	g.ensureCSR()
	g.keepOnly(1, -1)
	edges := g.EdgeCount()
	g.keepOnly(1, -1)
	if got := g.EdgeCount(); got != edges {
		t.Fatalf("second keepOnly changed edge count: %d → %d", edges, got)
	}
	checkCSRConsistent(t, g, "after repeated keepOnly")
}

// TestResolveLeavesCSRConsistent: a full resolution pass (many interleaved
// walks and rewirings) must end with the CSR still mirroring the adjacency
// lists — the invariant that guarantees walk k always sees exactly the graph
// produced by decisions 1..k-1.
func TestResolveLeavesCSRConsistent(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	resolve(t, g)
	checkSymmetric(t, g, "after Resolve")
	checkCSRConsistent(t, g, "after Resolve")
}
