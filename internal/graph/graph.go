package graph

import (
	"math"
	"sort"

	"briq/internal/document"
	"briq/internal/filter"
	"briq/internal/mlmetrics"
	"briq/internal/nlp"
	"briq/internal/table"
)

// Config holds the global-resolution hyper-parameters; λ1, λ2, α, β and ε
// are grid-searched on the validation split (§VI-A, §VI-B).
type Config struct {
	Lambda1 float64 // weight of proximity in text-text edges
	Lambda2 float64 // weight of string similarity in text-text edges
	// TextTextMinSim keeps a text-text edge only when proximity or surface
	// similarity exceeds it (the "within a certain proximity or have similar
	// surface forms" condition).
	TextTextMinSim float64
	TableTableW    float64 // base table-table edge weight before normalization
	// SharedCellBoost multiplies TableTableW when two table mentions share
	// an actual cell (e.g. a virtual ratio and one of its input cells) —
	// "weights based on relatedness strengths" (§VI): a composite is more
	// strongly related to its constituents than to mentions that merely
	// share a line.
	SharedCellBoost float64

	Restart  float64 // RWR restart probability
	Eps      float64 // RWR convergence bound (L∞ on visiting probabilities)
	MaxIters int     // RWR iteration cap

	Alpha   float64 // weight of π(t|x) in OverallScore
	Beta    float64 // weight of σ(t|x) in OverallScore
	Epsilon float64 // alignment acceptance threshold on OverallScore

	// ClaimedCellPenalty discounts the walk probability of a candidate whose
	// table mention was already aligned to a text mention with a clearly
	// different value. Rewiring concentrates walk mass on resolved cells
	// (that is how Fig. 3's anchors work), but a cell claimed by a
	// different-valued mention is almost never the referent of this one —
	// unchecked, the concentration herds later mentions onto earlier
	// decisions (the Fig. 6b error mode). 1 disables the penalty.
	ClaimedCellPenalty float64

	// Ablation switches (both false in the published algorithm; exercised by
	// the design-choice ablation benches). DisableEntropyOrder processes
	// text mentions in document order instead of increasing entropy;
	// DisableRewire skips the graph update after each alignment decision.
	DisableEntropyOrder bool
	DisableRewire       bool
}

// DefaultConfig returns the pre-tuning defaults.
func DefaultConfig() Config {
	return Config{
		Lambda1:            0.5,
		Lambda2:            0.5,
		TextTextMinSim:     0.15,
		TableTableW:        1.0,
		SharedCellBoost:    2.5,
		Restart:            0.15,
		Eps:                1e-6,
		MaxIters:           100,
		Alpha:              0.6,
		Beta:               0.4,
		Epsilon:            0.2,
		ClaimedCellPenalty: 0.3,
	}
}

// Alignment is one decided pair: text mention x aligned to table mention t
// with its overall score.
type Alignment struct {
	Text  int
	Table int
	Score float64
}

// Graph is the candidate alignment graph of one document.
type Graph struct {
	doc *document.Document
	cfg Config

	// Node numbering: text mentions occupy [0, m); table mentions of the
	// candidate set occupy [m, m+n) where tableNode maps the document's
	// table-mention index to a node id.
	m         int
	tableNode map[int]int // doc table index → node id
	nodeTable []int       // node id − m → doc table index

	adj [][]edge // adjacency lists with raw weights

	prior map[[2]int]float64 // (text, tableIdx) → classifier score σ

	// cs is the frozen CSR transition structure backing the fast RWR path.
	// Built lazily on the first walk and kept in sync by keepOnly; nil until
	// then so Build stays cheap for callers that only inspect the graph.
	cs *csr
}

type edge struct {
	to int
	w  float64
}

// Build constructs the graph for a document from the filtered candidates.
// Table-mention nodes are created for every candidate table mention plus all
// single-cell mentions of the candidate tables (they carry the row/column
// coherence signal of Fig. 4 even when not candidates themselves).
func Build(cfg Config, doc *document.Document, candidates []filter.Candidate) *Graph {
	g := &Graph{
		doc:       doc,
		cfg:       cfg,
		m:         len(doc.TextMentions),
		tableNode: make(map[int]int),
		prior:     make(map[[2]int]float64),
	}

	addTableNode := func(ti int) int {
		if id, ok := g.tableNode[ti]; ok {
			return id
		}
		id := g.m + len(g.nodeTable)
		g.tableNode[ti] = id
		g.nodeTable = append(g.nodeTable, ti)
		return id
	}

	// Candidate table mentions.
	candidateTables := map[interface{}]bool{}
	for _, c := range candidates {
		addTableNode(c.Table)
		candidateTables[doc.TableMentions[c.Table].Table] = true
		g.prior[[2]int{c.Text, c.Table}] = c.Score
	}
	// Single-cell mentions of tables that have candidates.
	for ti, tm := range doc.TableMentions {
		if !tm.IsVirtual() && candidateTables[tm.Table] {
			addTableNode(ti)
		}
	}

	n := g.m + len(g.nodeTable)
	g.adj = make([][]edge, n)

	g.addTextTextEdges()
	g.addTableTableEdges()
	for _, c := range candidates {
		g.addEdge(c.Text, g.tableNode[c.Table], c.Score)
	}
	return g
}

func (g *Graph) addEdge(a, b int, w float64) {
	if w <= 0 || a == b {
		return
	}
	g.adj[a] = append(g.adj[a], edge{b, w})
	g.adj[b] = append(g.adj[b], edge{a, w})
}

// addTextTextEdges connects text mentions by Wxx = λ1·fprox + λ2·fstrsim.
// fprox is 1 − tokenDistance/documentLength, so closer mentions weigh more.
func (g *Graph) addTextTextEdges() {
	docLen := g.doc.TokenCount()
	if docLen == 0 {
		docLen = 1
	}
	for i := 0; i < g.m; i++ {
		for j := i + 1; j < g.m; j++ {
			xi, xj := &g.doc.TextMentions[i], &g.doc.TextMentions[j]
			dist := xi.TokenPos - xj.TokenPos
			if dist < 0 {
				dist = -dist
			}
			prox := 1 - float64(dist)/float64(docLen)
			if prox < 0 {
				prox = 0
			}
			sim := nlp.JaroWinkler(xi.Surface, xj.Surface)
			if prox < g.cfg.TextTextMinSim && sim < g.cfg.TextTextMinSim {
				continue
			}
			g.addEdge(i, j, g.cfg.Lambda1*prox+g.cfg.Lambda2*sim)
		}
	}
}

// addTableTableEdges connects table-mention nodes of the same table that
// share a row or a column (via any of their input cells).
func (g *Graph) addTableTableEdges() {
	for a := 0; a < len(g.nodeTable); a++ {
		ta := g.doc.TableMentions[g.nodeTable[a]]
		for b := a + 1; b < len(g.nodeTable); b++ {
			tb := g.doc.TableMentions[g.nodeTable[b]]
			if ta.Table != tb.Table {
				continue
			}
			switch {
			case sharesCell(ta.Cells, tb.Cells):
				boost := g.cfg.SharedCellBoost
				if boost <= 0 {
					boost = 1
				}
				g.addEdge(g.m+a, g.m+b, g.cfg.TableTableW*boost)
			case sharesLine(ta.Cells, tb.Cells):
				g.addEdge(g.m+a, g.m+b, g.cfg.TableTableW)
			}
		}
	}
}

func sharesCell(a, b []table.CellRef) bool {
	for _, ca := range a {
		for _, cb := range b {
			if ca == cb {
				return true
			}
		}
	}
	return false
}

func sharesLine(a, b []table.CellRef) bool {
	for _, ca := range a {
		for _, cb := range b {
			if ca.Row == cb.Row || ca.Col == cb.Col {
				return true
			}
		}
	}
	return false
}

// transition returns the row-stochastic transition distribution from node u
// over its current edges.
func (g *Graph) transition(u int) []edge {
	edges := g.adj[u]
	var total float64
	for _, e := range edges {
		total += e.w
	}
	if total == 0 {
		return nil
	}
	out := make([]edge, len(edges))
	for i, e := range edges {
		out[i] = edge{e.to, e.w / total}
	}
	return out
}

// ensureCSR freezes the adjacency lists into the CSR transition structure on
// first use. keepOnly keeps it in sync afterwards.
func (g *Graph) ensureCSR() *csr {
	if g.cs == nil {
		g.cs = newCSR(g.adj)
	}
	return g.cs
}

// RWR runs a random walk with restart from text mention x and returns the
// stationary visiting probability π(t|x) for every candidate table mention
// (keyed by document table-mention index). The walk runs on the frozen CSR
// structure with reused dense score vectors; its output is bit-identical to
// the legacy map-based walker (ReferenceRWR).
func (g *Graph) RWR(x int) map[int]float64 {
	p := g.ensureCSR().rwr(&g.cfg, x)
	out := make(map[int]float64, len(g.nodeTable))
	for nodeOff, ti := range g.nodeTable {
		out[ti] = p[g.m+nodeOff]
	}
	return out
}

// cand is one candidate of a text mention: the target table-mention index,
// its classifier prior σ, and the graph node carrying it.
type cand struct {
	table int
	sigma float64
	node  int
}

// queued is one text mention awaiting resolution, keyed by the entropy of
// its prior distribution (Algorithm 1 processes low-entropy mentions first).
type queued struct {
	x       int
	entropy float64
}

// candidatesPerText groups the candidate priors by text mention in a fixed
// order. g.prior is a map, so insertion order varies between runs, and the
// entropy accumulation in buildQueue is order-sensitive in its last ulps —
// enough to flip the queue order of near-tied mentions and change which
// mention claims a cell first; sorting by table index pins it down.
func (g *Graph) candidatesPerText() map[int][]cand {
	perText := make(map[int][]cand)
	for key, sigma := range g.prior {
		perText[key[0]] = append(perText[key[0]], cand{key[1], sigma, g.tableNode[key[1]]})
	}
	for _, cands := range perText {
		sort.Slice(cands, func(i, j int) bool { return cands[i].table < cands[j].table })
	}
	return perText
}

// buildQueue orders the text mentions for resolution: by increasing entropy
// of their normalized prior distribution (ties broken by mention index), or
// by document order under the DisableEntropyOrder ablation.
func (g *Graph) buildQueue(perText map[int][]cand) []queued {
	var queue []queued
	for x, cands := range perText {
		// Normalize σ to a distribution for the entropy computation.
		scores := make([]float64, len(cands))
		for i, c := range cands {
			scores[i] = c.sigma
		}
		mlmetrics.Normalize(scores)
		queue = append(queue, queued{x, mlmetrics.Entropy(scores)})
	}
	if g.cfg.DisableEntropyOrder {
		sort.Slice(queue, func(i, j int) bool { return queue[i].x < queue[j].x })
	} else {
		sort.Slice(queue, func(i, j int) bool {
			if queue[i].entropy != queue[j].entropy {
				return queue[i].entropy < queue[j].entropy
			}
			return queue[i].x < queue[j].x // deterministic tie-break
		})
	}
	return queue
}

// Resolve runs Algorithm 1: it normalizes each text mention's priors,
// processes mentions in increasing entropy order, runs an RWR per mention,
// combines OverallScore(t|x) = α·π(t|x) + β·σ(t|x), accepts the best
// candidate when it clears ε, and rewires the graph after every decision so
// later (harder) mentions benefit from earlier (easier) ones.
//
// The walks run one after another on the frozen CSR structure: each
// decision prunes edges before the next walk, and the walk for a mention
// always runs against the fully-rewired graph of all earlier decisions
// (never a partially-pruned one; keepOnly completes before the next walk
// starts). Under DisableRewire nothing is pruned between walks, so the
// output still equals ReferenceResolve. Resolve consumes the graph
// (rewiring prunes edges in place): run it once per Build.
//
// core.Pipeline.AlignContext runs Build+Resolve on the candidates the filter
// kept; the experiment harness's ILP baseline falls back to it when its
// solve budget runs out.
func (g *Graph) Resolve() []Alignment {
	perText := g.candidatesPerText()
	queue := g.buildQueue(perText)
	if len(queue) == 0 {
		return nil
	}

	cs := g.ensureCSR()

	penalty := g.cfg.ClaimedCellPenalty
	if penalty <= 0 || penalty > 1 {
		penalty = 1
	}
	claimedBy := make(map[int]int) // table mention index → aligned text mention

	var alignments []Alignment
	for _, q := range queue {
		p := cs.rwr(&g.cfg, q.x)
		cands := perText[q.x] // already in table order

		// Normalize the visiting probabilities over this mention's own
		// candidates so π and σ contribute on comparable scales: raw π
		// values shrink with graph size, which would let a sharp classifier
		// drown the joint-inference signal entirely.
		var piTotal float64
		for _, c := range cands {
			piTotal += p[c.node]
		}

		best, bestScore := -1, math.Inf(-1)
		for _, c := range cands {
			piHat := p[c.node]
			if piTotal > 0 {
				piHat = p[c.node] / piTotal
			}
			if y, claimed := claimedBy[c.table]; claimed {
				xv := g.doc.TextMentions[q.x].Value
				yv := g.doc.TextMentions[y].Value
				if relDiff(xv, yv) > 0.05 {
					piHat *= penalty
				}
			}
			score := g.cfg.Alpha*piHat + g.cfg.Beta*c.sigma
			if score > bestScore {
				best, bestScore = c.table, score
			}
		}

		if best >= 0 && bestScore > g.cfg.Epsilon {
			alignments = append(alignments, Alignment{Text: q.x, Table: best, Score: bestScore})
			claimedBy[best] = q.x
			if !g.cfg.DisableRewire {
				g.keepOnly(q.x, g.tableNode[best])
			}
		} else if !g.cfg.DisableRewire {
			g.keepOnly(q.x, -1)
		}
	}

	sort.Slice(alignments, func(i, j int) bool { return alignments[i].Text < alignments[j].Text })
	return alignments
}

func relDiff(a, b float64) float64 {
	da, db := math.Abs(a), math.Abs(b)
	den := math.Max(da, db)
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// keepOnly is Algorithm 1's rewiring step: it removes all text-table edges
// of text node x except the one to keep (keep == -1 removes them all),
// concentrating future walk mass on resolved cells. Text-text edges are
// preserved; every removal is symmetric (both directions drop together,
// including parallel duplicates), so the graph is undirected before and
// after every call.
//
// Intended semantics and safety: keepOnly mutates adjacency in place while
// iterating — it walks g.adj[x] and compacts each peer list g.adj[e.to]
// into its own backing array mid-iteration. That is safe because the two
// lists are disjoint: x is a text node (< g.m) and every compacted peer is
// a table node (≥ g.m), so the iteration never reads a list it is writing.
// The mutation is NOT atomic with respect to a concurrent reader, however —
// keepOnly must only run between RWR invocations, never during one. Resolve
// guarantees that ordering: each walk completes before any rewiring
// happens, so no walk can observe a half-pruned graph. The regression tests in
// keeponly_test.go pin these postconditions down.
func (g *Graph) keepOnly(x, keep int) {
	var kept []edge
	for _, e := range g.adj[x] {
		if e.to < g.m || e.to == keep {
			kept = append(kept, e)
			continue
		}
		// Remove the reverse edge from the table node.
		peer := g.adj[e.to]
		out := peer[:0]
		for _, pe := range peer {
			if pe.to != x {
				out = append(out, pe)
			}
		}
		g.adj[e.to] = out
		if g.cs != nil {
			g.cs.dropEdge(x, e.to)
		}
	}
	g.adj[x] = kept
}

// NodeCount returns the number of graph nodes (text + table mentions).
func (g *Graph) NodeCount() int { return len(g.adj) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, edges := range g.adj {
		total += len(edges)
	}
	return total / 2
}
