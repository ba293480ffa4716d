// Package graph implements BriQ's global resolution stage (§VI): an
// undirected edge-weighted graph over the document's quantity mentions with
// three edge kinds — text-text (proximity + string similarity), table-table
// (same row or column of the same table) and text-table (surviving candidate
// pairs weighted by classifier priors) — random walks with restart (RWR) to
// score candidate table mentions per text mention, and the entropy-ordered
// alignment decision loop of Algorithm 1.
//
// # Hot path
//
// RWR dominates per-document resolution cost, so the walk runs on a frozen
// compressed-sparse-row (CSR) transition structure (csr.go) built once per
// document: dense []float64 score/next vectors reused across invocations,
// per-node edge-weight normalizers recomputed lazily only for rows the
// rewiring touched, and an early exit on convergence. Rewiring (keepOnly)
// zeroes pruned edge slots in place instead of compacting, which keeps the
// row layout stable and the float accumulation order — and therefore the
// output — bit-identical to the legacy map-based walker. Algorithm 1 rewires
// the graph after every decision, so a document's walks run one after
// another; documents run in parallel only in internal/runtime, one graph
// per goroutine.
//
// The pre-CSR implementation is retained verbatim in reference.go
// (ReferenceRWR, ReferenceResolve) as the executable specification: the
// golden equivalence tests assert Resolve == ReferenceResolve byte-for-byte
// on pipeline-generated corpora, and cmd/briq-bench reports the speedup of
// the CSR path over it.
//
// # Invariants
//
//   - The graph is undirected: every edge appears in both adjacency lists
//     with the same weight, before and after every rewiring step.
//   - Resolution is deterministic: candidate order is fixed (sorted by table
//     index) before any float accumulates and queue ties break on mention
//     index, so repeated runs are bit-for-bit identical.
//   - Resolve consumes the graph (rewiring prunes edges in place); run it
//     once per Build.
package graph
