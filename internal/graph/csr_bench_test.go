package graph

// Resolution benchmarks: the CSR fast path vs the frozen reference
// implementation on identical inputs, for one walk (RWR) and for a whole
// document's resolution (Resolve). Run with
//
//	go test -bench 'RWR|Resolve' -benchmem -run '^$' ./internal/graph
//
// cmd/briq-bench runs the Resolve comparison over a pipeline-generated
// corpus and records it in BENCH_pipeline.json.

import (
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/filter"
)

// corpusDocs returns generated documents that have at least two text
// mentions, with uniform value-match candidates (no trained models needed
// inside the graph package).
func corpusDocs(t testing.TB, seed int64, pages int) []*document.Document {
	t.Helper()
	c := corpus.Generate(corpus.TableLConfig(seed, pages))
	var docs []*document.Document
	for _, doc := range c.Docs {
		if len(doc.TextMentions) >= 2 {
			docs = append(docs, doc)
		}
	}
	if len(docs) == 0 {
		t.Fatal("corpus produced no usable documents")
	}
	return docs
}

func benchInputs(b *testing.B) ([]*document.Document, [][]filter.Candidate) {
	b.Helper()
	docs := corpusDocs(b, 42, 10)
	cands := make([][]filter.Candidate, len(docs))
	for i, doc := range docs {
		cands[i] = candidatesByValue(doc, 0.5)
	}
	return docs, cands
}

func BenchmarkResolveCSR(b *testing.B) {
	docs, cands := benchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(docs)
		resolve(b, Build(DefaultConfig(), docs[j], cands[j]))
	}
}

func BenchmarkResolveReference(b *testing.B) {
	docs, cands := benchInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(docs)
		Build(DefaultConfig(), docs[j], cands[j]).ReferenceResolve()
	}
}

// Single-walk comparison: isolates the per-invocation setup the CSR removes
// (transition-row rebuild and its allocations).
func BenchmarkRWRCSR(b *testing.B) {
	docs, cands := benchInputs(b)
	g := Build(DefaultConfig(), docs[0], cands[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RWR(i % g.m)
	}
}

func BenchmarkRWRReference(b *testing.B) {
	docs, cands := benchInputs(b)
	g := Build(DefaultConfig(), docs[0], cands[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReferenceRWR(i % g.m)
	}
}
