package experiment

import (
	"context"
	"fmt"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/obs"
	"briq/internal/runtime"
	"briq/internal/table"
)

// ThroughputRow is one domain row of Table VIII.
type ThroughputRow struct {
	Domain     corpus.Domain
	Pages      int
	Documents  int
	Mentions   int
	DocsPerMin float64
}

// RunTableVIII measures BriQ throughput (completed documents per minute) by
// domain over a tableL-style corpus (Table VIII). The pipeline runs with the
// given worker count; workers ≤ 0 uses all cores (the paper used a 10
// executor Spark cluster — relative domain ordering, not absolute numbers,
// is the reproduction target).
func RunTableVIII(c *corpus.Corpus, pipeline *core.Pipeline, workers int) (*Report, []ThroughputRow) {
	byDomain := c.DocsByDomain()
	pagesByDomain := make(map[corpus.Domain]int)
	for _, pg := range c.Pages {
		pagesByDomain[pg.Domain]++
	}

	// Route all timing through the shared obs instrumentation (the same
	// Recorder the server's /metrics endpoint reads) instead of ad-hoc
	// timers: per-domain batch wall time lands in a "batch:<domain>"
	// histogram. The corpus itself runs on runtime.AlignCorpus — the same
	// engine behind briq.AlignCorpus and the server's batch endpoint.
	rec := obs.NewRecorder()

	var rows []ThroughputRow
	var totalDocs, totalPages, totalMentions int
	var totalTime time.Duration
	for _, d := range corpus.AllDomains() {
		docs := byDomain[d]
		if len(docs) == 0 {
			continue
		}
		mentions := 0
		for _, doc := range docs {
			mentions += len(doc.TextMentions)
		}
		stop := rec.Time("batch:" + d.String())
		if _, err := runtime.AlignCorpus(context.Background(), pipeline, docs, workers); err != nil {
			// Only context cancellation can fail a corpus, and this run
			// uses the background context.
			panic("experiment: corpus alignment failed: " + err.Error())
		}
		stop()
		elapsed := time.Duration(rec.Stage("batch:"+d.String()).Snapshot().SumMillis * float64(time.Millisecond))

		row := ThroughputRow{
			Domain:     d,
			Pages:      pagesByDomain[d],
			Documents:  len(docs),
			Mentions:   mentions,
			DocsPerMin: perMinute(len(docs), elapsed),
		}
		rows = append(rows, row)
		totalDocs += len(docs)
		totalPages += row.Pages
		totalMentions += mentions
		totalTime += elapsed
	}

	r := &Report{
		Title:  "Table VIII: BriQ throughput by domain",
		Header: []string{"domain", "pages", "documents", "mentions", "#docs/min"},
	}
	for _, row := range rows {
		r.AddRow(row.Domain.String(), fmt.Sprint(row.Pages), fmt.Sprint(row.Documents),
			fmt.Sprint(row.Mentions), fmt.Sprintf("%.0f", row.DocsPerMin))
	}
	r.AddRow("total", fmt.Sprint(totalPages), fmt.Sprint(totalDocs),
		fmt.Sprint(totalMentions), fmt.Sprintf("%.0f", perMinute(totalDocs, totalTime)))
	return r, rows
}

func perMinute(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Minutes()
}

// StatsRow is one domain row of Table IX.
type StatsRow struct {
	Domain       corpus.Domain
	Rows, Cols   float64
	SingleCells  float64
	VirtualCells float64
}

// RunTableIX reports the average table shape and mention counts per domain
// (Table IX).
func RunTableIX(c *corpus.Corpus, opts table.VirtualOptions) (*Report, []StatsRow) {
	sums := make(map[corpus.Domain]*StatsRow)
	counts := make(map[corpus.Domain]float64)
	for _, pg := range c.Pages {
		for _, tbl := range pg.Tables {
			s := tbl.ComputeStats(opts)
			agg := sums[pg.Domain]
			if agg == nil {
				agg = &StatsRow{Domain: pg.Domain}
				sums[pg.Domain] = agg
			}
			agg.Rows += float64(s.Rows)
			agg.Cols += float64(s.Cols)
			agg.SingleCells += float64(s.SingleCells)
			agg.VirtualCells += float64(s.VirtualCells)
			counts[pg.Domain]++
		}
	}

	r := &Report{
		Title:  "Table IX: table statistics by domain",
		Header: []string{"domain", "rows", "columns", "single cells", "virtual cells"},
	}
	var rows []StatsRow
	var grand StatsRow
	var grandN float64
	for _, d := range corpus.AllDomains() {
		agg := sums[d]
		n := counts[d]
		if agg == nil || n == 0 {
			continue
		}
		row := StatsRow{
			Domain: d,
			Rows:   agg.Rows / n, Cols: agg.Cols / n,
			SingleCells: agg.SingleCells / n, VirtualCells: agg.VirtualCells / n,
		}
		rows = append(rows, row)
		r.AddRow(d.String(), fmt.Sprintf("%.0f", row.Rows), fmt.Sprintf("%.0f", row.Cols),
			fmt.Sprintf("%.0f", row.SingleCells), fmt.Sprintf("%.0f", row.VirtualCells))
		grand.Rows += agg.Rows
		grand.Cols += agg.Cols
		grand.SingleCells += agg.SingleCells
		grand.VirtualCells += agg.VirtualCells
		grandN += n
	}
	if grandN > 0 {
		r.AddRow("average", fmt.Sprintf("%.0f", grand.Rows/grandN), fmt.Sprintf("%.0f", grand.Cols/grandN),
			fmt.Sprintf("%.0f", grand.SingleCells/grandN), fmt.Sprintf("%.0f", grand.VirtualCells/grandN))
	}
	return r, rows
}

// MeasureThroughput times one system over documents and returns docs/min —
// used for the "30× faster than the RWR baseline" comparison (§VIII-C). The
// per-document latencies flow through a shared obs.Histogram so the rate is
// derived from the same instrumentation the rest of the harness uses.
func MeasureThroughput(sys System, docs []*document.Document) float64 {
	h := obs.NewHistogram()
	for _, doc := range docs {
		start := time.Now()
		sys.Predict(doc)
		h.Observe(time.Since(start))
	}
	return perMinute(len(docs), time.Duration(h.Snapshot().SumMillis*float64(time.Millisecond)))
}

// RunStageBreakdown aligns the corpus with runtime.AlignCorpus on a clone
// of pipeline that records into a fresh obs.Recorder, and reports where
// per-document time goes, stage by stage (classify → filter → rwr) — the
// same numbers the briq-server /metrics endpoint exposes. The companion to
// Table VIII: the throughput table says how fast, this says why.
func RunStageBreakdown(c *corpus.Corpus, pipeline *core.Pipeline, workers int) (*Report, map[string]obs.HistogramSnapshot) {
	rec := obs.NewRecorder(core.StageNames()...)
	timed := pipeline.Clone()
	timed.Recorder = rec
	if _, err := runtime.AlignCorpus(context.Background(), timed, c.Docs, workers); err != nil {
		panic("experiment: corpus alignment failed: " + err.Error())
	}

	snap := rec.Snapshot()
	r := &Report{
		Title:  "Stage breakdown: per-document latency by pipeline stage",
		Header: []string{"stage", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "total ms"},
	}
	for _, stage := range core.StageNames() {
		s, ok := snap[stage]
		if !ok || s.Count == 0 {
			continue
		}
		r.AddRow(stage, fmt.Sprint(s.Count),
			fmt.Sprintf("%.3f", s.MeanMillis), fmt.Sprintf("%.3f", s.P50Millis),
			fmt.Sprintf("%.3f", s.P90Millis), fmt.Sprintf("%.3f", s.P99Millis),
			fmt.Sprintf("%.1f", s.SumMillis))
	}
	return r, snap
}
