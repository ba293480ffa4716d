package main

import (
	"context"
	"fmt"
	"time"

	"briq"
	"briq/internal/core"
	"briq/internal/filter"
	"briq/internal/htmlx"
	"briq/internal/ingest"
	"briq/internal/quantsearch"
	"briq/internal/serve"
	"briq/internal/store"
)

// pageComponents is the in-process component pass over a sample of a
// workload's pages: the public calls a request passes through, timed one at
// a time on one goroutine with spans around each call.
type pageComponents struct {
	v           *values
	alignBodies [][]byte // the /v1/align response each sample page must get
}

// componentSample is the first n pages of the workload's set.
func componentSample(pgs []page, n int) []page {
	if n < len(pgs) {
		return pgs[:n]
	}
	return pgs
}

// pageComponentPass times, per sample page: htmlx.ParseString →
// serve.PageKeyOf → SegmentPageInfo → per document store.DocumentKey and
// (*core.Pipeline).AlignContext, with the pipeline's recorder splitting
// align into classify, gate, filter and resolve. It then runs the pages
// through an ingest.Ingestor three times — cold, re-crawled, re-sent — and
// times the same components on the same pages to leave the ingest layer's
// own cost as an explicit residual.
func (r *runner) pageComponentPass(ctx context.Context, w workload, tr *tracer) (*pageComponents, error) {
	pgs := componentSample(w.pages(), r.sz.SamplePages)
	rec := briq.NewRecorder()
	p, err := briq.NewFromModelFile(r.e.bundle, briq.WithRecorder(rec))
	if err != nil {
		return nil, err
	}
	fp := p.Fingerprint()
	keys, err := store.Open(store.Options{Fingerprint: fp})
	if err != nil {
		return nil, err
	}
	defer keys.Close()

	pc := &pageComponents{v: newValues()}
	var parse, pageKey, segment, docKey time.Duration
	var docs, pairs, kept int
	span := func(trace string, parent int64, name string, start time.Time) time.Duration {
		end := time.Now()
		tr.add(Span{Parent: parent, Trace: trace, Workload: w.name(), Name: name}, start, end)
		return end.Sub(start)
	}
	for _, pg := range pgs {
		trace := "component/" + w.name() + "/page/" + pg.ID
		pid := tr.id()
		t0 := time.Now()

		t := time.Now()
		hp := htmlx.ParseString(pg.HTML)
		parse += span(trace, pid, "htmlx.ParseString", t)

		// The single-page route names every page "request"; the component
		// pass does the same so its output is comparable byte for byte.
		t = time.Now()
		_ = serve.PageKeyOf(fp, "request", pg.HTML)
		pageKey += span(trace, pid, "serve.PageKeyOf", t)

		t = time.Now()
		seg, err := p.Segmenter.SegmentPageInfo("request", hp)
		segment += span(trace, pid, "document.SegmentPageInfo", t)
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", pg.ID, err)
		}

		var als []core.Alignment
		for _, d := range seg.Docs {
			t = time.Now()
			_ = keys.DocumentKey(d)
			docKey += span(trace, pid, "store.DocumentKey", t)

			t = time.Now()
			a, err := p.AlignContext(ctx, d)
			span(trace, pid, "core.AlignContext", t)
			if err != nil {
				return nil, fmt.Errorf("align %s: %w", d.ID, err)
			}
			als = append(als, a...)
		}
		tr.add(Span{ID: pid, Trace: trace, Workload: w.name(), Name: "page"}, t0, time.Now())

		body, err := render(map[string]any{"alignments": als})
		if err != nil {
			return nil, err
		}
		pc.alignBodies = append(pc.alignBodies, body)

		// Not timed: how much of the classifier's output the filter keeps.
		for _, d := range seg.Docs {
			cands := p.ScorePairs(d)
			kept += len(filter.Apply(p.FilterConfig, d, p.Tagger, cands).Kept)
			pairs += len(cands)
		}
		docs += len(seg.Docs)
	}

	n, nd := float64(len(pgs)), float64(docs)
	snap := rec.Snapshot()
	perDoc := func(stage string) float64 { return ratio(snap[stage].SumMillis, nd) }
	m := pc.v.m
	m["htmlx.parse_ms_per_page"] = ratio(ms(parse), n)
	m["serve.page_key_us"] = ratio(ms(pageKey)*1e3, n)
	m["serve.doc_key_us"] = ratio(ms(docKey)*1e3, nd)
	m["document.segment_ms_per_page"] = ratio(ms(segment), n)
	m["document.docs_per_page"] = ratio(nd, n)
	m["classify.ms_per_doc"] = perDoc(core.StageClassify)
	m["classify.gate_ms_per_doc"] = perDoc(core.StageClassifyGate)
	m["classify.pairs_per_doc"] = ratio(float64(pairs), nd)
	m["filter.ms_per_doc"] = perDoc(core.StageFilter)
	m["filter.kept_per_pair"] = ratio(float64(kept), float64(pairs))
	m["resolve.ms_per_doc"] = perDoc(core.StageResolve)
	m["align.ms_per_doc"] = perDoc(core.StageAlign)
	m["align.self_ms_per_doc"] = m["align.ms_per_doc"] - m["classify.ms_per_doc"] - m["filter.ms_per_doc"] - m["resolve.ms_per_doc"]

	if err := r.ingestComponents(ctx, w, p, pgs, tr, m); err != nil {
		return nil, err
	}
	return pc, nil
}

// ingestComponents runs the sample through (*ingest.Ingestor).Page into a
// memory store: cold, then re-crawled (one sentence appended), then the
// re-crawled bytes again. For the last two phases it times parse, segment,
// document keys and the alignment of the documents the ingestor realigned on
// the same pages; what is left of the page time is the ingest layer's own
// work (reuse lookups, upsert, retraction, locks), reported as unattributed.
func (r *runner) ingestComponents(ctx context.Context, w workload, p *briq.Pipeline, pgs []page, tr *tracer, m map[string]float64) error {
	st, err := store.Open(store.Options{Fingerprint: p.Fingerprint()})
	if err != nil {
		return err
	}
	defer st.Close()
	ing := ingest.New(p, st, ingest.Options{Workers: 1})
	final := recrawled(pgs)
	n := float64(len(pgs))
	for _, ph := range []struct {
		name string
		pgs  []page
	}{{"cold", pgs}, {"recrawl", final}, {"identical", final}} {
		var total, parts time.Duration
		var docs, reused, realigned int
		for _, pg := range ph.pgs {
			t := time.Now()
			res := ing.Page(ctx, pg.ID, pg.HTML)
			end := time.Now()
			tr.add(Span{Trace: "component/" + w.name() + "/ingest-" + ph.name + "/" + pg.ID, Workload: w.name(), Name: "ingest.Page"}, t, end)
			total += end.Sub(t)
			if res.Error != "" {
				return fmt.Errorf("ingest %s %s: %s", ph.name, pg.ID, res.Error)
			}
			docs += len(res.Documents)
			reused += res.Reused
			realigned += res.Realigned
			if ph.name == "cold" {
				continue
			}
			// The components on the same page, outside the ingestor.
			t = time.Now()
			seg, err := p.Segmenter.SegmentPageInfo(pg.ID, htmlx.ParseString(pg.HTML))
			if err != nil {
				return err
			}
			for i, d := range seg.Docs {
				_ = st.DocumentKey(d)
				if i < len(res.Documents) && res.Documents[i].Status == "realigned" {
					if _, err := p.AlignContext(ctx, d); err != nil {
						return err
					}
				}
			}
			parts += time.Since(t)
		}
		m["ingest.page_ms."+ph.name] = ratio(ms(total), n)
		switch ph.name {
		case "cold":
			m["ingest.cold_docs_per_s"] = ratio(float64(docs), total.Seconds())
		case "recrawl":
			m["ingest.reuse_ratio.recrawl"] = ratio(float64(reused), float64(reused+realigned))
			fallthrough
		default:
			m["ingest.unattributed_ms."+ph.name] = ratio(ms(total-parts), n)
		}
	}
	return nil
}

// storeComponentPass replays the store the traced round left behind with
// store.Open and times the read path on it: quantsearch.ParseQuery on the
// natural-language queries, (*store.Store).Search on every query, and
// FactsFor on a seeded entity sample. No writer runs.
func (r *runner) storeComponentPass(w workload, dir string, tr *tracer, v *values) error {
	m := v.m
	t := time.Now()
	st, err := store.Open(store.Options{Dir: dir})
	replay := time.Since(t)
	if err != nil {
		return err
	}
	defer st.Close()
	tr.add(Span{Trace: "component/" + w.name() + "/replay", Workload: w.name(), Name: "store.Open"}, t, t.Add(replay))
	m["store.replay_s"] = replay.Seconds()
	m["store.replay_docs_per_s"] = ratio(float64(st.Counters()["warm_documents"]), replay.Seconds())

	queries, err := buildQueries(r.opts.seed, w.pages(), r.sz.Queries)
	if err != nil {
		return err
	}
	var parse time.Duration
	var nl, results int
	var searchMs, factsMs []float64
	for i, q := range queries {
		trace := fmt.Sprintf("component/%s/query%d", w.name(), i)
		qid := tr.id()
		t0 := time.Now()
		parsed := q.parsed
		if text := q.vals.Get("q"); text != "" {
			t := time.Now()
			if parsed, err = quantsearch.ParseQuery(text); err != nil {
				return err
			}
			end := time.Now()
			tr.add(Span{Parent: qid, Trace: trace, Workload: w.name(), Name: "quantsearch.ParseQuery"}, t, end)
			parse += end.Sub(t)
			nl++
		}
		t := time.Now()
		res := st.Search(parsed)
		end := time.Now()
		tr.add(Span{Parent: qid, Trace: trace, Workload: w.name(), Name: "store.Search"}, t, end)
		tr.add(Span{ID: qid, Trace: trace, Workload: w.name(), Name: "query"}, t0, end)
		searchMs = append(searchMs, ms(end.Sub(t)))
		results += len(res)
	}
	// Lookups cycle over the entity sample, as many as there are queries,
	// so the percentiles have the samples they need on a small store.
	ents := sample(r.opts.seed, st.Entities(), r.sz.Entities)
	factsN := 0
	for i := 0; i < len(queries) && len(ents) > 0; i++ {
		e := ents[i%len(ents)]
		t := time.Now()
		f := st.FactsFor(e)
		end := time.Now()
		tr.add(Span{Trace: fmt.Sprintf("component/%s/facts%d", w.name(), i), Workload: w.name(), Name: "store.FactsFor"}, t, end)
		factsMs = append(factsMs, ms(end.Sub(t)))
		factsN += len(f)
	}
	m["quantsearch.parse_us"] = ratio(ms(parse)*1e3, float64(nl))
	m["quantsearch.results_per_query"] = ratio(float64(results), float64(len(queries)))
	m["facts.results_per_query"] = ratio(float64(factsN), float64(len(factsMs)))
	v.pct("quantsearch.search_ms.p50", searchMs, 0.50)
	v.pct("quantsearch.search_ms.p90", searchMs, 0.90)
	v.pct("facts.lookup_ms.p50", factsMs, 0.50)
	v.pct("facts.lookup_ms.p90", factsMs, 0.90)
	return nil
}
