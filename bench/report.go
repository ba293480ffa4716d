package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees, printed for every
// workload from the untraced rounds. BENCHMARK.json lists the same names,
// units and the bound each may worsen by.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, printed for every workload
// from the traced round, the component passes and the measured rounds'
// /metrics deltas. A layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"client.rtt_ms.p50", "ms"},
	{"client.rtt_ms.p90", "ms"},
	{"client.rtt_ms.mean", "ms"},
	{"http.handler_ms.mean", "ms"},
	{"http.overhead_ms.mean", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.misses", "count"},
	{"serve.coalesced", "count"},
	{"serve.evictions", "count"},
	{"serve.page_key_us", "us"},
	{"serve.doc_key_us", "us"},
	{"htmlx.parse_ms_per_page", "ms"},
	{"document.segment_ms_per_page", "ms"},
	{"document.docs_per_page", "docs/page"},
	{"classify.ms_per_doc", "ms"},
	{"classify.gate_ms_per_doc", "ms"},
	{"classify.pairs_per_doc", "pairs/doc"},
	{"filter.ms_per_doc", "ms"},
	{"filter.kept_per_pair", "ratio"},
	{"resolve.ms_per_doc", "ms"},
	{"align.ms_per_doc", "ms"},
	{"align.self_ms_per_doc", "ms"},
	{"server.segment_ms_per_op", "ms"},
	{"server.classify_ms_per_op", "ms"},
	{"server.filter_ms_per_op", "ms"},
	{"server.resolve_ms_per_op", "ms"},
	{"server.align_ms_per_op", "ms"},
	{"server.unattributed_ms_per_op", "ms"},
	{"store.replay_s", "s"},
	{"store.replay_docs_per_s", "docs/s"},
	{"store.log_bytes_per_doc", "B/doc"},
	{"store.log_bytes_per_input_byte", "ratio"},
	{"store.reuse_ratio", "ratio"},
	{"store.retracted_docs", "count"},
	{"store.live_documents", "count"},
	{"store.index_entries", "count"},
	{"ingest.page_ms.cold", "ms"},
	{"ingest.page_ms.recrawl", "ms"},
	{"ingest.page_ms.identical", "ms"},
	{"ingest.unattributed_ms.recrawl", "ms"},
	{"ingest.unattributed_ms.identical", "ms"},
	{"ingest.reuse_ratio.recrawl", "ratio"},
	{"ingest.cold_docs_per_s", "docs/s"},
	{"quantsearch.parse_us", "us"},
	{"quantsearch.search_ms.p50", "ms"},
	{"quantsearch.search_ms.p90", "ms"},
	{"quantsearch.results_per_query", "count"},
	{"facts.lookup_ms.p50", "ms"},
	{"facts.lookup_ms.p90", "ms"},
	{"facts.results_per_query", "count"},
	{"search.write_p90_ms", "ms"},
	{"search.writer_late_ms", "ms"},
	{"process.gc_cycles_per_op", "count"},
	{"process.gc_pause_ms", "ms"},
	{"process.generator_cpu_share", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
	{"machine.speed", "ratio"},
}

// values collects one workload's metrics. A percentile with fewer than
// minBeyond samples beyond it is still recorded but noted as thin; outside
// -quick a thin percentile fails the run.
type values struct {
	m    map[string]float64
	thin []string
}

func newValues() *values { return &values{m: map[string]float64{}} }

func (v *values) pct(name string, samples []float64, q float64) {
	x, ok := percentile(samples, q)
	v.m[name] = x
	if !ok {
		v.thin = append(v.thin, fmt.Sprintf("%s (%d samples)", name, len(samples)))
	}
}

// summary is "name value unit" for each metric of defs, on one line.
func (v *values) summary(defs []metricDef) string {
	parts := make([]string, len(defs))
	for i, d := range defs {
		parts[i] = fmt.Sprintf("%s %.6g %s", d.name, v.m[d.name], d.unit)
	}
	return strings.Join(parts, ", ")
}

func (v *values) merge(o *values) {
	for k, x := range o.m {
		v.m[k] = x
	}
	v.thin = append(v.thin, o.thin...)
}

// endToEndValues aggregates the measured rounds: medians over rounds for
// rates, CPU and memory; percentiles over the latency samples pooled from
// every round; setup over every boot of the run. Times are multiplied and
// rates divided by speed, the run's speedFactor (1 leaves them as
// measured).
func endToEndValues(rounds []*roundOut, boots []float64, speed float64) *values {
	v := newValues()
	var rate, cpu, rss, lat []float64
	for _, o := range rounds {
		rate = append(rate, ratio(float64(o.ops), o.wall.Seconds()))
		cpu = append(cpu, ratio(ms(o.cpu), float64(o.ops)))
		rss = append(rss, o.rssMiB)
		lat = append(lat, o.lat...)
	}
	v.pct("p50_ms", lat, 0.50)
	v.pct("p90_ms", lat, 0.90)
	v.m["setup_s"] = median(boots) * speed
	v.m["ops_per_s"] = median(rate) / speed
	v.m["p50_ms"] *= speed
	v.m["p90_ms"] *= speed
	v.m["server_cpu_ms_per_op"] = median(cpu) * speed
	v.m["peak_rss_mb"] = median(rss)
	return v
}

// layerValues derives the HTTP-side per-layer metrics from the traced round
// o, with the measured rounds for what needs more samples than one round
// has.
func layerValues(w workload, o *roundOut, rounds []*roundOut, nproc int) (*values, []string) {
	v := newValues()
	m := v.m
	d := o.delta
	nReq := float64(len(o.rtts))
	var rttSum float64
	for _, x := range o.rtts {
		rttSum += x
	}
	// The handler histogram holds one sample per request. A /v1/ingest
	// stream is one request however many pages it carries, and its one
	// sample includes the waits for the client's next line, so the server
	// records no time per page to set against the per-page round trips: on
	// the ingest route the handler, overhead, coverage and unattributed
	// terms are not applicable and read 0. The component pass's ingest.*
	// metrics split the page time instead.
	var handlerSum float64
	streamed := false
	for _, r := range w.routes() {
		if r == "ingest" {
			streamed = true
			continue
		}
		handlerSum += d.handlers[r].SumMillis
	}
	v.pct("client.rtt_ms.p50", o.rtts, 0.50)
	v.pct("client.rtt_ms.p90", o.rtts, 0.90)
	m["client.rtt_ms.mean"] = ratio(rttSum, nReq)
	if streamed {
		m["http.overhead_ms.mean"] = 0
	} else {
		m["http.overhead_ms.mean"] = m["client.rtt_ms.mean"] - ratio(handlerSum, nReq)
	}
	m["http.handler_ms.mean"] = ratio(handlerSum, nReq)
	m["trace.coverage"] = ratio(handlerSum, rttSum)

	hits, misses := float64(d.serving["hits"]), float64(d.serving["misses"])
	m["serve.hit_ratio"] = ratio(hits, hits+misses)
	m["serve.misses"] = misses
	m["serve.coalesced"] = float64(d.serving["coalesced"])
	m["serve.evictions"] = float64(d.serving["evictions"])

	ops := float64(o.ops)
	stage := func(name string) float64 { return ratio(d.stages[name].SumMillis, ops) }
	m["server.segment_ms_per_op"] = stage("segment")
	m["server.classify_ms_per_op"] = stage("classify")
	m["server.filter_ms_per_op"] = stage("filter")
	m["server.resolve_ms_per_op"] = stage("resolve/rwr")
	m["server.align_ms_per_op"] = stage("align")
	m["server.unattributed_ms_per_op"] = 0
	if !streamed {
		m["server.unattributed_ms_per_op"] = ratio(handlerSum, ops) - m["server.segment_ms_per_op"] - m["server.align_ms_per_op"]
	}

	m["store.log_bytes_per_doc"] = ratio(float64(o.logGrowth), float64(d.store["documents"]))
	var logRatio, writeLat []float64
	for _, r := range rounds {
		logRatio = append(logRatio, ratio(float64(r.logGrowth), float64(r.inputBytes)))
		writeLat = append(writeLat, r.writeLat...)
	}
	m["store.log_bytes_per_input_byte"] = median(logRatio)
	m["store.reuse_ratio"] = o.reuseRatio
	m["store.retracted_docs"] = float64(d.store["retracted_documents"])
	m["store.live_documents"] = float64(d.end.Store["live_documents"])
	m["store.index_entries"] = float64(d.end.Store["index_entries"])

	if len(writeLat) > 0 {
		v.pct("search.write_p90_ms", writeLat, 0.90)
	} else {
		m["search.write_p90_ms"] = 0
	}
	m["search.writer_late_ms"] = o.writerLate

	var pause float64
	for _, ev := range o.gc {
		pause += ev.pauseMs
	}
	m["process.gc_cycles_per_op"] = ratio(float64(len(o.gc)), ops)
	m["process.gc_pause_ms"] = pause
	m["process.generator_cpu_share"] = ratio(o.genCPU.Seconds(), o.wall.Seconds()*float64(nproc))

	if streamed {
		return v, []string{fmt.Sprintf("client rtt %.3f ms/page over %d pages on %s; the server records no time per page on this route (see ingest.page_ms.* and ingest.unattributed_ms.*)",
			m["client.rtt_ms.mean"], len(o.rtts), strings.Join(w.routes(), "+"))}
	}
	// The breakdown: client rtt = overhead + handler; handler = the stages
	// the server records + what it does not.
	per := func(x float64) float64 { return ratio(x, nReq) }
	seg, cls, flt, res, aln := d.stages["segment"].SumMillis, d.stages["classify"].SumMillis,
		d.stages["filter"].SumMillis, d.stages["resolve/rwr"].SumMillis, d.stages["align"].SumMillis
	bd := []string{
		fmt.Sprintf("client rtt %.3f ms/request = http overhead %.3f + handler %.3f (%d requests on %s)",
			m["client.rtt_ms.mean"], m["http.overhead_ms.mean"], m["http.handler_ms.mean"], len(o.rtts), strings.Join(w.routes(), "+")),
		fmt.Sprintf("handler %.3f ms/request = segment %.3f + classify %.3f + filter %.3f + resolve %.3f + align-self %.3f + unattributed %.3f",
			per(handlerSum), per(seg), per(cls), per(flt), per(res), per(aln-cls-flt-res), per(handlerSum-seg-aln)),
	}
	return v, bd
}

// componentBreakdown sums the component pass's self times by span name:
// where one page's in-process time goes, with the page span's own self time
// as the unattributed term.
func componentBreakdown(spans []Span, workload string, pages int) string {
	self := map[string]float64{}
	for _, s := range spans {
		if s.Workload == workload && strings.HasPrefix(s.Trace, "component/"+workload+"/page/") {
			self[s.Name] += s.SelfUs
		}
	}
	var names []string
	total := 0.0
	for n, us := range self {
		names = append(names, n)
		total += us
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.3f", n, self[n]/1e3/float64(pages)))
	}
	return fmt.Sprintf("component page %.3f ms = %s (self ms/page, \"page\" = unattributed)", total/1e3/float64(pages), strings.Join(parts, " + "))
}

// printMetrics writes one "workload metric value unit" line per metric.
func printMetrics(out io.Writer, workload string, defs []metricDef, v *values) error {
	for _, d := range defs {
		x, ok := v.m[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		fmt.Fprintf(out, "%-14s %-34s %14.6g %s\n", workload, d.name, x, d.unit)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of stdout: one JSON object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rl *resultLine) add(prefix string, defs []metricDef, v *values) {
	for _, d := range defs {
		rl.Metrics[prefix+d.name] = metricValue{Value: v.m[d.name], Unit: d.unit}
	}
}

func (rl *resultLine) write(out io.Writer) error {
	b, err := json.Marshal(rl)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
