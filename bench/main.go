// Command bench is briq's benchmark: it builds briq-server and briq-train
// from the tree, trains one model bundle, generates every input in-process
// from a seed, boots a fresh server per round with production flags, drives
// it over loopback through package client with at most two connections,
// checks every output, and prints every metric by name with its unit.
//
//	bash bench/run.sh -workload align_cold -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -seed 1 -trace 1 -out DIR   # every workload, traced
//
// With -trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with -trace 1 it carries the per-layer metrics and
// DIR/trace.json holds the spans. See bench/README.md for the workloads, the
// metrics, and how to read the breakdowns.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	quick    bool
}

// sizes are the per-round work amounts. Each round does the same fixed
// work, so rounds compare; how many rounds run is set by -seconds.
type sizes struct {
	ColdPages   int // align_cold: pages aligned per round
	HotPages    int // align_hot: hot set (a multiple of the 8-page batch)
	HotRequests int // align_hot: timed requests per round
	IngestPages int // ingest_recrawl and search_mixed: stored set
	WriterPages int // search_mixed: pages the writer re-crawls per round
	Queries     int // search queries sampled from the stored set
	Entities    int // facts entities sampled from the stored set
	SamplePages int // component pass sample
	MinRounds   int // measured rounds at least, whatever -seconds says
	Warmup      int // discarded rounds before the measured ones
	TrainPages  int // briq-train -pages; 0 = its default
}

func (s sizes) String() string {
	return fmt.Sprintf("cold=%d hot=%d requests=%d ingest=%d writer=%d@%d/s queries=%d entities=%d sample=%d rounds>=%d warmup=%d train_pages=%d",
		s.ColdPages, s.HotPages, s.HotRequests, s.IngestPages, s.WriterPages, writerRate,
		s.Queries, s.Entities, s.SamplePages, s.MinRounds, s.Warmup, s.TrainPages)
}

var (
	fullSizes = sizes{ColdPages: 160, HotPages: 128, HotRequests: 800, IngestPages: 160, WriterPages: 50,
		Queries: 320, Entities: 160, SamplePages: 150, MinRounds: 3, Warmup: 1}
	// quickSizes exercise every path in seconds; their percentiles are too
	// thin to report and their numbers mean nothing.
	quickSizes = sizes{ColdPages: 12, HotPages: 16, HotRequests: 60, IngestPages: 12, WriterPages: 8,
		Queries: 16, Entities: 8, SamplePages: 8, MinRounds: 1, TrainPages: 60}
)

func allWorkloads() []workload {
	return []workload{&alignCold{}, &alignHot{}, &ingestRecrawl{}, &searchMixed{}}
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.root, "root", ".", "repository root to build from")
	flag.StringVar(&o.workload, "workload", "all", "align_cold, align_hot, ingest_recrawl, search_mixed, or all (round-robin)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured rounds continue until this much time has passed per workload")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced round and component pass and report per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for trace.json")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes and one round: a smoke test, not a measurement")
	flag.Parse()
	o.trace = trace != 0

	ok, err := run(context.Background(), o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// run executes the benchmark and reports whether every check passed. The
// last line written to stdout is the JSON result.
func run(ctx context.Context, o options, stdout, log io.Writer) (bool, error) {
	sz := fullSizes
	if o.quick {
		sz = quickSizes
	}
	var ws []workload
	for _, w := range allWorkloads() {
		if o.workload == "all" || o.workload == w.name() {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	e, err := prepareEnv(ctx, o.root, sz.TrainPages, log)
	if err != nil {
		return false, err
	}
	r := &runner{e: e, opts: o, sz: sz, log: log, calibs: map[string][]float64{}}
	defer os.RemoveAll(e.runDir)

	machine := machineInfo(e, o.seed, sz)
	keys := make([]string, 0, len(machine))
	for k := range machine {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "# %s: %s\n", k, machine[k])
	}

	for _, w := range ws {
		r.logf("preparing %s", w.name())
		if err := w.prepare(ctx, r); err != nil {
			return false, fmt.Errorf("%s: prepare: %w", w.name(), err)
		}
	}

	// Rounds run round-robin across workloads (A B C D A B C D …) so that
	// machine drift during the run spreads over all of them.
	boots := map[string][]float64{}
	rounds := map[string][]*roundOut{}
	for i := 0; i < sz.Warmup; i++ {
		for _, w := range ws {
			out, err := r.round(ctx, w, nil, nil)
			if err != nil {
				return false, err
			}
			r.account(w, out)
			boots[w.name()] = append(boots[w.name()], out.setup.Seconds())
		}
	}
	// With -trace 1 every measured round is followed by a traced one of the
	// same workload; the per-pair ratio of their rates gives the tracing
	// overhead with drift cancelled between neighbours.
	budget := time.Duration(o.seconds * float64(len(ws)) * float64(time.Second))
	overhead := map[string][]float64{}
	start := time.Now()
	for n := 0; n < sz.MinRounds || time.Since(start) < budget; n++ {
		for _, w := range ws {
			out, err := r.round(ctx, w, nil, nil)
			if err != nil {
				return false, err
			}
			r.account(w, out)
			boots[w.name()] = append(boots[w.name()], out.setup.Seconds())
			rounds[w.name()] = append(rounds[w.name()], out)
			rate := ratio(float64(out.ops), out.wall.Seconds())
			r.logf("%s round %d: %.1f ops/s, %.2f ms server CPU/op, setup %.3f s, calibration %.0f units/s", w.name(), n+1,
				rate, ratio(ms(out.cpu), float64(out.ops)), out.setup.Seconds(), out.calib)
			if !o.trace {
				continue
			}
			traced, err := r.round(ctx, w, newTracer(), nil)
			if err != nil {
				return false, err
			}
			r.account(w, traced)
			tracedRate := ratio(float64(traced.ops), traced.wall.Seconds())
			overhead[w.name()] = append(overhead[w.name()], 1-ratio(tracedRate, rate))
			r.logf("%s round %d traced: %.1f ops/s", w.name(), n+1, tracedRate)
		}
	}
	r.logf("%d measured rounds per workload in %v", len(rounds[ws[0].name()]), time.Since(start).Round(time.Millisecond))

	// The result line carries the end-to-end metrics with -trace 0 and the
	// per-layer ones with -trace 1, named by workload when there are several.
	result := &resultLine{Metrics: map[string]metricValue{}}
	prefix := func(w workload) string {
		if len(ws) > 1 {
			return w.name() + "."
		}
		return ""
	}
	var thin []string
	speeds := map[string]float64{}
	for _, w := range ws {
		speeds[w.name()] = median(r.calibs[w.name()]) / calibReference
		factor := speedFactor(r.calibs[w.name()])
		raw := endToEndValues(rounds[w.name()], boots[w.name()], 1)
		v := endToEndValues(rounds[w.name()], boots[w.name()], factor)
		thin = append(thin, prefixed(w.name(), v.thin)...)
		fmt.Fprintf(stdout, "# %s: %d rounds, %d latency samples, machine speed %.3f of the reference (median of %d calibrations), scale factor %.3f\n",
			w.name(), len(rounds[w.name()]), pooled(rounds[w.name()]), speeds[w.name()], len(r.calibs[w.name()]), factor)
		fmt.Fprintf(stdout, "# %s as measured, before scaling to the reference speed: %s\n", w.name(), raw.summary(endToEnd))
		if err := printMetrics(stdout, w.name(), endToEnd, v); err != nil {
			return false, err
		}
		if !o.trace {
			result.add(prefix(w), endToEnd, v)
		}
	}

	if o.trace {
		tr := newTracer()
		layers := map[string]*values{}
		breakdowns := map[string][]string{}
		for _, w := range ws {
			r.logf("traced round and component pass: %s", w.name())
			pc, err := r.pageComponentPass(ctx, w, tr)
			if err != nil {
				return false, fmt.Errorf("%s: component pass: %w", w.name(), err)
			}
			out, err := r.round(ctx, w, tr, pc)
			if err != nil {
				return false, err
			}
			r.account(w, out)
			v, bd := layerValues(w, out, rounds[w.name()], e.nproc)
			v.m["trace.overhead"] = median(overhead[w.name()])
			v.m["machine.speed"] = speeds[w.name()]
			v.merge(pc.v)
			if err := r.storeComponentPass(w, out.storeDir, tr, v); err != nil {
				return false, fmt.Errorf("%s: store components: %w", w.name(), err)
			}
			layers[w.name()] = v
			breakdowns[w.name()] = bd
		}
		spans := tr.finish()
		for _, w := range ws {
			v := layers[w.name()]
			thin = append(thin, prefixed(w.name(), v.thin)...)
			bd := append(breakdowns[w.name()], componentBreakdown(spans, w.name(), len(componentSample(w.pages(), sz.SamplePages))))
			breakdowns[w.name()] = bd
			for _, line := range bd {
				fmt.Fprintf(stdout, "# %s breakdown: %s\n", w.name(), line)
			}
			if err := printMetrics(stdout, w.name(), perLayer, v); err != nil {
				return false, err
			}
			result.add(prefix(w), perLayer, v)
		}
		if err := writeTrace(o.out, machine, spans, breakdowns); err != nil {
			return false, fmt.Errorf("write trace: %w", err)
		}
		r.logf("wrote %s", filepath.Join(o.out, "trace.json"))
	}

	if len(thin) > 0 && !o.quick {
		r.failures = append(r.failures, "percentiles with fewer than 10 samples beyond them: "+strings.Join(thin, ", "))
		r.failed++
	}
	for _, f := range r.failures {
		r.logf("FAILED %s", f)
	}
	result.Correct = r.failed == 0
	result.Attempted, result.Failed = r.attempted, r.failed
	if result.Attempted < 1 {
		return false, errors.New("no operation was attempted")
	}
	fmt.Fprintf(stdout, "# error_rate %g (%d of %d operations failed)\n",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	return result.Correct, result.write(stdout)
}

func prefixed(name string, xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name + "." + x
	}
	return out
}

func pooled(rounds []*roundOut) int {
	n := 0
	for _, o := range rounds {
		n += len(o.lat)
	}
	return n
}
