package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"briq/internal/corpus"
	"briq/internal/htmlx"
	"briq/internal/obs"
	"briq/internal/table"
)

func healthDocPage() *htmlx.Page {
	return &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "A total of 123 patients reported side effects, with 69 female patients."},
		&htmlx.TableBlock{Caption: "side effects reported by patients", Grid: [][]string{
			{"side effects", "male", "female", "total"},
			{"Rash", "15", "20", "35"},
			{"Depression", "13", "25", "38"},
			{"Hypertension", "19", "15", "34"},
			{"Nausea", "5", "6", "11"},
			{"Eye Disorders", "2", "3", "5"},
		}},
	}}
}

// TestAlignContextCancelled locks in the cooperative checkpoint: a dead
// context stops the pipeline before the next phase runs.
func TestAlignContextCancelled(t *testing.T) {
	tbl, err := table.New("t0", "counts", [][]string{
		{"name", "count"},
		{"a", "10"},
		{"b", "20"},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := segmentOne(t, "The count reached 30 in total.", tbl)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	als, err := NewPipeline().AlignContext(ctx, doc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if als != nil {
		t.Errorf("cancelled align returned alignments: %v", als)
	}
}

func TestAlignContextBackgroundMatchesAlign(t *testing.T) {
	c := corpus.Generate(corpus.TableSConfig(3))
	p := NewPipeline()
	for _, doc := range c.Docs[:5] {
		want := p.Align(doc)
		got, err := p.AlignContext(context.Background(), doc)
		if err != nil {
			t.Fatalf("doc %s: %v", doc.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %s: AlignContext diverged from Align", doc.ID)
		}
	}
}

func TestAlignPageContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewPipeline().AlignPageDocsContext(ctx, "p0", healthDocPage())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAlignPageTypedErrors pins the error taxonomy: a page with no numeric
// tables reports ErrNoTables; a page whose tables have no quantity-bearing
// paragraph nearby reports ErrNoMentions; both survive %w wrapping.
func TestAlignPageTypedErrors(t *testing.T) {
	p := NewPipeline()

	noTables := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "Numbers like 42 with no tables."},
	}}
	if _, _, err := p.AlignPageDocsContext(context.Background(), "p0", noTables); !errors.Is(err, ErrNoTables) {
		t.Errorf("tableless page: err = %v, want ErrNoTables", err)
	}

	noMentions := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "This paragraph discusses methodology without any figures."},
		&htmlx.TableBlock{Grid: [][]string{{"a", "b"}, {"1", "2"}}},
	}}
	if _, _, err := p.AlignPageDocsContext(context.Background(), "p1", noMentions); !errors.Is(err, ErrNoMentions) {
		t.Errorf("mentionless page: err = %v, want ErrNoMentions", err)
	}

	if _, _, err := p.AlignPageDocsContext(context.Background(), "p2", healthDocPage()); err != nil {
		t.Errorf("alignable page: err = %v, want nil", err)
	}
}

// TestCloneMatchesOriginal proves clone semantics: a clone shares models and
// configuration, reuses its scratch across documents, and still produces
// byte-identical output to the original pipeline.
func TestCloneMatchesOriginal(t *testing.T) {
	c := corpus.Generate(corpus.TableSConfig(11))
	p := NewPipeline()
	clone := p.Clone()
	if clone.local == nil {
		t.Fatal("clone has no local scratch")
	}
	if p.local != nil {
		t.Fatal("Clone mutated the original pipeline")
	}
	docs := c.Docs
	if len(docs) > 8 {
		docs = docs[:8]
	}
	for _, doc := range docs {
		want := p.Align(doc)
		got := clone.Align(doc) // reuses the clone's candidate buffer every round
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %s: clone output diverged from original", doc.ID)
		}
	}
}

// TestAlignContextDeadlineStopsLargeDocument: the deadline stops work inside
// the classify and resolve stages, not only between them. The page is one
// paragraph of 1,000 sentences and four numeric 8×4 tables; it segments to
// one document of 2,000 text mentions and the 844 table mentions of the
// table the segmenter relates to it, and a full align of it runs for many
// seconds, most of them in the 2,000 random walks of resolve. Under a
// 100 ms deadline the untrained pipeline must answer DeadlineExceeded
// without resolve or the align completing (the Recorder counts neither),
// whenever the deadline lands.
//
// The wall-clock bound is a loose backstop against a run that stops only
// after resolve. Measured on a 2-vCPU Xeon, the call returned after
// 0.41–0.47 s without -race (classify ends inside the deadline, the graph
// build takes ~0.3 s, and Resolve stops before its first walk) and after
// 0.11–0.13 s under -race (the classify check fires); the graph build,
// which does not check the context, alone takes up to 1.3 s under -race.
// Without the check inside resolve the call takes 16 s or more.
// TestScorePairsStopsAtFirstDoneCheck pins the classify check without a
// clock.
func TestAlignContextDeadlineStopsLargeDocument(t *testing.T) {
	const (
		deadline = 100 * time.Millisecond
		slack    = 10 * time.Second
	)
	blocks := []htmlx.Block{&htmlx.Paragraph{Text: strings.Repeat("Revenue was 123.4 million USD in region 7. ", 1000)}}
	for k := 0; k < 4; k++ {
		grid := make([][]string, 8)
		for r := range grid {
			for c := 0; c < 4; c++ {
				grid[r] = append(grid[r], fmt.Sprint(10+k*100+r*7+c*3))
			}
		}
		blocks = append(blocks, &htmlx.TableBlock{Caption: "revenue by region", Grid: grid})
	}
	p := NewPipeline()
	rec := obs.NewRecorder(StageNames()...)
	p.Recorder = rec
	res, err := p.Segmenter.SegmentPageInfo("p", &htmlx.Page{Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 1 {
		t.Fatalf("page segments to %d documents, want 1", len(res.Docs))
	}
	doc := res.Docs[0]
	if len(doc.TextMentions) != 2000 || len(doc.TableMentions) < 800 {
		t.Fatalf("document has %d text and %d table mentions; want 2,000 and at least 800", len(doc.TextMentions), len(doc.TableMentions))
	}

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	als, err := p.AlignContext(ctx, doc)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || als != nil {
		t.Fatalf("AlignContext = %d alignments, %v; want none and context.DeadlineExceeded", len(als), err)
	}
	for _, stage := range []string{StageResolve, StageAlign} {
		if n := rec.Stage(stage).Snapshot().Count; n != 0 {
			t.Errorf("the Recorder counted %d %s stages; want 0, the deadline stops the align before resolve completes", n, stage)
		}
	}
	if elapsed > deadline+slack {
		t.Fatalf("AlignContext returned %v after the call; want at most %v (deadline %v + slack %v)", elapsed, deadline+slack, deadline, slack)
	}
	t.Logf("%d text × %d table mentions: DeadlineExceeded after %v", len(doc.TextMentions), len(doc.TableMentions), elapsed)
}

// doneAfter is a context whose Err reports context.Canceled from its
// (n+1)th call on; checks counts the calls.
type doneAfter struct {
	context.Context
	n, checks int
}

func (c *doneAfter) Err() error {
	c.checks++
	if c.checks > c.n {
		return context.Canceled
	}
	return nil
}

// TestScorePairsStopsAtFirstDoneCheck: the classify stage, gated and
// ungated, checks its context at least once per text mention while building
// pairs and once per text mention while scoring them, and returns the
// context's error at the first check that reports one — for every check
// the run makes.
func TestScorePairsStopsAtFirstDoneCheck(t *testing.T) {
	c := corpus.Generate(corpus.TableSConfig(3))
	p := NewPipeline()
	for _, doc := range c.Docs[:3] {
		for _, gated := range []bool{true, false} {
			full := &doneAfter{Context: context.Background(), n: math.MaxInt}
			out, _, err := p.scorePairs(full, doc, gated, nil)
			if err != nil {
				t.Fatal(err)
			}
			scored := map[int]bool{}
			for _, cand := range out {
				scored[cand.Text] = true
			}
			if want := len(doc.TextMentions) + len(scored); full.checks < want {
				t.Fatalf("doc %s gated=%v: %d context checks for %d text mentions, %d of them scored; want at least %d",
					doc.ID, gated, full.checks, len(doc.TextMentions), len(scored), want)
			}
			for n := 0; n < full.checks; n++ {
				ctx := &doneAfter{Context: context.Background(), n: n}
				out, tags, err := p.scorePairs(ctx, doc, gated, nil)
				if !errors.Is(err, context.Canceled) || out != nil || tags != nil {
					t.Fatalf("doc %s gated=%v, done after %d checks: %d candidates, %d tags, %v; want none and context.Canceled",
						doc.ID, gated, n, len(out), len(tags), err)
				}
				if ctx.checks != n+1 {
					t.Fatalf("doc %s gated=%v, done after %d checks: returned after %d checks, want %d",
						doc.ID, gated, n, ctx.checks, n+1)
				}
			}
		}
	}
}

// TestAlignRefusesUnbuiltMentions: a document segmented keys-only has tables
// but no table mentions. Aligned as it is, it would yield no candidate and
// no alignment without an error, so AlignContext and Candidates refuse it
// with an error naming it, and Align panics. Once BuildTableMentions has
// run, it aligns as the eagerly segmented document does.
func TestAlignRefusesUnbuiltMentions(t *testing.T) {
	p := NewPipeline()
	ctx := context.Background()
	eager, err := p.Segmenter.SegmentPage("pg", healthDocPage())
	if err != nil || len(eager) != 1 {
		t.Fatalf("eager segmentation: %d documents, %v", len(eager), err)
	}
	want := p.Align(eager[0])
	if len(want) == 0 {
		t.Fatal("the eager document aligns to nothing; the test needs one that aligns")
	}
	keys, err := p.Segmenter.SegmentPageKeys("pg", healthDocPage())
	if err != nil || len(keys.Docs) != 1 {
		t.Fatalf("keys-only segmentation: %d documents, %v", len(keys.Docs), err)
	}
	doc := keys.Docs[0]

	if als, err := p.AlignContext(ctx, doc); err == nil || !strings.Contains(err.Error(), doc.ID) {
		t.Fatalf("AlignContext on unbuilt mentions = %d alignments, error %v; want an error naming %s", len(als), err, doc.ID)
	}
	if kept, err := p.Candidates(ctx, doc); err == nil || !strings.Contains(err.Error(), doc.ID) {
		t.Fatalf("Candidates on unbuilt mentions = %d candidates, error %v; want an error naming %s", len(kept), err, doc.ID)
	}
	func() {
		defer func() {
			if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), doc.ID) {
				t.Fatalf("Align on unbuilt mentions recovered %v; want a panic naming %s", v, doc.ID)
			}
		}()
		p.Align(doc)
	}()

	p.Segmenter.BuildTableMentions(keys.Docs)
	got, err := p.AlignContext(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("built keys-only document aligns to %+v, eager %+v", got, want)
	}
}
