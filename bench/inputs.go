package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"briq/client"
	"briq/internal/api"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/quantsearch"
)

// page is one generated page as the benchmark sends it, with the counts the
// benchmark derives from it in-process.
type page struct {
	ID       string
	HTML     string
	Docs     int // documents the server's segmenter finds on the page
	Pairs    int // Σ |text mentions|·|table mentions| over those documents
	Mentions int // Σ text mentions: what a cached answer's size follows
	Cells    int // Σ numeric cells of each document's tables: what content keys hash
	src      *corpus.Page
}

// pairEdges and pairShares stratify pages by pair count, the quantity that
// explains alignment cost (correlation 0.96 between per-page align time and
// pairs on the tableS generator). The edges are the deciles plus the 95th
// percentile of pairs per page over 4,000 generated pages (seeds 101–110).
// Drawing every page set with these fixed shares keeps the cost mix of a set
// the same across seeds while the pages themselves differ: it roughly halves
// the seed-to-seed spread of docs/s against drawing pages in stream order.
var (
	pairEdges  = []int{1720, 2934, 3982, 5104, 6495, 8100, 10026, 12924, 18192, 24448}
	pairShares = []float64{.1, .1, .1, .1, .1, .1, .1, .1, .1, .05, .05}
)

// selectPages draws n pages from the tableS generator stream of seed,
// filling each pair-count stratum to its share of n and skipping pages that
// yield no document (the server would refuse them).
func selectPages(seed int64, n int) ([]page, error) {
	quota := make([]int, len(pairShares))
	cum := 0.0
	for k, s := range pairShares {
		lo := int(math.Round(float64(n) * cum))
		cum += s
		quota[k] = int(math.Round(float64(n)*cum)) - lo
	}
	st := corpus.NewStream(corpus.TableSConfig(seed))
	seg := document.NewSegmenter()
	var out []page
	for drawn := 0; len(out) < n; drawn++ {
		if drawn > 50*n+1000 {
			return nil, fmt.Errorf("seed %d: %d pages drawn without filling the pair strata", seed, drawn)
		}
		pg := measurePage(seg, st.Next().Page)
		if pg.Docs == 0 {
			continue
		}
		k := sort.SearchInts(pairEdges, pg.Pairs+1)
		if quota[k] == 0 {
			continue
		}
		quota[k]--
		out = append(out, pg)
	}
	return out, nil
}

func measurePage(seg *document.Segmenter, src *corpus.Page) page {
	html := src.HTML()
	pg := page{ID: src.ID, HTML: html, src: src}
	docs, err := seg.SegmentPage(src.ID, htmlx.ParseString(html))
	if err != nil {
		return pg
	}
	pg.Docs = len(docs)
	for _, d := range docs {
		pg.Pairs += len(d.TextMentions) * len(d.TableMentions)
		pg.Mentions += len(d.TextMentions)
		for _, t := range d.Tables {
			pg.Cells += len(t.NumericCells())
		}
	}
	return pg
}

// recrawlSentence is appended to the first paragraph of every re-crawled
// page: it carries no quantity, so the page keeps its documents, but the
// first paragraph's document changes identity and must be realigned.
const recrawlSentence = " A follow-up note was appended on re-crawl."

func recrawled(pgs []page) []page {
	seg := document.NewSegmenter()
	out := make([]page, len(pgs))
	for i, pg := range pgs {
		src := *pg.src
		src.Paras = append([]string(nil), src.Paras...)
		src.Paras[0] += recrawlSentence
		out[i] = measurePage(seg, &src)
	}
	return out
}

func totalDocs(pgs []page) int {
	n := 0
	for _, pg := range pgs {
		n += pg.Docs
	}
	return n
}

// query is one /v1/search read: the query string the benchmark sends and the
// query the server must parse it into, for computing the expected answer
// in-process.
type query struct {
	vals   url.Values         // the /v1/search parameters, without paging
	cq     client.SearchQuery // the same query for the typed client
	parsed quantsearch.Query
}

// buildQueries samples n queries from the index entries of the pages'
// documents: even ones natural-language (q=), odd ones structured
// (op/value/unit/keywords), each with one keyword from the entry's context
// so results stay a ranked slice rather than the whole corpus.
func buildQueries(seed int64, pgs []page, n int) ([]query, error) {
	seg := document.NewSegmenter()
	var entries []quantsearch.Entry
	for _, pg := range pgs {
		docs, err := seg.SegmentPage(pg.ID, htmlx.ParseString(pg.HTML))
		if err != nil {
			return nil, err
		}
		for _, d := range docs {
			entries = append(entries, quantsearch.EntriesFromDocument(d)...)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no index entries in %d pages", len(pgs))
	}
	rng := rand.New(rand.NewSource(seed))
	ops := []quantsearch.Comparison{quantsearch.Above, quantsearch.Below, quantsearch.Between}
	var out []query
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("could not sample %d queries from %d entries", n, len(entries))
		}
		e := entries[rng.Intn(len(entries))]
		kw := keyword(rng, e)
		if kw == "" {
			continue
		}
		op := ops[rng.Intn(len(ops))]
		v := e.Value
		if len(out)%2 == 0 {
			if op == quantsearch.Between {
				op = quantsearch.Above
			}
			q := fmt.Sprintf("%s %s %s", kw, op, strconv.FormatFloat(math.Abs(v), 'f', -1, 64))
			parsed, err := quantsearch.ParseQuery(q)
			if err != nil {
				continue
			}
			out = append(out, query{vals: url.Values{"q": {q}}, cq: client.SearchQuery{Q: q}, parsed: parsed})
			continue
		}
		parsed := quantsearch.Query{Keywords: []string{kw}, Op: op, Value: v}
		vals := url.Values{"op": {op.String()}, "value": {strconv.FormatFloat(v, 'g', -1, 64)}, "keywords": {kw}}
		if op == quantsearch.Between {
			parsed.Value2 = v * 1.5
			if parsed.Value2 < parsed.Value {
				parsed.Value, parsed.Value2 = parsed.Value2, parsed.Value
			}
			vals.Set("value", strconv.FormatFloat(parsed.Value, 'g', -1, 64))
			vals.Set("value2", strconv.FormatFloat(parsed.Value2, 'g', -1, 64))
		}
		if e.Unit != "" && unitRoundTrips(e.Unit) {
			parsed.Unit = e.Unit
			vals.Set("unit", e.Unit)
		}
		cq := client.SearchQuery{Op: op.String(), Value: parsed.Value, Value2: parsed.Value2, Unit: parsed.Unit, Keywords: parsed.Keywords}
		out = append(out, query{vals: vals, cq: cq, parsed: parsed})
	}
	return out, nil
}

// keyword picks one lowercase alphabetic word of length ≥ 4 from the entry's
// header, entity or caption; "" when there is none.
func keyword(rng *rand.Rand, e quantsearch.Entry) string {
	var words []string
	for _, s := range []string{e.Header, e.Entity, e.Caption} {
		for _, w := range strings.Fields(strings.ToLower(s)) {
			if len(w) >= 4 && strings.Trim(w, "abcdefghijklmnopqrstuvwxyz") == "" {
				words = append(words, w)
			}
		}
	}
	if len(words) == 0 {
		return ""
	}
	return words[rng.Intn(len(words))]
}

// unitRoundTrips reports whether a canonical unit name reads back as itself
// when written after a number — the spelling a structured query's unit=
// parameter must survive server-side normalization with.
func unitRoundTrips(unit string) bool {
	q, err := quantsearch.ParseQuery("x of 1 " + unit)
	return err == nil && q.Unit == unit
}

// searchPath is the /v1/search request for q's first page of limit results.
func (q query) searchPath(limit int) string {
	v := url.Values{}
	for k, vv := range q.vals {
		v[k] = vv
	}
	v.Set("limit", strconv.Itoa(limit))
	return api.Versioned("/search") + "?" + v.Encode()
}

func factsPath(entity string, limit int) string {
	return api.Versioned("/facts") + "?" + url.Values{"entity": {entity}, "limit": {strconv.Itoa(limit)}}.Encode()
}

// balancedOrder returns 0..n-1 in the bit-reversal order n/2, n/4, 3n/4,
// n/8, …: every prefix spreads evenly over the range. Applied to items sorted
// by cost, it makes the first k items a cross-section of the costs for
// every k.
func balancedOrder(n int) []int {
	k := 0
	for 1<<k < n {
		k++
	}
	seen := make([]bool, n)
	out := make([]int, 0, n)
	for r := 1; r <= 1<<k; r++ {
		j := 0
		for b, x := 0, r%(1<<k); b < k; b++ {
			j = j<<1 | (x>>b)&1
		}
		if i := j * n >> k; !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// sample picks up to n of xs with a seeded shuffle, keeping xs unchanged.
func sample[T any](seed int64, xs []T, n int) []T {
	idx := rand.New(rand.NewSource(seed)).Perm(len(xs))
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[idx[i]]
	}
	return out
}
