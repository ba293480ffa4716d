// Package corpus is the data substrate of the reproduction: a deterministic
// generator of synthetic web pages that plays the role of the Dresden Web
// Table Corpus (125M tables from the July 2014 Common Crawl) and of the
// paper's hand-annotated ground truth (§VII-A).
//
// The generator reproduces the statistical challenges the paper identifies:
//
//   - approximate, truncated and scale-reformatted surface forms ("37K EUR"
//     for a cell containing 36900);
//   - aggregate references (column totals, same-row differences, percentages
//     and change ratios) whose values appear in no explicit cell;
//   - distractor quantities in text that refer to no table (partial mapping);
//   - same-value collisions within and across tables (the Fig. 3 ambiguity
//     that motivates joint inference);
//   - domain-dependent table shapes matching Table IX (health tables are
//     tiny, sports tables are wide and virtual-cell heavy).
//
// Every random choice flows from the seed, so corpora are reproducible.
//
// # Streaming and size-targeted generation
//
// Generate materializes a whole corpus in memory, which is fine for tests
// and experiments but not for building load-test corpora of hundreds of
// megabytes. Stream produces the same pages one at a time — page i depends
// only on the seed and pages 0..i-1, so the stream is a prefix of what
// Generate would have produced with the same Config — and WriteDir drains a
// stream straight to disk (one HTML file per page, an NDJSON manifest, an
// incrementally written gold file) without ever holding more than one page.
// WriteDir's sizeTarget stops the stream once the cumulative HTML payload
// reaches a byte budget instead of a page count; ParseSize accepts the
// human forms ("256MB", "1GiB") the corpusgen -tot-size flag takes. Because
// the stream is prefix-stable, two runs with the same seed and target are
// byte-identical — a corpus is reproducible from its (seed, size) pair
// alone.
package corpus

import (
	"fmt"
	"math/rand"

	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/quantity"
	"briq/internal/table"
)

// Domain is a page topic, matching the five major topics of tableL plus
// "others" (§VII-A, Tables VIII and IX).
type Domain int

// Domains.
const (
	Environment Domain = iota
	Finance
	Health
	Politics
	Sports
	Others
	NumDomains
)

var domainNames = [...]string{"environment", "finance", "health", "politics", "sports", "others"}

// String returns the lowercase domain name as used in Tables VIII and IX.
func (d Domain) String() string {
	if d < 0 || int(d) >= len(domainNames) {
		return fmt.Sprintf("domain(%d)", int(d))
	}
	return domainNames[d]
}

// AllDomains lists every domain in table order.
func AllDomains() []Domain {
	return []Domain{Environment, Finance, Health, Politics, Sports, Others}
}

// Gold is one ground-truth alignment: text mention TextIndex of document
// DocID refers to the table mention with key TableKey.
type Gold struct {
	DocID     string
	TextIndex int
	TableKey  string
	Agg       quantity.Agg
}

// Page is one generated web page.
type Page struct {
	ID     string
	Domain Domain
	Title  string
	Paras  []string
	Tables []*table.Table
}

// Blocks renders the page's canonical block layout — paragraphs and tables
// interleaved (p0 t0 p1 t1 p2 ...), matching the positions the generator's
// segmentation assumed. cmd/corpusgen and the HTML round-trip tests use
// this, so re-ingesting an emitted page reproduces the same documents.
func (p *Page) Blocks() []htmlx.Block {
	var blocks []htmlx.Block
	n := len(p.Paras)
	if len(p.Tables) > n {
		n = len(p.Tables)
	}
	for i := 0; i < n; i++ {
		if i < len(p.Paras) {
			blocks = append(blocks, &htmlx.Paragraph{Text: p.Paras[i]})
		}
		if i < len(p.Tables) {
			blocks = append(blocks, tableBlock(p.Tables[i]))
		}
	}
	return blocks
}

// HTML renders the full page markup.
func (p *Page) HTML() string {
	return htmlx.Render(&htmlx.Page{Title: p.Title, Blocks: p.Blocks()})
}

func tableBlock(tbl *table.Table) *htmlx.TableBlock {
	block := &htmlx.TableBlock{Caption: tbl.Caption}
	header := append([]string{"category"}, tbl.ColHeaders...)
	block.Grid = append(block.Grid, header)
	for r := 0; r < tbl.Rows(); r++ {
		row := []string{tbl.RowHeaders[r]}
		for c := 0; c < tbl.Cols(); c++ {
			row = append(row, tbl.Cell(r, c).Text)
		}
		block.Grid = append(block.Grid, row)
	}
	return block
}

// Corpus is a generated collection with its segmented documents and ground
// truth.
type Corpus struct {
	Pages []*Page
	Docs  []*document.Document
	Gold  []Gold

	// goldByDoc indexes gold alignments by document ID.
	goldByDoc map[string][]Gold
	// domainByDoc maps document ID to its page's domain.
	domainByDoc map[string]Domain
}

// GoldFor returns the gold alignments of one document.
func (c *Corpus) GoldFor(docID string) []Gold { return c.goldByDoc[docID] }

// DocsByDomain groups the documents by their page domain.
func (c *Corpus) DocsByDomain() map[Domain][]*document.Document {
	out := make(map[Domain][]*document.Document)
	for _, doc := range c.Docs {
		d := c.domainByDoc[doc.ID]
		out[d] = append(out[d], doc)
	}
	return out
}

// Config controls generation.
type Config struct {
	Pages int   // number of pages to generate
	Seed  int64 // RNG seed; same seed ⇒ identical corpus

	// DomainWeights gives the relative frequency of each domain; nil uses
	// the tableL proportions of Table VIII.
	DomainWeights map[Domain]float64

	// ParasPerPage is the mean number of paragraphs per page (≥1).
	ParasPerPage int
	// RefsPerPara is the mean number of table references per paragraph.
	RefsPerPara int
	// DistractorProb is the chance of adding an unalignable distractor
	// quantity to a paragraph.
	DistractorProb float64
	// ApproxProb is the chance a single-cell reference is rendered
	// approximately ("about 35,000" for 34900).
	ApproxProb float64
	// ScaleFormatProb is the chance a large value is rendered with a scale
	// suffix ("37K", "3.26 billion").
	ScaleFormatProb float64
	// CollisionProb is the chance a page gets a second, similar table with
	// overlapping values (the Fig. 3 setting).
	CollisionProb float64
	// DuplicateProb is the chance a generated cell reuses a value already
	// present elsewhere in the same table — the same-value collisions
	// (Fig. 6a: "the value '3.2' exists in two cells in the same row with
	// very similar context") that make local top-1 resolution fail and joint
	// inference necessary.
	DuplicateProb float64
	// VagueProb is the chance a single-cell reference is rendered without
	// naming its row/column ("The figure stood at 38 for the period") — web
	// text routinely relies on discourse rather than header words, which is
	// why local context features alone cannot resolve collisions (§VI).
	VagueProb float64
	// AggShare is the fraction of references that target virtual cells; the
	// split over sum/diff/percent/ratio follows Table I.
	AggShare float64

	// VirtualOpts must match the segmenter used by the experiments.
	VirtualOpts table.VirtualOptions
}

// TableSConfig mirrors the annotated tableS corpus: 495 pages, ~1,600
// documents, ~7,500 text mentions (§VII-A).
func TableSConfig(seed int64) Config {
	return Config{
		Pages:           495,
		Seed:            seed,
		ParasPerPage:    3,
		RefsPerPara:     4,
		DistractorProb:  0.45,
		ApproxProb:      0.3,
		ScaleFormatProb: 0.35,
		CollisionProb:   0.25,
		DuplicateProb:   0.35,
		VagueProb:       0.5,
		AggShare:        0.13, // Table I: 663 aggregate positives of 5039 ≈ 13%
		VirtualOpts:     table.DefaultVirtualOptions(),
	}
}

// TableLConfig mirrors the throughput corpus tableL at a laptop-friendly
// scale; pages scale linearly, domain mix follows Table VIII.
func TableLConfig(seed int64, pages int) Config {
	cfg := TableSConfig(seed)
	cfg.Pages = pages
	cfg.DomainWeights = map[Domain]float64{
		// Page proportions of Table VIII (×1000 pages).
		Environment: 118.7, Finance: 325.9, Health: 102.1,
		Politics: 128.3, Sports: 527.3, Others: 309.3,
	}
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Pages <= 0 {
		c.Pages = 10
	}
	if c.ParasPerPage <= 0 {
		c.ParasPerPage = 3
	}
	if c.RefsPerPara <= 0 {
		c.RefsPerPara = 4
	}
	if c.VirtualOpts.Aggs == nil {
		c.VirtualOpts = table.DefaultVirtualOptions()
	}
	if c.DomainWeights == nil {
		c.DomainWeights = map[Domain]float64{
			Environment: 1, Finance: 1, Health: 1, Politics: 1, Sports: 1, Others: 1,
		}
	}
	return c
}

// pickDomain samples a domain according to the configured weights.
func pickDomain(rng *rand.Rand, weights map[Domain]float64) Domain {
	var total float64
	for _, d := range AllDomains() {
		total += weights[d]
	}
	r := rng.Float64() * total
	for _, d := range AllDomains() {
		r -= weights[d]
		if r < 0 {
			return d
		}
	}
	return Others
}
