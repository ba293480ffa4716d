package corpus

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"briq/internal/document"
)

// PageUnit is one generated page together with everything derived from it:
// the segmented documents (as the pipeline would see them) and the gold
// alignments of those documents. It is the unit of streaming generation.
type PageUnit struct {
	Page *Page
	Docs []*document.Document
	Gold []Gold
}

// HTMLBytes returns the size of the page's rendered HTML payload.
func (u *PageUnit) HTMLBytes() int64 { return int64(len(u.Page.HTML())) }

// Stream generates pages lazily, one PageUnit per Next call, without ever
// holding more than the current page in memory. The sequence is a pure
// function of the seed: page i depends only on the seed and on pages 0..i-1,
// never on how many pages the caller will eventually take. Consequences that
// size-targeted generation and the determinism tests rely on:
//
//   - two streams with the same Config produce byte-identical pages;
//   - a stream is prefix-stable: the first N units equal the N pages of
//     Generate(cfg with Pages=N), whatever N turns out to be, so stopping at
//     a byte budget instead of a page count changes nothing about the pages
//     that were emitted before the budget ran out.
//
// Config.Pages is ignored — the caller decides when to stop.
type Stream struct {
	g    *generator
	next int
}

// NewStream starts a lazy page stream for the configuration.
func NewStream(cfg Config) *Stream {
	cfg = cfg.withDefaults()
	g := &generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		seg: document.NewSegmenter(),
	}
	g.seg.VirtualOpts = cfg.VirtualOpts
	return &Stream{g: g}
}

// Next generates and returns the next page unit. The stream is unbounded;
// it never returns nil.
func (s *Stream) Next() *PageUnit {
	u := s.g.buildPage(s.next)
	s.next++
	return u
}

// sizeUnits maps the human-readable size suffixes accepted by ParseSize to
// their byte multipliers (binary: KB = 1024, matching what operators expect
// from a corpus generator's -tot-size flag).
var sizeUnits = []struct {
	suffix string
	mult   float64
}{
	{"GIB", 1 << 30}, {"MIB", 1 << 20}, {"KIB", 1 << 10},
	{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10},
	{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10},
	{"B", 1},
}

// ParseSize parses a human-readable byte size: a number with an optional
// case-insensitive suffix (B, KB/K, MB/M, GB/G, and the explicit KiB/MiB/GiB
// forms — all binary, KB = 1024 bytes). Fractional prefixes are accepted
// ("1.5GB"); a bare number is bytes. The result must be positive.
func ParseSize(s string) (int64, error) {
	in := strings.ToUpper(strings.TrimSpace(s))
	if in == "" {
		return 0, fmt.Errorf("parse size %q: empty", s)
	}
	mult := float64(1)
	for _, u := range sizeUnits {
		if strings.HasSuffix(in, u.suffix) {
			mult = u.mult
			in = strings.TrimSpace(strings.TrimSuffix(in, u.suffix))
			break
		}
	}
	v, err := strconv.ParseFloat(in, 64)
	if err != nil {
		return 0, fmt.Errorf("parse size %q: %v", s, err)
	}
	n := int64(v * mult)
	if n <= 0 {
		return 0, fmt.Errorf("parse size %q: must be positive", s)
	}
	return n, nil
}
