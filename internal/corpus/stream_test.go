package corpus

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestStreamMatchesGenerate pins the prefix-stability contract: the first N
// stream units are exactly the N pages of Generate, so a size-targeted run
// emits the same pages a fixed-count run would have.
func TestStreamMatchesGenerate(t *testing.T) {
	cfg := TableSConfig(7)
	cfg.Pages = 12
	c := Generate(cfg)

	s := NewStream(cfg)
	var docs, gold int
	for i, want := range c.Pages {
		u := s.Next()
		if u.Page.ID != want.ID {
			t.Fatalf("page %d: stream ID %q, Generate ID %q", i, u.Page.ID, want.ID)
		}
		if u.Page.HTML() != want.HTML() {
			t.Fatalf("page %d: stream HTML differs from Generate", i)
		}
		docs += len(u.Docs)
		gold += len(u.Gold)
	}
	if docs != len(c.Docs) {
		t.Errorf("stream documents = %d, Generate = %d", docs, len(c.Docs))
	}
	if gold != len(c.Gold) {
		t.Errorf("stream gold = %d, Generate = %d", gold, len(c.Gold))
	}
	if len(c.Pages) != cfg.Pages {
		t.Errorf("compared %d streamed pages, want %d", len(c.Pages), cfg.Pages)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"1024", 1024},
		{"64KB", 64 << 10},
		{"64kb", 64 << 10},
		{"1.5K", 1536},
		{"100MB", 100 << 20},
		{"1GB", 1 << 30},
		{"2GiB", 2 << 30},
		{"512B", 512},
		{" 10 MB ", 10 << 20},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "-5MB", "0", "MB", "ten"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q): expected error", bad)
		}
	}
}

// readDir returns every file in dir keyed by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestWriteDirDeterministic is the -seed determinism contract: the same seed
// and the same size target produce byte-identical output across two
// independent runs — every HTML payload, the manifest, and gold.json.
func TestWriteDirDeterministic(t *testing.T) {
	cfg := TableSConfig(42)
	const target = 256 << 10

	dirs := []string{t.TempDir(), t.TempDir()}
	var stats [2]WriteStats
	for i, dir := range dirs {
		var err error
		stats[i], err = WriteDir(dir, cfg, target)
		if err != nil {
			t.Fatal(err)
		}
	}
	if stats[0] != stats[1] {
		t.Fatalf("stats differ across runs: %+v vs %+v", stats[0], stats[1])
	}

	a, b := readDir(t, dirs[0]), readDir(t, dirs[1])
	if len(a) != len(b) {
		t.Fatalf("file counts differ: %d vs %d", len(a), len(b))
	}
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if string(a[name]) != string(b[name]) {
			t.Errorf("%s differs between runs", name)
		}
	}
}

// TestWriteDirSizeTarget asserts the byte budget lands within ±5% and that
// the accounting in WriteStats matches what actually hit the disk.
func TestWriteDirSizeTarget(t *testing.T) {
	cfg := TableSConfig(42)
	const target = 256 << 10

	dir := t.TempDir()
	stats, err := WriteDir(dir, cfg, target)
	if err != nil {
		t.Fatal(err)
	}

	var onDisk int64
	for _, b := range readDir(t, dir) {
		onDisk += int64(len(b))
	}
	if onDisk != stats.Bytes {
		t.Errorf("stats.Bytes = %d, on disk = %d", stats.Bytes, onDisk)
	}
	lo, hi := int64(target*95)/100, int64(target*105)/100
	if stats.Bytes < lo || stats.Bytes > hi {
		t.Errorf("bytes = %d, want within ±5%% of %d [%d, %d]", stats.Bytes, target, lo, hi)
	}
	if stats.Pages == 0 || stats.Documents == 0 || stats.Gold == 0 {
		t.Errorf("empty corpus: %+v", stats)
	}
}

// TestWriteDirPageMode pins the fixed-count mode: cfg.Pages pages, a
// manifest line per page, and a gold.json that parses to the same records
// Generate produces.
func TestWriteDirPageMode(t *testing.T) {
	cfg := TableSConfig(11)
	cfg.Pages = 8

	dir := t.TempDir()
	stats, err := WriteDir(dir, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != cfg.Pages {
		t.Fatalf("pages = %d, want %d", stats.Pages, cfg.Pages)
	}

	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []ManifestEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e ManifestEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("manifest line %d: %v", len(entries), err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(entries) != cfg.Pages {
		t.Fatalf("manifest lines = %d, want %d", len(entries), cfg.Pages)
	}
	for _, e := range entries {
		html, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatalf("manifest names missing file: %v", err)
		}
		if int64(len(html)) != e.Bytes {
			t.Errorf("%s: manifest bytes %d, file %d", e.ID, e.Bytes, len(html))
		}
	}

	goldBytes, err := os.ReadFile(filepath.Join(dir, GoldName))
	if err != nil {
		t.Fatal(err)
	}
	var gold []Gold
	if err := json.Unmarshal(goldBytes, &gold); err != nil {
		t.Fatalf("gold.json: %v", err)
	}
	want := Generate(cfg)
	if len(gold) != len(want.Gold) {
		t.Fatalf("gold records = %d, Generate = %d", len(gold), len(want.Gold))
	}
	for i := range gold {
		if gold[i] != want.Gold[i] {
			t.Fatalf("gold[%d] = %+v, want %+v", i, gold[i], want.Gold[i])
		}
	}
}
