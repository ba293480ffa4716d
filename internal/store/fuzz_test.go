package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"briq/internal/serve"
)

// FuzzReplayLog opens a store whose corpus.ndjson holds arbitrary bytes
// under a valid meta.json. The contract under any log: Open returns without
// panicking, and when it succeeds, Search, Entities, FactsFor and Counters
// do too. The seeds are testdata/store_log.ndjson — the log
// TestStoreLogGolden (cmd/briq-server) writes across align, batch, ingest,
// re-crawl and reboot, byte for byte (sha256 e9a9f917…4eedd1) — and
// testdata/store_log_legacy.ndjson, the same scenario's log from before
// page entries held document keys (sha256 84ffccfe…b8363a), whose "cache"
// records carry alignments or page_docs: each line alone and each whole log.
func FuzzReplayLog(f *testing.F) {
	for _, name := range []string{"store_log.ndjson", "store_log_legacy.ndjson"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(seed, []byte("\n")) {
			f.Add(line)
		}
		f.Add(seed)
	}
	meta, err := json.Marshal(meta{Version: version, Fingerprint: testFP})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, metaName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		gate := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 1 << 20})
		s, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate})
		if err != nil {
			return
		}
		defer s.Close()
		for _, q := range battery() {
			s.Search(q)
		}
		for _, e := range append(s.Entities(), "") {
			s.FactsFor(e)
		}
		s.Counters()
	})
}

// TestReplayTruncatedLog cuts testdata/store_log.ndjson as a crash
// mid-append would, and requires each cut to replay to the view of the
// complete lines before it: a torn record applies nothing — neither its
// document nor the retraction it carries — and a record that lacks only its
// newline applies in full. The view is Search over battery(), FactsFor for
// every entity, and Counters() without log_bytes and replay_skipped. The cuts
// are every byte within 8 of each line end and every 211th byte elsewhere,
// since each costs an Open.
func TestReplayTruncatedLog(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "store_log.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(meta{Version: version, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaName), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	view := func(n int) string {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, logName), log[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, Fingerprint: testFP})
		if err != nil {
			t.Fatalf("cut at byte %d: %v", n, err)
		}
		defer s.Close()
		c := s.Counters()
		delete(c, "log_bytes")
		delete(c, "replay_skipped")
		var b bytes.Buffer
		fmt.Fprintf(&b, "%v\n", c)
		for _, q := range battery() {
			fmt.Fprintf(&b, "%+v\n", s.Search(q))
		}
		for _, e := range s.Entities() {
			fmt.Fprintf(&b, "%s %+v\n", e, s.FactsFor(e))
		}
		return b.String()
	}

	// ends[i] is the offset of line i's newline; want[k] is the view of the
	// first k lines.
	var ends []int
	for i, c := range log {
		if c == '\n' {
			ends = append(ends, i)
		}
	}
	if len(ends) == 0 || ends[len(ends)-1] != len(log)-1 {
		t.Fatal("testdata log does not end in a newline")
	}
	want := []string{view(0)}
	for _, e := range ends {
		want = append(want, view(e+1))
	}

	cuts, k := 0, 0
	for n := 0; n <= len(log); n++ {
		for k < len(ends) && ends[k] < n {
			k++ // lines 0..k-1 are complete, newline included
		}
		near := k < len(ends) && ends[k]-n <= 8 || k > 0 && n-ends[k-1] <= 8
		if !near && n%211 != 0 {
			continue
		}
		complete := k
		if k < len(ends) && n == ends[k] {
			complete++ // only the newline is missing
		}
		cuts++
		if got := view(n); got != want[complete] {
			t.Fatalf("cut at byte %d of %d: view differs from that of the first %d lines\ngot:\n%s\nwant:\n%s",
				n, len(log), complete, got, want[complete])
		}
	}
	t.Logf("%d cuts over %d lines", cuts, len(ends))
}
