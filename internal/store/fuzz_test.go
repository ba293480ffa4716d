package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"briq/internal/jsonread"
	"briq/internal/serve"
)

// FuzzReplayLog opens a store whose corpus.ndjson holds arbitrary bytes
// under a valid meta.json. The contract under any log: Open returns without
// panicking, and when it succeeds, Search, Entities, FactsFor and Counters
// do too. The seeds are testdata/store_log.ndjson — the log
// TestStoreLogGolden (cmd/briq-server) writes across align, batch, ingest,
// re-crawl and reboot, byte for byte (sha256 7cccc63e…fdfee117) — and
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

// logLines returns every line of the committed logs, testdata/store_log.ndjson
// and testdata/store_log_legacy.ndjson.
func logLines(tb testing.TB) [][]byte {
	tb.Helper()
	var lines [][]byte
	for _, name := range []string{"store_log.ndjson", "store_log_legacy.ndjson"} {
		log, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n"))...)
	}
	return lines
}

// TestParseRecordReadsLogs: every line of the committed logs takes the
// one-pass path, to the record json.Unmarshal gives.
func TestParseRecordReadsLogs(t *testing.T) {
	c := &jsonread.Cursor{Intern: make(map[string]string)}
	for i, line := range logLines(t) {
		var want record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		c.Reset(line)
		got, ok := parseRecord(c)
		if !ok {
			t.Errorf("line %d: parseRecord declined it: %.120s", i, line)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("line %d: parseRecord read %+v, json.Unmarshal %+v", i, got, want)
		}
	}
}

// FuzzDecodeRecord: for any line, decodeRecord and json.Unmarshal agree on
// whether it decodes and on the record; the one-pass reader may decline a
// line, but what it accepts json.Unmarshal accepts as the same record. The
// seeds are every line of the committed logs and lines at the edges of the
// one-pass form.
func FuzzDecodeRecord(f *testing.F) {
	for _, line := range logLines(f) {
		f.Add(line)
	}
	for _, line := range []string{
		`{"kind":"doc","key":"k","doc_id":"a\"b\\c\/d\b\f\n\r\t\u00e9"}`,
		`{"kind":"doc","doc_id":"line\u2028separator"}`,
		"{\"kind\":\"doc\",\"doc_id\":\"\xff\xfe\"}",
		`{"kind":"doc","doc_id":"\ud83d\ude00"}`,
		`{"kind":"doc","entries":[{"doc_id":"d","table_id":"t","row":1.0,"col":0,"entity":"e","header":"h","value":1,"unit":"","caption":""}]}`,
		`{"kind":"doc","entries":[{"doc_id":"d","table_id":"t","row":1e400,"col":0,"entity":"e","header":"h","value":1,"unit":"","caption":""}]}`,
		`{"kind":"doc","entries":[{"doc_id":"d","table_id":"t","row":-0,"col":0,"entity":"e","header":"h","value":-0,"unit":"","caption":""}]}`,
		`{"kind":"doc","entries":[{"doc_id":"d","table_id":"t","row":0,"col":0,"entity":"e","header":"h","value":1e400,"unit":"","caption":""}]}`,
		`{"kind":"doc","key":"a","key":"b"}`,
		`{"kind":"doc","page_docs":["a"],"page_docs":["b","c"]}`,
		`{"key":"k","kind":"cache"}`,
		`{"kind":"cache","page_docs":[]}`,
		` { "kind" : "retract" , "page_id" : "p" , "supersedes" : [ "a" , "b" ] } ` + "\r",
		`{"kind":"retract"} {}`,
		`{"kind":"doc","facts":[{"entity":"e","measure":"m","value":2,"unit":"kg","agg":"sum","doc_id":"d","table_key":"t","text_surface":"2 kg","confidence":0.5}]}`,
		`{"kind":"doc","alignments":[{"doc_id":"d","text_index":0,"table_index":1,"text_surface":"s","text_start":0,"text_end":1,"table_key":"t","agg":"sum","value":2.5e-7,"score":1,"agg_code":1}]}`,
		`{"Kind":"doc"}`,
		`{"kind":null}`,
	} {
		f.Add([]byte(line))
	}
	c := &jsonread.Cursor{Intern: make(map[string]string)}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want record
		wantErr := json.Unmarshal(line, &want)
		c.Reset(line)
		if got, ok := parseRecord(c); ok {
			if wantErr != nil {
				t.Fatalf("parseRecord accepted what json.Unmarshal rejects: %v", wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parseRecord read %+v, json.Unmarshal %+v", got, want)
			}
		}
		got, err := decodeRecord(c, line)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decodeRecord error %v, json.Unmarshal error %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRecord read %+v, json.Unmarshal %+v", got, want)
		}
	})
}
