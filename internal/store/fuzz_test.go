package store

import (
	"bytes"
	"encoding/json"
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
// re-crawl and reboot, byte for byte (sha256 d1cdd58f…a98fba) — each line
// alone and the whole log.
func FuzzReplayLog(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "store_log.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(seed, []byte("\n")) {
		f.Add(line)
	}
	f.Add(seed)
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
