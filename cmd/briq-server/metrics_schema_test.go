package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// schemaLines renders the shape of a decoded JSON value — field paths and
// types, never values — one line per node, sorted keys. Arrays describe their
// first element.
func schemaLines(prefix string, v any, out *[]string) {
	switch t := v.(type) {
	case map[string]any:
		*out = append(*out, prefix+": object")
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			schemaLines(prefix+"."+k, t[k], out)
		}
	case []any:
		*out = append(*out, prefix+": array")
		if len(t) > 0 {
			schemaLines(prefix+"[]", t[0], out)
		}
	case float64:
		*out = append(*out, prefix+": number")
	case string:
		*out = append(*out, prefix+": string")
	case bool:
		*out = append(*out, prefix+": boolean")
	case nil:
		*out = append(*out, prefix+": null")
	default:
		*out = append(*out, fmt.Sprintf("%s: UNEXPECTED %T", prefix, v))
	}
}

func metricsSchema(t *testing.T, srv *server) string {
	t.Helper()
	rec := do(t, srv, "GET", "/v1/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var m map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	var lines []string
	schemaLines("metrics", m, &lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsSchemaGolden locks the /metrics JSON schema — field names and
// types, not values — so dashboards don't silently break across PRs. The
// schema must be identical on a cold server and after traffic (counters are
// pre-registered, not created on first use). Regenerate deliberately with:
//
//	go test ./cmd/briq-server -run TestMetricsSchemaGolden -update
func TestMetricsSchemaGolden(t *testing.T) {
	srv := newTestServer()
	cold := metricsSchema(t, srv)

	body, _ := json.Marshal(batchRequest{Pages: []batchPage{{ID: "a", HTML: testPage}}})
	if rec := do(t, srv, "POST", "/v1/align/batch", string(body)); rec.Code != 200 {
		t.Fatalf("batch status = %d", rec.Code)
	}
	do(t, srv, "POST", "/v1/align", testPage)
	do(t, srv, "GET", "/v1/align", "") // a 4xx, so error counters are exercised too
	warm := metricsSchema(t, srv)

	if cold != warm {
		t.Errorf("schema changed between cold server and after traffic:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	golden := filepath.Join("testdata", "metrics_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(warm), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if warm != string(want) {
		t.Errorf("/metrics schema drifted from golden.\nIf intentional, update dashboards and regenerate with -update.\ngot:\n%s\nwant:\n%s", warm, want)
	}
}
