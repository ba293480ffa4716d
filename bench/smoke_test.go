package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// benchmark to: every metric it declares is printed with the declared unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at -quick sizes — a dozen pages, one round,
// a bundle trained on 60 pages — through the real binaries, with the traced
// round and every output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots briq-server; skipped under -short")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var stdout, log bytes.Buffer
	ok, err := run(ctx, options{root: "..", workload: "all", seed: 1, trace: true, out: t.TempDir(), quick: true}, &stdout, &log)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}
	if !ok {
		t.Fatalf("output checks failed:\n%s", log.String())
	}

	printed := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 4 {
			printed[f[0]+" "+f[1]+" "+f[3]] = true
		}
	}
	for _, w := range spec.Workloads {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if !printed[w.Name+" "+m.Name+" "+m.Unit] {
				t.Errorf("%s: %s [%s] not printed", w.Name, m.Name, m.Unit)
			}
		}
	}

	var result resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !result.Correct || result.Failed != 0 || result.Attempted == 0 {
		t.Errorf("result: correct %v, %d of %d failed", result.Correct, result.Failed, result.Attempted)
	}
}
